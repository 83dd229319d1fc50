"""HiGHS as a reference solver for canonical models.

HiGHS is reached through ``scipy.optimize.milp`` and shares no code with the
bundled simplex or tree search.  ``scipy.optimize`` is imported inside the
call, so only a caller that solves with HiGHS pays for that import.
"""
from __future__ import annotations

import numpy as np

from .canonical import (
    ROW_GE,
    ROW_LE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    CanonicalMilp,
)

MIP_REL_GAP = 1e-9

# scipy.optimize.milp's status codes that name one of our statuses; any
# other code is reported as itself
_STATUS = {0: STATUS_OPTIMAL, 2: STATUS_INFEASIBLE, 3: STATUS_UNBOUNDED}


def scipy_rows(milp: CanonicalMilp):
    """The rows as a sparse matrix with lower and upper activity limits,
    read from the stored triplets and senses, for solvers in scipy."""
    from scipy.sparse import coo_array

    a = coo_array((milp.a_vals, (milp.a_rows, milp.a_cols)),
                  shape=(milp.n_rows, milp.n_cols)).tocsr()
    sense = np.asarray(milp.row_sense)
    lo = np.where(sense == ROW_LE, -np.inf, milp.row_rhs)
    hi = np.where(sense == ROW_GE, np.inf, milp.row_rhs)
    return a, lo, hi


def highs_solve(milp: CanonicalMilp) -> tuple[str, float | None]:
    """(status, objective) of ``milp`` solved by HiGHS to a relative gap of
    ``MIP_REL_GAP``; the objective is None unless the status is optimal."""
    from scipy.optimize import Bounds, LinearConstraint, milp as highs_milp

    a, lo, hi = scipy_rows(milp)
    res = highs_milp(milp.col_obj, integrality=milp.col_binary.astype(int),
                     bounds=Bounds(milp.col_lb, milp.col_ub),
                     constraints=LinearConstraint(a, lo, hi),
                     options={"mip_rel_gap": MIP_REL_GAP})
    status = _STATUS.get(res.status, f"HiGHS status {res.status}: {res.message}")
    return status, float(res.fun) if status == STATUS_OPTIMAL else None
