"""HiGHS as a reference solver for canonical models.

HiGHS is reached through ``scipy.optimize.milp`` and shares no code with the
bundled simplex or tree search.  ``scipy.optimize`` is imported inside the
call, so only a caller that solves with HiGHS pays for that import.
"""
from __future__ import annotations

import numpy as np

from .canonical import STATUS_INFEASIBLE, STATUS_OPTIMAL, CanonicalMilp

MIP_REL_GAP = 1e-9

# scipy.optimize.milp's status codes that name one of our statuses; any
# other code, 3 (unbounded) among them, is reported as itself
_STATUS = {0: STATUS_OPTIMAL, 2: STATUS_INFEASIBLE}


def scipy_rows(milp: CanonicalMilp):
    """The rows as a sparse matrix with lower and upper activity limits,
    read from the stored triplets and senses, for solvers in scipy: each row
    is at most its right-hand side, and an = row at least it too."""
    from scipy.sparse import coo_array

    a = coo_array((milp.a_vals, (milp.a_rows, milp.a_cols)),
                  shape=(milp.n_rows, milp.n_cols)).tocsr()
    return a, np.where(milp.row_is_le(), -np.inf, milp.row_rhs), milp.row_rhs


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
