"""Independent optimum of every scenario model, from HiGHS.

Builds each scenario's model the way the pipeline does (one scenario with
probability 1) and solves it with ``scipy.optimize.milp``, which shares no
code with the bundled simplex or branch and bound.
"""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

MIP_REL_GAP = 1e-9


def _highs(milp) -> float:
    from scipy.optimize import Bounds, LinearConstraint, milp as highs_milp
    from scipy.sparse import coo_array

    a = coo_array((milp.a_vals, (milp.a_rows, milp.a_cols)),
                  shape=(milp.n_rows, milp.n_cols)).tocsr()
    sense = np.asarray(milp.row_sense)
    lo = np.where(sense == "L", -np.inf, milp.row_rhs)
    hi = np.where(sense == "G", np.inf, milp.row_rhs)
    res = highs_milp(milp.col_obj, integrality=milp.col_binary.astype(int),
                     bounds=Bounds(milp.col_lb, milp.col_ub),
                     constraints=LinearConstraint(a, lo, hi),
                     options={"mip_rel_gap": MIP_REL_GAP})
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the model: {res.message}")
    return float(res.fun)


def objectives(config: Path, mode: str) -> dict[int, float]:
    """Scenario index -> HiGHS optimum of that scenario's model."""
    from station_ems.config import load_config
    from station_ems.model import build_model
    from station_ems.pipeline import build_fleet, build_scenarios
    from station_ems.scenarios import ScenarioSet

    cfg = load_config(config)
    sessions = build_fleet(cfg, cfg.fleet.seed)
    out = {}
    for sc in build_scenarios(cfg):
        single = ScenarioSet((replace(sc, probability=1.0),))
        out[sc.index] = _highs(build_model(cfg, sessions, single, mode).milp)
    return out
