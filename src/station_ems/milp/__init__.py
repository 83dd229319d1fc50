"""Exact mixed-binary linear programming toolkit used by the optimizer."""
from .branch_bound import solve_mip
from .canonical import (
    CanonicalMilp,
    LpSolution,
    MipSolution,
    ModelBuilder,
    ROW_EQ,
    ROW_LE,
    STATUS_FAILED,
    STATUS_INFEASIBLE,
    STATUS_LIMIT,
    STATUS_OPTIMAL,
    feasibility_report,
)
from .mps import export_mps
from .simplex import solve_lp

__all__ = [
    "CanonicalMilp",
    "LpSolution",
    "MipSolution",
    "ModelBuilder",
    "ROW_EQ",
    "ROW_LE",
    "STATUS_FAILED",
    "STATUS_INFEASIBLE",
    "STATUS_LIMIT",
    "STATUS_OPTIMAL",
    "export_mps",
    "feasibility_report",
    "solve_lp",
    "solve_mip",
]
