"""Branch and bound for mixed-binary programs.

Best-bound search over binary fixings.  A popped node is solved lazily (its
heap key is the parent's bound, which never overestimates the child) from
its parent's optimal solution: its basis, its nonbasic bounds and the
factors of that basis, which the first child to start makes and keeps on
the parent's solution and the second reuses.  Fixing one binary leaves
that basis dual feasible and, as the binary was fractional, primal
infeasible, so the simplex re-solves the child with its dual simplex and
hands the basis to its primal phases only to certify the optimum or
declare infeasibility.
Branching picks the binary closest to one half, lowest column index on
ties.  An optional repair callback may turn any fractional relaxation
point into a feasible incumbent; without it, incumbents come only from
relaxations that are integral.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .canonical import (
    INTEGRALITY_TOL,
    CanonicalMilp,
    LpSolution,
    MipSolution,
    STATUS_FAILED,
    STATUS_INFEASIBLE,
    STATUS_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    feasibility_report,
)
from .simplex import solve_lp

RepairFn = Callable[[np.ndarray], np.ndarray | None]

_REL_GAP = 1e-6  # the search ends once the incumbent is this close to the bound
_IMPROVE_TOL = 1e-12
_MOVE_TOL = 1e-9


def _row_rooms(milp: CanonicalMilp, act: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: how much its activity may rise or fall from ``act``."""
    code = milp.row_sense_codes()
    inc = np.where(code > 0, np.maximum(milp.row_rhs - act, 0.0),
                   np.where(code < 0, np.inf, 0.0))
    dec = np.where(code < 0, np.maximum(act - milp.row_rhs, 0.0),
                   np.where(code > 0, np.inf, 0.0))
    return inc, dec


def _binary_moves(milp: CanonicalMilp, x: np.ndarray, bin_idx: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Which fractional binaries could reach 1 (or 0) on their own.

    A move holds every other variable fixed, so a binary that can reach a
    bound this way is harmless to round, while one pinned from both sides is
    a genuine conflict worth branching on.
    """
    indptr, rows, vals = milp.columns_csc()
    inc_room, dec_room = _row_rooms(milp, milp.row_activity(x))
    # the binary slot (or -1) of every stored entry, zero coefficients dropped
    slot = np.full(milp.n_cols, -1, dtype=np.int64)
    slot[bin_idx] = np.arange(len(bin_idx))
    owner = slot[np.repeat(np.arange(milp.n_cols), np.diff(indptr))]
    keep = (owner >= 0) & (vals != 0.0)
    owner, r, a = owner[keep], rows[keep], vals[keep]
    up = a > 0.0
    mag = np.abs(a)
    du = np.full(len(bin_idx), np.inf)
    dd = np.full(len(bin_idx), np.inf)
    np.minimum.at(du, owner, np.where(up, inc_room[r], dec_room[r]) / mag)
    np.minimum.at(dd, owner, np.where(up, dec_room[r], inc_room[r]) / mag)
    xb = x[bin_idx]
    return du >= (1.0 - xb) - _MOVE_TOL, dd >= xb - _MOVE_TOL


@dataclass(order=True)
class _Node:
    bound_key: float
    node_id: int
    lb: np.ndarray = field(compare=False)
    ub: np.ndarray = field(compare=False)
    warm: LpSolution | None = field(compare=False, default=None)


def solve_mip(milp: CanonicalMilp, *,
              max_nodes: int = 200_000,
              repair: RepairFn | None = None,
              warm_root: LpSolution | None = None) -> MipSolution:
    """Solve a mixed-binary minimisation to a relative gap of ``_REL_GAP``.

    ``repair`` is called on fractional relaxation points and may return a
    candidate or None; every candidate is verified before it is trusted.
    ``warm_root`` is the relaxation of this model at its own bounds, already
    solved elsewhere: the root node takes it as its relaxation instead of
    solving the root LP again, and its iterations count as the root's.
    """
    bin_idx = np.flatnonzero(milp.col_binary)

    incumbent: np.ndarray | None = None
    inc_obj = np.inf
    heap: list[_Node] = [_Node(-np.inf, 0, milp.col_lb.copy(), milp.col_ub.copy())]
    next_id = 1
    nodes_solved = 0
    lp_iterations = warm_root.iterations if warm_root is not None else 0
    last_lp_status = ""
    closed_low = np.inf  # tightest bound among subtrees closed by the gap rule

    def allowed_gap(obj: float) -> float:
        return _REL_GAP * max(1.0, abs(obj))

    def finish(status: str, bound: float) -> MipSolution:
        bound = min(bound, closed_low)
        if incumbent is None:
            return MipSolution(status, None, np.inf, bound, np.inf,
                               nodes_solved, lp_iterations, last_lp_status)
        bound = min(bound, inc_obj)
        gap = max(0.0, inc_obj - bound) / max(1.0, abs(inc_obj))
        return MipSolution(status, incumbent, inc_obj, bound, gap,
                           nodes_solved, lp_iterations, last_lp_status)

    def offer(cand: np.ndarray) -> float | None:
        """Admit a candidate if it verifies; returns its objective if feasible."""
        nonlocal incumbent, inc_obj
        if not feasibility_report(milp, cand)["feasible"]:
            return None
        obj = milp.objective_value(cand)
        if obj < inc_obj - _IMPROVE_TOL:
            incumbent = cand.copy()
            inc_obj = obj
        return obj

    while heap:
        node = heapq.heappop(heap)
        remaining_low = heap[0].bound_key if heap else np.inf
        if incumbent is not None and node.bound_key >= inc_obj - allowed_gap(inc_obj):
            return finish(STATUS_OPTIMAL, min(node.bound_key, remaining_low, inc_obj))

        if nodes_solved >= max_nodes:
            return finish(STATUS_LIMIT, min(node.bound_key, remaining_low))
        nodes_solved += 1

        if node.node_id == 0 and warm_root is not None:
            sol = warm_root
        else:
            sol = solve_lp(milp, node.lb, node.ub, warm=node.warm)
            lp_iterations += sol.iterations
        last_lp_status = sol.status

        if sol.status == STATUS_UNBOUNDED:
            return MipSolution(STATUS_UNBOUNDED, None, -np.inf, -np.inf,
                               np.inf, nodes_solved, lp_iterations, last_lp_status)
        if sol.status == STATUS_FAILED or sol.status == STATUS_LIMIT:
            return finish(STATUS_FAILED, min(node.bound_key, remaining_low))
        if sol.status != STATUS_OPTIMAL:
            continue  # infeasible subtree

        bound = sol.objective
        if incumbent is not None and bound >= inc_obj - allowed_gap(inc_obj):
            closed_low = min(closed_low, bound)
            continue

        frac = np.abs(sol.x[bin_idx] - np.round(sol.x[bin_idx])) if len(bin_idx) else np.empty(0)
        if not len(frac) or frac.max() <= INTEGRALITY_TOL:
            snapped = sol.x.copy()
            if len(bin_idx):
                snapped[bin_idx] = np.round(snapped[bin_idx])
            got = offer(snapped)
            if got is None:
                got = offer(sol.x)
            lower = min(remaining_low, inc_obj)
            if incumbent is not None and inc_obj - lower <= allowed_gap(inc_obj):
                return finish(STATUS_OPTIMAL, lower)
            if got is not None:
                closed_low = min(closed_low, bound)
            continue

        # a repaired point matching this node's own bound settles the whole
        # subtree, whatever the global gap still is
        cand = repair(sol.x) if repair is not None else None
        cand_obj = offer(np.asarray(cand, dtype=float)) if cand is not None else None
        if incumbent is not None:
            lower = min(bound, remaining_low)
            if inc_obj - lower <= allowed_gap(inc_obj):
                return finish(STATUS_OPTIMAL, lower)
        if cand_obj is not None and cand_obj - bound <= allowed_gap(bound):
            closed_low = min(closed_low, bound)
            continue

        is_frac = frac > INTEGRALITY_TOL
        up_ok, dn_ok = _binary_moves(milp, sol.x, bin_idx)
        stuck = is_frac & ~up_ok & ~dn_ok
        pool = stuck if stuck.any() else is_frac
        scores = np.where(pool, np.abs(sol.x[bin_idx] - 0.5), np.inf)
        branch_col = int(bin_idx[int(np.argmin(scores))])

        for fix in (0.0, 1.0):
            child_lb = node.lb.copy()
            child_ub = node.ub.copy()
            child_lb[branch_col] = fix
            child_ub[branch_col] = fix
            heapq.heappush(heap, _Node(bound, next_id, child_lb, child_ub,
                                       warm=sol))
            next_id += 1

    if incumbent is not None:
        return finish(STATUS_OPTIMAL, inc_obj)
    return MipSolution(STATUS_INFEASIBLE, None, np.inf, np.inf, np.inf,
                       nodes_solved, lp_iterations, last_lp_status)

