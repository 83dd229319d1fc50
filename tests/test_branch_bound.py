"""Tree search against exhaustive enumeration, plus the branching helpers."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from station_ems.milp import branch_bound
from station_ems.milp.branch_bound import (
    _binary_moves,
    _row_rooms,
    solve_mip,
)
from station_ems.milp.canonical import (
    ROW_EQ,
    ROW_GE,
    ROW_LE,
    STATUS_INFEASIBLE,
    STATUS_LIMIT,
    STATUS_OPTIMAL,
    ModelBuilder,
    feasibility_report,
)
from station_ems.milp.simplex import solve_lp

from conftest import brute_force_mip, random_ems_instance, ref_scenario_models


def knapsack_toy(weights=(2.0, 1.0, 3.0)):
    # min -(3a + 2b + 2c)  s.t.  w . (a, b, c) <= 3, binaries
    b = ModelBuilder()
    a_ = b.add_column("a", 0.0, 1.0, -3.0, binary=True)
    b_ = b.add_column("b", 0.0, 1.0, -2.0, binary=True)
    c_ = b.add_column("c", 0.0, 1.0, -2.0, binary=True)
    b.add_row("w", ROW_LE, 3.0, list(zip((a_, b_, c_), weights)))
    return b.build()


def test_knapsack_optimum():
    milp = knapsack_toy()
    sol = solve_mip(milp)
    assert sol.status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(-5.0, abs=1e-9)
    assert sol.x[:2] == pytest.approx([1.0, 1.0], abs=1e-7)
    assert sol.gap <= 1e-6
    ref = brute_force_mip(milp)
    assert ref.objective == pytest.approx(sol.objective, abs=1e-9)


def test_pure_lp_needs_single_node():
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 4.0, 1.0)
    b.add_row("floor", ROW_GE, 1.0, [(x, 1.0)])
    sol = solve_mip(b.build())
    assert sol.status == STATUS_OPTIMAL
    assert sol.node_count == 1
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_infeasible_integer_model():
    b = ModelBuilder()
    u = b.add_column("u", 0.0, 1.0, 1.0, binary=True)
    v = b.add_column("v", 0.0, 1.0, 1.0, binary=True)
    b.add_row("sum", ROW_EQ, 1.4, [(u, 1.0), (v, 1.0)])
    sol = solve_mip(b.build())
    assert sol.status == STATUS_INFEASIBLE
    ref = brute_force_mip(b.build())
    assert ref.status == STATUS_INFEASIBLE


def test_node_limit_returns_limit_status():
    rng = np.random.default_rng(3)
    hit = False
    for _ in range(30):
        milp = random_binary_milp(rng, n_bin=8)
        sol = solve_mip(milp, max_nodes=1)
        if sol.status == "limit":
            hit = True
            assert sol.best_bound <= sol.objective + 1e-9
            break
    assert hit


def random_binary_milp(rng, n_bin=None):
    nb = int(rng.integers(2, 7)) if n_bin is None else n_bin
    nc = int(rng.integers(0, 3))
    b = ModelBuilder()
    cols = []
    for j in range(nb):
        cols.append(b.add_column(f"u{j}", 0.0, 1.0,
                                 float(rng.uniform(-3.0, 3.0)), binary=True))
    for j in range(nc):
        cols.append(b.add_column(f"x{j}", 0.0, float(rng.uniform(0.5, 2.0)),
                                 float(rng.uniform(-2.0, 2.0))))
    m = int(rng.integers(1, 4))
    for i in range(m):
        coeffs = [(c, float(rng.uniform(-2.0, 2.0))) for c in cols
                  if rng.random() < 0.8]
        if not coeffs:
            coeffs = [(cols[0], 1.0)]
        sense = str(rng.choice([ROW_LE, ROW_GE]))
        b.add_row(f"r{i}", sense, float(rng.uniform(-1.0, 3.0)), coeffs)
    return b.build()


def test_random_milps_match_brute_force():
    rng = np.random.default_rng(77)
    optimal = 0
    infeasible = 0
    for _ in range(120):
        milp = random_binary_milp(rng)
        got = solve_mip(milp)
        ref = brute_force_mip(milp)
        assert got.status == ref.status
        if ref.status == STATUS_OPTIMAL:
            optimal += 1
            scale = max(1.0, abs(ref.objective))
            assert abs(got.objective - ref.objective) / scale <= 1e-6
            report = feasibility_report(milp, got.x)
            assert report["feasible"]
            frac = np.abs(got.x[milp.binary_indices()] - np.round(
                got.x[milp.binary_indices()]))
            assert np.all(frac <= 1e-7)
        else:
            infeasible += 1
    assert optimal >= 60 and infeasible >= 5


def test_deterministic_across_repeat_solves():
    rng = np.random.default_rng(5)
    milp = random_binary_milp(rng)
    a = solve_mip(milp)
    b = solve_mip(milp)
    assert a.status == b.status
    assert a.objective == b.objective
    assert a.node_count == b.node_count
    assert a.lp_iterations == b.lp_iterations
    if a.x is not None:
        assert np.array_equal(a.x, b.x)


def test_repair_hook_candidates_are_verified():
    # the root relaxation (1, 0.5, 0) is fractional, so the hook is asked
    milp = knapsack_toy(weights=(2.0, 2.0, 3.0))

    calls = []

    def bogus_repair(x):
        calls.append(1)
        return np.array([1.0, 1.0, 1.0])   # infeasible on purpose

    sol = solve_mip(milp, repair=bogus_repair)
    assert calls
    # a lying repair hook must not corrupt the result
    assert sol.status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(brute_force_mip(milp).objective, abs=1e-9)
    assert sol.objective == pytest.approx(-3.0, abs=1e-9)


def test_brute_force_binary_cap():
    b = ModelBuilder()
    for j in range(9):
        b.add_column(f"u{j}", 0.0, 1.0, -1.0, binary=True)
    milp = b.build()
    with pytest.raises(ValueError, match="cap"):
        brute_force_mip(milp, max_binaries=8)
    sol = brute_force_mip(milp)
    assert sol.objective == pytest.approx(-9.0, abs=1e-12)


def test_warm_root_skips_the_root_resolve(monkeypatch):
    milp = ref_scenario_models("A")[0][1].milp
    root = solve_lp(milp)
    assert root.status == STATUS_OPTIMAL
    # with one node allowed, the tree's LP iterations are its root node's
    cold = solve_mip(milp, max_nodes=1)
    assert cold.lp_iterations == root.iterations

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(branch_bound, "solve_lp", counted)
    warm = solve_mip(milp, max_nodes=1, warm_root=root)
    assert cold.status == warm.status == STATUS_LIMIT
    # the root node takes the given relaxation as it is, and its iterations
    assert not calls
    assert warm.node_count == 1 and warm.lp_iterations == root.iterations
    assert warm.best_bound == pytest.approx(root.objective, rel=1e-9)


def test_row_senses_read_as_the_per_row_loop_reads_them():
    # reference: the per-row loops the sense-code arrays replaced
    rng = np.random.default_rng(5)
    for _ in range(60):
        milp = random_ems_instance(rng).milp
        x = rng.uniform(-1.0, 1.0, milp.n_cols) * rng.choice([0.0, 1.0, 1e3], milp.n_cols)
        act = milp.row_activity(x)
        resid = np.zeros(milp.n_rows)
        inc = np.full(milp.n_rows, np.inf)
        dec = np.full(milp.n_rows, np.inf)
        for i, sense in enumerate(milp.row_sense):
            gap = act[i] - milp.row_rhs[i]
            if sense == ROW_LE:
                resid[i] = gap
                inc[i] = max(-gap, 0.0)
            elif sense == ROW_GE:
                resid[i] = -gap
                dec[i] = max(gap, 0.0)
            else:
                resid[i] = abs(gap)
                inc[i] = dec[i] = 0.0
        worst = float(np.max(resid / (1.0 + np.abs(milp.row_rhs)), initial=0.0))
        assert feasibility_report(milp, x)["max_row_violation"] == worst
        got_inc, got_dec = _row_rooms(milp, act)
        assert np.array_equal(got_inc, inc) and np.array_equal(got_dec, dec)


def binary_moves_loop(milp, x, bin_idx):
    """Reference: the per-entry loop the vectorized pass replaced."""
    indptr, rows, vals = milp.columns_csc()
    inc_room, dec_room = _row_rooms(milp, milp.row_activity(x))
    up_ok = np.zeros(len(bin_idx), dtype=bool)
    dn_ok = np.zeros(len(bin_idx), dtype=bool)
    for k, j in enumerate(bin_idx):
        du = dd = np.inf
        for p in range(indptr[j], indptr[j + 1]):
            i, a = rows[p], vals[p]
            if a > 0.0:
                du = min(du, inc_room[i] / a)
                dd = min(dd, dec_room[i] / a)
            elif a < 0.0:
                du = min(du, dec_room[i] / -a)
                dd = min(dd, inc_room[i] / -a)
        up_ok[k] = du >= (1.0 - x[j]) - 1e-9
        dn_ok[k] = dd >= x[j] - 1e-9
    return up_ok, dn_ok


def test_binary_moves_read_as_the_per_entry_loop_reads_them():
    rng = np.random.default_rng(11)
    for trial in range(80):
        if trial % 2:
            milp = random_ems_instance(rng).milp
        else:
            milp = random_binary_milp(rng)
        if trial % 3 == 0:
            # stored zero coefficients are skipped, as the loop skips them
            vals = np.where(rng.random(len(milp.a_vals)) < 0.3, 0.0, milp.a_vals)
            milp = dataclasses.replace(milp, a_vals=vals)
        bin_idx = milp.binary_indices()
        x = rng.uniform(0.0, 1.0, milp.n_cols) * rng.choice([0.0, 1.0, 1e3],
                                                             milp.n_cols)
        x[bin_idx] = rng.choice([0.0, 0.5, 1.0, rng.uniform()], len(bin_idx))
        got_up, got_dn = _binary_moves(milp, x, bin_idx)
        ref_up, ref_dn = binary_moves_loop(milp, x, bin_idx)
        assert np.array_equal(got_up, ref_up) and np.array_equal(got_dn, ref_dn)
