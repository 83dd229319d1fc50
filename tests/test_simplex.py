"""Bounded-variable simplex: known optima, statuses, and randomized checks."""
from __future__ import annotations

import numpy as np
import pytest

from station_ems.milp.canonical import (
    ROW_EQ,
    ROW_GE,
    ROW_LE,
    STATUS_INFEASIBLE,
    STATUS_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    ModelBuilder,
    feasibility_report,
)
from station_ems.milp import simplex
from station_ems.milp.branch_bound import solve_mip
from station_ems.milp.highs import scipy_rows
from station_ems.milp.simplex import solve_lp

from conftest import (
    lp_vertex_oracle,
    random_ems_instance,
    ref_scenario_models,
)


def two_var_toy():
    # min -x - y  s.t.  x + y <= 1.5, x,y in [0,1]
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 1.0, -1.0)
    y = b.add_column("y", 0.0, 1.0, -1.0)
    b.add_row("cap", ROW_LE, 1.5, [(x, 1.0), (y, 1.0)])
    return b.build()


def test_toy_optimum():
    sol = solve_lp(two_var_toy())
    assert sol.status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(-1.5, abs=1e-9)
    assert sol.x.sum() == pytest.approx(1.5, abs=1e-9)


def test_ge_row_pushes_variable_up():
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 10.0, 1.0)
    b.add_row("floor", ROW_GE, 3.0, [(x, 1.0)])
    sol = solve_lp(b.build())
    assert sol.status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_equality_row():
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 5.0, 2.0)
    y = b.add_column("y", 0.0, 5.0, 1.0)
    b.add_row("bal", ROW_EQ, 4.0, [(x, 1.0), (y, 1.0)])
    sol = solve_lp(b.build())
    assert sol.status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(4.0, abs=1e-9)
    assert sol.x[1] == pytest.approx(4.0, abs=1e-9)


def test_detects_infeasible():
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 1.0, 1.0)
    b.add_row("impossible", ROW_GE, 2.0, [(x, 1.0)])
    sol = solve_lp(b.build())
    assert sol.status == STATUS_INFEASIBLE


def test_detects_unbounded():
    b = ModelBuilder()
    x = b.add_column("x", 0.0, np.inf, -1.0)
    b.add_row("slack", ROW_GE, 0.0, [(x, 1.0)])
    sol = solve_lp(b.build())
    assert sol.status == STATUS_UNBOUNDED


def test_nonzero_lower_bounds_respected():
    b = ModelBuilder()
    x = b.add_column("x", 2.0, 8.0, 1.0)
    y = b.add_column("y", 1.0, 8.0, 1.0)
    b.add_row("mix", ROW_LE, 20.0, [(x, 2.0), (y, 1.0)])
    sol = solve_lp(b.build())
    assert sol.status == STATUS_OPTIMAL
    assert sol.x == pytest.approx([2.0, 1.0], abs=1e-9)


def test_bound_override_fixes_variables():
    milp = two_var_toy()
    lb = milp.col_lb.copy()
    ub = milp.col_ub.copy()
    lb[0] = ub[0] = 0.25
    sol = solve_lp(milp, lb, ub)
    assert sol.status == STATUS_OPTIMAL
    assert sol.x[0] == pytest.approx(0.25, abs=1e-12)
    assert sol.objective == pytest.approx(-1.25, abs=1e-9)


def test_warm_start_reaches_same_optimum():
    milp = two_var_toy()
    cold = solve_lp(milp)
    warm = solve_lp(milp, warm=cold)
    assert warm.status == STATUS_OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
    assert warm.iterations <= cold.iterations


def test_iterations_count_pivots_and_bound_flips():
    # x at its lower bound with a positive cost: the slack start is optimal
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 4.0, 1.0)
    b.add_row("cap", ROW_LE, 5.0, [(x, 1.0)])
    assert solve_lp(b.build()).iterations == 0
    # a re-solve from its own optimal basis moves nothing either
    milp = two_var_toy()
    cold = solve_lp(milp)
    warm = solve_lp(milp, warm=cold)
    assert cold.iterations > 0 and warm.iterations == 0
    # without rows, a column with a negative cost takes one bound flip
    b = ModelBuilder()
    b.add_column("y", 0.0, 1.0, -1.0)
    flipped = solve_lp(b.build())
    assert flipped.x.tolist() == [1.0] and flipped.iterations == 1


def boxed_columns(with_row: bool, free_cost: float):
    # x in [0, 2] and y in [-1, 3] settle at (2, -1); z is free
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 2.0, -1.0)
    b.add_column("y", -1.0, 3.0, 1.0)
    b.add_column("z", -np.inf, np.inf, free_cost)
    if with_row:
        b.add_row("slack", ROW_LE, 10.0, [(x, 1.0)])
    return b.build()


@pytest.mark.parametrize("with_row", [False, True], ids=["no rows", "one slack row"])
@pytest.mark.parametrize("case, status", [
    ("bounded", STATUS_OPTIMAL),
    ("free column with a cost", STATUS_UNBOUNDED),
    ("crossed bounds", STATUS_INFEASIBLE),
])
def test_rows_do_not_change_the_status(with_row, case, status):
    milp = boxed_columns(with_row, 1.0 if case == "free column with a cost" else 0.0)
    lb, ub = milp.col_lb.copy(), milp.col_ub.copy()
    if case == "crossed bounds":
        lb[0], ub[0] = 2.0, 1.0
    sol = solve_lp(milp, lb, ub)
    assert sol.status == status
    if status == STATUS_OPTIMAL:
        assert sol.x == pytest.approx([2.0, -1.0, 0.0], abs=1e-12)
        assert sol.objective == pytest.approx(-3.0, abs=1e-12)


@pytest.mark.parametrize("terms", [[], [(0, 0.0)]], ids=["no terms", "a zero term"])
def test_a_row_that_stores_no_coefficient(terms):
    # r: 0 >= -1 holds for every x; the builder drops the zero coefficient
    b = ModelBuilder()
    b.add_column("x", 0.0, 1.0, -1.0, binary=True)
    b.add_row("r", ROW_GE, -1.0, terms)
    milp = b.build()
    assert len(milp.a_vals) == 0
    lp = solve_lp(milp)
    assert lp.status == STATUS_OPTIMAL
    assert lp.x == pytest.approx([1.0], abs=1e-12)
    mip = solve_mip(milp)
    assert mip.status == STATUS_OPTIMAL
    assert mip.objective == pytest.approx(-1.0, abs=1e-12)


def random_boxed_lp(rng):
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 4))
    b = ModelBuilder()
    for j in range(n):
        lo = float(rng.uniform(-1.0, 0.5))
        b.add_column(f"x{j}", lo, lo + float(rng.uniform(0.2, 2.5)),
                     float(rng.uniform(-2.0, 2.0)))
    for i in range(m):
        cols = [(j, float(rng.uniform(-2.0, 2.0))) for j in range(n)
                if rng.random() < 0.8]
        if not cols:
            cols = [(0, 1.0)]
        sense = str(rng.choice([ROW_LE, ROW_GE, ROW_EQ]))
        b.add_row(f"r{i}", sense, float(rng.uniform(-1.5, 1.5)), cols)
    return b.build()


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(2024)
    optimal = 0
    infeasible = 0
    for _ in range(150):
        milp = random_boxed_lp(rng)
        sol = solve_lp(milp)
        ref_status, ref_obj = lp_vertex_oracle(milp)
        assert sol.status == ref_status, \
            f"status {sol.status} vs oracle {ref_status}"
        if ref_status == STATUS_OPTIMAL:
            optimal += 1
            scale = max(1.0, abs(ref_obj))
            assert abs(sol.objective - ref_obj) / scale <= 1e-7
            report = feasibility_report(milp, sol.x)
            assert report["feasible"]
        else:
            infeasible += 1
    # the generator must exercise both outcomes
    assert optimal >= 30 and infeasible >= 10


def test_solution_satisfies_rows_tightly():
    rng = np.random.default_rng(7)
    for _ in range(50):
        milp = random_boxed_lp(rng)
        sol = solve_lp(milp)
        if sol.status != STATUS_OPTIMAL:
            continue
        act = milp.row_activity(sol.x)
        for i, sense in enumerate(milp.row_sense):
            if sense == ROW_EQ:
                assert abs(act[i] - milp.row_rhs[i]) <= 1e-7
            elif sense == ROW_LE:
                assert act[i] <= milp.row_rhs[i] + 1e-7
            else:
                assert act[i] >= milp.row_rhs[i] - 1e-7
        assert np.all(sol.x >= milp.col_lb - 1e-9)
        assert np.all(sol.x <= milp.col_ub + 1e-9)


def test_iteration_limit_reports_limit_status():
    rng = np.random.default_rng(11)
    hit = False
    for _ in range(40):
        milp = random_boxed_lp(rng)
        sol = solve_lp(milp, max_iterations=1)
        if sol.status == "limit":
            hit = True
            break
    assert hit


def proportional_columns_lp():
    # min -x - 2y + z; y's column is twice x's, so no basis holds both
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 4.0, -1.0)
    y = b.add_column("y", 0.0, 4.0, -2.0)
    z = b.add_column("z", 0.0, 4.0, 1.0)
    b.add_row("cap", ROW_LE, 6.0, [(x, 1.0), (y, 2.0), (z, 1.0)])
    b.add_row("floor", ROW_GE, -1.0, [(x, 1.0), (y, 2.0), (z, -1.0)])
    return b.build()


@pytest.mark.parametrize("basis", [[0, 0], [0, 1]], ids=["repeated", "dependent"])
def test_singular_warm_basis_falls_back_to_cold_start(basis):
    milp = proportional_columns_lp()
    cold = solve_lp(milp)
    assert cold.status == STATUS_OPTIMAL
    assert cold.objective == pytest.approx(-6.0, abs=1e-12)
    warm = solve_lp(milp, warm=np.array(basis))
    assert warm.status == STATUS_OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
    # the cold start is deterministic, so a fallback retraces its path
    assert warm.iterations == cold.iterations


@pytest.mark.parametrize("basis", [[0, 0], [0, 1]], ids=["repeated", "dependent"])
def test_a_singular_basis_is_refused_by_the_factorization(basis):
    milp = proportional_columns_lp()
    with pytest.raises(RuntimeError):
        simplex._factorize(*milp.columns_csc_with_slacks(), np.array(basis))
    # so the start refuses it and the solve falls back to the slack basis
    assert not simplex._Simplex(milp, None, None, None)._start(
        np.array(basis), None)


def test_factors_of_every_reference_basis_solve_accurately(ref_config_path,
                                                           monkeypatch):
    from scipy.sparse import csc_matrix
    from station_ems.pipeline import run_pipeline

    bases = []
    original = simplex._factorize

    def spied(indptr, row_idx, col_vals, basis):
        lu = original(indptr, row_idx, col_vals, basis)
        m = len(basis)
        full = csc_matrix((col_vals, row_idx, indptr), shape=(m, len(indptr) - 1))
        bases.append((full[:, basis], lu))
        return lu

    monkeypatch.setattr(simplex, "_factorize", spied)
    run_pipeline(ref_config_path, mode="A")
    assert len(bases) >= 10
    rng = np.random.default_rng(5)
    for i, (b_mat, lu) in enumerate(bases):
        for rhs in (rng.standard_normal(b_mat.shape[0]),
                    1e3 * rng.standard_normal(b_mat.shape[0])):
            tol = 1e-10 * (1.0 + np.abs(rhs).max())
            x = lu.solve(rhs)
            assert np.abs(b_mat @ x - rhs).max() <= tol, i
            y = lu.solve(rhs, trans="T")
            assert np.abs(b_mat.T @ y - rhs).max() <= tol, i


def usable_case_lp():
    # three columns and two rows; any two distinct columns of [A | I] here
    # are independent except x and y, so _usable's answer is all that counts
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 4.0, -1.0)
    y = b.add_column("y", 0.0, 4.0, -1.0)
    z = b.add_column("z", 0.0, 4.0, 1.0)
    b.add_row("cap", ROW_LE, 6.0, [(x, 1.0), (y, 1.0), (z, 1.0)])
    b.add_row("floor", ROW_GE, 1.0, [(x, 1.0), (z, -1.0)])
    return b.build()


@pytest.mark.parametrize("basis, usable", [
    ([3], False),              # one column short
    ([3, 4, 0], False),        # one column too many
    ([2, 2], False),           # a repeated column
    ([-1, 3], False),          # a negative index
    ([0, 5], False),           # index n + m, past the last slack
    ([3, 4], True),            # the slack basis
    ([0, 4], True),            # a crash basis: x in the cap row
    ([4, 3], True),            # the slacks out of order
], ids=["short", "long", "repeated", "negative", "n+m", "slack", "crash",
        "permuted"])
def test_usable_refuses_exactly_the_malformed_bases(basis, usable):
    milp = usable_case_lp()
    n, m = milp.n_cols, milp.n_rows
    assert simplex._usable(np.array(basis, dtype=np.int64), n, m) is usable


def test_eligible_columns_follow_the_rule_for_each_state():
    rng = np.random.default_rng(3)
    b = ModelBuilder()
    for j in range(12):
        b.add_column(f"c{j}", 0.0, 1.0, 0.0)
    b.add_row("r", ROW_LE, 1.0, [(0, 1.0)])
    s = simplex._Simplex(b.build(), None, None, None)
    tol = 1e-9
    for _ in range(300):
        total = len(s.lb)
        s.lb = rng.choice([-np.inf, 0.0, 1.0], total)
        s.ub = np.where(rng.random(total) < 0.3, np.inf, s.lb + rng.choice([0.0, 1.0], total))
        s.movable = ~(s.lb >= s.ub)
        s._place_nonbasics(rng.random(total) < 0.5)
        s.state[rng.random(total) < 0.3] = simplex._BASIC
        d = rng.choice([0.0, tol, -tol, 2 * tol, -2 * tol, 1.0, -1.0], total)
        state = s.state
        want = (((state == simplex._NB_LB) & s.movable & (d < -tol))
                | ((state == simplex._NB_UB) & s.movable & (d > tol))
                | ((state == simplex._NB_FREE) & (np.abs(d) > tol)))
        assert s._eligible(d, tol).tolist() == np.flatnonzero(want).tolist()


def full_row_ratio_test(s, q, sigma, w, phase_one, bland):
    """The primal ratio test scanning every row of ``s``, as a reference;
    also returns how many rows tie for the least ratio."""
    basis = s.basis
    xB, lbB, ubB = s.x[basis], s.lb[basis], s.ub[basis]
    rho = -sigma * w
    rising = rho > simplex._TOL_PIVOT
    falling = rho < -simplex._TOL_PIVOT
    above = xB > ubB + simplex._TOL_BOUND
    below = xB < lbB - simplex._TOL_BOUND
    hits_ub = np.where(rising, ~below, above)
    blocks = rising | falling
    if phase_one:
        blocks &= ~((rising & above) | (falling & below))
    ratios = np.full(s.m, np.inf)
    for i in np.flatnonzero(blocks):
        ratios[i] = ((ubB[i] if hits_ub[i] else lbB[i]) - xB[i]) / rho[i]
    ratios = np.maximum(ratios, 0.0)
    if s.state[q] == simplex._NB_FREE:
        own = np.inf
    else:
        own = s.ub[q] - s.lb[q]
    best_row = ratios.min(initial=np.inf)
    step = min(best_row, own)
    if not np.isfinite(step):
        return (None, None, False, False), 0
    if own < best_row - 1e-12:
        return (own, None, True, False), 0
    cand = [i for i in range(s.m) if ratios[i] <= best_row + 1e-12 * (1.0 + best_row)]
    if bland:
        k = min(cand, key=lambda i: basis[i])
    else:
        k = max(cand, key=lambda i: abs(rho[i]))  # first of the largest
    return (float(ratios[k]), k, False, bool(hits_ub[k])), len(cand)


def ratio_test_case(rng, m=10, n=6):
    """A solver positioned at a random basis with tied ratios, strays beyond
    both bounds and entries of ``w`` that are zero or below the pivot
    tolerance; returns it with an entering column and its ``w``."""
    b = ModelBuilder()
    for j in range(n):
        b.add_column(f"c{j}", 0.0, 1.0, 0.0)
    for i in range(m):
        b.add_row(f"r{i}", ROW_LE, 1.0, [(i % n, 1.0)])
    s = simplex._Simplex(b.build(), None, None, None)
    total = n + m
    s.lb = rng.choice([-np.inf, -1.0, 0.0], total)
    lo = np.where(np.isfinite(s.lb), s.lb, -2.0)
    s.ub = lo + rng.choice([0.5, 1.0, 2.0, np.inf], total)
    s.basis = rng.permutation(total)[:m].astype(np.int64)
    s.state = np.full(total, simplex._NB_LB, dtype=np.int8)
    s.state[s.basis] = simplex._BASIC
    s.x = lo + rng.choice([0.0, 0.5, 1.0], total)  # on a bound, inside or a stray
    s.x[rng.random(total) < 0.2] -= 0.75  # strays below
    nonbasic = np.setdiff1d(np.arange(total), s.basis)
    q = int(rng.choice(nonbasic))
    s.state[q] = rng.choice([simplex._NB_LB, simplex._NB_UB, simplex._NB_FREE])
    if rng.random() < 0.3:
        s.ub[q] = lo[q] + 0.25  # a short range: the column may flip
    if rng.random() < 0.15:  # no row blocks
        w = rng.choice([0.0, 0.5e-9, -0.5e-9], m)
    else:
        w = rng.choice([0.0, 0.0, 0.5e-9, -0.5e-9, 0.5, -0.5, 1.0, -1.0, 2.0], m)
    return s, q, w


def test_touched_rows_ratio_test_matches_a_scan_of_every_row():
    rng = np.random.default_rng(11)
    seen = {"flip": 0, "unbounded": 0, "tie": 0, "pivot": 0,
            "stray": 0, "bland": 0}
    for _ in range(1500):
        s, q, w = ratio_test_case(rng)
        sigma = float(rng.choice([1.0, -1.0]))
        phase_one, bland = bool(rng.integers(2)), bool(rng.integers(2))
        want, tied = full_row_ratio_test(s, q, sigma, w.copy(), phase_one, bland)
        got = s._ratio_test(q, sigma, w.copy(), phase_one, bland)
        assert type(got[1]) is type(want[1])
        assert got == want, (got, want)
        xB = s.x[s.basis]
        strays = (xB > s.ub[s.basis]) | (xB < s.lb[s.basis])
        seen["flip"] += want[2]
        seen["unbounded"] += want[0] is None
        seen["tie"] += tied > 1
        seen["pivot"] += want[1] is not None
        seen["stray"] += bool(np.any(strays & (np.abs(w) > simplex._TOL_PIVOT)))
        seen["bland"] += bland and tied > 1
    # every branch of the test is taken many times
    assert min(seen.values()) >= 40, seen


def test_refactorization_path_matches_linprog(monkeypatch):
    refactors = []
    original = simplex._Simplex._refactor

    def counted(self):
        refactors.append(self.iterations)
        return original(self)

    monkeypatch.setattr(simplex._Simplex, "_refactor", counted)
    milp = ref_scenario_models("A")[0][1].milp
    sol = solve_lp(milp)
    assert sol.status == STATUS_OPTIMAL
    # a cold root of a reference scenario runs through several eta files
    assert sol.iterations >= 4 * simplex._REFACTOR_EVERY
    assert len(refactors) >= 4
    assert feasibility_report(milp, sol.x)["rows_ok"]

    ref = linprog_reference(milp)
    assert ref.status == 0, ref.message
    assert abs(sol.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))


def linprog_reference(milp, lb=None, ub=None):
    """HiGHS through ``scipy.optimize.linprog`` on the LP relaxation, with
    the column bounds ``lb``/``ub`` in place of the stored ones."""
    optimize = pytest.importorskip("scipy.optimize")
    from scipy.sparse import vstack

    lb = milp.col_lb if lb is None else lb
    ub = milp.col_ub if ub is None else ub
    a, lo, hi = scipy_rows(milp)
    eq = lo == hi
    le = np.flatnonzero(np.isfinite(hi) & ~eq)
    ge = np.flatnonzero(np.isfinite(lo) & ~eq)
    eq = np.flatnonzero(eq)
    return optimize.linprog(milp.col_obj,
                            A_ub=vstack([a[le], -a[ge]]),
                            b_ub=np.concatenate([hi[le], -lo[ge]]),
                            A_eq=a[eq], b_eq=hi[eq],
                            bounds=np.column_stack([lb, ub]),
                            method="highs")


@pytest.fixture
def dual_runs(monkeypatch):
    """Every dual simplex run of the test, in order: what it returned, its
    pivots, and whether it left the basis primal feasible."""
    runs = []
    original = simplex._Simplex._dual

    def spied(self, d):
        before = self.iterations
        status = original(self, d)
        runs.append((status, self.iterations - before,
                     not self._phase1_costs().any()))
        return status

    monkeypatch.setattr(simplex._Simplex, "_dual", spied)
    return runs


def fractional_children(milp, root):
    """(column, lb, ub) of each child of ``root``: every binary fractional
    at the root, fixed to 0 and then to 1."""
    bins = np.flatnonzero(milp.col_binary)
    frac = bins[np.abs(root.x[bins] - np.round(root.x[bins])) > 1e-6]
    for j in frac:
        for fix in (0.0, 1.0):
            lb, ub = milp.col_lb.copy(), milp.col_ub.copy()
            lb[j] = ub[j] = fix
            yield int(j), lb, ub


def solve_child(milp, root, lb, ub, **kw):
    return solve_lp(milp, lb, ub, warm=root, **kw)


def generated_models():
    rng = np.random.default_rng(20240819)
    return [random_ems_instance(rng).milp for _ in range(40)]


def reference_models():
    # scenario 0 in mode A and scenario 1 in mode C: cold solves of the
    # children of all eight would take about 20 s
    return [dict(ref_scenario_models("A"))[0].milp,
            dict(ref_scenario_models("C"))[1].milp]


@pytest.mark.parametrize("models", [generated_models, reference_models],
                         ids=["generated", "reference A and C"])
def test_dual_children_match_the_primal_and_linprog(models, dual_runs):
    children = 0
    for k, milp in enumerate(models()):
        root = solve_lp(milp)
        assert root.status == STATUS_OPTIMAL
        for j, lb, ub in fractional_children(milp, root):
            ran = len(dual_runs)
            warm = solve_child(milp, root, lb, ub)
            # the parent's basis stays dual feasible, so the dual runs, and
            # its pivots alone reach a primal feasible basis
            assert len(dual_runs) == ran + 1, (k, j)
            status, pivots, feasible = dual_runs[-1]
            assert status is None and feasible, (k, j)
            assert 1 <= pivots == warm.iterations, (k, j)
            # the slack start is not dual feasible, so this solve takes the
            # primal path
            cold = solve_lp(milp, lb, ub)
            assert len(dual_runs) == ran + 1, (k, j)
            ref = linprog_reference(milp, lb, ub)
            assert warm.status == cold.status == STATUS_OPTIMAL, (k, j)
            assert ref.status == 0, (k, j, ref.message)
            for got in (warm.objective, cold.objective):
                assert abs(got - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun)), (k, j)
            assert abs(warm.objective - cold.objective) <= \
                1e-9 * max(1.0, abs(cold.objective)), (k, j)
            assert feasibility_report(milp, warm.x)["rows_ok"], (k, j)
            assert np.all((warm.x >= lb - 1e-9) & (warm.x <= ub + 1e-9)), (k, j)
            children += 1
    assert children >= 30


def switched_floor_mip():
    # min z with x <= 10 z and x >= 5: the root takes z = 0.5, and z = 0
    # leaves x no room
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 10.0, 0.0)
    z = b.add_column("z", 0.0, 1.0, 1.0, binary=True)
    b.add_row("switch", ROW_LE, 0.0, [(x, 1.0), (z, -10.0)])
    b.add_row("floor", ROW_GE, 5.0, [(x, 1.0)])
    return b.build()


def test_an_infeasible_child_is_declared_by_phase_one(dual_runs):
    milp = switched_floor_mip()
    root = solve_lp(milp)
    assert root.status == STATUS_OPTIMAL
    assert root.x == pytest.approx([5.0, 0.5], abs=1e-12)
    dual_runs.clear()
    lb, ub = milp.col_lb.copy(), milp.col_ub.copy()
    lb[1] = ub[1] = 0.0
    sol = solve_child(milp, root, lb, ub)
    # the dual ran and handed over an infeasible basis without a verdict
    assert len(dual_runs) == 1
    assert dual_runs[0][0] is None and not dual_runs[0][2]
    assert sol.status == STATUS_INFEASIBLE
    assert linprog_reference(milp, lb, ub).status == 2  # infeasible
    # z = 1 is feasible, from the same basis
    lb[1] = ub[1] = 1.0
    sol = solve_child(milp, root, lb, ub)
    assert sol.status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-12)


def test_the_dual_stops_at_the_iteration_limit(dual_runs):
    milp = reference_models()[0]
    root = solve_lp(milp)
    for j, lb, ub in fractional_children(milp, root):
        if solve_child(milp, root, lb, ub).iterations > 1:
            break
    else:
        pytest.fail("no child takes more than one dual pivot")
    dual_runs.clear()
    sol = solve_child(milp, root, lb, ub, max_iterations=1)
    assert sol.status == STATUS_LIMIT
    assert sol.iterations == 1
    assert dual_runs == [(STATUS_LIMIT, 1, False)]
