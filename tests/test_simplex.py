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
from station_ems.milp.simplex import solve_lp

from conftest import (
    lp_vertex_oracle,
    random_ems_instance,
    ref_scenario_models,
    scipy_rows,
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
