"""Bounded-variable simplex: known optima, statuses, and randomized checks."""
from __future__ import annotations

import hashlib
import importlib.machinery
import os

import numpy as np
import pytest

from station_ems.milp.canonical import (
    ROW_EQ,
    ROW_LE,
    STATUS_INFEASIBLE,
    STATUS_LIMIT,
    STATUS_OPTIMAL,
    ModelBuilder,
    feasibility_report,
)
from station_ems.milp import simplex
from station_ems.milp.branch_bound import solve_mip
from station_ems.milp.highs import scipy_rows
from station_ems.milp.simplex import solve_lp
from station_ems.model import (
    SYM_ESS_CHARGE_ON,
    SYM_RB_TO_ESS,
    crash_basis,
    solve_root,
)

from conftest import (
    STORE_100,
    limit_iterations,
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


def test_a_floor_row_pushes_variable_up():
    # x >= 3, written as -x <= -3
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 10.0, 1.0)
    b.add_row("floor", ROW_LE, -3.0, [(x, -1.0)])
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
    b.add_row("impossible", ROW_LE, -2.0, [(x, -1.0)])
    sol = solve_lp(b.build())
    assert sol.status == STATUS_INFEASIBLE


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


def boxed_columns(with_row: bool):
    # x in [0, 2] and y in [-1, 3] settle at (2, -1); z in [0, 4] has no
    # cost and stays at 0
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 2.0, -1.0)
    b.add_column("y", -1.0, 3.0, 1.0)
    b.add_column("z", 0.0, 4.0, 0.0)
    if with_row:
        b.add_row("slack", ROW_LE, 10.0, [(x, 1.0)])
    return b.build()


@pytest.mark.parametrize("with_row", [False, True], ids=["no rows", "one slack row"])
@pytest.mark.parametrize("case, status", [
    ("bounded", STATUS_OPTIMAL),
    ("crossed bounds", STATUS_INFEASIBLE),
])
def test_rows_do_not_change_the_status(with_row, case, status):
    milp = boxed_columns(with_row)
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
    # r: 0 <= 1 holds for every x; the builder drops the zero coefficient
    b = ModelBuilder()
    b.add_column("x", 0.0, 1.0, -1.0, binary=True)
    b.add_row("r", ROW_LE, 1.0, terms)
    milp = b.build()
    assert len(milp.a_vals) == 0
    act = milp.row_activity(np.array([1.0]))
    assert act.dtype == np.float64 and act.tolist() == [0.0]
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
        sense = str(rng.choice([ROW_LE, "G", ROW_EQ]))
        rhs = float(rng.uniform(-1.5, 1.5))
        if sense == "G":  # a >= row, written as the negated <= row
            sense, rhs, cols = ROW_LE, -rhs, [(j, -v) for j, v in cols]
        b.add_row(f"r{i}", sense, rhs, cols)
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
            else:
                assert act[i] <= milp.row_rhs[i] + 1e-7
        assert np.all(sol.x >= milp.col_lb - 1e-9)
        assert np.all(sol.x <= milp.col_ub + 1e-9)


def test_iteration_limit_reports_limit_status(monkeypatch):
    rng = np.random.default_rng(11)
    hit = False
    limit_iterations(monkeypatch, 1)
    for _ in range(40):
        milp = random_boxed_lp(rng)
        sol = solve_lp(milp)
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
    b.add_row("floor", ROW_LE, 1.0, [(x, -1.0), (y, -2.0), (z, 1.0)])
    return b.build()


@pytest.mark.parametrize("basis", [[0, 0], [0, 1]], ids=["repeated", "dependent"])
def test_singular_warm_basis_falls_back_to_cold_start(basis):
    milp = proportional_columns_lp()
    cold = solve_lp(milp)
    assert cold.status == STATUS_OPTIMAL
    assert cold.objective == pytest.approx(-6.0, abs=1e-12)
    warm = solve_lp(milp, warm=(np.array(basis), np.zeros(5, dtype=bool)))
    assert warm.status == STATUS_OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
    # the cold start is deterministic, so a fallback retraces its path
    assert warm.iterations == cold.iterations


@pytest.fixture(params=["gstrf", "splu"])
def factorizer(request, monkeypatch):
    """Run the test on SuperLU's ``gstrf`` loaded from its extension module
    alone, and again on the public ``splu`` the loader falls back to."""
    if request.param == "splu":
        monkeypatch.setattr(simplex, "_load_gstrf", lambda directory: None)
    chosen = simplex._factorizer.__wrapped__()
    assert (chosen is simplex._splu) == (request.param == "splu")
    monkeypatch.setattr(simplex, "_factorizer", lambda: chosen)
    return chosen


@pytest.mark.parametrize("basis", [[0, 0], [0, 1]], ids=["repeated", "dependent"])
def test_a_singular_basis_is_refused_by_the_factorization(basis, factorizer):
    milp = proportional_columns_lp()
    with pytest.raises(RuntimeError):
        simplex._factorize(*milp.columns_csc_with_slacks(), np.array(basis))
    # so the start refuses it and the solve falls back to the slack basis
    assert not simplex._Simplex(milp, None, None)._start(
        np.array(basis), np.zeros(5, dtype=bool))


@pytest.fixture(scope="module")
def reference_bases(ref_config_path):
    """(matrix as ``columns_csc_with_slacks``, basis) of every factorization
    a mode-A run of the reference day makes."""
    from station_ems.pipeline import run_pipeline

    bases = []
    original = simplex._factorize

    def spied(indptr, row_idx, col_vals, basis):
        bases.append(((indptr, row_idx, col_vals), basis.copy()))
        return original(indptr, row_idx, col_vals, basis)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_factorize", spied)
        run_pipeline(ref_config_path, mode="A")
    assert len(bases) >= 10
    return bases


def reference_right_hand_sides(m):
    rng = np.random.default_rng(5)
    return rng.standard_normal(m), 1e3 * rng.standard_normal(m)


def test_every_reference_basis_is_canonical_csc(reference_bases):
    # sorted rows and no duplicates in each column: splu would sum the
    # duplicates and sort the rows before it calls gstrf
    from scipy.sparse import csc_matrix

    for (indptr, row_idx, col_vals), basis in reference_bases:
        m = len(basis)
        assert csc_matrix((col_vals, row_idx, indptr),
                          shape=(m, len(indptr) - 1)).has_canonical_format


def test_factors_of_every_reference_basis_solve_accurately(reference_bases,
                                                           factorizer):
    from scipy.sparse import csc_matrix

    for i, ((indptr, row_idx, col_vals), basis) in enumerate(reference_bases):
        lu = simplex._factorize(indptr, row_idx, col_vals, basis)
        m = len(basis)
        b_mat = csc_matrix((col_vals, row_idx, indptr),
                           shape=(m, len(indptr) - 1))[:, basis]
        for rhs in reference_right_hand_sides(m):
            tol = 1e-10 * (1.0 + np.abs(rhs).max())
            x = lu.solve(rhs)
            assert np.abs(b_mat @ x - rhs).max() <= tol, i
            y = lu.solve(rhs, trans="T")
            assert np.abs(b_mat.T @ y - rhs).max() <= tol, i


def test_both_factorizers_solve_every_reference_basis_bit_for_bit(
        reference_bases, monkeypatch):
    gstrf = simplex._factorizer()
    assert gstrf is not simplex._splu
    factors = []
    for chosen in (gstrf, simplex._splu):
        monkeypatch.setattr(simplex, "_factorizer", lambda: chosen)
        factors.append([simplex._factorize(*csc, basis)
                        for csc, basis in reference_bases])
    for i, (direct, public) in enumerate(zip(*factors)):
        for rhs in reference_right_hand_sides(direct.shape[0]):
            for trans in ("N", "T"):
                assert direct.solve(rhs, trans=trans).tobytes() \
                    == public.solve(rhs, trans=trans).tobytes(), (i, trans)


def test_a_reference_run_on_the_splu_fallback_writes_the_same_artifacts(
        ref_config_path, ref_run, tmp_path, monkeypatch):
    from station_ems.pipeline import run_pipeline, write_outputs

    assert simplex._factorizer() is not simplex._splu  # ref_run used gstrf
    write_outputs(ref_run[0], tmp_path / "gstrf")
    monkeypatch.setattr(simplex, "_factorizer", lambda: simplex._splu)
    write_outputs(run_pipeline(ref_config_path, mode="A"), tmp_path / "splu")
    names = sorted(p.name for p in (tmp_path / "gstrf").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "splu").iterdir())
    for name in names:
        assert (tmp_path / "gstrf" / name).read_bytes() \
            == (tmp_path / "splu" / name).read_bytes(), name


def test_the_loader_takes_scipy_superlu_module_and_refuses_the_rest(
        tmp_path, monkeypatch):
    import scipy

    real = os.path.join(os.path.dirname(scipy.__file__),
                        "sparse", "linalg", "_dsolve")
    assert simplex._load_gstrf(real) is not None
    assert simplex._load_gstrf(str(tmp_path)) is None  # no module
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    (tmp_path / ("_superlu" + suffix)).write_bytes(b"not a library")
    assert simplex._load_gstrf(str(tmp_path)) is None  # does not load
    # modules that load but are not SuperLU's: Python source, found by
    # looking for the suffix .py
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".py"])
    for i, body in enumerate(("x = 1\n",  # no gstrf
                              "def gstrf(n, nnz, vals, rows, ptr):\n"
                              "    raise TypeError\n")):  # other arguments
        where = tmp_path / f"case{i}"
        where.mkdir()
        (where / "_superlu.py").write_text(body)
        assert simplex._load_gstrf(str(where)) is None, body
    # when the loader gives nothing, the public splu factorizes
    monkeypatch.setattr(simplex, "_load_gstrf", lambda directory: None)
    assert simplex._factorizer.__wrapped__() is simplex._splu


def usable_case_lp():
    # three columns and two rows; any two distinct columns of [A | I] here
    # are independent except x and y, so _usable's answer is all that counts
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 4.0, -1.0)
    y = b.add_column("y", 0.0, 4.0, -1.0)
    z = b.add_column("z", 0.0, 4.0, 1.0)
    b.add_row("cap", ROW_LE, 6.0, [(x, 1.0), (y, 1.0), (z, 1.0)])
    b.add_row("floor", ROW_LE, -1.0, [(x, -1.0), (z, 1.0)])
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
    n = m = 6
    b = ModelBuilder()
    for j in range(n):
        b.add_column(f"c{j}", 0.0, 1.0, 0.0)
    for i in range(m):
        b.add_row(f"r{i}", ROW_LE, 1.0, [(i, 1.0)])
    s = simplex._Simplex(b.build(), None, None)
    tol = 1e-9
    slack = np.arange(n + m) >= n
    for _ in range(300):
        # a column boxed or fixed; a slack in [0, inf) for a <= row or
        # pinned at 0 for an = row
        total = len(s.lb)
        s.lb = np.where(slack, 0.0, rng.choice([0.0, 1.0], total))
        s.ub = np.where(slack, rng.choice([np.inf, 0.0], total),
                        s.lb + rng.choice([0.0, 1.0], total))
        s.movable = ~(s.lb >= s.ub)
        s._place_nonbasics(rng.random(total) < 0.5)
        s.state[rng.random(total) < 0.3] = simplex._BASIC
        s._set_signs()
        d = rng.choice([0.0, tol, -tol, 2 * tol, -2 * tol, 1.0, -1.0], total)
        state = s.state
        want = (((state == simplex._NB_LB) & s.movable & (d < -tol))
                | ((state == simplex._NB_UB) & s.movable & (d > tol)))
        assert s._eligible(d, tol).tolist() == np.flatnonzero(want).tolist()


def test_kept_signs_and_prices_equal_fresh_ones(monkeypatch):
    # _pivot keeps the pricing signs up to date, and phase 2 keeps its
    # reduced costs over a bound flip; at every pricing of the reference
    # anchor's primal phases and of its children's dual, both are
    # bit-equal to what the state and the basis give afresh
    seen = {"priced": 0, "after a flip": 0}
    last_was_flip = []
    eligible, pivot = simplex._Simplex._eligible, simplex._Simplex._pivot

    def checked(self, d, tol_d):
        fresh = np.where(self.movable, simplex._IMPROVES[self.state], 0.0)
        assert self.sign.tobytes() == fresh.tobytes()
        if tol_d == self.tol_d2:
            again = self._reduced_costs(self.cost2[self.basis], self.cost2)
            assert d.tobytes() == again.tobytes()
            seen["priced"] += 1
            seen["after a flip"] += bool(last_was_flip and last_was_flip[-1])
        return eligible(self, d, tol_d)

    def recorded(self, q, w, move, k, at_ub, primal):
        last_was_flip.append(k is None)
        return pivot(self, q, w, move, k, at_ub, primal)

    monkeypatch.setattr(simplex._Simplex, "_eligible", checked)
    monkeypatch.setattr(simplex._Simplex, "_pivot", recorded)
    _, model = ref_scenario_models("A", STORE_100)[0]
    root = solve_root(model)
    assert root.status == STATUS_OPTIMAL
    for _, lb, ub in list(fractional_children(model.milp, root))[:4]:
        assert solve_lp(model.milp, lb, ub, warm=root).status == STATUS_OPTIMAL
    assert seen["priced"] >= 300 and seen["after a flip"] >= 10, seen


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
    own = s.ub[q] - s.lb[q]
    best_row = ratios.min(initial=np.inf)
    step = min(best_row, own)
    if not np.isfinite(step):
        return (None, None, False), 0
    if own < best_row - 1e-12:
        return (own, None, False), 0
    cand = [i for i in range(s.m) if ratios[i] <= best_row + 1e-12 * (1.0 + best_row)]
    if bland:
        k = min(cand, key=lambda i: basis[i])
    else:
        k = max(cand, key=lambda i: abs(rho[i]))  # first of the largest
    return (float(ratios[k]), k, bool(hits_ub[k])), len(cand)


def ratio_test_case(rng, m=10, n=6):
    """A solver positioned at a random basis with tied ratios, strays beyond
    both bounds and entries of ``w`` that are zero or below the pivot
    tolerance; returns it with an entering column and its ``w``."""
    b = ModelBuilder()
    for j in range(n):
        b.add_column(f"c{j}", 0.0, 1.0, 0.0)
    for i in range(m):
        b.add_row(f"r{i}", ROW_LE, 1.0, [(i % n, 1.0)])
    s = simplex._Simplex(b.build(), None, None)
    total = n + m
    # every column is boxed; a slack is in [0, inf) for a <= row or pinned
    # at 0 for an = row
    slack = np.arange(total) >= n
    lo = np.where(slack, 0.0, rng.choice([-1.0, 0.0], total))
    s.lb = lo
    s.ub = np.where(slack, rng.choice([np.inf, np.inf, np.inf, 0.0], total),
                    lo + rng.choice([0.5, 1.0, 2.0], total))
    s.basis = rng.permutation(total)[:m].astype(np.int64)
    s.state = np.full(total, simplex._NB_LB, dtype=np.int8)
    s.state[s.basis] = simplex._BASIC
    s.x = lo + rng.choice([0.0, 0.5, 1.0], total)  # on a bound, inside or a stray
    s.x[rng.random(total) < 0.2] -= 0.75  # strays below
    nonbasic = np.setdiff1d(np.arange(total), s.basis)
    q = int(rng.choice(nonbasic))
    s.state[q] = rng.choice([simplex._NB_LB, simplex._NB_UB])
    if q < n and rng.random() < 0.5:
        s.ub[q] = lo[q] + 0.25  # a short range: the column may flip
    if rng.random() < 0.15:  # no row blocks
        w = rng.choice([0.0, 0.5e-9, -0.5e-9], m)
    else:
        w = rng.choice([0.0, 0.0, 0.5e-9, -0.5e-9, 0.5, -0.5, 1.0, -1.0, 2.0], m)
    return s, q, w


def test_touched_rows_ratio_test_matches_a_scan_of_every_row():
    rng = np.random.default_rng(11)
    seen = {"flip": 0, "unblocked": 0, "tie": 0, "pivot": 0,
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
        seen["flip"] += want[0] is not None and want[1] is None
        seen["unblocked"] += want[0] is None
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


# per mode, each reference scenario's cold solve from the slack basis: its
# iterations and the sha256 of its x
SLACK_STARTS = {
    "A": ((625, "2b1b6978d51d1b24b6f53726854923edf9bce41b77c92e001b86b0c6949c1314"),
          (626, "b7cecaa016e9da08916f951e1d5e36d94ba91580dcd081c5abd33f7aa1b0e890"),
          (625, "9b7a6d83867a91b72dda35b3d5d4d2a5bde7bd6d809567ee1b902cc63b3a9162"),
          (626, "159ad2ab3aa239f7a672820da100d4f2a94c5a59a268ddbbbd792114770e16cc")),
    "B": ((265, "b8eb51fd4d0334669191e3c47f2eb8bbc8e920ae3243cb1c49b7986dd851347b"),
          (265, "b8eb51fd4d0334669191e3c47f2eb8bbc8e920ae3243cb1c49b7986dd851347b"),
          (265, "56cf9e2954f70f5961692a2966230af62fea81b451a446614e2e7106f8cf7661"),
          (265, "56cf9e2954f70f5961692a2966230af62fea81b451a446614e2e7106f8cf7661")),
    "C": ((625, "eecdd556e7f8eab8e36802d005677fe097c2f47154420b7a520c0fe69c039a33"),
          (626, "3875e26c4e3737dc0cf381e9724c9c0f819dee4b3d0489af85de638fcbcb6364"),
          (625, "eecdd556e7f8eab8e36802d005677fe097c2f47154420b7a520c0fe69c039a33"),
          (626, "3875e26c4e3737dc0cf381e9724c9c0f819dee4b3d0489af85de638fcbcb6364")),
}


@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_the_slack_basis_is_factorized_like_any_start(mode, monkeypatch,
                                                      factorizations):
    # the start factorizes the slack basis once, before any pivot, and
    # every other factorization is one of the solve's own refactorizations
    refactors = []  # (iterations, basis) at each refactorization
    original = simplex._Simplex._refactor

    def counted(self):
        refactors.append((self.iterations, self.basis.copy()))
        return original(self)

    monkeypatch.setattr(simplex._Simplex, "_refactor", counted)
    for (idx, model), (iterations, digest) in zip(ref_scenario_models(mode),
                                                  SLACK_STARTS[mode]):
        milp = model.milp
        factorizations.clear()
        refactors.clear()
        sol = solve_lp(milp)
        assert sol.status == STATUS_OPTIMAL
        assert sol.iterations == iterations, idx
        assert hashlib.sha256(sol.x.tobytes()).hexdigest() == digest, idx
        (at, basis), *own = refactors
        assert at == 0 and np.array_equal(
            basis, np.arange(milp.n_cols, milp.n_cols + milp.n_rows)), idx
        assert own and all(at > 0 for at, _ in own), idx
        assert len(factorizations) == len(own) + 1, idx


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
    # scenario 0 in mode A and scenario 1 in mode C of the reference day
    # with a 100 kWh store, whose roots hold 11 and 5 fractional binaries
    # (the reference day's own hold one each): cold solves of the children
    # of all eight would take about 20 s
    return [dict(ref_scenario_models("A", STORE_100))[0].milp,
            dict(ref_scenario_models("C", STORE_100))[1].milp]


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
    b.add_row("floor", ROW_LE, -5.0, [(x, -1.0)])
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


def test_the_dual_stops_at_the_iteration_limit(dual_runs, monkeypatch):
    milp = reference_models()[0]
    root = solve_lp(milp)
    for j, lb, ub in fractional_children(milp, root):
        if solve_child(milp, root, lb, ub).iterations > 1:
            break
    else:
        pytest.fail("no child takes more than one dual pivot")
    dual_runs.clear()
    limit_iterations(monkeypatch, 1)
    sol = solve_child(milp, root, lb, ub)
    assert sol.status == STATUS_LIMIT
    assert sol.iterations == 1
    assert dual_runs == [(STATUS_LIMIT, 1, False)]


def shared_relief_lp():
    # min -x - y - 1.5 z  s.t.  x + z <= 5, y + z <= 5, all in [0, 10]: the
    # optimum has x = y = 5 basic and z = 0, since z gains 1.5 and costs 2
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 10.0, -1.0)
    y = b.add_column("y", 0.0, 10.0, -1.0)
    z = b.add_column("z", 0.0, 10.0, -1.5)
    b.add_row("rx", ROW_LE, 5.0, [(x, 1.0), (z, 1.0)])
    b.add_row("ry", ROW_LE, 5.0, [(y, 1.0), (z, 1.0)])
    return b.build()


@pytest.mark.parametrize("nudged", [None, (0, -1), (0, 1), (1, -1), (1, 1)],
                         ids=["tied", "x down", "x up", "y down", "y up"])
def test_the_dual_breaks_a_tie_in_violation_by_the_lower_column(nudged,
                                                                dual_runs):
    # capping x and y at 3 puts both 2 above their ranges; z entering for
    # either one settles both, so the first to leave is all that tells the
    # final bases apart, and an ulp on one cap must not choose it
    milp = shared_relief_lp()
    root = solve_lp(milp)
    assert root.status == STATUS_OPTIMAL
    assert list(root.basis) == [0, 1]
    ub = milp.col_ub.copy()
    ub[:2] = 3.0
    if nudged is not None:
        j, way = nudged
        ub[j] = np.nextafter(3.0, way * np.inf)
    sol = solve_child(milp, root, milp.col_lb, ub)
    assert sol.status == STATUS_OPTIMAL
    assert sol.objective == pytest.approx(-9.0, abs=1e-12)
    assert dual_runs[-1] == (None, 1, True)
    # x, the lower column, left and z took its place
    assert list(sol.basis) == [2, 1]
    assert sol.iterations == 1


# ---------------------------------------------------------------------------
# the bound-flipping ratio test

@pytest.fixture
def flips(monkeypatch):
    """The columns of every bound flip the dual makes, one list per pivot
    that flips any."""
    made = []
    original = simplex._Simplex._flip

    def spied(self, cols):
        made.append(cols.tolist())
        return original(self, cols)

    monkeypatch.setattr(simplex._Simplex, "_flip", spied)
    return made


def cost_bound_start(milp):
    """The slack basis with each column at the bound its cost prefers:
    its reduced costs are the costs, so it is dual feasible."""
    n, m = milp.n_cols, milp.n_rows
    return (np.arange(n, n + m),
            np.concatenate([milp.col_obj < 0.0, np.zeros(m, dtype=bool)]))


def test_dual_feasible_starts_of_random_lps_match_linprog(dual_runs, flips):
    rng = np.random.default_rng(20261020)
    optimal = infeasible = flipped = 0
    for k in range(150):
        milp = random_boxed_lp(rng)
        ran, flipped_before = len(dual_runs), len(flips)
        sol = solve_lp(milp, warm=cost_bound_start(milp))
        ref = linprog_reference(milp)
        assert ref.status in (0, 2), (k, ref.message)
        if ref.status == 0:
            optimal += 1
            assert sol.status == STATUS_OPTIMAL, k
            assert abs(sol.objective - ref.fun) \
                <= 1e-9 * max(1.0, abs(ref.fun)), k
            assert feasibility_report(milp, sol.x)["feasible"], k
        else:
            infeasible += 1
            assert sol.status == STATUS_INFEASIBLE, k
        # every start that breaks a row runs the dual
        if len(dual_runs) > ran:
            flipped += len(flips) > flipped_before
    assert optimal >= 40 and infeasible >= 10, (optimal, infeasible)
    assert len(dual_runs) >= 80 and flipped >= 20, (len(dual_runs), flipped)


def covering_lp(need, costs=(1.0, 2.0, 3.0), coefs=(1.0, 1.0, 1.0)):
    # min c'x  s.t.  a'x >= need, x in [0, 1]: the slack start is dual
    # feasible and falls ``need`` short on the row
    b = ModelBuilder()
    cols = [b.add_column(f"x{j}", 0.0, 1.0, c) for j, c in enumerate(costs)]
    b.add_row("cover", ROW_LE, -need, [(j, -a) for j, a in zip(cols, coefs)])
    return b.build()


def test_the_dual_passes_two_breakpoints_before_a_column_enters(dual_runs,
                                                                flips):
    # ratios 1, 2 and 3, each column worth 1 of the 2.5 needed: x0 and x1
    # flip to their upper bounds and x2 enters at one half
    milp = covering_lp(2.5)
    sol = solve_lp(milp)
    assert dual_runs == [(None, 1, True)]
    assert flips == [[0, 1]]
    assert sol.status == STATUS_OPTIMAL and sol.iterations == 1
    assert sol.x.tolist() == [1.0, 1.0, 0.5]
    assert list(sol.basis) == [2]
    assert sol.objective == pytest.approx(linprog_reference(milp).fun,
                                          rel=1e-12)


def test_a_row_that_every_flip_leaves_broken_goes_to_phase_one(dual_runs,
                                                               flips):
    # all three columns together give 3 of the 3.5 needed
    milp = covering_lp(3.5)
    sol = solve_lp(milp)
    assert dual_runs == [(None, 0, False)] and flips == []
    assert sol.status == STATUS_INFEASIBLE
    assert linprog_reference(milp).status == 2


def test_an_unboxed_slack_ends_the_pass(dual_runs, flips):
    # min x - 0.8 y0 - 0.6 y1  s.t.  x >= 0.5 + y0 + y1, x in [3, 10],
    # y in [0, 0.5], from x basic in the row at its slack's bound: x is 2.5
    # below its range, y0 and y1 (ratios 0.2 and 0.4) make up 1 of it by
    # flipping, and the row's slack (ratio 1, no upper bound) enters
    b = ModelBuilder()
    x = b.add_column("x", 3.0, 10.0, 1.0)
    y0 = b.add_column("y0", 0.0, 0.5, -0.8)
    y1 = b.add_column("y1", 0.0, 0.5, -0.6)
    b.add_row("floor", ROW_LE, -0.5, [(x, -1.0), (y0, 1.0), (y1, 1.0)])
    milp = b.build()
    sol = solve_lp(milp, warm=(np.array([x]), np.zeros(4, dtype=bool)))
    assert dual_runs == [(None, 1, True)]
    assert flips == [[y0, y1]]
    assert sol.status == STATUS_OPTIMAL and sol.iterations == 1
    assert list(sol.basis) == [milp.n_cols]  # the slack
    assert sol.x == pytest.approx([3.0, 0.5, 0.5], abs=1e-15)
    assert sol.objective == pytest.approx(linprog_reference(milp).fun,
                                          rel=1e-12)


@pytest.mark.parametrize("nudge, enters", [(0.0, 1), (1e-9, 0)],
                         ids=["tied", "apart"])
def test_tied_ratios_let_the_largest_entry_enter(nudge, enters, dual_runs,
                                                 flips):
    # x0 and x1 price the row at the same ratio, 1, and x0 alone would
    # make up the 0.5 needed; the tie goes to x1, whose entry is twice
    # x0's, and x0 keeps its bound.  Raising x1's cost by 1e-9 sets the two
    # apart, and then x0 enters
    milp = covering_lp(0.5, costs=(1.0, 2.0 + nudge), coefs=(1.0, 2.0))
    sol = solve_lp(milp)
    assert dual_runs == [(None, 1, True)] and flips == []
    assert sol.status == STATUS_OPTIMAL
    assert list(sol.basis) == [enters]
    assert sol.x[1 - enters] == 0.0
    assert sol.objective == pytest.approx(linprog_reference(milp).fun,
                                          rel=1e-9)


def test_a_crossed_start_that_broke_phase_two_solves(ref_config_path):
    # scenario 0 of the reference day with a 10 kWh store, from the crash
    # basis with the charge direction binary UB basic in each EC row and
    # the braking intake RB in each RV row: an FTRAN entry near 9e15 once
    # moved a basic slack far outside its range in phase 2, and the
    # retries from fresh factors ran phase 2 alone, which cannot restore
    # feasibility, so the solve ended failed.  Phase 1 now runs after each
    # refactorization that leaves a bound broken
    _, model = ref_scenario_models("A", {"ess.capacity_kwh": 10})[0]
    milp, col = model.milp, model.index.station_cols
    basis, _ = crash_basis(model)
    step = {code: t for t, code in enumerate(
        name[2:] for name in milp.row_names if name.startswith("BL"))}
    for i, name in enumerate(milp.row_names):
        if name[:2] in ("EC", "RV"):
            sym = SYM_ESS_CHARGE_ON if name[:2] == "EC" else SYM_RB_TO_ESS
            basis[i] = col[sym][step[name[2:]]]
    sol = solve_lp(milp, warm=(basis, np.zeros(milp.n_cols + milp.n_rows,
                                              dtype=bool)))
    assert sol.status == STATUS_OPTIMAL
    ref = linprog_reference(milp)
    assert ref.status == 0, ref.message
    assert abs(sol.objective - ref.fun) <= 1e-9 * abs(ref.fun)
    report = feasibility_report(milp, sol.x)
    assert report["rows_ok"] and report["bounds_ok"]


# ---------------------------------------------------------------------------
# safety exits: each is forced here, as no model of the suite reaches it

def test_blands_rule_after_a_degenerate_stall_keeps_the_answers(monkeypatch,
                                                                dual_runs):
    # with no degenerate move allowed, the primal takes Bland's rule after
    # each one, and the dual hands its start over untouched
    rules = []
    original = simplex._Simplex._ratio_test

    def recording(self, q, sigma, w, phase_one, bland):
        rules.append(bland)
        return original(self, q, sigma, w, phase_one, bland)

    monkeypatch.setattr(simplex, "_DEGENERATE_STALL", 0)
    monkeypatch.setattr(simplex._Simplex, "_ratio_test", recording)
    for k, milp in enumerate(generated_models()):
        root = solve_lp(milp)
        solves = [(milp.col_lb, milp.col_ub, root)]
        solves += [(lb, ub, solve_child(milp, root, lb, ub))
                   for _, lb, ub in fractional_children(milp, root)]
        for lb, ub, sol in solves:
            ref = linprog_reference(milp, lb, ub)
            assert sol.status == STATUS_OPTIMAL and ref.status == 0, k
            assert abs(sol.objective - ref.fun) \
                <= 1e-9 * max(1.0, abs(ref.fun)), k
    assert sum(rules) >= 50, sum(rules)
    assert len(dual_runs) >= 10
    assert {(status, pivots) for status, pivots, _ in dual_runs} == {(None, 0)}


def test_the_dual_recomputes_its_reduced_costs_after_a_refactorization(
        monkeypatch, dual_runs):
    milp = reference_models()[0]
    root = solve_lp(milp)
    children = list(fractional_children(milp, root))
    plain = [solve_child(milp, root, lb, ub) for _, lb, ub in children]
    # a refactorization after every second pivot, in the dual too
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 2)
    dual_runs.clear()
    for (j, lb, ub), want in zip(children, plain):
        got = solve_child(milp, root, lb, ub)
        assert got.status == want.status == STATUS_OPTIMAL, j
        assert abs(got.objective - want.objective) \
            <= 1e-9 * max(1.0, abs(want.objective)), j
    assert max(pivots for _, pivots, _ in dual_runs) >= 2


@pytest.mark.parametrize("unclean, status", [
    ("once", STATUS_OPTIMAL), ("always", "failed"),
    ("always, singular refactorization", "failed")])
def test_phase_two_retries_an_unclean_solution_from_fresh_factors(
        monkeypatch, unclean, status):
    # a basic value knocked below its range fails the final check; the
    # retry refactorizes, which recomputes it from the nonbasics
    calls = []
    original = simplex._Simplex._solution_clean

    def drifted(self, bounds=True):
        calls.append(self.iterations)
        if unclean != "once" or len(calls) == 1:
            k = int(self.basis[0])
            self.x[k] = self.lb[k] - 1.0
        return original(self, bounds)

    factorize = simplex._factorize
    made = []

    def singular(*args):
        # the start's factors are made; every later factorization fails
        if made:
            raise RuntimeError("Factor is exactly singular")
        made.append(args)
        return factorize(*args)

    monkeypatch.setattr(simplex._Simplex, "_solution_clean", drifted)
    if unclean.endswith("singular refactorization"):
        monkeypatch.setattr(simplex, "_factorize", singular)
    milp = shared_relief_lp()
    sol = solve_lp(milp)
    assert sol.status == status
    assert len(calls) == {"once": 2, "always": 4}.get(unclean, 1)
    if status == STATUS_OPTIMAL:
        assert sol.objective == pytest.approx(-10.0, abs=1e-12)


@pytest.mark.parametrize("start", ["none", "pair"])
def test_a_slack_basis_that_cannot_be_factorized_fails(monkeypatch, start):
    # the slack basis is factorized like any other start, so when it is
    # singular too, nothing is left to start from
    def singular(*args):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(simplex, "_factorize", singular)
    milp = shared_relief_lp()
    warm = None if start == "none" else (
        np.arange(milp.n_rows), np.zeros(milp.n_cols + milp.n_rows, dtype=bool))
    sol = solve_lp(milp, warm=warm)
    assert sol.status == "failed" and sol.x is None and sol.iterations == 0


def test_a_resumed_optimum_is_checked_in_one_pass(monkeypatch):
    # a start from an optimal solution of the same model is primal
    # feasible, so phase 1 does not run and, as phase 2 leaves it where it
    # is, the final check reads only the rows.  When that check fails,
    # fresh factors recompute the basic values, and the bounds are checked
    # again
    milp = shared_relief_lp()
    cold = solve_lp(milp)
    calls = []
    phase_ones = []
    clean = simplex._Simplex._solution_clean
    iterate = simplex._Simplex._iterate
    monkeypatch.setattr(simplex._Simplex, "_iterate",
                        lambda self, phase_one: phase_ones.append(phase_one)
                        or iterate(self, phase_one))
    monkeypatch.setattr(simplex._Simplex, "_solution_clean",
                        lambda self, bounds=True: calls.append(bounds)
                        or clean(self, bounds))
    warm = solve_lp(milp, warm=cold)
    assert warm.status == STATUS_OPTIMAL and warm.iterations == 0
    assert phase_ones == [False] and calls == [False]
    assert warm.x.tobytes() == cold.x.tobytes()

    calls.clear()
    phase_ones.clear()
    monkeypatch.setattr(simplex._Simplex, "_solution_clean",
                        lambda self, bounds=True: calls.append(bounds)
                        or (len(calls) > 1 and clean(self, bounds)))
    again = solve_lp(milp, warm=cold)
    assert again.status == STATUS_OPTIMAL and again.iterations == 0
    assert phase_ones == [False, True, False] and calls == [False, True]


def test_phase_one_stops_at_the_iteration_limit(monkeypatch):
    # the slack start breaks the floor row and is not dual feasible, so
    # phase 1 takes the first move and meets the limit
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 1.0, -1.0)
    y = b.add_column("y", 0.0, 1.0, -1.0)
    b.add_row("cap", ROW_LE, 1.5, [(x, 1.0), (y, 1.0)])
    b.add_row("floor", ROW_LE, -0.5, [(x, -1.0)])
    milp = b.build()
    with monkeypatch.context() as limited:
        limit_iterations(limited, 0)
        assert solve_lp(milp).status == STATUS_LIMIT
    assert solve_lp(milp).objective == pytest.approx(-1.5, abs=1e-12)


def test_the_dual_hands_over_a_pivot_too_small_to_trust(dual_runs):
    # the child caps x 2 below its root value; z, whose row entry is 5e-8,
    # has the smallest dual ratio, and its range of 1e8 is enough to use up
    # the cap's excess, so the ratio test picks z to enter rather than flip
    # it, and the dual stops before pivoting on it
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 10.0, -1.0)
    z = b.add_column("z", 0.0, 1e8, -4.95e-8)
    b.add_row("cap", ROW_LE, 5.0, [(x, 1.0), (z, 5e-8)])
    milp = b.build()
    root = solve_lp(milp)
    assert root.x == pytest.approx([5.0, 0.0], abs=1e-12)
    ub = milp.col_ub.copy()
    ub[0] = 3.0
    dual_runs.clear()
    sol = solve_child(milp, root, milp.col_lb, ub)
    assert dual_runs == [(None, 0, False)]
    assert sol.status == STATUS_OPTIMAL
    assert sol.x == pytest.approx([3.0, 4e7], rel=1e-12)
    ref = linprog_reference(milp, milp.col_lb, ub)
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, rel=1e-9)


class _NotFiniteFactors:
    def solve(self, rhs, trans="N"):
        return np.full_like(rhs, np.nan)


@pytest.mark.parametrize("start", ["primal", "dual"])
@pytest.mark.parametrize("broken", ["singular", "not finite"])
def test_a_broken_factorization_ends_failed(monkeypatch, start, broken):
    # a child of shared_relief_lp's root: its start from the root's basis
    # refactorizes unless the root's factors are already made, and every
    # pivot refactorizes; only the slack basis factorizes soundly
    milp = shared_relief_lp()
    root = solve_lp(milp)
    ub = milp.col_ub.copy()
    ub[:2] = 3.0
    if start == "dual":
        solve_child(milp, root, milp.col_lb, ub)  # makes the root's factors
    slack = np.arange(milp.n_cols, milp.n_cols + milp.n_rows)
    sound = simplex._factorize

    def factorize(*args):
        if np.array_equal(args[-1], slack):
            return sound(*args)
        if broken == "singular":
            raise RuntimeError("Factor is exactly singular")
        return _NotFiniteFactors()

    duals = []
    original = simplex._Simplex._dual

    def counted(self, d):
        duals.append(self.iterations)
        return original(self, d)

    monkeypatch.setattr(simplex, "_factorize", factorize)
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 1)
    monkeypatch.setattr(simplex._Simplex, "_dual", counted)
    sol = solve_child(milp, root, milp.col_lb, ub)
    assert sol.status == "failed"
    # a start that cannot be factorized falls back to the slack basis,
    # which is not dual feasible, so the primal's first pivot fails
    assert len(duals) == (start == "dual")


def test_a_ratio_test_that_finds_no_block_ends_failed(monkeypatch):
    monkeypatch.setattr(simplex._Simplex, "_ratio_test",
                        lambda self, *args: (None, None, False))
    assert solve_lp(two_var_toy()).status == "failed"
