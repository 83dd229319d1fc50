"""Cross-check of the bundled solver against HiGHS.

HiGHS is reached through ``highs_solve``, the helper that the ``oracle``
subcommand uses, and shares no code with the bundled simplex or tree
search.  Every scenario model of the committed reference day is solved by
both, in each mode, and HiGHS also solves the paper's formulation, with a
grid-direction binary per step.  Random instances too large for exhaustive
enumeration are checked the same way.
"""
from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from station_ems.milp.canonical import (
    ROW_LE,
    STATUS_OPTIMAL,
    CanonicalMilp,
    ModelBuilder,
)
from station_ems.milp.highs import highs_solve
from station_ems.model import solve_ems
from station_ems.pipeline import anchored_solves, run_pipeline

from conftest import (
    paper_formulation,
    random_ems_instance,
    ref_inputs,
    ref_scenario_models,
)


def highs_objective(milp) -> float:
    status, objective = highs_solve(milp)
    assert status == STATUS_OPTIMAL, status
    return objective


def rel_error(ours: float, ref: float) -> float:
    return abs(ours - ref) / max(1.0, abs(ref))


@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_reference_day_objectives_match_highs(mode, ref_config_path, ref_run):
    result = ref_run[0] if mode == "A" else run_pipeline(ref_config_path, mode=mode)
    ours = dict(zip(result.solved_indices,
                    (sol.objective for sol in result.solutions)))
    models = ref_scenario_models(mode)
    assert sorted(ours) == [idx for idx, _ in models]
    for idx, model in models:
        for name, milp in (("model", model.milp),
                           ("paper formulation", paper_formulation(model))):
            rel = rel_error(ours[idx], highs_objective(milp))
            assert rel <= 1e-6, (f"mode {mode} scenario {idx}, {name}: "
                                 f"relative error {rel:.3e}")


def with_every_peak_row(model) -> CanonicalMilp:
    """``model``'s program with a peak row at every step a vehicle is
    parked, those that the model leaves out included."""
    milp, idx = model.milp, model.index
    steps = np.setdiff1d(idx.ev_step, idx.peak_steps)
    entry = np.isin(idx.ev_step, steps)
    return CanonicalMilp(
        milp.col_lb, milp.col_ub, milp.col_obj, milp.col_binary,
        milp.col_names, milp.row_sense + [ROW_LE] * len(steps),
        np.concatenate([milp.row_rhs,
                        idx.cfg.peak.p_max_kw - idx.demand[steps]]),
        milp.row_names + [f"ALLPK{t}" for t in steps],
        np.concatenate([milp.a_rows, milp.n_rows
                        + np.searchsorted(steps, idx.ev_step[entry])]),
        np.concatenate([milp.a_cols, idx.ev_power_cols[entry]]),
        np.concatenate([milp.a_vals, np.ones(int(entry.sum()))]))


@pytest.mark.parametrize("mode", ["A", "B"])
def test_a_cap_that_can_bind_keeps_its_peak_rows_and_the_optimum(mode):
    # under a 2450 kW cap the parked vehicles can break it at 7 of the
    # reference day's 38 parked steps, and only there the model has a
    # peak row; the run reaches the cap, and HiGHS on the model with a
    # peak row at every parked step finds the run's optimum
    cap = 2450.0
    cfg, sessions, tree = ref_inputs({"peak.p_max_kw": cap})
    _, solves = anchored_solves(cfg, sessions, tree, mode,
                                [sc.index for sc in tree])
    for idx, model, solve in solves:
        assert len(model.index.peak_steps) == 7
        assert len(np.unique(model.index.ev_step)) == 38
        sol = solve()
        assert max(sol.index.demand + sol.ev_total_power) >= cap - 1e-6, idx
        full = with_every_peak_row(model)
        assert full.n_rows == model.milp.n_rows + 31
        rel = rel_error(sol.objective, highs_objective(full))
        assert rel <= 1e-6, f"scenario {idx}: relative error {rel:.3e}"


# stores from nearly none to the reference one, and a large, fast store
# with other caps and weights, whose mode-A trees took 895 nodes each
# without the braking-intake rows
STORE_SWEEP = {f"{kwh:g} kWh": {"ess.capacity_kwh": kwh}
               for kwh in (0.001, 1.0, 10.0, 100.0, 1000.0)}
STORE_SWEEP["large store"] = {
    "ess.capacity_kwh": 2604.0, "ess.soc_min_fraction": 0.277,
    "ess.soc_init_fraction": 0.835, "ess.charge_rate_max_kw": 1227.0,
    "ess.discharge_rate_max_kw": 2234.0, "grid.p_buy_max_kw": 2179.0,
    "grid.p_sell_max_kw": 341.0, "peak.p_max_kw": 4290.0,
    "flexibility.kappa": 0.531, "weights.w_power": 0.719,
    "weights.w_theta": 0.00704, "fleet.max_sessions": 18}


def without_rows(milp, prefix: str) -> CanonicalMilp:
    """``milp`` without the rows whose names start with ``prefix``."""
    keep = np.array([not name.startswith(prefix) for name in milp.row_names])
    entry = keep[milp.a_rows]
    return CanonicalMilp(
        milp.col_lb, milp.col_ub, milp.col_obj, milp.col_binary,
        milp.col_names, [s for s, k in zip(milp.row_sense, keep) if k],
        milp.row_rhs[keep], [n for n, k in zip(milp.row_names, keep) if k],
        (np.cumsum(keep) - 1)[milp.a_rows[entry]], milp.a_cols[entry],
        milp.a_vals[entry])


@pytest.mark.parametrize("changes", STORE_SWEEP.values(), ids=STORE_SWEEP.keys())
def test_braking_intake_rows_leave_the_optimum_where_it_was(changes):
    # every integral point meets RB_t <= min(rb_t, M_c) UB_t, so the rows
    # cut off relaxation points alone
    _, model = ref_scenario_models("A", changes)[0]
    bare = without_rows(model.milp, "RV")
    # one row per step where the scenario brakes
    steps = model.index.braking_steps
    assert len(steps) and bare.n_rows == model.milp.n_rows - len(steps)
    with_rows = highs_objective(model.milp)
    assert abs(with_rows - highs_objective(bare)) <= 1e-9 * abs(with_rows)


def test_grown_random_instances_match_highs_on_the_paper_formulation():
    # the criterion-1 generator over 12 to 16 steps in modes A and C: the
    # paper's formulation holds 24 to 32 binaries, past exhaustive
    # enumeration
    rng = np.random.default_rng(20240820)
    t0 = time.perf_counter()
    for k in range(20):
        model = random_ems_instance(rng, steps=range(12, 17), modes=("A", "C"))
        paper = paper_formulation(model)
        assert 24 <= paper.n_binaries <= 32, k
        sol = solve_ems(model)
        rel = rel_error(sol.objective, highs_objective(paper))
        assert rel <= 1e-6, f"instance {k}: relative error {rel:.3e}"
    print(f"\n20 grown instances checked against HiGHS in "
          f"{time.perf_counter() - t0:.1f}s")


def test_an_unbounded_model_is_reported_in_highs_own_words():
    # no status of ours names an unbounded LP, as the builder refuses an
    # infinite bound; so the bound is opened after the model is built
    b = ModelBuilder()
    b.add_column("x", 0.0, 1.0, -1.0)
    b.add_row("r", ROW_LE, 5.0, [(0, -1.0)])
    milp = dataclasses.replace(b.build(), col_ub=np.array([np.inf]))
    status, objective = highs_solve(milp)
    assert status.startswith("HiGHS status 3: ") and objective is None
