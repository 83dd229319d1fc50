"""Dispatch model structure, exact solves, independent checks, and repair."""
from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from station_ems.milp.branch_bound import solve_mip
from station_ems.milp.canonical import (
    CanonicalMilp,
    ModelBuilder,
    STATUS_INFEASIBLE,
    STATUS_LIMIT,
    STATUS_OPTIMAL,
    feasibility_report,
)
from station_ems.milp.mps import export_mps
from station_ems.milp import simplex
from station_ems.milp.simplex import solve_lp
from station_ems.model import (
    EmsSolveError,
    InfeasibleModelError,
    build_model,
    check_dispatch,
    crash_basis,
    extract_solution,
    repair_dispatch,
    solve_ems,
    solve_root,
    storage_levels,
    with_scenario,
)
from station_ems.scenarios import ScenarioSet
from station_ems.types import EssSpec, TimeGrid

from conftest import (
    STORE_100,
    brute_force_mip,
    car_session,
    make_scenario,
    make_site_cfg,
    parse_mps,
    ref_inputs,
    ref_scenario_models,
    single_set,
    three_step_instance,
)

GRID3 = TimeGrid(10.0, 3)


def small_model(mode="A", *, kappa=0.5, w_theta=1.0, ess=None,
                demand=(300.0, 420.0, 250.0), pv=(40.0, 90.0, 10.0),
                rb=(80.0, 0.0, 0.0), price=(0.1, 0.3, 0.2), other=None):
    """A 3-step, one-car model; ``other`` is a second scenario of the set
    the rows are built for, as (demand, rb), each at probability 0.5."""
    cfg = make_site_cfg(
        n_t=3, p_buy_max_kw=800.0, p_sell_max_kw=150.0,
        ess=ess or EssSpec(soc_max_kwh=60.0, soc_min_kwh=6.0, soc_init_kwh=30.0,
                           charge_rate_max_kw=40.0, discharge_rate_max_kw=40.0,
                           eta_charge=0.95, eta_discharge=0.95),
        p_max_kw=600.0, kappa=kappa, w_theta=w_theta)
    sessions = [car_session(0, 0, 2, 5.0, kappa, GRID3)]
    scenario = make_scenario(demand, pv=pv, rb=rb, price_buy=price)
    if other is None:
        return build_model(cfg, sessions, single_set(scenario), mode=mode)
    second = make_scenario(other[0], pv=pv, rb=other[1], price_buy=price,
                           probability=0.5, index=1)
    return build_model(cfg, sessions, ScenarioSet(
        (dataclasses.replace(scenario, probability=0.5), second)), mode=mode)


# ---------------------------------------------------------------------------
# structure

def test_column_and_row_census_mode_a():
    model = small_model("A")
    milp = model.milp
    # per step: buy, sell, charge, discharge, braking intake, store level,
    # plus the storage direction binary; the one car adds power per parked
    # step and one departure-energy column
    assert milp.n_cols == 3 * 7 + 3 + 1
    # per step: balance, charge gate, discharge gate and store recursion;
    # a braking-intake gate at step 0 alone, where braking energy is
    # available; no peak row, as the car's 22 kW cannot lift any step past
    # the 600 kW cap; the car adds its departure floor and its request cap,
    # as its two parked steps after arrival could deliver 7.3 of 5 kWh
    assert milp.n_rows == 3 * 4 + 1 + 2
    assert [n for n in milp.row_names if n.startswith(("RV", "PK", "CP"))] \
        == ["RV00", "CP00"]
    assert milp.n_binaries == 3
    names = set(milp.col_names)
    assert "G00" in names and "UB02" in names and "TH00" in names
    assert not any(n.startswith("UG") for n in names)


def test_column_and_row_census_mode_b():
    model = small_model("B")
    milp = model.milp
    # per step: buy and sell and a balance row, the peak row left out as
    # in mode A; no binary
    assert milp.n_cols == 3 * 2 + 3 + 1
    assert milp.n_rows == 3 + 2
    assert milp.n_binaries == 0
    joined = " ".join(milp.col_names)
    for prefix in ("BC", "BD", "RB", "SB", "UB", "UG"):
        assert prefix not in joined
    assert model.index.station_cols["ess_charge"] is None


def test_mode_c_zeroes_plant_output():
    model = small_model("C")
    assert np.all(model.index.pv == 0.0)
    # demand side of the balance is unchanged
    assert model.index.demand[1] == 420.0
    bl = model.milp.row_names.index("BL01")
    assert model.milp.row_rhs[bl] == pytest.approx(420.0)


def test_balance_rhs_is_demand_minus_plant():
    model = small_model("A")
    bl = model.milp.row_names.index("BL01")
    assert model.milp.row_rhs[bl] == pytest.approx(420.0 - 90.0)


def test_braking_intake_bounded_by_availability():
    model = small_model("A")
    idx = model.index
    col = int(idx.station_cols["rb_to_ess"][0])
    assert model.milp.col_ub[col] == pytest.approx(80.0)
    col = int(idx.station_cols["rb_to_ess"][1])
    assert model.milp.col_ub[col] == pytest.approx(0.0)


def test_braking_intake_gate_takes_the_smaller_of_availability_and_big_m():
    # RV_t: RB_t - c_t UB_t <= 0 with c_t = min(rb_t, M_c), and M_c where
    # the scenario has no braking energy and another of the set has; here
    # M_c is the 40 kW charge rate.  Steps where no scenario brakes have no
    # row
    def gate(model):
        milp = model.milp
        idx = model.index
        rows = {int(n[2:]): r for r, n in enumerate(milp.row_names)
                if n.startswith("RV")}
        assert list(rows) == idx.braking_steps.tolist()
        assert all(milp.row_sense[r] == "L" and milp.row_rhs[r] == 0.0
                   for r in rows.values())
        coef = {(int(r), int(c)): float(v)
                for r, c, v in zip(milp.a_rows, milp.a_cols, milp.a_vals)}
        for t, r in rows.items():
            assert coef[(r, int(idx.station_cols["rb_to_ess"][t]))] == 1.0
        return {t: coef[(r, int(idx.station_cols["ess_charge_on"][t]))]
                for t, r in rows.items()}

    assert gate(small_model("A", rb=(30.0, 0.0, 95.0))) == {0: -30.0, 2: -40.0}
    assert gate(small_model("C", rb=(0.0, 12.5, 0.0))) == {1: -12.5}
    # a step where another scenario of the set brakes keeps its row, and
    # each scenario written in takes its own coefficients there
    second_rb = (0.0, 12.5, 0.0)
    paired = small_model("A", rb=(30.0, 0.0, 0.0),
                         other=((300.0, 420.0, 250.0), second_rb))
    assert gate(paired) == {0: -30.0, 1: -40.0}
    second = make_scenario((300.0, 420.0, 250.0), pv=(40.0, 90.0, 10.0),
                           rb=second_rb, price_buy=(0.1, 0.3, 0.2), index=1)
    assert gate(with_scenario(paired, second)) == {0: -40.0, 1: -12.5}
    assert not any(n.startswith("RV") for n in small_model("B").milp.row_names)


def test_theta_column_bounds_and_weight():
    model = small_model("A", w_theta=2.5)
    ses = model.index.sessions[0]
    col = int(model.index.theta_cols[0])
    assert model.milp.col_lb[col] == pytest.approx(ses.theta_min_kwh)
    assert model.milp.col_ub[col] == pytest.approx(ses.theta_max_kwh)
    assert model.milp.col_obj[col] == pytest.approx(-2.5)


def test_vehicle_level_is_rebuilt_from_power(ref_run):
    # on the reference day: the initial level at arrival, eta * dt * power
    # added at each later parked step, zero outside the stay
    result, _ = ref_run
    dt_h = result.cfg.time_grid.step_hours
    sol = result.solutions[0]
    for i, ses in enumerate(result.sessions):
        a, d = ses.t_arrival, ses.t_departure
        soc = sol.ev_soc[i]
        assert soc[a] == ses.soc_init_kwh
        gain = ses.ev.eta * dt_h * sol.ev_power[i, a + 1:d + 1]
        assert np.allclose(np.diff(soc[a:d + 1]), gain, rtol=0.0, atol=1e-9)
        assert not soc[:a].any() and not soc[d + 1:].any()
        assert sol.departure_soc[i] == soc[d]
    assert sol.ev_power.any()


def test_peak_rows_only_while_parked():
    # the car's 22 kW over the 300 kW demand can break a 310 kW cap; at
    # step 0 no vehicle is parked, and the demand over the cap by less than
    # the presolve's 1e-9 kW tolerance needs no row
    cfg = make_site_cfg(n_t=4, p_buy_max_kw=800.0, p_sell_max_kw=150.0,
                        p_max_kw=310.0, kappa=0.0)
    sessions = [car_session(0, 1, 2, 5.0, 0.0, TimeGrid(10.0, 4))]
    scenario = make_scenario([310.0 + 5e-10, 300.0, 300.0, 300.0])
    model = build_model(cfg, sessions, single_set(scenario))
    rows = set(model.milp.row_names)
    assert "PK01" in rows and "PK02" in rows
    assert "PK00" not in rows and "PK03" not in rows
    assert solve_ems(model).status == STATUS_OPTIMAL


def test_peak_rows_only_where_the_parked_vehicles_can_break_the_cap():
    # 590 kW of demand leaves the 600 kW cap 10 kW of room under the car's
    # 22 kW at step 1 alone; the set's highest demand decides
    assert [n for n in small_model("A", demand=(300.0, 590.0, 250.0))
            .milp.row_names if n.startswith("PK")] == ["PK01"]
    paired = small_model("A", other=((300.0, 420.0, 590.0), (0.0,) * 3))
    assert paired.index.peak_steps.tolist() == [2]


def test_with_scenario_refuses_demand_that_needs_a_missing_peak_row():
    # built for 420 kW at step 1, the model has no peak row there; 590 kW
    # would let the car break the cap
    model = small_model("A")
    assert not len(model.index.peak_steps)
    busy = make_scenario((300.0, 590.0, 250.0), index=5)
    with pytest.raises(ValueError, match=r"^scenario 5: train demand 590 kW "
                       r"at step 1 lets the parked vehicles' 22 kW break the "
                       r"peak cap 600 kW, and the model has no PK row there"):
        with_scenario(model, busy)
    # at exactly the cap the row cannot bind, so it is written in
    level = make_scenario((300.0, 578.0, 250.0))
    assert with_scenario(model, level).index.demand[1] == 578.0


def test_request_rows_only_where_a_visit_can_deliver_more_than_it_asks():
    # two parked steps after arrival at 22 kW give 7.3 kWh: a 5 kWh
    # request needs its row, an 8 kWh one does not
    for e_kwh, rows in ((5.0, ["DP00", "CP00"]), (8.0, ["DP00"])):
        cfg = make_site_cfg(n_t=3, p_max_kw=600.0, kappa=0.5)
        sessions = [car_session(0, 0, 2, e_kwh, 0.5, GRID3)]
        model = build_model(cfg, sessions, single_set(
            make_scenario((300.0, 420.0, 250.0))))
        assert [n for n in model.milp.row_names if n[:2] in ("DP", "CP")] \
            == rows
        sol = solve_ems(model)
        assert all(c.passed for c in sol.checks if c.hard)
        assert sol.departure_soc[0] <= e_kwh + 1e-9


def test_terminal_row_when_flagged():
    ess = EssSpec(soc_max_kwh=60.0, soc_min_kwh=6.0, soc_init_kwh=30.0,
                  charge_rate_max_kw=40.0, discharge_rate_max_kw=40.0,
                  eta_charge=0.95, eta_discharge=0.95,
                  terminal_equals_initial=True)
    model = small_model("A", ess=ess)
    assert "ST" in model.milp.row_names
    sol = solve_ems(model)
    assert sol.ess_soc[-1] == pytest.approx(30.0, abs=1e-6)


def test_discharge_factor_switch_changes_recursion():
    ess_mul = EssSpec(soc_max_kwh=60.0, soc_min_kwh=6.0, soc_init_kwh=30.0,
                      charge_rate_max_kw=40.0, discharge_rate_max_kw=40.0,
                      eta_charge=0.95, eta_discharge=0.8)
    ess_div = dataclasses.replace(ess_mul, discharge_efficiency_divides=True)

    def discharge_coeff(model):
        milp = model.milp
        r = milp.row_names.index("SR01")
        bd = int(model.index.station_cols["ess_discharge"][1])
        mask = (milp.a_rows == r) & (milp.a_cols == bd)
        return float(milp.a_vals[mask][0])

    dt_h = 1.0 / 6.0
    assert discharge_coeff(small_model("A", ess=ess_mul)) \
        == pytest.approx(0.8 * dt_h)
    assert discharge_coeff(small_model("A", ess=ess_div)) \
        == pytest.approx(dt_h / 0.8)


def test_presolve_rejects_demand_above_cap():
    with pytest.raises(InfeasibleModelError, match="step 1"):
        small_model("A", demand=(300.0, 700.0, 250.0))


def test_rejects_a_sell_price_above_the_buy_price():
    # netting buying against selling would cost where selling pays more
    model = small_model("A")
    dear = make_scenario((300.0, 420.0, 250.0), price_buy=(0.1, 0.3, 0.2),
                         price_sell=(0.1, 0.3, 0.25), index=7)
    with pytest.raises(ValueError, match="scenario 7 .* at step 2"):
        with_scenario(model, dear)
    level = make_scenario((300.0, 420.0, 250.0), price_buy=(0.1, 0.3, 0.2),
                          price_sell=(0.05, 0.3, 0.2))
    assert with_scenario(model, level).index.price_sell[0] == 0.05


def test_rejects_session_outside_horizon():
    cfg = make_site_cfg(n_t=3)
    bad = car_session(0, 0, 5, 5.0, 0.0, TimeGrid(10.0, 6))
    with pytest.raises(ValueError, match="horizon"):
        build_model(cfg, [bad], single_set(make_scenario([100.0] * 3)))


def test_rejects_unknown_mode_and_empty_set():
    with pytest.raises(ValueError, match="mode"):
        small_model("Z")
    cfg = make_site_cfg(n_t=3)
    with pytest.raises(ValueError, match="^a model needs a scenario, the set "
                       "holds 0$"):
        build_model(cfg, [], ScenarioSet(()))
    # every scenario of the set sets the rows, so each must fit the horizon
    pair = ScenarioSet((make_scenario([100.0] * 3, probability=0.5, index=0),
                        make_scenario([200.0] * 2, probability=0.5, index=4)))
    with pytest.raises(ValueError, match="^scenario 4 has 2 steps, the model 3$"):
        build_model(cfg, [], pair)
    with pytest.raises(ValueError, match="^scenario 4 has 2 steps, the model 3$"):
        with_scenario(small_model("A"), make_scenario([100.0] * 2, index=4))


def test_one_minute_day_builds_and_round_trips(tmp_path):
    # 1440 steps need three-digit step codes in the names
    n_t = 1440
    grid = TimeGrid(1.0, n_t)
    cfg = make_site_cfg(n_t=n_t, step_minutes=1.0, p_buy_max_kw=800.0,
                        p_sell_max_kw=150.0, p_max_kw=600.0, kappa=0.5)
    sessions = [car_session(0, 1290, 1310, 5.0, 0.5, grid)]
    model = build_model(cfg, sessions, single_set(make_scenario([100.0] * n_t)))
    milp = model.milp
    assert len(set(milp.col_names)) == milp.n_cols
    assert len(set(milp.row_names)) == milp.n_rows
    assert "G13Z" in milp.col_names and "EV000100" in milp.col_names

    path = tmp_path / "day.mps"
    export_mps(milp, path)
    back = parse_mps(path)
    assert back.col_names == milp.col_names and back.row_names == milp.row_names
    for name in ("col_lb", "col_ub", "col_obj", "col_binary", "row_rhs"):
        assert np.array_equal(getattr(back, name), getattr(milp, name)), name
    assert back.row_sense == milp.row_sense
    assert np.array_equal(back.columns_csc()[0], milp.columns_csc()[0])
    assert np.array_equal(back.columns_csc()[1], milp.columns_csc()[1])
    assert np.array_equal(back.columns_csc()[2], milp.columns_csc()[2])


# ---------------------------------------------------------------------------
# exact solves

@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_small_solve_matches_enumeration(mode):
    model = small_model(mode)
    sol = solve_ems(model)
    ref = brute_force_mip(model.milp)
    assert ref.status == STATUS_OPTIMAL
    scale = max(1.0, abs(ref.objective))
    assert abs(sol.objective - ref.objective) / scale <= 1e-6
    assert all(c.passed for c in sol.checks if c.hard)


def test_solution_fields_are_consistent():
    model = small_model("A")
    root = solve_root(model)
    sol = solve_ems(model)
    assert sol.status == STATUS_OPTIMAL
    assert root.status == STATUS_OPTIMAL
    # the objective is the energy cost minus the departure-energy value
    assert sol.objective == pytest.approx(sol.cost - sol.theta_value, abs=1e-9)
    assert sol.ev_total_power.shape == (3,)
    assert sol.departure_soc[0] == pytest.approx(sol.theta[0], abs=1e-6)


def stacked(blocks) -> CanonicalMilp:
    """Block-diagonal program of independent models, each objective scaled
    by its weight: the joint program of a scenario tree."""
    b = ModelBuilder()
    for k, (w, m) in enumerate(blocks):
        cols = b.add_columns([f"S{k}{n}" for n in m.col_names], m.col_lb,
                             m.col_ub, w * m.col_obj, m.col_binary)
        b.add_rows([f"S{k}{n}" for n in m.row_names], m.row_sense, m.row_rhs,
                   m.a_rows, cols[m.a_cols], m.a_vals)
    return b.build()


def test_scenario_separability():
    cfg = make_site_cfg(n_t=3, p_buy_max_kw=800.0, p_sell_max_kw=150.0,
                        p_max_kw=600.0, kappa=0.5)
    sessions = [car_session(0, 0, 2, 5.0, 0.5, GRID3)]
    s0 = make_scenario([300.0, 420.0, 250.0], pv=[40.0, 90.0, 10.0],
                       rb=[80.0, 0.0, 0.0], price_buy=[0.1, 0.3, 0.2],
                       probability=0.7, index=0)
    s1 = make_scenario([200.0, 500.0, 100.0], pv=[0.0, 20.0, 60.0],
                       rb=[0.0, 50.0, 0.0], price_buy=[0.2, 0.1, 0.4],
                       probability=0.3, index=1)
    # a model of the pair holds s0 on the rows either scenario needs
    paired = build_model(cfg, sessions, ScenarioSet((s0, s1)))
    assert paired.index.demand.tolist() == s0.demand.tolist()
    assert paired.index.braking_steps.tolist() == [0, 1]

    singles = [(prob, build_model(cfg, sessions, single_set(sc)))
               for sc, prob in ((s0, 0.7), (s1, 0.3))]
    joint = stacked([(prob, model.milp) for prob, model in singles])
    joint_sol = solve_mip(joint)
    assert joint_sol.status == STATUS_OPTIMAL

    total = 0.0
    for prob, single in singles:
        sol = solve_ems(single)
        total += prob * sol.objective
    assert joint_sol.objective == pytest.approx(total, abs=1e-6)
    assert solve_ems(paired).objective == pytest.approx(
        solve_ems(singles[0][1]).objective, rel=1e-9)


@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_a_one_scenario_model_is_its_own_scenario_written_in(mode):
    # a one-scenario build holds the rows its scenario can bind: rewriting
    # that scenario changes no array, and the optimum is the one on the
    # whole tree's rows
    cfg, sessions, tree = ref_inputs({"peak.p_max_kw": 2450.0})
    whole = build_model(cfg, sessions, tree, mode)
    for sc in tree:
        alone = build_model(cfg, sessions, single_set(sc), mode)
        again = with_scenario(alone, sc)
        for name in ("col_lb", "col_ub", "col_obj", "row_rhs", "a_rows",
                     "a_cols", "a_vals"):
            assert getattr(again.milp, name).tobytes() \
                == getattr(alone.milp, name).tobytes(), (sc.index, name)
        assert again.milp.row_names == alone.milp.row_names
        idx = alone.index
        assert idx.peak_steps.tolist() == np.flatnonzero(
            sc.demand + idx.parked_kw > cfg.peak.p_max_kw).tolist()
        assert idx.braking_steps.tolist() == (
            [] if mode == "B" else np.flatnonzero(sc.rb_available).tolist())
        on_tree = solve_lp(with_scenario(whole, sc).milp)
        own = solve_lp(alone.milp)
        assert own.status == on_tree.status == STATUS_OPTIMAL
        assert own.objective == pytest.approx(on_tree.objective, rel=1e-9)


def test_infeasible_floor_raises_solve_error():
    # the cap leaves no room for charging, yet the floor demands energy
    cfg = make_site_cfg(n_t=3, p_buy_max_kw=800.0, p_sell_max_kw=150.0,
                        p_max_kw=100.0, kappa=1.0)
    sessions = [car_session(0, 0, 2, 5.0, 1.0, GRID3)]
    model = build_model(cfg, sessions, single_set(make_scenario([100.0] * 3)),
                        mode="B")
    with pytest.raises(EmsSolveError) as info:
        solve_ems(model)
    assert info.value.status == STATUS_INFEASIBLE
    # the tree search alone reaches the same verdict
    assert solve_mip(model.milp).status == STATUS_INFEASIBLE


def test_node_limit_error_states_the_search_state():
    # the reference day closes at its root; with a 100 kWh store it branches
    _, model = ref_scenario_models("A", STORE_100)[0]
    with pytest.raises(EmsSolveError) as info:
        solve_ems(model, max_nodes=1)
    err = info.value
    assert err.status == STATUS_LIMIT
    mip = err.mip
    assert mip.node_count == 1 and mip.lp_iterations > 0
    assert mip.last_lp_status == STATUS_OPTIMAL
    assert np.isfinite(mip.best_bound)
    text = str(err)
    for part in (f"best bound {mip.best_bound:.9g}", f"gap {mip.gap:.3g}",
                 "1 nodes", f"{mip.lp_iterations} LP iterations",
                 "last LP status 'optimal'"):
        assert part in text


@pytest.mark.parametrize("capacity_kwh", [0.001, 1.0, 10.0])
def test_a_small_store_keeps_the_tree_small(capacity_kwh):
    # the direction rows take their big-M from the store's range; the rate
    # caps alone leave a small store's relaxation loose and its tree large
    _, model = ref_scenario_models("A", {"ess.capacity_kwh": capacity_kwh})[0]
    sol = solve_ems(model, max_nodes=200)
    assert sol.node_count <= 200


def test_repaired_root_ends_the_search_without_another_lp():
    # in mode B the repaired root relaxation closes the gap on every
    # reference scenario, so the tree solves no LP of its own
    for idx, model in ref_scenario_models("B"):
        root = solve_root(model)
        sol = solve_ems(model)
        assert sol.node_count == 1, idx
        assert sol.lp_iterations == root.iterations, idx


# mode -> iterations of each reference scenario's root from the crash basis
CRASH_ROOT_ITERATIONS = {"A": (371, 372, 371, 372), "B": (15, 15, 15, 15),
                         "C": (371, 372, 371, 372)}


@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_crash_basis_roots_take_their_pinned_iterations(mode, monkeypatch):
    # solve_lp falls back to the slack basis without a word, so the pinned
    # counts, below the slack start's, show that the crash basis is used.
    # Every crash start is primal infeasible.  With storage it is not dual
    # feasible either, so it takes the primal path and the dual simplex
    # never runs; without storage theta starts at its upper bound, which
    # makes it dual feasible, and the dual runs from it
    duals = []
    dual = simplex._Simplex._dual
    monkeypatch.setattr(simplex._Simplex, "_dual",
                        lambda self, d: duals.append(d) or dual(self, d))
    for (idx, model), pinned in zip(ref_scenario_models(mode),
                                    CRASH_ROOT_ITERATIONS[mode]):
        start = simplex._Simplex(model.milp, None, None, None)
        assert start._start(*crash_basis(model))
        assert start._phase1_costs().any(), idx
        d = start._reduced_costs(start.cost2[start.basis], start.cost2)
        assert start._eligible(d, start.tol_d2).any() == (mode != "B"), idx
        duals.clear()
        crash = solve_root(model)
        assert len(duals) == (mode == "B"), idx
        slack = solve_lp(model.milp)
        assert crash.status == slack.status == STATUS_OPTIMAL
        assert crash.iterations == pinned, (idx, crash.iterations)
        assert crash.iterations < slack.iterations, (idx, slack.iterations)
        assert crash.objective == pytest.approx(slack.objective, rel=1e-12)


# mode -> sha256 of the reference anchor's pivots, one line each: the
# entering column and the basis position it enters at, or "flip", and each
# column that the dual's ratio test flips, before the pivot it passes to
ANCHOR_PIVOTS = {
    "A": "60d10e718b1da03a0808d46e651b556b97debd539c8021dbb2f9ca524ad0ced0",
    "B": "a84bff1138f73313f964be064df6d7fe81f20a6848f2b4b7ff0587a4db2922ff",
    "C": "60d10e718b1da03a0808d46e651b556b97debd539c8021dbb2f9ca524ad0ced0",
}
ANCHOR_DUAL_FLIPS = {"A": 0, "B": 69, "C": 0}


@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_the_reference_anchors_take_their_pinned_pivots(mode, monkeypatch):
    # the pivot counts alone would let two kernels that price or factor
    # apart by round-off pass; this pins every pivot of the anchors
    pivots = []
    pivot = simplex._Simplex._pivot

    def logged(self, q, w, move, k, at_ub, primal):
        pivots.append(f"{q} {'flip' if k is None else k}\n")
        return pivot(self, q, w, move, k, at_ub, primal)

    monkeypatch.setattr(simplex._Simplex, "_pivot", logged)
    flips = []
    flip = simplex._Simplex._flip

    def logged_flips(self, cols):
        flips.extend(cols.tolist())
        pivots.extend(f"{j} dual flip\n" for j in cols.tolist())
        return flip(self, cols)

    monkeypatch.setattr(simplex._Simplex, "_flip", logged_flips)
    cfg, sessions, tree = ref_inputs()
    anchor = solve_root(build_model(cfg, sessions, tree, mode))
    assert anchor.status == STATUS_OPTIMAL
    # the dual's flips are no iterations of their own; only mode B's
    # anchor runs the dual
    assert len(pivots) - len(flips) == anchor.iterations \
        == CRASH_ROOT_ITERATIONS[mode][0]
    assert len(flips) == ANCHOR_DUAL_FLIPS[mode]
    digest = hashlib.sha256("".join(pivots).encode()).hexdigest()
    assert digest == ANCHOR_PIVOTS[mode]


@pytest.mark.parametrize("mode", ["A", "B"])
def test_roots_from_one_anchor_factorize_its_basis_once(mode, factorizations):
    # without storage every scenario shares the coefficient array, so the
    # anchor's basis has the same factors in each and the roots reuse them;
    # with it each scenario writes its own braking-intake coefficients, so
    # each root factorizes the anchor's basis once, in its own matrix.
    # Either way they answer bit for bit as with factors of their own
    cfg, sessions, tree = ref_inputs()
    base = build_model(cfg, sessions, single_set(tree[0]), mode)
    anchor = solve_root(base)
    own = []
    for sc in tree[1:]:
        model = with_scenario(base, sc)
        own.append(solve_lp(model.milp,
                            warm=dataclasses.replace(anchor, factors=None)))

    starts = []  # per root, the bases of its factorizations
    for sc, alone in zip(tree[1:], own):
        model = with_scenario(base, sc)
        factorizations.clear()
        root = solve_root(model, anchor)
        starts.append([args[-1] for args in factorizations])
        assert root.status == alone.status == STATUS_OPTIMAL
        assert root.iterations == alone.iterations, sc.index
        assert root.x.tobytes() == alone.x.tobytes(), sc.index
        assert np.array_equal(root.basis, alone.basis), sc.index
    # the anchor's basis, factorized once per coefficient array; no root's
    # own pivots refactorize
    per_root = [1] + [0] * (len(tree) - 2) if mode == "B" \
        else [1] * (len(tree) - 1)
    assert [len(bases) for bases in starts] == per_root
    assert all(np.array_equal(bases[0], anchor.basis) for bases in starts
               if bases)
    # the factors kept on the anchor serve the last matrix again
    factorizations.clear()
    solve_root(model, anchor)
    assert factorizations == []


def test_sibling_nodes_share_one_factorization(factorizations):
    _, model = ref_scenario_models("A")[0]
    milp = model.milp
    parent = solve_root(model)
    bins = np.flatnonzero(milp.col_binary)
    j = int(bins[np.argmax(np.abs(parent.x[bins] - np.round(parent.x[bins])))])
    children = []
    for fix in (0.0, 1.0):
        lb, ub = milp.col_lb.copy(), milp.col_ub.copy()
        lb[j] = ub[j] = fix
        children.append((lb, ub))

    # each child from its own copy of the parent makes its own factors
    apart = [solve_lp(milp, lb, ub,
                      warm=dataclasses.replace(parent, factors=None))
             for lb, ub in children]
    factorizations.clear()
    together = [solve_lp(milp, lb, ub, warm=parent) for lb, ub in children]
    # one factorization of the parent's basis, kept on it for the second
    # child; neither child's own pivots refactorize here
    assert len(factorizations) == 1
    assert np.array_equal(factorizations[0][-1], parent.basis)
    for one, other in zip(apart, together):
        assert one.status == other.status == STATUS_OPTIMAL
        assert one.iterations == other.iterations
        assert one.x.tobytes() == other.x.tobytes()
        assert np.array_equal(one.basis, other.basis)


@pytest.mark.parametrize("make, made", [
    (lambda milp: milp.with_data(a_vals=milp.a_vals.copy()), 1),
    (lambda milp: dataclasses.replace(milp), 1),
    (lambda milp: milp.with_data(row_rhs=milp.row_rhs.copy()), 0),
], ids=["new_a_vals", "replace_copy", "kept_a_vals"])
def test_kept_factors_follow_the_coefficient_array(make, made,
                                                   factorizations):
    # factors kept on a solution are reused by a model with the structure
    # and the coefficient array they were made in, and made again for any
    # other, which keeps them in turn; every start reaches the same optimum
    model = three_step_instance()
    sol = solve_lp(model.milp)
    again = solve_lp(model.milp, warm=sol)
    assert sol.factors is not None
    factorizations.clear()
    other = make(model.milp)
    moved = solve_lp(other, warm=sol)
    assert len(factorizations) == made
    assert all(np.array_equal(args[-1], sol.basis) for args in factorizations)
    assert solve_lp(other, warm=sol).iterations == 0
    assert len(factorizations) == made
    assert moved.status == again.status == STATUS_OPTIMAL
    assert moved.objective == again.objective == sol.objective
    assert moved.iterations == again.iterations == 0


def test_a_basis_that_does_not_fit_starts_from_the_slack_basis():
    model = three_step_instance()
    slack = solve_lp(model.milp)
    wrong = dataclasses.replace(slack, basis=slack.basis[:-1])
    got = solve_lp(model.milp, warm=wrong)
    assert wrong.factors is None
    assert got.status == STATUS_OPTIMAL
    # the slack start is deterministic, so the fallback retraces it
    assert got.iterations == slack.iterations > 0
    assert got.x.tobytes() == slack.x.tobytes()


def test_storage_levels_replay_the_per_step_loop_bit_for_bit():
    def per_step_loop(cfg, dt_h, rb, bc, bd):
        ess = cfg.ess
        eta_c = ess.eta_charge
        k_dis = (1.0 / ess.eta_discharge) if ess.discharge_efficiency_divides \
            else ess.eta_discharge
        soc = np.empty(len(rb))
        prev = ess.soc_init_kwh
        for t in range(len(rb)):
            prev = (1.0 - ess.self_discharge_rate) * prev \
                + eta_c * (rb[t] + bc[t]) * dt_h \
                - k_dis * bd[t] * dt_h
            soc[t] = prev
        return soc

    rng = np.random.default_rng(3)
    for _ in range(50):
        ess = EssSpec(soc_max_kwh=1000.0, soc_min_kwh=0.0,
                      soc_init_kwh=float(rng.uniform(0.0, 1000.0)),
                      charge_rate_max_kw=500.0, discharge_rate_max_kw=500.0,
                      eta_charge=float(rng.uniform(0.8, 1.0)),
                      eta_discharge=float(rng.uniform(0.8, 1.0)),
                      self_discharge_rate=float(rng.choice([0.0, 1e-3])),
                      discharge_efficiency_divides=bool(rng.random() < 0.5))
        cfg = make_site_cfg(ess=ess)
        n_t = int(rng.integers(0, 200))
        dt_h = float(rng.choice([1.0 / 6.0, 0.25, 1.0]))
        flows = [rng.uniform(0.0, 500.0, n_t) * (rng.random(n_t) < 0.5)
                 for _ in range(3)]
        got = storage_levels(cfg, dt_h, *flows)
        assert got.tobytes() == per_step_loop(cfg, dt_h, *flows).tobytes()


def test_warm_start_reaches_same_objective():
    model = small_model("A")
    root = solve_root(model)
    sol_cold = solve_ems(model)
    sol_warm = solve_ems(model, warm=root)
    assert sol_warm.objective == pytest.approx(sol_cold.objective, abs=1e-9)


# ---------------------------------------------------------------------------
# independent checks and repair

def test_check_dispatch_flags_balance_violation():
    model = small_model("A")
    sol = solve_ems(model)
    sol.grid_buy[1] += 5.0
    failures = {c.name for c in check_dispatch(sol) if not c.passed}
    assert "power_balance" in failures


def test_check_dispatch_flags_complementarity():
    model = small_model("A")
    sol = solve_ems(model)
    sol.grid_buy[0] += 3.0
    sol.grid_sell[0] += 3.0
    failures = {c.name for c in check_dispatch(sol) if not c.passed}
    assert "grid_complementarity" in failures


def _ev_failures(mutate) -> set:
    # a car parked over steps 1..2 of three, solved, then corrupted
    cfg = make_site_cfg(n_t=3, p_buy_max_kw=800.0, p_sell_max_kw=150.0,
                        p_max_kw=600.0, kappa=0.5)
    sessions = [car_session(0, 1, 2, 5.0, 0.5, GRID3)]
    model = build_model(cfg, sessions, single_set(make_scenario(
        [300.0, 420.0, 250.0], price_buy=[0.1, 0.3, 0.2])))
    sol = solve_ems(model)
    assert all(c.passed for c in sol.checks)
    mutate(sol, model.index.sessions[0])
    return {c.name for c in check_dispatch(sol) if not c.passed}


def test_check_dispatch_flags_ev_power_above_its_rate():
    def mutate(sol, ses):
        sol.ev_power[0, 2] = ses.ev.p_max_kw + 1.0
    assert "ev_rate_cap" in _ev_failures(mutate)


def test_check_dispatch_flags_ev_power_outside_the_stay():
    def mutate(sol, ses):
        sol.ev_power[0, 0] = 1.0
    assert "ev_window_zero" in _ev_failures(mutate)


@pytest.mark.parametrize("level_too", [False, True])
def test_check_dispatch_reads_departure_energy_from_power(level_too):
    # the departure floor is measured from power, so raising the reported
    # level along with theta does not hide the gap
    def mutate(sol, ses):
        sol.theta[0] += 1.0
        if level_too:
            sol.departure_soc[0] = sol.theta[0]
            sol.ev_soc[0, ses.t_departure] = sol.theta[0]
    assert "ev_departure_min" in _ev_failures(mutate)


def test_vehicle_checks_match_a_per_session_loop(ref_run):
    # the vectorized vehicle checks against a per-session loop on perturbed
    # copies of a reference solution; sums run in another order, hence the
    # tolerance
    result, _ = ref_run
    dt_h = result.cfg.time_grid.step_hours
    rng = np.random.default_rng(3)
    base = result.solutions[0]
    shape = base.ev_power.shape
    for _ in range(20):
        bump = rng.uniform(0.0, 30.0, shape) * (rng.random(shape) < 0.05)
        sol = dataclasses.replace(
            base, ev_power=base.ev_power + bump,
            theta=base.theta + rng.normal(0.0, 5.0, shape[0]))
        want = dict.fromkeys(("ev_rate_cap", "ev_window_zero",
                              "ev_departure_min", "ev_departure_max",
                              "theta_tightness"), 0.0)
        for i, ses in enumerate(result.sessions):
            a, d = ses.t_arrival, ses.t_departure
            pw, th = sol.ev_power[i], sol.theta[i]
            delivered = ses.soc_init_kwh + ses.ev.eta * dt_h * pw[a + 1:d + 1].sum()
            outside = np.concatenate([pw[:a], pw[d + 1:]])
            for name, value in (
                    ("ev_rate_cap", (pw[a:d + 1] - ses.ev.p_max_kw).max()),
                    ("ev_window_zero", np.abs(outside).max(initial=0.0)),
                    ("ev_departure_min", th - delivered),
                    ("ev_departure_max", delivered - ses.e_requested_kwh),
                    ("theta_tightness", abs(th - delivered))):
                want[name] = max(want[name], value)
        got = {c.name: c.max_residual for c in check_dispatch(sol)}
        for name, value in want.items():
            assert got[name] == pytest.approx(value, rel=1e-12, abs=1e-9), name


def test_extraction_nets_buying_against_selling():
    # the model has no grid-direction binary, so buying and selling the same
    # amount more in one step is another optimum; extraction nets it away
    model = small_model("B")
    mip = solve_mip(model.milp)
    col = model.index.station_cols
    x = mip.x.copy()
    x[col["grid_buy"][1]] += 5.0
    x[col["grid_sell"][1]] += 5.0
    assert feasibility_report(model.milp, x)["feasible"]
    assert model.milp.objective_value(x) == pytest.approx(mip.objective,
                                                          rel=1e-12)
    plain = extract_solution(mip, model)
    netted = extract_solution(dataclasses.replace(mip, x=x), model)
    assert all(c.passed for c in netted.checks if c.hard)
    assert np.all(netted.grid_buy * netted.grid_sell == 0.0)
    assert netted.grid_buy - netted.grid_sell == pytest.approx(
        plain.grid_buy - plain.grid_sell, abs=1e-9)
    assert netted.cost == pytest.approx(plain.cost, rel=1e-12)


def test_extract_solution_rejects_corrupt_point():
    model = small_model("A")
    mip = solve_mip(model.milp)
    bad = mip.x.copy()
    bad[int(model.index.station_cols["grid_buy"][0])] += 10.0
    corrupt = dataclasses.replace(mip, x=bad)
    from station_ems.model import SolutionCheckError
    with pytest.raises(SolutionCheckError):
        extract_solution(corrupt, model)


def test_repair_turns_relaxation_into_feasible_point():
    # braking arrives at the expensive step, tempting the relaxation into
    # charging and discharging the store at once
    model = small_model("A", rb=(0.0, 80.0, 0.0), price=(0.1, 0.5, 0.1))
    lp = solve_lp(model.milp)
    assert lp.status == STATUS_OPTIMAL
    cand = repair_dispatch(model, lp.x)
    assert cand is not None
    report = feasibility_report(model.milp, cand)
    assert report["feasible"]
    bins = model.milp.binary_indices()
    assert np.all(np.abs(cand[bins] - np.round(cand[bins])) <= 1e-9)
    # the repair never undercuts the relaxation bound
    assert model.milp.objective_value(cand) >= lp.objective - 1e-9


def test_repair_leaves_rows_off_the_store_to_the_tree_search():
    # one vehicle drawn to its rate cap where the peak cap leaves 10 kW of
    # room, the extra power bought from the grid: only the peak row breaks,
    # the store is untouched, so the repair hands the point on and the
    # model check refuses it
    model = small_model("A", demand=(300.0, 590.0, 250.0))
    idx = model.index
    lp = solve_lp(model.milp)
    assert lp.status == STATUS_OPTIMAL
    x = lp.x.copy()
    ev = int(idx.ev_power_cols[idx.ev_step == 1][0])
    buy = int(idx.station_cols["grid_buy"][1])
    x[buy] += 22.0 - x[ev]
    x[ev] = 22.0
    cand = repair_dispatch(model, x)
    assert cand is not None
    assert cand[ev] == 22.0
    report = feasibility_report(model.milp, cand)
    assert report["bounds_ok"] and report["integral"]
    assert not report["rows_ok"] and not report["feasible"]
    pk = int(idx.peak_rows[idx.peak_steps == 1][0])
    assert model.milp.row_activity(cand)[pk] == pytest.approx(
        model.milp.row_rhs[pk] + 12.0)


@pytest.mark.parametrize("over, refused", [(1e-6, True), (-1e-6, False)])
def test_repair_refuses_a_store_level_past_its_range(over, refused):
    # the model check bounds a column relative to its size, 1e-6 * (1 + 60)
    # kWh here, looser than the 1e-6 kWh the dispatch check allows, so the
    # repair's own range check is absolute
    ess = EssSpec(soc_max_kwh=60.0, soc_min_kwh=6.0, soc_init_kwh=58.0,
                  charge_rate_max_kw=40.0, discharge_rate_max_kw=40.0,
                  eta_charge=0.95, eta_discharge=0.95)
    model = small_model("A", ess=ess, rb=(0.0, 0.0, 0.0))
    x = np.zeros(model.milp.n_cols)
    x[model.index.station_cols["ess_charge"][0]] = (2.0 + over) / (0.95 / 6.0)
    cand = repair_dispatch(model, x)
    assert (cand is None) == refused
    if not refused:
        soc = cand[model.index.station_cols["ess_soc"]]
        assert soc == pytest.approx([60.0 - 1e-6] * 3, abs=1e-9)
