"""Acceptance gate: ten checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance is written out literally next to the assertion it guards.
"""
from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from station_ems.config import load_config
from station_ems.fleet import uncoordinated_profile
from station_ems.milp.branch_bound import solve_mip
from station_ems.milp.canonical import STATUS_OPTIMAL
from station_ems.milp.highs import highs_solve
from station_ems.milp.mps import export_mps
from station_ems.model import build_model, solve_ems
from station_ems.pipeline import run_pipeline, write_outputs
from station_ems.pv import pv_power
from station_ems.scenarios import AxisMember, ScenarioAxis, build_tree
from station_ems.types import EssSpec, FlexPolicy, PvSpec, TimeGrid

from conftest import (
    brute_force_mip,
    bus_session,
    car_session,
    make_scenario,
    make_site_cfg,
    paper_formulation,
    parse_mps,
    random_ems_instance,
    single_set,
    three_step_instance,
)

PEAK_CAP_KW = 3000.0


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {text}", flush=True)


def check_by_name(solution, name: str):
    for c in solution.checks:
        if c.name == name:
            return c
    raise AssertionError(f"check {name!r} missing")


def test_criterion_01_exact_solver_matches_enumeration():
    rng = np.random.default_rng(20240819)
    n_instances = 200
    worst_rel = 0.0
    t0 = time.perf_counter()
    for k in range(n_instances):
        model = random_ems_instance(rng)
        paper = paper_formulation(model)
        assert paper.n_binaries <= 8
        got = solve_mip(model.milp)
        ref = brute_force_mip(model.milp)
        # the paper's formulation, with a grid-direction binary per step,
        # reaches the same optimum
        ref_paper = brute_force_mip(paper)
        assert got.status == ref.status == ref_paper.status == STATUS_OPTIMAL, \
            f"instance {k}"
        for exact in (ref, ref_paper):
            rel = abs(got.objective - exact.objective) / max(1.0, abs(exact.objective))
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-6, f"instance {k}: relative error {rel:.3e}"
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-6 and elapsed < 60.0
    verdict(1, ok, f"tree search equals exhaustive enumeration of the model "
                   f"and of the paper's formulation on "
                   f"{n_instances} random instances (worst rel err "
                   f"{worst_rel:.2e}, {elapsed:.1f}s < 60s)")
    assert elapsed < 60.0


def test_criterion_02_reference_day_certified(ref_run):
    result, elapsed = ref_run
    cfg = result.cfg
    assert cfg.time_grid.horizon_steps == 144
    assert cfg.time_grid.step_minutes == 10.0
    kinds = [s.ev.kind for s in result.sessions]
    assert kinds.count("bus") == 5 and kinds.count("car") == 10
    assert len(result.tree) == 4

    worst_balance = 0.0
    worst_comp = 0.0
    for sol in result.solutions:
        worst_balance = max(worst_balance,
                            check_by_name(sol, "power_balance").max_residual)
        worst_comp = max(worst_comp,
                         check_by_name(sol, "grid_complementarity").max_residual,
                         check_by_name(sol, "ess_complementarity").max_residual)
    peak = result.report["peak"]["max_combined_kw"]

    ok = (worst_balance <= 1e-6 and worst_comp <= 1e-6
          and peak <= PEAK_CAP_KW + 1e-9 and elapsed < 300.0)
    verdict(2, ok, f"reference day certified (balance {worst_balance:.2e} kW, "
                   f"complementarity {worst_comp:.2e}, peak {peak:.1f} "
                   f"<= {PEAK_CAP_KW:.0f} kW, {elapsed:.1f}s < 300s)")
    assert worst_balance <= 1e-6
    assert worst_comp <= 1e-6
    assert peak <= PEAK_CAP_KW + 1e-9
    assert elapsed < 300.0


def test_criterion_03_departure_floor_is_tight(ref_run):
    result, _ = ref_run
    assert result.cfg.weights.w_theta == 1.0
    worst = 0.0
    for sol in result.solutions:
        worst = max(worst, float(np.max(np.abs(sol.theta - sol.departure_soc))))
    ok = worst <= 1e-6
    verdict(3, ok, f"departure energy equals its guarantee at every optimum "
                   f"(max |theta - soc| = {worst:.2e} kWh <= 1e-6)")
    assert worst <= 1e-6


def rb_rich_models():
    grid = TimeGrid(10.0, 12)
    ess = EssSpec(soc_max_kwh=1000.0, soc_min_kwh=100.0, soc_init_kwh=100.0,
                  charge_rate_max_kw=400.0, discharge_rate_max_kw=400.0,
                  eta_charge=1.0, eta_discharge=1.0)
    cfg = make_site_cfg(n_t=12, p_buy_max_kw=950.0, p_sell_max_kw=50.0,
                        ess=ess, p_max_kw=1100.0, kappa=0.25)
    sessions = [bus_session(0, 4, 10, 200.0, 0.25, grid),
                car_session(1, 0, 3, 5.0, 0.25, grid)]
    demand = [0.0] * 5 + [900.0] * 7
    rb = [400.0] * 5 + [0.0] * 7
    scenario = make_scenario(demand, rb=rb, price_buy=[0.2] * 12)
    return cfg, sessions, scenario


def pv_rich_models():
    grid = TimeGrid(10.0, 12)
    ess = EssSpec(soc_max_kwh=1000.0, soc_min_kwh=100.0, soc_init_kwh=100.0,
                  charge_rate_max_kw=400.0, discharge_rate_max_kw=400.0,
                  eta_charge=1.0, eta_discharge=1.0)
    cfg = make_site_cfg(n_t=12, p_buy_max_kw=950.0, p_sell_max_kw=50.0,
                        ess=ess, p_max_kw=1100.0, kappa=0.25)
    sessions = [bus_session(0, 4, 10, 200.0, 0.25, grid),
                car_session(1, 0, 3, 5.0, 0.25, grid)]
    demand = [900.0] * 12
    pv = [0.0] * 5 + [250.0] * 6 + [0.0]
    scenario = make_scenario(demand, pv=pv, price_buy=[0.2] * 12)
    return cfg, sessions, scenario


def departure_soc(cfg, sessions, scenario, mode):
    model = build_model(cfg, sessions, single_set(scenario), mode=mode)
    sol = solve_ems(model)
    return sol.departure_soc


def test_criterion_04_removing_equipment_never_helps_departure_soc():
    cfg, sessions, scenario = rb_rich_models()
    soc_a = departure_soc(cfg, sessions, scenario, "A")
    soc_b = departure_soc(cfg, sessions, scenario, "B")
    assert np.all(soc_a >= soc_b - 1e-9)
    assert np.any(soc_a > soc_b + 1e-6)

    cfg, sessions, scenario = pv_rich_models()
    soc_a2 = departure_soc(cfg, sessions, scenario, "A")
    soc_c = departure_soc(cfg, sessions, scenario, "C")
    assert np.all(soc_a2 >= soc_c - 1e-9)
    assert np.any(soc_a2 > soc_c + 1e-6)

    verdict(4, True,
            f"braking recovery lifts departure energy (bus "
            f"{soc_b[0]:.0f} -> {soc_a[0]:.0f} kWh), plant output too "
            f"({soc_c[0]:.0f} -> {soc_a2[0]:.0f} kWh); no vehicle worse off")


def write_peak_fixture(root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    n_t = 36
    lines = ["step,value"] + [f"{k},2600.0" for k in range(n_t)]
    (root / "demand.csv").write_text("\n".join(lines) + "\n")
    lines = ["step,value"] + [f"{k},0.0" for k in range(n_t)]
    (root / "radiation.csv").write_text("\n".join(lines) + "\n")
    lines = ["step,value"] + [f"{k},0.2" for k in range(n_t)]
    (root / "price.csv").write_text("\n".join(lines) + "\n")
    (root / "buses.csv").write_text("departure_time\n05:00\n05:00\n")
    doc = {
        "time_grid": {"step_minutes": 10, "horizon_steps": n_t},
        "grid": {"p_buy_max_kw": 4000.0, "p_sell_max_kw": 100.0},
        "ess": {"capacity_kwh": 10.0, "soc_min_fraction": 0.1,
                "soc_init_fraction": 0.5, "charge_rate_max_kw": 5.0,
                "discharge_rate_max_kw": 5.0},
        "peak": {"p_max_kw": PEAK_CAP_KW},
        "flexibility": {"kappa": 0.6},
        "fleet": {
            "car": {"arrival_rate_per_hour": 0.0,
                    "window_start": "00:00", "window_end": "01:00"},
            "bus": {"timetable_csv": "buses.csv",
                    "energy_min_kwh": 240.0, "energy_max_kwh": 240.0,
                    "arrival_offset_min_minutes": 240.0,
                    "arrival_offset_max_minutes": 240.0,
                    "arrival_offset_mode_minutes": 240.0},
            "max_sessions": 10,
            "seed": 3,
        },
        "scenario_axes": {"demand": "demand.csv", "pv": "radiation.csv",
                          "price": "price.csv"},
    }
    path = root / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def test_criterion_05_peak_shaving(tmp_path):
    cfg_path = write_peak_fixture(tmp_path / "peak")
    result = run_pipeline(cfg_path, mode="A")

    # the greedy baseline must genuinely breach the cap first
    profile = uncoordinated_profile(result.sessions, result.cfg.time_grid)
    demand = result.tree[0].demand
    over = int(np.sum(profile + demand > PEAK_CAP_KW))
    unc = result.report["uncoordinated"]
    assert unc["steps_over_cap_uncoordinated"] == over
    assert over >= 3

    optimized_peak = result.report["peak"]["max_combined_kw"]
    reduction = unc["peak_reduction_kw"]
    ok = optimized_peak <= PEAK_CAP_KW + 1e-6 and reduction > 0.0
    verdict(5, ok, f"coordinated charging shaves the peak (baseline over cap "
                   f"at {over} steps, optimized max {optimized_peak:.1f} kW "
                   f"<= {PEAK_CAP_KW:.0f}, reduction {reduction:.1f} kW)")
    assert optimized_peak <= PEAK_CAP_KW + 1e-6
    assert unc["steps_over_cap_optimized"] == 0
    assert reduction > 0.0


def test_criterion_06_cross_product_probabilities():
    def uniform_axis(name, k):
        return ScenarioAxis(name, tuple(
            AxisMember(np.array([1.0]), 1.0 / k, f"{name}{j}")
            for j in range(k)))

    tree = build_tree(uniform_axis("pv", 4), uniform_axis("price", 5),
                      uniform_axis("rb", 5), np.array([100.0]))
    probs = np.array([sc.probability for sc in tree])
    total = float(probs.sum())
    ok = (len(tree) == 100
          and bool(np.all(np.abs(probs - 0.01) <= 1e-15))
          and abs(total - 1.0) <= 1e-9)
    verdict(6, ok, f"4x5x5 axes make {len(tree)} scenarios of weight 0.01 "
                   f"(sum {total!r})")
    assert len(tree) == 100
    assert np.all(np.abs(probs - 0.01) <= 1e-15)
    assert abs(total - 1.0) <= 1e-9


def test_criterion_07_objective_monotone_in_kappa(ref_config_path, ref_run):
    cfg = load_config(ref_config_path)
    objectives = []
    for kappa in (0.0, 0.3, 0.6, 0.9):
        if kappa == cfg.flexibility.kappa:
            objectives.append(ref_run[0].objective)
            continue
        tweaked = dataclasses.replace(cfg, flexibility=FlexPolicy(kappa))
        objectives.append(run_pipeline(tweaked, mode="A").objective)
    # consecutive solves may each be off by the solver's relative gap
    slack = [1.1e-6 * max(1.0, abs(v)) for v in objectives]
    ok = all(objectives[k + 1] >= objectives[k] - slack[k]
             for k in range(len(objectives) - 1))
    verdict(7, ok, "objective is nondecreasing in the flexibility floor "
                   + ", ".join(f"{v:.4f}" for v in objectives))
    for k in range(len(objectives) - 1):
        assert objectives[k + 1] >= objectives[k] - slack[k]


def test_criterion_08_plant_transform_oracle():
    spec = PvSpec(rated_power_kw=1000.0, radiation_certain_w_per_m2=150.0,
                  radiation_standard_w_per_m2=1000.0)

    def oracle(beta: float) -> float:
        if beta < 150.0:
            return 1000.0 * beta * beta / (150.0 * 1000.0)
        return 1000.0 * min(beta / 1000.0, 1.0)

    rng = np.random.default_rng(8)
    betas = rng.uniform(0.0, 1600.0, 100_000)
    worst = 0.0
    for beta in betas:
        worst = max(worst, abs(pv_power(float(beta), spec) - oracle(float(beta))))
    assert worst <= 1e-9

    jumps = []
    for knee in (150.0, 1000.0):
        jumps.append(abs(pv_power(knee + 1e-6, spec)
                         - pv_power(knee - 1e-6, spec)))
    ok = worst <= 1e-9 and all(j <= 1e-3 for j in jumps)
    verdict(8, ok, f"plant transform matches the oracle on 1e5 draws "
                   f"(worst {worst:.1e} kW) and is continuous at both knees "
                   f"(jumps {jumps[0]:.1e}, {jumps[1]:.1e} kW <= 1e-3)")
    assert all(j <= 1e-3 for j in jumps)


def test_criterion_09_export_round_trip(tmp_path):
    model = three_step_instance()
    path = tmp_path / "ems3.mps"
    export_mps(model.milp, path, name="EMS3")
    back = parse_mps(path)

    a, b = model.milp, back
    dense_a = np.zeros((a.n_rows, a.n_cols))
    dense_a[a.a_rows, a.a_cols] = a.a_vals
    dense_b = np.zeros((b.n_rows, b.n_cols))
    dense_b[b.a_rows, b.a_cols] = b.a_vals
    same = (a.n_cols == b.n_cols and a.n_rows == b.n_rows
            and np.array_equal(a.col_lb, b.col_lb)
            and np.array_equal(a.col_ub, b.col_ub)
            and np.array_equal(a.col_obj, b.col_obj)
            and np.array_equal(a.col_binary, b.col_binary)
            and a.row_sense == b.row_sense
            and np.array_equal(a.row_rhs, b.row_rhs)
            and np.array_equal(dense_a, dense_b))
    assert same

    first = solve_mip(a)
    second = solve_mip(b)
    rel = abs(first.objective - second.objective) / max(1.0, abs(first.objective))
    # HiGHS solves the re-parsed model with code that shares nothing with
    # the bundled simplex or tree search
    highs_status, highs_obj = highs_solve(b)
    rel_highs = (abs(first.objective - highs_obj) / max(1.0, abs(highs_obj))
                 if highs_status == STATUS_OPTIMAL else np.inf)
    ok = (same and first.status == second.status == highs_status == STATUS_OPTIMAL
          and rel <= 1e-6 and rel_highs <= 1e-6)
    verdict(9, ok, f"export and re-parse keep every dimension, bound, and "
                   f"coefficient; re-solve agrees to {rel:.1e} and HiGHS on "
                   f"the re-parsed model to {rel_highs:.1e}")
    assert first.status == second.status == highs_status == STATUS_OPTIMAL
    assert rel <= 1e-6
    assert rel_highs <= 1e-6


def test_criterion_10_byte_identical_reports(ref_config_path, ref_run, tmp_path):
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    write_outputs(ref_run[0], out1)
    run_pipeline(ref_config_path, mode="A", out_dir=out2)
    identical = {}
    for name in ("report.json", "dispatch.csv", "schedule_ev.csv", "theta.csv"):
        identical[name] = (out1 / name).read_bytes() == (out2 / name).read_bytes()
    ok = all(identical.values())
    verdict(10, ok, "two runs with the same config and seed write "
                    "byte-identical artifacts "
                    + ", ".join(n for n, v in identical.items() if v))
    assert all(identical.values()), identical
