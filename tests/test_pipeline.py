"""End-to-end runs: artifacts, determinism, comparisons, and the CLI."""
from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from station_ems import cli, model, pipeline
from station_ems.cli import main
from station_ems.config import ConfigError, load_config
from station_ems.milp import branch_bound
from station_ems.milp.canonical import STATUS_INFEASIBLE
from station_ems.milp.highs import highs_solve
from station_ems.pipeline import (
    build_fleet,
    build_scenarios,
    compare_runs,
    run_pipeline,
    write_outputs,
)
from station_ems.model import CheckResult, SolutionCheckError, solve_ems, \
    solve_root
from station_ems.types import EV_KIND_BUS, EV_KIND_CAR, PeakPolicy

from conftest import STORE_100, parse_mps, ref_config_copy, ref_inputs, \
    ref_scenario_models


def write_small_config(root: Path, *, n_t: int = 6, pv_members: int = 2,
                       seed: int = 1, signed_demand: bool = True) -> Path:
    """A one-hour site that solves in well under a second."""
    root.mkdir(parents=True, exist_ok=True)

    def series(name, values):
        lines = ["step,value"] + [f"{k},{v}" for k, v in enumerate(values)]
        (root / name).write_text("\n".join(lines) + "\n")

    demand = [120.0, 180.0, -60.0, 150.0, 90.0, 60.0][:n_t]
    if not signed_demand:
        demand = [abs(v) for v in demand]
    series("demand.csv", demand)
    # kept small enough that any plant surplus fits under the sell cap
    series("radiation_a.csv", [0.0, 60.0, 120.0, 160.0, 90.0, 20.0][:n_t])
    series("radiation_b.csv", [0.0, 30.0, 60.0, 80.0, 40.0, 0.0][:n_t])
    series("price.csv", [0.1, 0.25, 0.15, 0.3, 0.2, 0.12][:n_t])
    minutes = n_t * 10
    window_end = f"{minutes // 60:02d}:{minutes % 60:02d}"

    if pv_members == 1:
        pv = "radiation_a.csv"
    else:
        pv = {"members": [
            {"csv": "radiation_a.csv", "probability": 0.5},
            {"csv": "radiation_b.csv", "probability": 0.5},
        ]}
    doc = {
        "time_grid": {"step_minutes": 10, "horizon_steps": n_t},
        "grid": {"p_buy_max_kw": 500.0, "p_sell_max_kw": 200.0},
        "ess": {
            "capacity_kwh": 40.0,
            "soc_min_fraction": 0.1,
            "soc_init_fraction": 0.5,
            "charge_rate_max_kw": 30.0,
            "discharge_rate_max_kw": 30.0,
        },
        "peak": {"p_max_kw": 400.0},
        "flexibility": {"kappa": 0.5},
        "fleet": {
            "car": {"arrival_rate_per_hour": 6.0,
                    "window_start": "00:00",
                    "window_end": window_end,
                    "energy_min_kwh": 4.0,
                    "energy_max_kwh": 10.0},
            "max_sessions": 3,
            "seed": seed,
        },
        "scenario_axes": {"demand": "demand.csv", "pv": pv,
                          "price": "price.csv"},
    }
    path = root / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def read_csv(path: Path):
    with path.open() as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_build_scenarios_splits_signed_demand(tmp_path):
    cfg = load_config(write_small_config(tmp_path))
    tree = build_scenarios(cfg)
    assert len(tree) == 2
    sc = tree[0]
    assert sc.demand[2] == 0.0
    assert sc.rb_available[2] == 60.0
    assert all(v == 0.0 for k, v in enumerate(sc.rb_available) if k != 2)
    assert sc.label.endswith("from-demand")
    # plant members arrive as radiation and leave as kW
    assert sc.pv[3] == pytest.approx(160.0)   # above certainty knee
    # the scenarios share the series they have in common, and no one can
    # write into a series
    for name in ("demand", "rb_available", "price_buy", "price_sell"):
        assert getattr(tree[1], name) is getattr(sc, name)
    for name in ("demand", "rb_available", "pv", "price_buy", "price_sell"):
        series = getattr(sc, name)
        assert series.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            series[0] = 1.0


def test_explicit_rb_axis_rejects_signed_demand(tmp_path):
    path = write_small_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["scenario_axes"]["rb"] = "radiation_b.csv"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    cfg = load_config(bad)
    with pytest.raises(ConfigError, match="negative"):
        build_scenarios(cfg)


def test_build_fleet_respects_cap_and_seed(tmp_path):
    cfg = load_config(write_small_config(tmp_path))
    a = build_fleet(cfg, 1)
    b = build_fleet(cfg, 1)
    c = build_fleet(cfg, 2)
    assert len(a) <= 3
    assert [(s.t_arrival, s.e_requested_kwh) for s in a] \
        == [(s.t_arrival, s.e_requested_kwh) for s in b]
    assert [(s.t_arrival, s.e_requested_kwh) for s in a] \
        != [(s.t_arrival, s.e_requested_kwh) for s in c]


def test_build_fleet_draws_only_the_cars_it_keeps(exponential_draws):
    # 1e4 cars per hour over the 16-hour window would be about 160 000
    # arrival draws; the reference day keeps its 5 buses and 10 cars
    _, sessions, _ = ref_inputs({"fleet.car.arrival_rate_per_hour": 1e4})
    kinds = [s.ev.kind for s in sessions]
    assert kinds == [EV_KIND_BUS] * 5 + [EV_KIND_CAR] * 10
    assert len(exponential_draws) == 10


def test_run_writes_all_artifacts(tmp_path):
    cfg_path = write_small_config(tmp_path / "site")
    out = tmp_path / "out"
    result = run_pipeline(cfg_path, mode="A", out_dir=out)
    assert (out / "report.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["checks_passed"] is True
    assert report["mode"] == "A"
    assert report["scenario_tree"]["n_scenarios"] == 2
    assert report["scenario_tree"]["probability_sum"] == pytest.approx(1.0)

    n_t = result.cfg.time_grid.horizon_steps
    head, rows = read_csv(out / "dispatch.csv")
    assert head[:3] == ["scenario", "step", "demand_kw"]
    assert len(rows) == 2 * n_t

    head, rows = read_csv(out / "schedule_ev.csv")
    assert head == ["scenario", "step", "session", "ev_power_kw", "ev_soc_kwh"]
    parked = sum(s.t_departure - s.t_arrival + 1 for s in result.sessions)
    assert len(rows) == 2 * parked

    head, rows = read_csv(out / "theta.csv")
    assert head[:3] == ["scenario", "session", "theta_kwh"]
    assert len(rows) == 2 * len(result.sessions)


def test_report_objective_identity(tmp_path):
    cfg_path = write_small_config(tmp_path)
    result = run_pipeline(cfg_path, mode="A")
    rep = result.report
    total = sum(r["probability"] * r["objective"]
                for r in rep["objective"]["per_scenario"])
    assert rep["objective"]["total"] == pytest.approx(total, abs=1e-12)
    assert rep["objective"]["total"] == pytest.approx(
        rep["objective"]["expected_cost"]
        - rep["objective"]["expected_theta_value"], abs=1e-9)
    echo = rep["config_echo"]
    assert echo == json.loads(json.dumps(result.cfg.to_dict()))
    assert "base_dir" not in echo


def test_reports_are_byte_identical_across_runs(tmp_path):
    cfg_path = write_small_config(tmp_path / "site")
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    run_pipeline(cfg_path, mode="A", seed=1, out_dir=out1)
    run_pipeline(cfg_path, mode="A", seed=1, out_dir=out2)
    for name in ("report.json", "dispatch.csv", "schedule_ev.csv", "theta.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_scenario_filter_limits_solves(tmp_path):
    cfg_path = write_small_config(tmp_path)
    result = run_pipeline(cfg_path, mode="A", scenario_filter=[1])
    assert result.solved_indices == (1,)
    rep = result.report
    assert rep["scenario_tree"]["solved"] == [1]
    assert rep["scenario_tree"]["n_scenarios"] == 2
    assert len(rep["objective"]["per_scenario"]) == 1
    with pytest.raises(ConfigError, match="unknown"):
        run_pipeline(cfg_path, mode="A", scenario_filter=[5])


def test_an_empty_scenario_filter_is_refused_before_any_solve(tmp_path):
    cfg_path = write_small_config(tmp_path)
    with pytest.raises(ConfigError, match="selects nothing"):
        run_pipeline(cfg_path, mode="A", scenario_filter=[],
                     out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def scenario_rows(out: Path, k: int) -> str:
    """Every row of scenario ``k`` that a solve produces: the report's
    per-scenario tables and the scenario's lines of the three CSVs."""
    report = json.loads((out / "report.json").read_text())
    tables = {"peak": report["peak"]["per_scenario"],
              "ess": report["ess"]["per_scenario"], "checks": report["checks"],
              "solver": report["solver"]["per_scenario"]}
    rows = {name: [r for r in table if r["scenario"] == k]
            for name, table in tables.items()}
    for name in ("dispatch.csv", "schedule_ev.csv", "theta.csv"):
        _, lines = read_csv(out / name)
        rows[name] = [line for line in lines if line[0] == str(k)]
        assert rows[name], (name, k)
    return json.dumps(rows, sort_keys=True)


@pytest.mark.parametrize("mode", ["A", "B"])
def test_answers_do_not_depend_on_the_solve_order(mode, ref_config_path,
                                                   ref_run, tmp_path):
    # every root starts from the first scenario's root, whichever
    # scenarios a run solves and in whatever order
    full = tmp_path / "full"
    if mode == "A":
        write_outputs(ref_run[0], full)
    else:
        run_pipeline(ref_config_path, mode=mode, out_dir=full)
    subset = tmp_path / "subset"
    run_pipeline(ref_config_path, mode=mode, scenario_filter=[1, 2, 3],
                 out_dir=subset)
    for k in range(4):
        alone = tmp_path / f"alone{k}"
        run_pipeline(ref_config_path, mode=mode, scenario_filter=[k],
                     out_dir=alone)
        assert scenario_rows(alone, k) == scenario_rows(full, k), k
        if k:
            assert scenario_rows(subset, k) == scenario_rows(full, k), k


# mode -> total_lp_iterations of a full reference run
REF_TOTAL_LP_ITERATIONS = {"A": 381, "B": 15, "C": 381}


@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_total_lp_iterations_count_the_anchor_once(mode, ref_config_path,
                                                   capsys):
    anchor = solve_root(ref_scenario_models(mode)[0][1])
    full = run_pipeline(ref_config_path, mode=mode).report["solver"]
    assert full["total_lp_iterations"] == REF_TOTAL_LP_ITERATIONS[mode]
    assert full["total_lp_iterations"] == anchor.iterations + sum(
        r["lp_iterations"] for r in full["per_scenario"])
    # scenario 0 resumes from the anchor like every other scenario, so a
    # subset that leaves it out still pays for the anchor, once
    assert main(["run", "--config", str(ref_config_path), "--mode", mode,
                 "--scenarios", "1-3"]) == 0
    subset = json.loads(capsys.readouterr().out)["solver"]
    assert subset["per_scenario"] == full["per_scenario"][1:]
    assert subset["total_lp_iterations"] == anchor.iterations + sum(
        r["lp_iterations"] for r in subset["per_scenario"])


def test_mps_export_one_file_per_scenario(tmp_path):
    cfg_path = write_small_config(tmp_path)
    mps = tmp_path / "mps"
    run_pipeline(cfg_path, mode="A", export_mps_dir=mps)
    files = sorted(p.name for p in mps.iterdir())
    assert files == ["scenario_0000.mps", "scenario_0001.mps"]
    back = parse_mps(mps / "scenario_0000.mps")
    assert back.n_cols > 0 and back.n_rows > 0


def test_compare_runs_self_is_zero(tmp_path):
    cfg_path = write_small_config(tmp_path / "site")
    run_pipeline(cfg_path, mode="A", out_dir=tmp_path / "a")
    run_pipeline(cfg_path, mode="A", out_dir=tmp_path / "b")
    cmp = compare_runs(tmp_path / "a", tmp_path / "b")
    assert cmp["objective_delta"] == 0.0
    assert cmp["peak_delta_kw"] == 0.0
    assert cmp["theta_total_delta_kwh"] == 0.0


def test_compare_runs_across_modes(tmp_path):
    cfg_path = write_small_config(tmp_path / "site")
    a = run_pipeline(cfg_path, mode="A", out_dir=tmp_path / "a")
    b = run_pipeline(cfg_path, mode="B", out_dir=tmp_path / "b")
    cmp = compare_runs(tmp_path / "a", tmp_path / "b")
    assert cmp["mode_a"] == "A" and cmp["mode_b"] == "B"
    # extra equipment can only help the minimum
    assert cmp["objective_delta"] <= 1e-6
    assert len(cmp["theta_deltas"]) == 2 * len(a.sessions)
    # the deltas are those of the solutions, read back exactly
    i = len(a.sessions) + 1
    assert cmp["theta_deltas"][i] == {
        "scenario": 1, "session": a.sessions[1].session_id,
        "theta_delta_kwh": float(a.solutions[1].theta[1]
                                 - b.solutions[1].theta[1]),
        "departure_soc_delta_kwh": float(a.solutions[1].departure_soc[1]
                                         - b.solutions[1].departure_soc[1])}


def test_compare_runs_rejects_mismatched_sessions(tmp_path):
    cfg_path = write_small_config(tmp_path / "site")
    run_pipeline(cfg_path, mode="A", seed=1, out_dir=tmp_path / "a")
    run_pipeline(cfg_path, mode="A", seed=2, out_dir=tmp_path / "b")
    with pytest.raises(ValueError, match="session"):
        compare_runs(tmp_path / "a", tmp_path / "b")
    run_pipeline(cfg_path, mode="A", seed=1, scenario_filter=[0],
                 out_dir=tmp_path / "c")
    with pytest.raises(ValueError, match="subset"):
        compare_runs(tmp_path / "a", tmp_path / "c")
    # the same run, with a theta line left out
    run_pipeline(cfg_path, mode="A", seed=1, out_dir=tmp_path / "d")
    theta = tmp_path / "d" / "theta.csv"
    lines = theta.read_text().splitlines()
    theta.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="theta rows"):
        compare_runs(tmp_path / "a", tmp_path / "d")


def test_report_holds_no_table_of_the_csvs(ref_run):
    # per-step and per-vehicle values live in the CSVs alone
    report = ref_run[0].report
    n_t = ref_run[0].cfg.time_grid.horizon_steps
    assert "theta" not in report
    for row in report["peak"]["per_scenario"]:
        assert sorted(row) == ["binding_steps", "max_combined_kw", "scenario"]
    for row in report["ess"]["per_scenario"]:
        assert sorted(row) == ["scenario", "soc_final_kwh"]

    def arrays(node, where):
        if isinstance(node, dict):
            for key, value in node.items():
                yield from arrays(value, f"{where}.{key}")
        elif isinstance(node, list):
            if node and not isinstance(node[0], (dict, str)):
                yield where, len(node)
            for value in node:
                yield from arrays(value, where)

    # the one per-step array left is the uncoordinated EV profile, which no
    # CSV holds
    assert [(w, n) for w, n in arrays(report, "report") if n == n_t] \
        == [("report.uncoordinated.ev_profile_kw", n_t)]


# ---------------------------------------------------------------------------
# command line

def test_cli_run_and_compare(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path / "site")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--mode", "A",
                 "--out", str(out_a)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("mode A seed 1: objective ")
    assert lines[3:] == ["checks: all passed",
                         f"wrote {out_a / 'report.json'} and CSV artifacts"]
    assert main(["run", "--config", str(cfg_path), "--mode", "B",
                 "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert main(["compare", str(out_a), str(out_b)]) == 0
    cmp = json.loads(capsys.readouterr().out)
    assert cmp["mode_a"] == "A" and cmp["mode_b"] == "B"


# the fields compare reads, with the objective and the peak left open
COMPARED = ('{{"mode": "A", "session_fingerprint": "f", "scenario_tree": '
            '{{"solved": [0]}}, "objective": {{"total": {total}}}, '
            '"peak": {{"max_combined_kw": {peak}}}}}')


@pytest.mark.parametrize("text, problem", [
    ("{}", "{path} is not a run report: the report has no 'mode'"),
    ("[1]", "{path} is not a run report: the report is not an object"),
    ('{"mode": 1}', "{path} is not a run report: the report['mode'] is not "
     "a str"),
    ('{"mode": "A", "session_fingerprint": "f", "scenario_tree": {}}',
     "{path} is not a run report: the report['scenario_tree'] has no "
     "'solved'"),
    ("{", "{path} is not JSON: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    (None, "no report.json under {odd}"),
    # numbers json reads that no finite float holds
    (COMPARED.format(total="NaN", peak="1.0"),
     "{path} is not a run report: the report['objective']['total'] is not "
     "a finite number"),
    (COMPARED.format(total="1.0", peak="-Infinity"),
     "{path} is not a run report: the report['peak']['max_combined_kw'] is "
     "not a finite number"),
    (COMPARED.format(total="1e400", peak="1.0"),
     "{path} is not a run report: the report['objective']['total'] is not "
     "a finite number"),
    (COMPARED.format(total="1.0", peak="1" + "0" * 400),
     "{path} is not a run report: the report['peak']['max_combined_kw'] is "
     "not a finite number"),
])
def test_cli_compare_refuses_json_that_is_not_a_run_report(
        tmp_path, capsys, text, problem):
    cfg_path = write_small_config(tmp_path / "site")
    good = tmp_path / "good"
    assert main(["run", "--config", str(cfg_path), "--out", str(good)]) == 0
    odd = tmp_path / "odd"
    odd.mkdir()
    path = odd / "report.json"
    if text is not None:
        path.write_text(text)
    capsys.readouterr()
    for pair in ((good, odd), (odd, good)):
        assert main(["compare", *map(str, pair)]) == 2
        err = capsys.readouterr().err
        assert err == "error: " + problem.format(odd=odd, path=path) + "\n"


@pytest.mark.parametrize("text, problem", [
    (None, "no theta.csv under {odd}"),
    ("", "{path} is not a theta table: the header is not " + ",".join(
        pipeline.THETA_COLUMNS)),
    ("scenario,session\n0,0\n",
     "{path} is not a theta table: the header is not " + ",".join(
         pipeline.THETA_COLUMNS)),
    (",".join(pipeline.THETA_COLUMNS) + "\n0,0,1.0,0.0,2.0,2.0\n",
     "{path} is not a theta table: line 2: 6 fields, expected 7"),
    (",".join(pipeline.THETA_COLUMNS) + "\n0,0,x,0.0,2.0,2.0,1.0\n",
     "{path} is not a theta table: line 2: could not convert string to "
     "float: 'x'"),
    (",".join(pipeline.THETA_COLUMNS) + "\n0,0,1.0,0.0,2.0,2.0,1.0" * 2 + "\n",
     "{path} is not a theta table: line 3: repeats scenario 0, session 0"),
    (",".join(pipeline.THETA_COLUMNS) + "\n0.5,0,1.0,0.0,2.0,2.0,1.0\n",
     "{path} is not a theta table: line 2: invalid literal for int() with "
     "base 10: '0.5'"),
    (b"\xff\n", "{path} is not a theta table: 'utf-8' codec can't decode "
     "byte 0xff in position 0: invalid start byte"),
    ("x" * 200_000 + "\n", "{path} is not a theta table: field larger than "
     "field limit (131072)"),
    (",".join(pipeline.THETA_COLUMNS) + "\n0,0,nan,0.0,2.0,2.0,1.0\n",
     "{path} is not a theta table: line 2: theta_kwh 'nan' is not a finite "
     "number"),
    (",".join(pipeline.THETA_COLUMNS) + "\n0,0,1.0,0.0,2.0,2.0,-inf\n",
     "{path} is not a theta table: line 2: departure_soc_kwh '-inf' is not "
     "a finite number"),
    (",".join(pipeline.THETA_COLUMNS) + "\n0,0,1e999,0.0,2.0,2.0,1.0\n",
     "{path} is not a theta table: line 2: theta_kwh '1e999' is not a "
     "finite number"),
])
def test_cli_compare_refuses_a_missing_or_malformed_theta_table(
        tmp_path, capsys, text, problem):
    cfg_path = write_small_config(tmp_path / "site")
    good, odd = tmp_path / "good", tmp_path / "odd"
    for out in (good, odd):
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    path = odd / "theta.csv"
    if text is None:
        path.unlink()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    capsys.readouterr()
    for pair in ((good, odd), (odd, good)):
        assert main(["compare", *map(str, pair)]) == 2
        err = capsys.readouterr().err
        assert err == "error: " + problem.format(odd=odd, path=path) + "\n"


def test_cli_run_prints_report_without_out(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    assert main(["run", "--config", str(cfg_path), "--mode", "A"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks_passed"] is True


def test_cli_scenario_filter_parsing(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    assert main(["run", "--config", str(cfg_path), "--scenarios", "0-1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario_tree"]["solved"] == [0, 1]


@pytest.mark.parametrize("text, reason", [
    ("x", "'x' is not a tree index"), ("1-x", "'x' is not a tree index"),
    ("-", "'-' is not a tree index"), ("", "the filter selects nothing"),
    ("3-1", "empty range '3-1'")])
def test_cli_scenario_filter_errors_name_the_flag(text, reason, tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    assert main(["run", "--config", str(cfg_path), "--scenarios", text]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --scenarios: {reason}\n"


@pytest.mark.parametrize("text, unknown", [
    ("5", "1 unknown index, the first 5"),
    ("0-9,5-12,-3", "12 unknown indices, the first -3"),
    ("0-1000000000000", "999999999999 unknown indices, the first 2"),
])
def test_cli_scenario_ranges_past_the_tree_are_refused_unexpanded(
        text, unknown, tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    t0 = time.perf_counter()
    assert main(["run", "--config", str(cfg_path), "--scenarios", text]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err == (f"error: scenario filter names {unknown}; the tree's "
                   f"indices run from 0 to 1\n")


def test_cli_compare_prints_no_number_json_cannot_hold(tmp_path, capsys):
    # each report's objective is finite, and their difference is not
    cfg_path = write_small_config(tmp_path / "site")
    runs = tmp_path / "a", tmp_path / "b"
    for out, total in zip(runs, (1e308, -1e308)):
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        path = out / "report.json"
        report = json.loads(path.read_text())
        report["objective"]["total"] = total
        path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["compare", *map(str, runs)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Out of range float values are not JSON "
                          "compliant")


def test_cli_error_codes(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["run", "--config", str(bad)]) == 2


def test_cli_run_exits_1_when_tree_search_hits_node_limit(
        tmp_path, capsys, monkeypatch):
    # the reference day closes at its root; with a 100 kWh store it branches
    config = ref_config_copy(tmp_path / "site", STORE_100)
    monkeypatch.setattr(branch_bound, "_MAX_NODES", 1)
    code = main(["run", "--config", str(config), "--scenarios", "0",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "error: scenario 0: " in err
    assert "status 'limit'" in err
    for part in ("best bound", "gap", "1 nodes", "LP iterations", "last LP status"):
        assert part in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_cli_run_names_the_scenario_whose_solve_fails(tmp_path, capsys):
    # under a 2300 kW cap the reference day has no feasible dispatch
    config = ref_config_copy(tmp_path / "site", {"peak.p_max_kw": 2300.0})
    code = main(["run", "--config", str(config), "--mode", "A",
                 "--scenarios", "2", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.splitlines() == [
        "error: scenario 2: solve ended with status 'infeasible': "
        "relaxation did not solve"]
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("pv, rb", [
    ((0.5999999994, 0.4), (0.4999999994, 0.5)),   # leaves sum to 1 - 1.2e-9
    ((1e-200, 1.0), (1e-200, 1.0)),               # leaf 0 underflows to 0
], ids=["leaf sum off by more than 1e-9", "leaf probability 0"])
def test_cli_run_accepts_every_axis_the_config_accepts(pv, rb, tmp_path,
                                                       capsys):
    # each axis sums to 1 within 1e-9 and each member lies in (0, 1], so the
    # config is valid; the leaves are weighted by their member products and
    # are not checked again
    members = {axis: [{"csv": csv, "probability": p}
                      for csv, p in zip(names, probs)]
               for axis, names, probs in (
                   ("pv", ("radiation_sunny.csv", "radiation_cloudy.csv"), pv),
                   ("rb", ("rb_high.csv", "rb_low.csv"), rb))}
    config = ref_config_copy(tmp_path / "site", {
        "scenario_axes.pv.members": members["pv"],
        "scenario_axes.rb.members": members["rb"]})
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--mode", "B",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 0, err
    report = json.loads((out / "report.json").read_text())
    assert report["checks_passed"] is True
    # pv outermost, then the one price member, rb innermost
    leaves = [p * 1.0 * r for p in pv for r in rb]
    assert [row["probability"] for row in
            report["objective"]["per_scenario"]] == leaves
    assert report["scenario_tree"]["probability_sum"] == sum(leaves)


def test_failed_check_names_its_scenario_and_keeps_its_failures(
        tmp_path, monkeypatch):
    failures = [CheckResult("balance", 1.0, 1e-6, passed=False, hard=True)]
    monkeypatch.setattr(model, "check_dispatch", lambda sol: failures)
    cfg_path = write_small_config(tmp_path)
    with pytest.raises(SolutionCheckError) as info:
        run_pipeline(cfg_path, scenario_filter=[range(1, 2)])
    assert str(info.value).startswith(
        "scenario 1: solution rejected by independent checks: balance")
    assert info.value.failures == failures


def test_cli_oracle_on_tiny_site(tmp_path, capsys):
    # with two plant members the site has two scenarios, each its own model
    for members in (1, 2):
        cfg_path = write_small_config(tmp_path / f"pv{members}", n_t=4,
                                      pv_members=members)
        code = main(["oracle", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "agree" in out.lower()
        assert f"confirmed on {members} scenarios" in out


def test_cli_oracle_resumes_every_scenario_from_the_run_anchor(
        tmp_path, capsys, monkeypatch):
    # the oracle takes its solves from the function that run takes them from
    anchors, warms = [], []

    def recording_root(model):
        anchors.append(solve_root(model))
        return anchors[-1]

    def recording_solve(model, **kwargs):
        warms.append(kwargs.get("warm"))
        return solve_ems(model, **kwargs)

    monkeypatch.setattr(pipeline, "solve_root", recording_root)
    monkeypatch.setattr(pipeline, "solve_ems", recording_solve)
    cfg_path = write_small_config(tmp_path, n_t=4, pv_members=2)
    code = main(["oracle", "--config", str(cfg_path)])
    assert code == 0, capsys.readouterr()
    assert len(anchors) == 1 and len(warms) == 2
    assert all(warm is anchors[0] for warm in warms)


def test_cli_oracle_confirms_the_reference_day(capsys, ref_config_path):
    code = main(["oracle", "--config", str(ref_config_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "confirmed on 4 scenarios" in out


def highs_off_by_1e5(milp):
    status, objective = highs_solve(milp)
    return status, objective * (1.0 + 1e-5)


def highs_says_infeasible(milp):
    return STATUS_INFEASIBLE, None


@pytest.mark.parametrize("where, name, fake, changes", [
    (cli, "highs_solve", highs_off_by_1e5, {}),
    (cli, "highs_solve", highs_says_infeasible, {}),
    # the reference day closes at its root; with a 100 kWh store it branches
    (branch_bound, "_MAX_NODES", 1, STORE_100),
], ids=["HiGHS off by 1e-5", "HiGHS says infeasible", "run path hits a limit"])
def test_cli_oracle_exits_1_naming_the_scenario_highs_disagrees_on(
        capsys, monkeypatch, tmp_path, where, name, fake, changes):
    config = ref_config_copy(tmp_path, changes)
    monkeypatch.setattr(where, name, fake)
    code = main(["oracle", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("scenario 0: "), err


def run_script(script: str, *args) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter that imports this source tree."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_each_module_imports_on_its_own():
    # the package inits import nothing, so no fixed order of theirs can hide
    # an import cycle from a module that is imported first
    script = (
        "import importlib, pathlib, sys\n"
        "def ours():\n"
        "    return [n for n in sys.modules\n"
        "            if n == 'station_ems' or n.startswith('station_ems.')]\n"
        "import station_ems\n"
        "assert ours() == ['station_ems'], ours()\n"
        "src = pathlib.Path(station_ems.__file__).parent.parent\n"
        "names = sorted('.'.join(p.relative_to(src).with_suffix('').parts)\n"
        "               for p in src.glob('station_ems/**/*.py'))\n"
        "assert 'station_ems.milp.simplex' in names, names\n"
        "for name in names:\n"
        "    for loaded in ours():\n"
        "        del sys.modules[loaded]\n"
        "    importlib.import_module(name.removesuffix('.__init__'))\n")
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr


def test_run_never_imports_scipy_optimize(tmp_path, ref_config_path):
    # HiGHS comes with scipy.optimize, whose import only oracle may pay; a
    # run factorizes through SuperLU's extension module alone, so it pays
    # for neither scipy.sparse nor scipy.linalg either.  Mode B factorizes
    # the anchor's bases, mode A those of the tree too.
    script = (
        "import sys\n"
        "import station_ems.cli as cli\n"
        "heavy = ('scipy.optimize', 'scipy.sparse', 'scipy.linalg')\n"
        "def check(when):\n"
        "    loaded = [name for name in heavy if name in sys.modules]\n"
        "    assert not loaded, (when, loaded)\n"
        "check('on import')\n"
        "for mode in 'BA':\n"
        "    code = cli.main(['run', '--config', sys.argv[1], '--mode', mode,\n"
        "                     '--out', sys.argv[2] + mode])\n"
        "    assert code == 0, code\n"
        "    check('after a mode-' + mode + ' run')\n")
    proc = run_script(script, ref_config_path, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("run_first", [True, False],
                         ids=["run first", "scipy first"])
def test_a_run_and_scipy_splu_share_a_process_in_either_order(
        tmp_path, ref_config_path, run_first):
    # the run loads SuperLU's extension module outside scipy's package, and
    # scipy.sparse.linalg loads its own; neither may upset the other
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import station_ems.cli as cli\n"
        "def run():\n"
        "    code = cli.main(['run', '--config', sys.argv[1], '--mode', 'B',\n"
        "                     '--out', sys.argv[2]])\n"
        "    assert code == 0, code\n"
        "def factor_and_solve():\n"
        "    from scipy.sparse import csc_matrix\n"
        "    from scipy.sparse.linalg import splu\n"
        "    a = csc_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0],\n"
        "                             [0.0, 1.0, 2.0]]))\n"
        "    b = np.array([1.0, 2.0, 3.0])\n"
        "    x = splu(a).solve(b)\n"
        "    assert np.abs(a @ x - b).max() < 1e-12, x\n"
        "steps = [run, factor_and_solve]\n"
        "for step in steps if sys.argv[3] == 'run' else steps[::-1]:\n"
        "    step()\n")
    out = tmp_path / "out"
    proc = run_script(script, ref_config_path, out,
                      "run" if run_first else "scipy")
    assert proc.returncode == 0, proc.stderr
    # the same report as a run in this process
    write_outputs(run_pipeline(ref_config_path, mode="B"), tmp_path / "here")
    assert (out / "report.json").read_bytes() \
        == (tmp_path / "here" / "report.json").read_bytes()


@pytest.mark.parametrize("flag", ["--out", "--export-mps"])
def test_cli_unusable_output_path_exits_2_before_any_build(
        tmp_path, capsys, monkeypatch, flag):
    def no_build(*args, **kwargs):
        raise AssertionError("a model was built before the output check")

    monkeypatch.setattr(pipeline, "build_model", no_build)
    cfg_path = write_small_config(tmp_path / "site")
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    target = blocker if flag == "--out" else blocker / "mps"
    code = main(["run", "--config", str(cfg_path), flag, str(target)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("section, key, value", [
    ("grid", "p_buy_max_kw", float("inf")),
    ("grid", "p_sell_max_kw", float("inf")),
    ("peak", "p_max_kw", float("inf")),
    ("ess", "charge_rate_max_kw", float("inf")),
    ("fleet", "seed", "x"),
    ("fleet", "seed", -3),
    ("ess", "terminal_equals_initial", "false"),
    ("ess", "discharge_efficiency_divides", "no"),
    ("ess", "terminal_equals_initial", 0),
    ("fleet.bus", "timetable_csv", None),
    ("fleet.car", "window_end", 600),
    ("scenario_axes.demand", "unit", None),
    ("fleet.bus", "p_nominal_kw", -5),
    ("fleet.car", "window_start", "25:00"),
    ("fleet.car", "window_start", "06:0x"),
    ("fleet.car", "window_end", "22:00"),  # past the one-hour grid
    ("fleet.car", "window_start", "01:00"),  # not before window_end
    ("fleet.car", "arrival_rate_per_hour", -1.0),
    ("fleet.car", "energy_min_kwh", 20.0),  # above energy_max_kwh
    ("fleet.car", "departure_offset_hours", -1.0),
    ("fleet.car", "departure_offset_mode_hours", 3.0),
    ("fleet.bus", "energy_min_kwh", 400.0),  # above energy_max_kwh
    ("fleet.bus", "arrival_offset_min_minutes", 0.0),
    ("fleet.bus", "arrival_offset_mode_minutes", 5.0),
    ("fleet", "max_sessions", -1),
])
def test_cli_refuses_unusable_config_numbers_before_any_build(
        tmp_path, capsys, monkeypatch, section, key, value):
    def no_build(*args, **kwargs):
        raise AssertionError("a model was built from an unusable config")

    monkeypatch.setattr(pipeline, "build_model", no_build)
    cfg_path = write_small_config(tmp_path)
    doc = json.loads(cfg_path.read_text())
    doc["scenario_axes"]["demand"] = {"csv": "demand.csv"}  # same series
    node = doc
    for part in section.split("."):
        node = node.setdefault(part, {})
    node[key] = value              # json writes inf as Infinity
    cfg_path.write_text(json.dumps(doc))
    code = main(["run", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{section}.{key}" in err


def _with_pv_unit(cfg, unit):
    pv = cfg.data.pv_axis
    first = replace(pv.members[0], series=replace(pv.members[0].series, unit=unit))
    pv = replace(pv, members=(first,) + pv.members[1:])
    return replace(cfg, data=replace(cfg.data, pv_axis=pv))


@pytest.mark.parametrize("break_rule, field", [
    (lambda cfg: _with_pv_unit(cfg, "kW"), "scenario_axes.pv[0]"),
    (lambda cfg: _with_pv_unit(cfg, "MW"), "scenario_axes.pv[0]"),
    (lambda cfg: replace(cfg, peak=PeakPolicy(-1.0)), "peak.p_max_kw"),
], ids=["pv in kW", "unknown unit", "negative peak cap"])
def test_run_pipeline_validates_a_site_config_it_is_handed(
        tmp_path, monkeypatch, break_rule, field):
    def no_build(*args, **kwargs):
        raise AssertionError("a model was built from an invalid config")

    monkeypatch.setattr(pipeline, "build_model", no_build)
    cfg = break_rule(load_config(write_small_config(tmp_path)))
    with pytest.raises(ConfigError, match=re.escape(field)):
        run_pipeline(cfg)


def test_an_unknown_mode_is_refused_before_any_load(tmp_path):
    with pytest.raises(ConfigError, match=r"^unknown mode 'D', expected one "
                       r"of \('A', 'B', 'C'\)$"):
        run_pipeline(tmp_path / "no_config.json", mode="D")


def _ref_day_with_bus_offsets(tmp_path, ref_config_path, low, mode, high):
    doc = json.loads(ref_config_path.read_text())
    doc["fleet"]["bus"].update(arrival_offset_min_minutes=low,
                               arrival_offset_mode_minutes=mode,
                               arrival_offset_max_minutes=high)
    for name in os.listdir(ref_config_path.parent):
        (tmp_path / name).write_bytes((ref_config_path.parent / name).read_bytes())
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    return cfg_path


def test_cli_names_the_bus_offsets_that_cannot_place_an_arrival(
        tmp_path, capsys, ref_config_path):
    # the first bus leaves at 07:30, step 45; an offset of 500 minutes puts
    # its arrival 50 steps earlier, before the day starts
    cfg_path = _ref_day_with_bus_offsets(tmp_path, ref_config_path, 500, 500, 500)
    code = main(["run", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: cannot place a bus arrival before departure "
                          "step 45: ") and err.count("\n") == 1, err
    assert "fleet.bus.arrival_offset_*_minutes" in err, err
    assert "steps of 10 minutes" in err, err


def test_cli_refuses_bus_offsets_under_half_a_step_before_any_load(
        tmp_path, capsys, monkeypatch, ref_config_path):
    # offsets of a few minutes all round to the departure step itself on a
    # 10-minute grid, so the config is refused before its CSVs are read
    def no_load(*args, **kwargs):
        raise AssertionError("a CSV was loaded for an unusable config")

    monkeypatch.setattr(pipeline, "load_timetable_csv", no_load)
    monkeypatch.setattr(pipeline, "load_series_csv", no_load)
    cfg_path = _ref_day_with_bus_offsets(tmp_path, ref_config_path, 1, 2, 3)
    code = main(["run", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: config ") and err.count("\n") == 1, err
    assert err.endswith("failed validation: fleet.bus.arrival_offset_max_minutes: "
                        "must exceed 5, half of time_grid.step_minutes\n"), err


def test_a_negative_seed_override_is_refused(tmp_path, capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a model was built for a negative seed")

    monkeypatch.setattr(pipeline, "build_model", no_build)
    cfg_path = write_small_config(tmp_path)
    with pytest.raises(ConfigError, match="seed"):
        run_pipeline(cfg_path, seed=-1)
    code = main(["run", "--config", str(cfg_path), "--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: seed") and err.count("\n") == 1, err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_refuses_a_non_finite_series_value_before_any_build(
        tmp_path, capsys, monkeypatch, value):
    def no_build(*args, **kwargs):
        raise AssertionError("a model was built from a non-finite series")

    monkeypatch.setattr(pipeline, "build_model", no_build)
    cfg_path = write_small_config(tmp_path)
    price = tmp_path / "price.csv"
    price.write_text(price.read_text().replace("3,0.3\n", f"3,{value}\n"))
    code = main(["run", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "price.csv" in err and "step 3" in err, err


def test_csv_values_read_back_exactly(tmp_path, ref_config_path):
    result = run_pipeline(ref_config_path, mode="B", out_dir=tmp_path)
    solved = list(zip(result.solved_indices, result.solutions))
    n_t = result.cfg.time_grid.horizon_steps

    head, rows = read_csv(tmp_path / "dispatch.csv")
    series = {"demand_kw": "index.demand", "pv_kw": "index.pv",
              "rb_available_kw": "index.rb_available",
              "price_buy": "index.price_buy",
              "price_sell": "index.price_sell", "grid_buy_kw": "grid_buy",
              "grid_sell_kw": "grid_sell", "ess_charge_kw": "ess_charge",
              "ess_discharge_kw": "ess_discharge", "rb_used_kw": "rb_used",
              "ess_soc_kwh": "ess_soc", "ess_charge_on": "ess_charge_on",
              "ev_total_kw": "ev_total_power"}
    expected = [(idx, t, sol) for idx, sol in solved for t in range(n_t)]
    assert len(rows) == len(expected)
    for row, (idx, t, sol) in zip(rows, expected):
        got = dict(zip(head, row))
        assert (int(got["scenario"]), int(got["step"])) == (idx, t)
        for name, attr in series.items():
            assert float(got[name]) == attrgetter(attr)(sol)[t], (idx, t, name)
        assert got["grid_buy_on"] == str(int(sol.grid_buy[t] > 1e-9))
        assert float(got["combined_load_kw"]) \
            == sol.index.demand[t] + sol.ev_total_power[t]

    head, rows = read_csv(tmp_path / "schedule_ev.csv")
    expected = [(idx, i, ses, t, sol) for idx, sol in solved
                for i, ses in enumerate(result.sessions)
                for t in range(ses.t_arrival, ses.t_departure + 1)]
    assert len(rows) == len(expected)
    for row, (idx, i, ses, t, sol) in zip(rows, expected):
        assert [int(v) for v in row[:3]] == [idx, t, ses.session_id]
        assert float(row[3]) == sol.ev_power[i, t]
        assert float(row[4]) == sol.ev_soc[i, t]

    head, rows = read_csv(tmp_path / "theta.csv")
    expected = [(idx, i, ses, sol) for idx, sol in solved
                for i, ses in enumerate(result.sessions)]
    assert len(rows) == len(expected)
    for row, (idx, i, ses, sol) in zip(rows, expected):
        assert [int(v) for v in row[:2]] == [idx, ses.session_id]
        assert [float(v) for v in row[2:]] == [
            sol.theta[i], ses.theta_min_kwh, ses.theta_max_kwh,
            ses.e_requested_kwh, sol.departure_soc[i]]
