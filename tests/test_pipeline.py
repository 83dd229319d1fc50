"""End-to-end runs: artifacts, determinism, comparisons, and the CLI."""
from __future__ import annotations

import csv
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from station_ems import cli, pipeline
from station_ems.cli import main
from station_ems.config import ConfigError, load_config
from station_ems.milp.canonical import STATUS_INFEASIBLE
from station_ems.milp.highs import highs_solve
from station_ems.pipeline import (
    build_fleet,
    build_scenarios,
    compare_runs,
    run_pipeline,
    write_outputs,
)
from station_ems.model import solve_ems, solve_root

from conftest import parse_mps, ref_scenario_models


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
    assert sc.demand.values[2] == 0.0
    assert sc.rb_available.values[2] == 60.0
    assert all(v == 0.0 for k, v in enumerate(sc.rb_available.values) if k != 2)
    assert sc.label.endswith("from-demand")
    # plant members arrive as radiation and leave as kW
    assert sc.pv.unit == "kW"
    assert sc.pv.values[3] == pytest.approx(160.0)   # above certainty knee


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
REF_TOTAL_LP_ITERATIONS = {"A": 468, "B": 121, "C": 468}


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
    assert main(["run", "--config", str(cfg_path), "--mode", "B",
                 "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert main(["compare", str(out_a), str(out_b)]) == 0
    cmp = json.loads(capsys.readouterr().out)
    assert cmp["mode_a"] == "A" and cmp["mode_b"] == "B"


@pytest.mark.parametrize("text, problem", [
    ("{}", "the report has no 'mode'"),
    ("[1]", "the report is not an object"),
])
def test_cli_compare_refuses_json_that_is_not_a_run_report(
        tmp_path, capsys, text, problem):
    cfg_path = write_small_config(tmp_path / "site")
    good = tmp_path / "good"
    assert main(["run", "--config", str(cfg_path), "--out", str(good)]) == 0
    odd = tmp_path / "odd"
    odd.mkdir()
    (odd / "report.json").write_text(text)
    capsys.readouterr()
    for pair in ((good, odd), (odd, good)):
        assert main(["compare", *map(str, pair)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {odd / 'report.json'} is not a run report: "
                       f"{problem}\n")


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


@pytest.mark.parametrize("text, part", [("x", "x"), ("1-x", "x"), ("-", "-")])
def test_cli_scenario_filter_errors_name_the_flag(text, part, tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    assert main(["run", "--config", str(cfg_path), "--scenarios", text]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --scenarios: {part!r} is not a tree index\n"


def test_cli_error_codes(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["run", "--config", str(bad)]) == 2


def test_cli_run_exits_1_when_tree_search_hits_node_limit(
        tmp_path, capsys, monkeypatch, ref_config_path):
    monkeypatch.setattr(pipeline, "solve_ems",
                        functools.partial(solve_ems, max_nodes=1))
    code = main(["run", "--config", str(ref_config_path), "--scenarios", "0",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "status 'limit'" in err
    for part in ("best bound", "gap", "1 nodes", "LP iterations", "last LP status"):
        assert part in err
    assert not (tmp_path / "out" / "report.json").exists()


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


@pytest.mark.parametrize("fake", [highs_off_by_1e5, highs_says_infeasible])
def test_cli_oracle_exits_1_naming_the_scenario_highs_disagrees_on(
        capsys, monkeypatch, ref_config_path, fake):
    monkeypatch.setattr(cli, "highs_solve", fake)
    code = main(["oracle", "--config", str(ref_config_path)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("scenario 0: "), err


def test_run_never_imports_scipy_optimize(tmp_path, ref_config_path):
    # HiGHS comes with scipy.optimize, whose import only oracle may pay
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "import station_ems.cli as cli\n"
        "assert 'scipy.optimize' not in sys.modules, 'on import'\n"
        "code = cli.main(['run', '--config', sys.argv[1], '--mode', 'B',\n"
        "                 '--out', sys.argv[2]])\n"
        "assert code == 0, code\n"
        "assert 'scipy.optimize' not in sys.modules, 'after run'\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ref_config_path),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
    series = {"demand_kw": "input_demand", "pv_kw": "input_pv",
              "rb_available_kw": "input_rb", "price_buy": "input_price_buy",
              "price_sell": "input_price_sell", "grid_buy_kw": "grid_buy",
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
            assert float(got[name]) == getattr(sol, attr)[t], (idx, t, name)
        assert got["grid_buy_on"] == str(int(sol.grid_buy[t] > 1e-9))
        assert float(got["combined_load_kw"]) \
            == sol.input_demand[t] + sol.ev_total_power[t]

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
