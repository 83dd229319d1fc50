"""Self-tests of the benchmark harness on a 12-step, mode-B day.

    python3 -m pytest bench/test_harness.py -q
"""
from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import run
import tracing
import workloads

STEPS = 12
TINY = workloads.Workload("tiny_B", "B", False, True)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny_inputs(dest: Path) -> Path:
    """The reference day cut to its first two hours, with three cars."""
    ref = run.ROOT / workloads.REF_DIR
    for csv_file in ref.glob("*.csv"):
        lines = csv_file.read_text().splitlines()
        (dest / csv_file.name).write_text("\n".join(lines[:STEPS + 1]) + "\n")
    doc = json.loads((ref / "config.json").read_text())
    doc["time_grid"]["horizon_steps"] = STEPS
    doc["fleet"] = {"car": {"window_start": "00:10", "window_end": "01:30"},
                    "bus": {}, "max_sessions": 3, "seed": 7}
    path = dest / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("tiny")
    yield d
    shutil.rmtree(d, ignore_errors=True)


@pytest.fixture(scope="module")
def timed(work):
    return run.measure(TINY, _tiny_inputs(work), 0.5, False, work)


@pytest.fixture(scope="module")
def traced(work):
    return run.measure(TINY, _tiny_inputs(work), 0.5, True, work)


def _printed_with_unit(out: dict, spec: list[dict]) -> None:
    for m in spec:
        assert out["metrics"][m["name"]][1] == m["unit"], m["name"]
        assert any(line.startswith(f"{m['name']} = ") and
                   line.endswith(f" {m['unit']}") for line in out["lines"]), m["name"]


def test_end_to_end_metrics_printed_with_units(timed):
    assert timed["correct"] and timed["failed"] == 0
    _printed_with_unit(timed, BENCHMARK["end_to_end"])
    assert len(timed["metrics"]) == len(BENCHMARK["end_to_end"])


def test_per_layer_metrics_printed_with_units(traced):
    assert traced["correct"] and traced["failed"] == 0
    _printed_with_unit(traced, BENCHMARK["per_layer"])
    assert len(traced["metrics"]) == len(BENCHMARK["per_layer"])


def test_bad_config_counts_as_failed(work, monkeypatch):
    good = _tiny_inputs(work)
    bad = work / "bad.json"
    doc = json.loads(good.read_text())
    doc["scenario_axes"]["pv"]["members"][0]["probability"] = 0.9
    bad.write_text(json.dumps(doc))
    # the set-up probes would stop at the bad config before any run
    setup = run.measure_setup
    monkeypatch.setattr(run, "measure_setup", lambda _: setup(good))
    out = run.measure(TINY, bad, 0.5, False, work)
    n, failed = out["attempted"], out["failed"]
    assert not out["correct"]
    assert failed == n >= 2  # the warm-up and at least one timed run
    assert f"failed_frac: {failed / n!r} ({failed} of {n})" in out["lines"]
    assert any("exit code 2" in line for line in out["lines"])


def test_self_times_cover_traced_run(traced):
    spans = traced["spans"]
    assert sum(s["parent"] is None for s in spans) == 1
    assert {s["name"] for s in spans} >= {tracing.ROOT_SPAN, "cli.run_pipeline",
                                          "pipeline.solve_ems", "model.solve_lp"}
    run_s = traced["metrics"]["trace.run_s"][0]
    overhead = abs(traced["metrics"]["trace.overhead_s"][0])
    assert abs(sum(tracing.self_times(spans)) - run_s) <= overhead + 1e-3


def test_tracing_restores_the_program():
    import station_ems.model as model
    before = model.solve_lp
    with tracing.Tracer().installed():
        assert model.solve_lp is not before
    assert model.solve_lp is before
