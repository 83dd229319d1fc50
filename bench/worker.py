"""Closed-loop runner: one ``station-ems run`` after another, in process.

Started by run.py as a child process of its own, so that its peak RSS covers
the program and not the benchmark's oracle.  Each run is timed from the call
of ``cli.main`` to its return, when the artifacts are on disk; the report is
read back after the clock stops.  With ``--warmup`` one untimed run comes
first; with ``--trace`` one extra run follows the timed ones with every
layer span recorded.

    python3 bench/worker.py --mode B --seconds 10 --work DIR --result FILE CFG
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from station_ems import cli  # noqa: E402

import tracing  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _report_summary(out: Path) -> dict:
    blob = (out / "report.json").read_bytes()
    rep = json.loads(blob)
    return {
        "sha256": hashlib.sha256(blob).hexdigest(),
        "checks_passed": rep["checks_passed"],
        "scenarios": [{"scenario": r["scenario"], "status": r["status"],
                       "gap": r["gap"], "objective": r["objective"]}
                      for r in rep["solver"]["per_scenario"]],
    }


def one_run(job: list[str], work: Path,
            tracer: tracing.Tracer | None = None) -> dict:
    """Time one ``cli.main(["run", *job])`` and summarise what it wrote.

    ``job`` starts with ``--config CFG`` and writes under ``work/out`` and,
    with MPS export, ``work/mps``.
    """
    out, mps = work / "out", work / "mps"
    argv = ["run", *job]
    record: dict = {"config": Path(job[1]).name}
    sink = io.StringIO()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.installed(), tracer.span(tracing.ROOT_SPAN):
                    rc = cli.main(argv)
    except Exception:  # the loop must go on; the failure is counted
        traceback.print_exc()
        rc = -1
    record["wall_s"] = time.perf_counter() - t0
    record["cpu_s"] = _cpu_s() - cpu0
    record["rc"] = rc
    if rc == 0:
        record.update(_report_summary(out))
        if tracer is not None:
            record["bytes_written"] = _dir_bytes(out)
            record["mps_bytes"] = _dir_bytes(mps) if mps.exists() else 0
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(mps, ignore_errors=True)
    return record


def closed_loop(job: list[str], seconds: float, work: Path) -> list[dict]:
    """Run the job again and again for at most ``seconds``.

    The first run always counts; another starts only if, lasting as long as
    the last one, it would end within ``seconds``.  So the number of runs
    does not hinge on whether a long run just made it past the window.
    """
    runs: list[dict] = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start + runs[-1]["wall_s"] <= seconds:
        runs.append(one_run(job, work))
    return runs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("config", metavar="CFG", help="config file")
    p.add_argument("--mode", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--export-mps", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--warmup", action="store_true")
    args = p.parse_args(argv)

    job = ["--config", args.config, "--mode", args.mode,
           "--out", str(args.work / "out")]
    if args.export_mps:
        job += ["--export-mps", str(args.work / "mps")]

    result = {}
    if args.warmup:
        result["warmup"] = one_run(job, args.work)
    result["runs"] = closed_loop(job, args.seconds, args.work)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        tracer = tracing.Tracer(run_id=len(result["runs"]))
        traced = one_run(job, args.work, tracer)
        traced["spans"] = tracer.records()
        result["traced"] = traced
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
