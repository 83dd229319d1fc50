"""Benchmark of the day-ahead run, end to end and layer by layer.

    python3 bench/run.py --workload ref_day_A --seed 7 --seconds 40 --trace 0

Per invocation, one process at a time:

1. writes the workload's config file from the seed (``workloads.py``);
2. times the set-up (import, config, fleet, scenario tree) in fresh
   interpreters, one untimed warm-up then the median of SETUP_REPEATS;
3. runs ``station-ems run`` back to back in one worker process for at most
   ``--seconds`` (at least one run), and with ``--trace 1`` one more run
   with every layer span recorded (``worker.py``, ``tracing.py``);
4. checks every run against HiGHS and against earlier reports of the same
   input, outside the timed region (``oracle.py``).

It prints every metric by name with its unit, then, as its last line, one
JSON object: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
STATE = ROOT / ".bench_state"
RESULTS = ROOT / ".bench_results"
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
REL_TOL = 1e-6
CHILD_TIMEOUT_S = 900


def measure_setup(config: Path) -> list[dict]:
    """Set-up phase times from fresh interpreters; the warm-up is dropped."""
    probes = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               str(config)], capture_output=True, text=True,
                              check=True, timeout=CHILD_TIMEOUT_S)
        probes.append(json.loads(done.stdout.splitlines()[-1]))
    return probes[1:]


def run_worker(wl: workloads.Workload, config: Path, seconds: float,
               trace: bool, work: Path) -> dict:
    result = work / "worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", wl.mode,
           "--seconds", str(seconds), "--work", str(work),
           "--result", str(result), str(config)]
    if wl.wide:
        cmd.append("--export-mps")
    if wl.warmup:
        cmd.append("--warmup")
    if trace:
        cmd.append("--trace")
    subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True,
                   timeout=CHILD_TIMEOUT_S)
    return json.loads(result.read_text())


def _input_digest(wl: workloads.Workload, config: Path) -> str:
    """Identifies program sources plus generated inputs, for the sha record."""
    h = hashlib.sha256(wl.name.encode())
    src = ROOT / "src"
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode())
        h.update(p.read_bytes())
    for p in sorted(config.parent.glob("*.csv")) + [config]:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:24]


def run_failures(run: dict, optimum: dict[int, float],
                 known_sha: dict[str, str]) -> list[str]:
    """Why a run fails the correctness gate (empty when it passes).

    ``known_sha`` maps a config name to the report digest of its first run
    and is filled in as runs pass through.
    """
    if run["rc"] != 0:
        return [f"exit code {run['rc']}"]
    why = []
    if not run["checks_passed"]:
        why.append("checks_passed is false")
    solved = {s["scenario"] for s in run["scenarios"]}
    if solved != set(optimum):
        why.append(f"solved scenarios {sorted(solved)} != {sorted(optimum)}")
    for s in run["scenarios"]:
        tag = f"scenario {s['scenario']}"
        if s["status"] != "optimal":
            why.append(f"{tag}: status {s['status']}")
        if s["gap"] > REL_TOL:
            why.append(f"{tag}: gap {s['gap']!r}")
        ref = optimum.get(s["scenario"])
        if ref is not None:
            rel = abs(s["objective"] - ref) / max(1.0, abs(ref))
            if rel > REL_TOL:
                why.append(f"{tag}: objective {s['objective']!r} vs HiGHS "
                           f"{ref!r} (rel {rel:.2e})")
    first = known_sha.setdefault(run["config"], run["sha256"])
    if run["sha256"] != first:
        why.append("report.json differs from an earlier run of the same input")
    return why


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples above."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def _describe(name: str, values: list[float], unit: str) -> str:
    text = (f"{name}: median {statistics.median(values)!r} {unit} "
            f"over n={len(values)}")
    t = tail(values)
    return text + (f", p{t[0]:.0f} {t[1]!r} {unit}" if t
                   else ", no percentile with ten samples above it")


def end_to_end(runs: list[dict], failures: list[list[str]],
               probes: list[dict], maxrss_kb: int) -> tuple[dict, list[str]]:
    """One time sample per run; failed runs are left out unless all failed."""
    timed = [r for r, why in zip(runs, failures) if not why] or runs
    samples = {"run_s": [r["wall_s"] for r in timed],
               "cpu_s": [r["cpu_s"] for r in timed],
               "setup_s": [p["setup_s"] for p in probes]}
    lines = [_describe(n, samples[n], "s") for n in ("run_s", "cpu_s", "setup_s")]
    metrics = {n: (statistics.median(v), "s") for n, v in samples.items()}
    metrics["peak_rss_mb"] = (maxrss_kb / 1024.0, "MB")
    lines.append(f"peak_rss_mb: {metrics['peak_rss_mb'][0]!r} MB "
                 f"(worker process over {len(runs)} runs)")
    return metrics, lines


def per_layer(result: dict, probes: list[dict]) -> dict:
    traced = result["traced"]
    m = {"setup.import_s": (statistics.median(p["import_s"] for p in probes), "s")}
    m.update(tracing.layer_metrics(traced["spans"]))
    m["mps.bytes"] = (traced.get("mps_bytes", 0), "bytes")
    m["pipeline.bytes_written"] = (traced.get("bytes_written", 0), "bytes")
    untraced = statistics.median(r["wall_s"] for r in result["runs"])
    m["trace.run_s"] = (traced["wall_s"], "s")
    m["trace.overhead_s"] = (traced["wall_s"] - untraced, "s")
    m["trace.spans"] = (len(traced["spans"]), "count")
    return m


def measure(wl: workloads.Workload, config: Path, seconds: float,
            trace: bool, work: Path) -> dict:
    """Everything one invocation prints, as a dict; see the module doc.

    ``config`` is the workload's input, already written under ``work``.
    """
    probes = measure_setup(config)
    result = run_worker(wl, config, seconds, trace, work)
    # every run's answer is checked; only result["runs"] are timed
    runs = ([result["warmup"]] if "warmup" in result else []) + result["runs"] \
        + ([result["traced"]] if trace else [])

    solved = any(r["rc"] == 0 for r in runs)
    optimum = oracle.objectives(config, wl.mode) if solved else {}
    STATE.mkdir(exist_ok=True)
    sha_file = STATE / f"{_input_digest(wl, config)}.json"
    known_sha = json.loads(sha_file.read_text()) if sha_file.exists() else {}
    failures = [run_failures(r, optimum, known_sha) for r in runs]
    sha_file.write_text(json.dumps(known_sha, sort_keys=True))

    lines = [f"workload {wl.name} mode {wl.mode}: {len(runs)} runs"]
    for k, why in enumerate(failures):
        if why:
            lines.append(f"run {k} FAILED: " + "; ".join(why))
    n_failed = sum(1 for f in failures if f)
    failed_frac = n_failed / len(runs)
    if trace:
        metrics = per_layer(result, probes)
        metrics["failed_frac"] = (failed_frac, "fraction")
    else:
        timed = failures[len(failures) - len(result["runs"]):]
        metrics, more = end_to_end(result["runs"], timed, probes,
                                   result["maxrss_kb"])
        lines += more
        lines.append(f"failed_frac: {failed_frac!r} ({n_failed} of {len(runs)})")
    lines += [f"{name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]
    return {"lines": lines, "correct": n_failed == 0, "attempted": len(runs),
            "failed": n_failed, "metrics": metrics,
            "spans": result["traced"]["spans"] if trace else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "station_ems").is_dir() or \
            not (ROOT / workloads.REF_DIR).is_dir():
        print(f"error: {ROOT} holds no station_ems sources or reference day",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    wl = workloads.WORKLOADS[args.workload]
    try:
        config = workloads.prepare(wl, args.seed, ROOT, work)
        out = measure(wl, config, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if out["spans"] is not None:
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.write_text("".join(json.dumps(s) + "\n" for s in out["spans"]))
    print(f"seed {args.seed}")
    print("\n".join(out["lines"]))
    print(json.dumps({
        "correct": out["correct"], "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in out["metrics"].items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
