"""Record the benchmark's baseline at the tuning seed and a held-out seed.

Runs every workload at both seeds, untraced and traced, and writes
``bench/BASELINE.json`` with the results, the scale factors of both
workloads, the wide tree's make-up and the environment the numbers were
taken in.  Takes about ten minutes on 2 cores.

    python3 bench/record_baseline.py
"""
from __future__ import annotations

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

import workloads

HERE = Path(__file__).resolve().parent
SEEDS = {"tuned": 7, "held_out": 11}
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, asked of the library."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        fn.argtypes, fn.restype = [], ctypes.c_int
        return fn()
    return None


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "note": "Shared virtual machine; no thread pinning, CPU isolation or "
                "other system-level tuning was applied, so run-to-run speed "
                "drifts with the neighbours' load.",
    }


def run_once(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent)
    res = json.loads(out.stdout.splitlines()[-1])
    res["metrics"] = {k: v["value"] for k, v in res["metrics"].items()}
    return res


def main() -> None:
    results: dict = {}
    for name in workloads.WORKLOADS:
        for label, seed in SEEDS.items():
            print(f"{name} seed {seed}", flush=True)
            results.setdefault(name, {})[label] = {
                "seed": seed,
                "end_to_end": run_once(name, seed, 0),
                "per_layer": run_once(name, seed, 1),
            }
    record = {
        "seeds": SEEDS,
        "run_seconds": RUN_SECONDS,
        "workloads": {name: {"mode": wl.mode, "export_mps": wl.wide,
                             "warmup_run": wl.warmup}
                      for name, wl in workloads.WORKLOADS.items()},
        "ref_day_A": {
            "scale_ranges": {name: list(span)
                             for name, span in workloads.REF_SCALES.items()},
            "scale_factors": {str(seed): workloads.ref_factors(seed)
                              for seed in SEEDS.values()},
        },
        "wide_tree_B": {
            "scenarios": workloads.wide_scenario_count(),
            "axes": {axis: {"scale_range": list(span),
                            "members": [{"csv": c, "probability": p}
                                        for c, p in members]}
                     for axis, (span, members) in workloads.WIDE_AXES.items()},
            "scale_factors": {str(seed): workloads.wide_factors(seed)
                              for seed in SEEDS.values()},
        },
        "environment": environment(),
        "results": results,
    }
    (HERE / "BASELINE.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
