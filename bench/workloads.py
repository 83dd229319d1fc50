"""Workload inputs: the committed reference day and a generated wide tree.

Every workload is one config file written under a scratch directory, with
the committed fleet; the program only ever sees that file and its CSVs.  The
workload seed draws scale factors for the day's profiles: on the reference
day one factor per radiation, price and braking CSV, close to 1, and on the
wide tree one factor per member of each axis.  Neither changes the model's
size, so the work of a run hardly moves with the seed.
"""
from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REF_DIR = Path("tests") / "fixtures" / "ref"


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    wide: bool         # the 5 x 3 x 4 tree, each model also written as MPS
    warmup: bool       # one untimed run first: the first run in a process
                       # pays ~1 s of one-time costs, ~25% of a wide-tree run


# A fleet drawn from the seed would set the model's size (mode A: 1052 to
# 1151 rows over the draws tried) and move the run time with it by up to 40%,
# so both workloads keep the committed fleet.
# ref_day_A: the whole reference day, 4 scenarios.  Tree search dominates
#   (per-pivot cost, child re-solves, the repeated root solve, warm start
#   from one scenario to the next).  Over seeds, LP iterations move by ~3%.
# wide_tree_B: 60 warm-started root LPs of ~2 iterations each, so the fixed
#   per-LP cost, model build, MPS export and artifact write dominate.  LP
#   iterations are the same for every seed.
WORKLOADS = {
    "ref_day_A": Workload("ref_day_A", "A", False, False),
    "wide_tree_B": Workload("wide_tree_B", "B", True, True),
}

# reference-day CSV -> scale factor range of ref_day_A
REF_SCALES = {name: (0.9, 1.1) for name in (
    "radiation_sunny.csv", "radiation_cloudy.csv", "price_day.csv",
    "rb_high.csv", "rb_low.csv")}

# axis -> (scale factor range, members as (source CSV, probability)); each
# member's factor is drawn uniformly from its axis's range.
WIDE_AXES = {
    "pv": ((0.3, 1.0), (("radiation_sunny.csv", 0.3),
                        ("radiation_sunny.csv", 0.2),
                        ("radiation_cloudy.csv", 0.2),
                        ("radiation_cloudy.csv", 0.2),
                        ("radiation_cloudy.csv", 0.1))),
    "price": ((0.8, 1.25), (("price_day.csv", 0.25),
                            ("price_day.csv", 0.5),
                            ("price_day.csv", 0.25))),
    "rb": ((0.5, 1.0), (("rb_high.csv", 0.25),
                        ("rb_high.csv", 0.25),
                        ("rb_low.csv", 0.25),
                        ("rb_low.csv", 0.25))),
}


def wide_factors(seed: int) -> dict[str, list[float]]:
    rng = np.random.default_rng(seed)
    return {axis: [float(rng.uniform(lo, hi)) for _ in members]
            for axis, ((lo, hi), members) in WIDE_AXES.items()}


def ref_factors(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    return {name: float(rng.uniform(lo, hi))
            for name, (lo, hi) in REF_SCALES.items()}


def _scaled_csv(src: Path, dst: Path, factor: float) -> None:
    lines = src.read_text().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        if line.strip():
            step, value = line.split(",")
            out.append(f"{step},{float(value) * factor!r}")
    dst.write_text("\n".join(out) + "\n")


def _wide_axes(ref: Path, dest: Path, seed: int) -> dict:
    axes = {}
    for axis, factors in wide_factors(seed).items():
        refs = []
        for k, ((csv_name, prob), factor) in enumerate(
                zip(WIDE_AXES[axis][1], factors)):
            name = f"{axis}_{k}.csv"
            _scaled_csv(ref / csv_name, dest / name, factor)
            refs.append({"csv": name, "probability": prob})
        axes[axis] = {"members": refs}
    return axes


def prepare(workload: Workload, seed: int, root: Path, dest: Path) -> Path:
    """Write the workload's config file and CSVs under ``dest``."""
    ref = root / REF_DIR
    doc = json.loads((ref / "config.json").read_text())
    for csv_file in ref.glob("*.csv"):
        shutil.copyfile(csv_file, dest / csv_file.name)
    if workload.wide:
        doc["scenario_axes"].update(_wide_axes(ref, dest, seed))
    else:
        for name, factor in ref_factors(seed).items():
            _scaled_csv(ref / name, dest / name, factor)
    path = dest / "config.json"
    path.write_text(json.dumps(doc, indent=1))
    return path


def wide_scenario_count() -> int:
    n = 1
    for _, members in WIDE_AXES.values():
        n *= len(members)
    return n
