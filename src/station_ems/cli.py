"""Command-line front end: run, compare, and oracle subcommands.

Exit codes: 0 on success, 1 when a solve or a post-solve check fails, 2 for
usage and configuration errors and for output paths that cannot be written.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .milp import STATUS_OPTIMAL
from .milp.highs import highs_solve
from .model import (
    EmsSolveError,
    InfeasibleModelError,
    MODES,
    SolutionCheckError,
    build_model,
    solve_ems,
)
from .pipeline import REPORT_NAME, build_fleet, build_scenarios, compare_runs, \
    run_pipeline
from .scenarios import single_scenario_set


def _parse_scenario_filter(text: str) -> list[int]:
    """Accept comma-separated indices and inclusive ranges, e.g. 0,2,5-8.

    A ValueError names the flag and the part it cannot read.
    """
    def index(part: str) -> int:
        try:
            return int(part)
        except ValueError:
            raise ValueError(f"--scenarios: {part!r} is not a tree index") from None

    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo_s, hi_s = part.split("-", 1)
            lo, hi = index(lo_s), index(hi_s)
            if hi < lo:
                raise ValueError(f"--scenarios: empty range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(index(part))
    if not out:
        raise ValueError("--scenarios: the filter selects nothing")
    return out


def _cmd_run(args) -> int:
    filt = None
    if args.scenarios:
        filt = _parse_scenario_filter(args.scenarios)
    result = run_pipeline(args.config, mode=args.mode, seed=args.seed,
                          out_dir=args.out, export_mps_dir=args.export_mps,
                          scenario_filter=filt)
    rep = result.report
    if args.out is None:
        print(json.dumps(rep, sort_keys=True, indent=1))
    else:
        print(f"mode {rep['mode']} seed {rep['seed']}: "
              f"objective {rep['objective']['total']:.6f}")
        print(f"scenarios solved: {len(rep['scenario_tree']['solved'])} "
              f"of {rep['scenario_tree']['n_scenarios']}")
        print(f"peak: optimized {rep['peak']['max_combined_kw']:.3f} kW, "
              f"cap {rep['peak']['p_max_kw']:.3f} kW, "
              f"uncoordinated {rep['uncoordinated']['peak_kw']:.3f} kW")
        failed = [c["name"] for c in rep["checks"]
                  if c["hard"] and not c["passed"]]
        print("checks: all passed" if not failed
              else "checks FAILED: " + ", ".join(sorted(set(failed))))
        print(f"wrote {Path(args.out) / REPORT_NAME} and CSV artifacts")
    if not rep["checks_passed"]:
        return 1
    return 0


def _cmd_compare(args) -> int:
    table = compare_runs(args.run_dir_a, args.run_dir_b)
    print(json.dumps(table, sort_keys=True, indent=1))
    return 0


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    sessions = build_fleet(cfg, cfg.fleet.seed)
    scenarios = build_scenarios(cfg)
    for sc in scenarios:
        model = build_model(cfg, sessions, single_scenario_set(sc), mode="A")
        try:
            status, objective = STATUS_OPTIMAL, solve_ems(model).objective
        except EmsSolveError as exc:
            status, objective = exc.status, None
        ref_status, ref_objective = highs_solve(model.milp)
        print(f"scenario {sc.index}: HiGHS: status {ref_status}, "
              f"objective {ref_objective!r}")
        print(f"scenario {sc.index}: run path: status {status}, "
              f"objective {objective!r}")
        if status != ref_status:
            print(f"scenario {sc.index}: status mismatch, {status} against "
                  f"HiGHS {ref_status}", file=sys.stderr)
            return 1
        if status == STATUS_OPTIMAL:
            rel = abs(objective - ref_objective) / max(1.0, abs(ref_objective))
            print(f"scenario {sc.index}: relative difference: {rel!r}")
            if rel > 1e-6:
                print(f"scenario {sc.index}: objectives disagree beyond 1e-6 "
                      f"relative", file=sys.stderr)
                return 1
    print(f"oracle agreement confirmed on {len(scenarios)} scenarios")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="station-ems",
        description="Day-ahead dispatch for a railway station with an EV lot")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one day-ahead problem")
    run.add_argument("--config", required=True, help="config JSON path")
    run.add_argument("--mode", default="A", choices=list(MODES),
                     help="A full, B no storage, C no solar")
    run.add_argument("--seed", type=int, default=None,
                     help="fleet sampling seed (default: from config)")
    run.add_argument("--export-mps", default=None, metavar="DIR",
                     help="write one MPS file per solved scenario")
    run.add_argument("--scenarios", default=None,
                     help="subset of tree indices, e.g. 0,2,5-8")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="write report.json and CSV artifacts here")
    run.set_defaults(func=_cmd_run)

    cmp_ = sub.add_parser("compare", help="diff two finished run directories")
    cmp_.add_argument("run_dir_a")
    cmp_.add_argument("run_dir_b")
    cmp_.set_defaults(func=_cmd_compare)

    orc = sub.add_parser("oracle",
                         help="check the run path's optimum of every "
                              "mode-A scenario against HiGHS")
    orc.add_argument("--config", required=True, help="config JSON path")
    orc.set_defaults(func=_cmd_oracle)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleModelError, EmsSolveError, SolutionCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
