"""End-to-end day-ahead run: inputs to solved schedules and artifact files.

A run loads the config, draws the charging visits, assembles the uncertainty
axes, solves every selected scenario independently, and aggregates the
results into a deterministic report plus plot-ready CSV files.  Scenario
models differ only in data, never in structure: the structure is built once
per run and each scenario's data is written into it.  The root relaxation of
the tree's first scenario, solved from a crash basis before any scenario,
is the anchor every selected scenario's root resumes from, the first's
too, so no answer depends on the solve order or the selection, and whose
basis factors each distinct coefficient array makes once.
"""
from __future__ import annotations

import csv
import hashlib
import json
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .config import (
    AxisRef,
    ConfigError,
    SiteConfig,
    load_config,
    load_series_csv,
    load_timetable_csv,
    require_valid,
)
from .fleet import fulfillment_time, iter_car_sessions, sample_bus_sessions, \
    uncoordinated_profile
from .milp.mps import NumberTexts, export_mps
from .model import FLOW_TOL, EmsSolution, EmsSolveError, MODES, \
    SolutionCheckError, build_model, solve_ems, solve_root, vehicle_entries, \
    with_scenario
from .pv import pv_series
from .scenarios import AxisMember, ScenarioSet, build_tree, split_demand
from .types import EvSession

REPORT_NAME = "report.json"
DISPATCH_NAME = "dispatch.csv"
SCHEDULE_NAME = "schedule_ev.csv"
THETA_NAME = "theta.csv"

DISPATCH_COLUMNS = [
    "scenario", "step", "demand_kw", "pv_kw", "rb_available_kw", "price_buy",
    "price_sell", "grid_buy_kw", "grid_sell_kw", "ess_charge_kw",
    "ess_discharge_kw", "rb_used_kw", "ess_soc_kwh", "grid_buy_on",
    "ess_charge_on", "ev_total_kw", "combined_load_kw"]
SCHEDULE_COLUMNS = ["scenario", "step", "session", "ev_power_kw", "ev_soc_kwh"]
THETA_COLUMNS = ["scenario", "session", "theta_kwh", "theta_min_kwh",
                 "theta_max_kwh", "e_requested_kwh", "departure_soc_kwh"]

INTERPRETATION_NOTES = (
    "Storage charge and discharge rate limits are read as kW power caps "
    "applied at every step.",
    "Storage bookkeeping starts from the configured initial level, treated "
    "as the state one step before the horizon.",
    "Each scenario sells energy at its buying price.",
    "Buying and selling in one step are netted: the smaller flow is taken "
    "off both, so the grid never imports and exports at once.",
)


@dataclass(eq=False)
class RunResult:
    """Everything a finished run produced, with the report already built."""

    cfg: SiteConfig
    mode: str
    seed: int
    sessions: tuple[EvSession, ...]
    tree: ScenarioSet
    solved_indices: tuple[int, ...]
    solutions: tuple[EmsSolution, ...]
    report: dict

    @property
    def objective(self) -> float:
        return self.report["objective"]["total"]


def build_fleet(cfg: SiteConfig, seed: int) -> tuple[EvSession, ...]:
    """Draw the day's charging visits: buses first, then cars, up to the cap.

    Every bus is drawn, so every timetable entry is checked; cars are drawn
    only while the cap has room.
    """
    grid, kappa, fleet = cfg.time_grid, cfg.flexibility.kappa, cfg.fleet
    buses: list[EvSession] = []
    if fleet.bus.timetable_csv:
        timetable = load_timetable_csv(cfg.resolve(fleet.bus.timetable_csv))
        buses = sample_bus_sessions(timetable, grid, seed, spec=fleet.bus,
                                    kappa=kappa)
    cars = iter_car_sessions(grid, seed, spec=fleet.car, kappa=kappa,
                             first_id=len(buses))
    return tuple(islice(chain(buses, cars), fleet.max_sessions))


def _load_axis(cfg: SiteConfig, ref: AxisRef,
               transform=None) -> tuple[AxisMember, ...]:
    members = []
    for m in ref.members:
        series = load_series_csv(cfg.resolve(m.series.path),
                                 cfg.time_grid.horizon_steps)
        if transform is not None:
            series = transform(series)
        members.append(AxisMember(series, m.probability,
                                  Path(m.series.path).stem))
    return tuple(members)


def build_scenarios(cfg: SiteConfig) -> ScenarioSet:
    """Load every referenced series and cross the axes into the scenario set.

    Without an explicit recovered-braking axis, negative demand readings are
    split off as the braking availability of a single implicit member.
    """
    n_t = cfg.time_grid.horizon_steps
    raw = load_series_csv(cfg.resolve(cfg.data.demand.path), n_t,
                          name="demand")
    if cfg.data.rb_axis is None:
        base, rb_series = split_demand(raw)
        rb_axis = (AxisMember(rb_series, 1.0, "from-demand"),)
    else:
        if np.any(raw < 0.0):
            raise ConfigError(
                "demand series has negative entries, but an explicit rb axis "
                "is configured; negatives are only meaningful without one")
        base = raw
        rb_axis = _load_axis(cfg, cfg.data.rb_axis)
    pv_axis = _load_axis(cfg, cfg.data.pv_axis,
                         transform=lambda s: pv_series(s, cfg.pv))
    price_axis = _load_axis(cfg, cfg.data.price_axis)
    return build_tree(pv_axis, price_axis, rb_axis, base)


def _session_rows(sessions, grid, kappa) -> list[dict]:
    rows = []
    for s in sessions:
        rows.append({
            "session": s.session_id,
            "kind": s.ev.kind,
            "arrival_step": s.t_arrival,
            "departure_step": s.t_departure,
            "e_requested_kwh": s.e_requested_kwh,
            "soc_init_kwh": s.soc_init_kwh,
            "theta_min_kwh": s.theta_min_kwh,
            "theta_max_kwh": s.theta_max_kwh,
            "p_nominal_kw": s.ev.p_nominal_kw,
            "p_max_kw": s.ev.p_max_kw,
            "eta": s.ev.eta,
            "fulfillment_steps": fulfillment_time(s, grid),
            "kappa": kappa,
        })
    return rows


def _fingerprint(payload) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _build_report(cfg: SiteConfig, mode: str, seed: int, sessions,
                  tree: ScenarioSet, solved, solutions,
                  anchor_iterations: int) -> dict:
    grid = cfg.time_grid
    p_max = cfg.peak.p_max_kw
    session_rows = _session_rows(sessions, grid, cfg.flexibility.kappa)
    probs = {sc.index: sc.probability for sc in tree}

    # the per-step and per-vehicle tables live in the CSVs alone; the
    # report keeps what no other artifact holds
    per_obj, peak_rows, ess_rows, check_rows, solver_rows = [], [], [], [], []
    total = exp_cost = exp_theta = opt_peak = 0.0
    over = 0
    for idx, sol in zip(solved, solutions):
        pi = probs[idx]
        per_obj.append({"scenario": idx, "probability": pi, "cost": sol.cost,
                        "theta_value": sol.theta_value,
                        "objective": sol.objective})
        total += pi * sol.objective
        exp_cost += pi * sol.cost
        exp_theta += pi * sol.theta_value
        combined_kw = sol.index.demand + sol.ev_total_power
        peak_kw = float(combined_kw.max(initial=0.0))
        opt_peak = max(opt_peak, peak_kw)
        over = max(over, int((combined_kw > p_max + 1e-6).sum()))
        peak_rows.append({
            "scenario": idx, "max_combined_kw": peak_kw,
            "binding_steps": int((combined_kw >= p_max - 1e-6).sum()),
        })
        ess_rows.append({"scenario": idx, "soc_final_kwh": float(sol.ess_soc[-1])})
        check_rows += ({"scenario": idx, "name": c.name,
                        "max_residual": c.max_residual, "tolerance": c.tolerance,
                        "passed": c.passed, "hard": c.hard} for c in sol.checks)
        solver_rows.append({
            "scenario": idx, "status": sol.status,
            "objective": sol.objective, "best_bound": sol.best_bound,
            "gap": sol.gap, "node_count": sol.node_count,
            "lp_iterations": sol.lp_iterations,
        })

    unc_ev = uncoordinated_profile(sessions, grid)
    base_demand = tree[0].demand
    unc_combined = base_demand + unc_ev
    unc_peak = float(unc_combined.max(initial=0.0))
    report = {
        "mode": mode,
        "seed": seed,
        "config_echo": cfg.to_dict(),
        "interpretations": list(INTERPRETATION_NOTES),
        "sessions": session_rows,
        "session_fingerprint": _fingerprint(session_rows),
        "scenario_tree": {
            "n_scenarios": len(tree),
            "axis_sizes": {
                "pv": len(cfg.data.pv_axis.members),
                "price": len(cfg.data.price_axis.members),
                "rb": 1 if cfg.data.rb_axis is None
                else len(cfg.data.rb_axis.members),
            },
            "probability_sum": float(sum(sc.probability for sc in tree)),
            "solved": list(solved),
            "labels": {sc.index: sc.label for sc in tree},
        },
        "objective": {
            "total": total,
            "expected_cost": exp_cost,
            "expected_theta_value": exp_theta,
            "per_scenario": per_obj,
        },
        "peak": {
            "p_max_kw": p_max,
            "max_combined_kw": opt_peak,
            "per_scenario": peak_rows,
        },
        "ess": {"per_scenario": ess_rows},
        "checks": check_rows,
        "checks_passed": all(c["passed"] or not c["hard"] for c in check_rows),
        "uncoordinated": {
            "ev_profile_kw": unc_ev.tolist(),
            "peak_kw": unc_peak,
            "optimized_peak_kw": opt_peak,
            "peak_reduction_kw": unc_peak - opt_peak,
            "steps_over_cap_uncoordinated": int((unc_combined > p_max + 1e-6).sum()),
            "steps_over_cap_optimized": over,
        },
        "solver": {
            "per_scenario": solver_rows,
            "total_nodes": sum(r["node_count"] for r in solver_rows),
            "total_lp_iterations": anchor_iterations
                + sum(r["lp_iterations"] for r in solver_rows),
        },
    }
    return report


def report_text(report: dict) -> str:
    """The report as written to report.json and printed by ``run``."""
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def run_pipeline(config, mode: str = "A", seed: int | None = None,
                 out_dir: str | Path | None = None,
                 export_mps_dir: str | Path | None = None,
                 scenario_filter=None) -> RunResult:
    """Execute one full day-ahead run and optionally write its artifacts.

    ``config`` is a config file path or a SiteConfig, which is validated
    as ``load_config`` validates a file.
    ``scenario_filter`` selects tree indices to solve (default: all), as
    ints and step-1 ranges; one that selects nothing or an index outside
    the tree is refused.  ``anchored_solves`` solves them.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
    cfg = require_valid(config) if isinstance(config, SiteConfig) \
        else load_config(config)
    used_seed = cfg.fleet.seed if seed is None else int(seed)
    if used_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {used_seed}")

    sessions = build_fleet(cfg, used_seed)
    tree = build_scenarios(cfg)

    if scenario_filter is None:
        selected = [sc.index for sc in tree]
    else:
        parts = [p if isinstance(p, range) else range(int(p), int(p) + 1)
                 for p in scenario_filter]
        if not any(parts):
            raise ConfigError("scenario filter selects nothing")
        # the tree's indices run from 0 to n - 1: the distinct ones outside
        # are counted from the ranges' ends, as a range may be too long to
        # expand
        n = len(tree)
        outside = sorted((lo, hi) for p in parts for lo, hi in (
            (p.start, min(p.stop, 0)), (max(p.start, n), p.stop)) if lo < hi)
        if outside:
            count, reach = 0, outside[0][0]
            for lo, hi in outside:
                count += max(hi - max(lo, reach), 0)
                reach = max(reach, hi)
            raise ConfigError(
                f"scenario filter names {count} unknown "
                f"{'index' if count == 1 else 'indices'}, the first "
                f"{outside[0][0]}; the tree's indices run from 0 to {n - 1}")
        selected = sorted(set().union(*parts))

    # an unusable output path fails here, before any solve
    for directory in (out_dir, export_mps_dir):
        if directory is not None:
            Path(directory).mkdir(parents=True, exist_ok=True)

    anchor, solves = anchored_solves(cfg, sessions, tree, mode, selected,
                                     export_mps_dir)
    solutions = tuple(_solved(idx, solve) for idx, _, solve in solves)

    report = _build_report(cfg, mode, used_seed, sessions, tree,
                           tuple(selected), solutions, anchor.iterations)
    result = RunResult(cfg=cfg, mode=mode, seed=used_seed, sessions=sessions,
                       tree=tree, solved_indices=tuple(selected),
                       solutions=solutions, report=report)
    if out_dir is not None:
        write_outputs(result, out_dir)
    return result


def _solved(idx: int, solve) -> EmsSolution:
    """``solve()``, whose failure names scenario ``idx`` in its message and
    keeps its type and attributes."""
    try:
        return solve()
    except (EmsSolveError, SolutionCheckError) as exc:
        exc.args = (f"scenario {idx}: {exc}",)
        raise


def anchored_solves(cfg: SiteConfig, sessions, tree: ScenarioSet, mode: str,
                    selected, export_mps_dir: str | Path | None = None):
    """The anchor, the root relaxation of the tree's first scenario solved
    from the crash basis, and ``(index, model, solve)`` for each index in
    ``selected`` in turn, made as it is asked for and the model exported
    when ``export_mps_dir`` is given: ``solve()`` is ``solve_ems`` with its
    root resumed from the anchor.  Every model holds the rows that can bind
    for some scenario of the tree, so all share one sparsity pattern,
    whatever the selection.  ``run`` and ``oracle`` both solve through
    this one rule."""
    base = build_model(cfg, sessions, tree, mode)
    anchor = solve_root(base)
    by_index = {sc.index: sc for sc in tree}

    def solves():
        for idx in selected:
            model = with_scenario(base, by_index[idx])
            if export_mps_dir is not None:
                export_mps(model.milp,
                           Path(export_mps_dir) / f"scenario_{idx:04d}.mps",
                           name=f"EMS{mode}S{idx}")
            yield idx, model, partial(solve_ems, model, warm=anchor)

    return anchor, solves()


def write_outputs(result: RunResult, out_dir: str | Path) -> None:
    """Write report.json and the three CSV artifacts, one scenario block of
    lines at a time.

    Numbers are written as ``repr(float)``, so every CSV value parses back
    to exactly the solution's entry; each distinct value of a run is
    formatted once.  No field needs quoting, so a line is its fields joined
    by commas, as ``csv.writer`` would write it.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / REPORT_NAME).write_text(report_text(result.report))

    texts = NumberTexts(repr)
    sessions = result.sessions
    solved = [(str(idx), sol) for idx, sol in
              zip(result.solved_indices, result.solutions)]
    with open(out / DISPATCH_NAME, "w", newline="") as fh:
        _write_lines(fh, [DISPATCH_COLUMNS])
        steps = list(map(str, range(result.cfg.time_grid.horizon_steps)))
        for idx, sol in solved:
            ev_total = sol.ev_total_power
            data = sol.index
            values = texts(np.stack([
                data.demand, data.pv, data.rb_available,
                data.price_buy, data.price_sell, sol.grid_buy,
                sol.grid_sell, sol.ess_charge, sol.ess_discharge,
                sol.rb_used, sol.ess_soc, ev_total,
                data.demand + ev_total])).tolist()
            on = np.where(np.stack([sol.grid_buy > FLOW_TOL,
                                    sol.ess_charge_on]), "1", "0").tolist()
            _write_lines(fh, zip(repeat(idx), steps, *values[:11], *on,
                                 *values[11:]))

    ses_at, entry_steps = vehicle_entries(sessions)
    ids = [str(s.session_id) for s in sessions]
    step_texts = list(map(str, entry_steps.tolist()))
    id_texts = [ids[i] for i in ses_at.tolist()]
    with open(out / SCHEDULE_NAME, "w", newline="") as fh:
        _write_lines(fh, [SCHEDULE_COLUMNS])
        for idx, sol in solved:
            power, soc = texts(np.stack([sol.ev_power[ses_at, entry_steps],
                                         sol.ev_soc[ses_at, entry_steps]])
                               ).tolist()
            _write_lines(fh, zip(repeat(idx), step_texts, id_texts, power, soc))

    theta_min, theta_max, e_requested = texts(np.array(
        [[s.theta_min_kwh, s.theta_max_kwh, s.e_requested_kwh]
         for s in sessions], dtype=float).reshape(-1, 3).T).tolist()
    with open(out / THETA_NAME, "w", newline="") as fh:
        _write_lines(fh, [THETA_COLUMNS])
        for idx, sol in solved:
            theta, departure = texts(np.stack(
                [sol.theta, sol.departure_soc])).tolist()
            _write_lines(fh, zip(repeat(idx), ids, theta, theta_min,
                                 theta_max, e_requested, departure))


def _write_lines(fh, rows) -> None:
    """Each row's fields joined by commas, one line per row."""
    text = "\n".join(map(",".join, rows))
    if text:
        fh.write(text + "\n")


# the fields compare_runs reads from a report, as key -> type or nested shape
_COMPARED_FIELDS = {
    "mode": str, "session_fingerprint": str,
    "scenario_tree": {"solved": list}, "objective": {"total": float},
    "peak": {"max_combined_kw": float}}


def _shape_problem(value, shape, where: str) -> str | None:
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return f"{where} is not an object"
        for key, sub in shape.items():
            if key not in value:
                return f"{where} has no {key!r}"
            problem = _shape_problem(value[key], sub, f"{where}[{key!r}]")
            if problem is not None:
                return problem
        return None
    # JSON numbers: an integral float may be written as an int, and a bool
    # is not a number
    kinds = (int, float) if shape is float else shape
    if isinstance(value, bool) or not isinstance(value, kinds):
        return f"{where} is not {'a number' if shape is float else 'a ' + shape.__name__}"
    # json reads NaN, Infinity, 1e400 and 10**400: no finite float holds them
    if shape is float and not abs(value) <= sys.float_info.max:
        return f"{where} is not a finite number"
    return None


def load_run(run_dir: str | Path) -> tuple[dict, dict]:
    """A finished run's report and its theta table, read from its directory.

    The table maps ``(scenario, session)`` to ``(theta_kwh,
    departure_soc_kwh)``, one entry per line of theta.csv, in file order.
    Raises ConfigError, naming the file, when either file is missing or is
    not what ``write_outputs`` writes, as when a line repeats a pair or a
    number it reads is not finite.
    """
    run_dir = Path(run_dir)
    path = run_dir / REPORT_NAME
    if not path.is_file():
        raise ConfigError(f"no {REPORT_NAME} under {run_dir}")
    try:
        report = json.loads(path.read_text())
    except ValueError as exc:
        raise ConfigError(f"{path} is not JSON: {exc}") from None
    problem = _shape_problem(report, _COMPARED_FIELDS, "the report")
    if problem is not None:
        raise ConfigError(f"{path} is not a run report: {problem}")

    path = run_dir / THETA_NAME
    if not path.is_file():
        raise ConfigError(f"no {THETA_NAME} under {run_dir}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
    except (csv.Error, ValueError) as exc:
        raise ConfigError(f"{path} is not a theta table: {exc}") from None
    if not lines or lines[0] != THETA_COLUMNS:
        raise ConfigError(f"{path} is not a theta table: the header is not "
                          f"{','.join(THETA_COLUMNS)}")
    theta = {}
    for k, fields in enumerate(lines[1:], start=2):
        try:
            if len(fields) != len(THETA_COLUMNS):
                raise ValueError(f"{len(fields)} fields, expected "
                                 f"{len(THETA_COLUMNS)}")
            key = (int(fields[0]), int(fields[1]))
            if key in theta:
                raise ValueError(f"repeats scenario {key[0]}, session {key[1]}")
            for col in (2, 6):
                if not np.isfinite(float(fields[col])):
                    raise ValueError(f"{THETA_COLUMNS[col]} {fields[col]!r} "
                                     f"is not a finite number")
            theta[key] = (float(fields[2]), float(fields[6]))
        except ValueError as exc:
            raise ConfigError(f"{path} is not a theta table: line {k}: "
                              f"{exc}") from None
    return report, theta


def compare_runs(run_dir_a: str | Path, run_dir_b: str | Path) -> dict:
    """Line up two finished runs over the same sessions and scenarios.

    Reads each directory's report.json and theta.csv with ``load_run``.
    Raises ValueError when the runs drew different sessions, solved
    different scenario sets or hold different theta rows; deltas are
    (a minus b).
    """
    report_a, theta_a = load_run(run_dir_a)
    report_b, theta_b = load_run(run_dir_b)
    if report_a["session_fingerprint"] != report_b["session_fingerprint"]:
        raise ValueError("runs drew different session sets; comparison "
                         "would be meaningless")
    solved_a = report_a["scenario_tree"]["solved"]
    solved_b = report_b["scenario_tree"]["solved"]
    if solved_a != solved_b:
        raise ValueError("runs solved different scenario subsets")

    if theta_a.keys() != theta_b.keys():
        raise ValueError("runs hold different theta rows")
    deltas = []
    for (sc, ses), (theta, departure_soc) in theta_a.items():
        theta_b_kwh, departure_soc_b = theta_b[(sc, ses)]
        deltas.append({
            "scenario": sc,
            "session": ses,
            "theta_delta_kwh": theta - theta_b_kwh,
            "departure_soc_delta_kwh": departure_soc - departure_soc_b,
        })
    return {
        "mode_a": report_a["mode"],
        "mode_b": report_b["mode"],
        "objective_delta": report_a["objective"]["total"]
            - report_b["objective"]["total"],
        "peak_delta_kw": report_a["peak"]["max_combined_kw"]
            - report_b["peak"]["max_combined_kw"],
        "theta_deltas": deltas,
        "theta_total_delta_kwh": sum(d["theta_delta_kwh"] for d in deltas),
        "theta_delta_min_kwh": min((d["theta_delta_kwh"] for d in deltas),
                                   default=0.0),
        "theta_delta_max_kwh": max((d["theta_delta_kwh"] for d in deltas),
                                   default=0.0),
    }
