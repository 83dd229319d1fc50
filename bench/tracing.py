"""Layer spans recorded from outside the program.

Nothing under ``src/`` is changed.  For the length of one traced run, each
layer function is rebound at the module that imports it by name, so every
call made through that name opens a span.  Spans stay in memory and are
written out by the caller when the run is over.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import asdict, dataclass, field

# module -> names it imports (or defines) and calls by that name
SITES = (
    ("station_ems.pipeline", ("load_config", "build_fleet", "build_scenarios",
                              "build_model", "solve_ems", "export_mps",
                              "write_outputs")),
    ("station_ems.model", ("solve_lp", "solve_mip", "repair_dispatch",
                           "extract_solution", "check_dispatch")),
    ("station_ems.milp.branch_bound", ("solve_lp", "feasibility_report")),
    ("station_ems.cli", ("run_pipeline",)),
)
ROOT_SPAN = "cli.main"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _attrs(name: str, out) -> dict:
    """Counts read off a layer's return value, outside the span's interval."""
    if name.endswith(".solve_lp"):
        return {"status": out.status, "iterations": out.iterations}
    if name == "model.solve_mip":
        return {"nodes": out.node_count}
    if name == "model.repair_dispatch":
        return {"hit": out is not None}
    if name == "branch_bound.feasibility_report":
        return {"feasible": bool(out["feasible"])}
    if name == "pipeline.build_model":
        milp = out.milp
        return {"cols": milp.n_cols, "rows": milp.n_rows,
                "nnz": len(milp.a_vals), "binaries": milp.n_binaries}
    if name in ("pipeline.build_fleet", "pipeline.build_scenarios"):
        return {"count": len(out)}
    return {}


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run = run_id
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, parent, self.run, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            s.attrs = _attrs(name, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every site in SITES to a span-opening wrapper, then restore."""
        saved = []
        try:
            for mod_name, names in SITES:
                mod = importlib.import_module(mod_name)
                short = mod_name.rsplit(".", 1)[-1]
                for n in names:
                    saved.append((mod, n, getattr(mod, n)))
                    setattr(mod, n, self._wrap(f"{short}.{n}", getattr(mod, n)))
            yield self
        finally:
            for mod, n, fn in reversed(saved):
                setattr(mod, n, fn)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    The program is single-threaded, so children of one span never overlap.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one run's spans."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["id"])

    def total(name):
        return sum((own[i] for i in by_name.get(name, ())), 0.0)

    def calls(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(spans[i]["attrs"].get(key, 0) for i in by_name.get(name, ()))

    m: dict[str, tuple[float, str]] = {}
    m["cli.self_s"] = (total(ROOT_SPAN), "s")
    m["pipeline.self_s"] = (total("cli.run_pipeline"), "s")
    m["config.load_s"] = (total("pipeline.load_config"), "s")
    m["fleet.build_s"] = (total("pipeline.build_fleet"), "s")
    m["fleet.sessions"] = (attr_sum("pipeline.build_fleet", "count"), "count")
    m["scenarios.build_s"] = (total("pipeline.build_scenarios"), "s")
    m["scenarios.count"] = (attr_sum("pipeline.build_scenarios", "count"), "count")

    m["model.build_s"] = (total("pipeline.build_model"), "s")
    m["model.build_calls"] = (calls("pipeline.build_model"), "count")
    builds = by_name.get("pipeline.build_model", ())
    shape = spans[builds[0]]["attrs"] if builds else {}
    for key in ("cols", "rows", "nnz", "binaries"):
        m[f"model.{key}"] = (shape.get(key, 0), "count")
    m["model.solve_self_s"] = (total("pipeline.solve_ems"), "s")
    repairs = calls("model.repair_dispatch")
    m["model.repair_s"] = (total("model.repair_dispatch"), "s")
    m["model.repair_calls"] = (repairs, "count")
    hits = attr_sum("model.repair_dispatch", "hit")
    m["model.repair_hit_ratio"] = (hits / repairs if repairs else 0.0, "ratio")
    m["model.extract_s"] = (total("model.extract_solution"), "s")
    m["model.check_s"] = (total("model.check_dispatch"), "s")

    root_s, root_calls = total("model.solve_lp"), calls("model.solve_lp")
    m["simplex.root_s"] = (root_s, "s")
    m["simplex.root_calls"] = (root_calls, "count")
    m["simplex.root_iterations"] = (attr_sum("model.solve_lp", "iterations"), "count")
    m["simplex.root_s_per_call"] = (root_s / root_calls if root_calls else 0.0, "s/call")
    tree_s = total("branch_bound.solve_lp")
    tree_iters = attr_sum("branch_bound.solve_lp", "iterations")
    m["simplex.tree_s"] = (tree_s, "s")
    m["simplex.tree_calls"] = (calls("branch_bound.solve_lp"), "count")
    m["simplex.tree_iterations"] = (tree_iters, "count")
    m["simplex.s_per_iteration"] = (tree_s / tree_iters if tree_iters else 0.0,
                                    "s/iteration")
    statuses = [spans[i]["attrs"].get("status")
                for i in by_name.get("branch_bound.solve_lp", ())]
    m["simplex.non_optimal"] = (sum(st != "optimal" for st in statuses), "count")
    for st in ("infeasible", "unbounded", "limit", "failed"):
        m[f"simplex.non_optimal.{st}"] = (statuses.count(st), "count")

    m["branch_bound.self_s"] = (total("model.solve_mip"), "s")
    m["branch_bound.nodes"] = (attr_sum("model.solve_mip", "nodes"), "count")
    first_child: dict[int, int] = {}
    for i in by_name.get("branch_bound.solve_lp", ()):
        first_child.setdefault(spans[i]["parent"], i)
    m["branch_bound.root_resolve_iterations"] = (
        sum(spans[i]["attrs"].get("iterations", 0) for i in first_child.values()),
        "count")
    feas = calls("branch_bound.feasibility_report")
    m["branch_bound.feasibility_s"] = (total("branch_bound.feasibility_report"), "s")
    m["branch_bound.feasibility_calls"] = (feas, "count")
    accepted = attr_sum("branch_bound.feasibility_report", "feasible")
    m["branch_bound.offer_accept_ratio"] = (accepted / feas if feas else 0.0, "ratio")

    m["mps.export_s"] = (total("pipeline.export_mps"), "s")
    m["pipeline.write_s"] = (total("pipeline.write_outputs"), "s")
    return m
