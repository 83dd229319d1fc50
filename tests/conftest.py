"""Shared fixtures and reference oracles for the test suite."""
from __future__ import annotations

import itertools
import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from station_ems.config import (
    AxisMemberRef,
    AxisRef,
    DataConfig,
    SeriesRef,
    SiteConfig,
)
from station_ems.milp.canonical import (
    ROW_EQ,
    ROW_LE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    CanonicalMilp,
    MipSolution,
    ModelBuilder,
)
from station_ems.milp import simplex
from station_ems.milp.simplex import solve_lp
from station_ems.model import build_model
from station_ems.scenarios import Scenario, ScenarioSet
from station_ems.types import (
    UNIT_KW,
    UNIT_PRICE,
    UNIT_RADIATION,
    EssSpec,
    EvClass,
    EvSession,
    FlexPolicy,
    GridSpec,
    ObjectiveWeights,
    PeakPolicy,
    PvSpec,
    TimeGrid,
)
from station_ems.config import BusFleetSpec, CarFleetSpec, FleetConfig

FIXTURES = Path(__file__).resolve().parent / "fixtures"


# ---------------------------------------------------------------------------
# in-memory instance construction

def make_site_cfg(
    n_t: int = 4,
    step_minutes: float = 10.0,
    p_buy_max_kw: float = 5000.0,
    p_sell_max_kw: float = 1000.0,
    ess: EssSpec | None = None,
    pv: PvSpec | None = None,
    p_max_kw: float = 3000.0,
    kappa: float = 0.6,
    w_power: float = 1.0,
    w_theta: float = 1.0,
) -> SiteConfig:
    """A SiteConfig for direct model construction; the data section is inert."""
    if ess is None:
        ess = EssSpec(soc_max_kwh=1000.0, soc_min_kwh=100.0, soc_init_kwh=500.0,
                      charge_rate_max_kw=1000.0, discharge_rate_max_kw=1000.0,
                      eta_charge=0.95, eta_discharge=0.95)
    if pv is None:
        pv = PvSpec(1000.0, 150.0, 1000.0)
    data = DataConfig(
        demand=SeriesRef("demand.csv", UNIT_KW),
        pv_axis=AxisRef("pv", (AxisMemberRef(SeriesRef("r.csv", UNIT_RADIATION), 1.0),)),
        price_axis=AxisRef("price", (AxisMemberRef(SeriesRef("p.csv", UNIT_PRICE), 1.0),)),
        rb_axis=None,
    )
    return SiteConfig(
        time_grid=TimeGrid(step_minutes, n_t),
        grid=GridSpec(p_buy_max_kw, p_sell_max_kw),
        ess=ess,
        pv=pv,
        peak=PeakPolicy(p_max_kw),
        flexibility=FlexPolicy(kappa),
        weights=ObjectiveWeights(w_power, w_theta),
        fleet=FleetConfig(car=CarFleetSpec(), bus=BusFleetSpec(), max_sessions=179, seed=0),
        data=data,
    )


def make_scenario(
    demand,
    pv=None,
    rb=None,
    price_buy=None,
    price_sell=None,
    probability: float = 1.0,
    index: int = 0,
    label: str = "",
) -> Scenario:
    n = len(demand)
    pv = [0.0] * n if pv is None else pv
    rb = [0.0] * n if rb is None else rb
    price_buy = [0.2] * n if price_buy is None else price_buy
    price_sell = price_buy if price_sell is None else price_sell
    return Scenario(index=index, probability=probability, demand=demand,
                    rb_available=rb, pv=pv, price_buy=price_buy,
                    price_sell=price_sell, label=label)


def single_set(scenario: Scenario) -> ScenarioSet:
    import dataclasses
    return ScenarioSet((dataclasses.replace(scenario, probability=1.0),))


def car_session(sid: int, a: int, d: int, e_kwh: float, kappa: float,
                grid: TimeGrid, p_nominal: float = 11.0, p_max: float = 22.0,
                eta: float = 1.0) -> EvSession:
    from station_ems.fleet import flex_bounds
    ev = EvClass("car", p_nominal, p_max, eta)
    ses = EvSession(sid, ev, a, d, e_kwh)
    lo, hi = flex_bounds(ses, kappa, grid)
    import dataclasses
    return dataclasses.replace(ses, theta_min_kwh=lo, theta_max_kwh=hi)


def bus_session(sid: int, a: int, d: int, e_kwh: float, kappa: float,
                grid: TimeGrid, p_nominal: float = 300.0,
                p_max: float = 300.0, eta: float = 1.0) -> EvSession:
    from station_ems.fleet import flex_bounds
    ev = EvClass("bus", p_nominal, p_max, eta)
    ses = EvSession(sid, ev, a, d, e_kwh)
    lo, hi = flex_bounds(ses, kappa, grid)
    import dataclasses
    return dataclasses.replace(ses, theta_min_kwh=lo, theta_max_kwh=hi)


def random_ems_instance(rng: np.random.Generator, steps=(2, 2, 3, 3, 4),
                        modes=("A", "A", "A", "B", "C")):
    """A feasible dispatch model over a horizon drawn from ``steps``, in a
    mode drawn from ``modes``; by default it has at most 4 binaries.

    Feasibility is guaranteed by construction: the sell cap covers any
    plant surplus, the import cap covers demand plus every charger, and
    energy floors are reachable at maximum charging power.  Each step sells
    at 0.2 to 1.0 times its buy price.
    """
    n_t = int(rng.choice(steps))
    mode = str(rng.choice(modes))
    kappa = float(rng.choice([0.0, 0.4]))
    grid = TimeGrid(10.0, n_t)

    demand = rng.uniform(0.0, 500.0, n_t)
    pv = rng.uniform(0.0, 200.0, n_t) * (rng.random() < 0.7)
    rb = rng.uniform(0.0, 150.0, n_t) * (rng.random() < 0.6)
    price_buy = rng.uniform(0.05, 0.4, n_t)
    price_sell = price_buy * rng.uniform(0.2, 1.0, n_t)

    n_ev = int(rng.integers(0, 3))
    sessions = []
    total_ev_power = 0.0
    for i in range(n_ev):
        a = int(rng.integers(0, n_t - 1))
        d = int(rng.integers(a + 1, n_t))
        e_req = float(rng.uniform(1.0, 8.0))
        eta = float(rng.choice([1.0, 0.9]))
        sessions.append(car_session(i, a, d, e_req, kappa, grid, eta=eta))
        total_ev_power += 22.0

    eps = float(rng.choice([0.0, 0.0, 0.01]))
    ess = EssSpec(
        soc_max_kwh=float(rng.uniform(40.0, 100.0)),
        soc_min_kwh=float(rng.uniform(0.0, 10.0)),
        soc_init_kwh=float(rng.uniform(12.0, 35.0)),
        charge_rate_max_kw=float(rng.uniform(20.0, 60.0)),
        discharge_rate_max_kw=float(rng.uniform(20.0, 60.0)),
        eta_charge=float(rng.uniform(0.85, 1.0)),
        eta_discharge=float(rng.uniform(0.85, 1.0)),
        self_discharge_rate=eps,
        discharge_efficiency_divides=bool(rng.random() < 0.5),
        terminal_equals_initial=bool(eps == 0.0 and rng.random() < 0.3),
    )
    cap = float(np.max(demand)) + total_ev_power + ess.charge_rate_max_kw + 50.0
    cfg = make_site_cfg(
        n_t=n_t,
        p_buy_max_kw=cap,
        p_sell_max_kw=float(np.max(pv)) + float(rng.uniform(0.0, 100.0)) + 1.0,
        ess=ess,
        p_max_kw=cap,
        kappa=kappa,
        w_theta=float(rng.choice([0.0, 1.0, 5.0])),
    )
    scenario = make_scenario(demand, pv=pv, rb=rb, price_buy=price_buy,
                             price_sell=price_sell)
    return build_model(cfg, sessions, single_set(scenario), mode=mode)


def three_step_instance():
    """Deterministic 3-step single-car model used by the export tests."""
    grid = TimeGrid(10.0, 3)
    cfg = make_site_cfg(
        n_t=3,
        p_buy_max_kw=800.0,
        p_sell_max_kw=150.0,
        ess=EssSpec(soc_max_kwh=60.0, soc_min_kwh=6.0, soc_init_kwh=30.0,
                    charge_rate_max_kw=40.0, discharge_rate_max_kw=40.0,
                    eta_charge=0.95, eta_discharge=0.95),
        p_max_kw=600.0,
        kappa=0.4,
    )
    sessions = [car_session(0, 0, 2, 5.0, 0.4, grid)]
    scenario = make_scenario([300.0, 420.0, 250.0],
                             pv=[40.0, 90.0, 10.0],
                             rb=[80.0, 0.0, 0.0],
                             price_buy=[0.1, 0.3, 0.2])
    return build_model(cfg, sessions, single_set(scenario), mode="A")


# ---------------------------------------------------------------------------
# exact references

def paper_formulation(model) -> CanonicalMilp:
    """The model as the paper states it, with a grid-direction binary UG per
    step: the rows ``G - p_buy*UG <= 0`` and ``X + p_sell*UG <= p_sell``
    let the grid import or export in a step, not both.  The model leaves the
    binary out and nets the two flows instead; both must reach one optimum.
    """
    milp, idx = model.milp, model.index
    n_t = idx.cfg.time_grid.horizon_steps
    p_buy, p_sell = idx.cfg.grid.p_buy_max_kw, idx.cfg.grid.p_sell_max_kw
    ug = milp.n_cols + np.arange(n_t)
    gb = milp.n_rows + np.arange(n_t)
    gs = gb + n_t
    steps = [f"{t:04d}" for t in range(n_t)]
    return CanonicalMilp(
        col_lb=np.concatenate([milp.col_lb, np.zeros(n_t)]),
        col_ub=np.concatenate([milp.col_ub, np.ones(n_t)]),
        col_obj=np.concatenate([milp.col_obj, np.zeros(n_t)]),
        col_binary=np.concatenate([milp.col_binary, np.ones(n_t, dtype=bool)]),
        col_names=milp.col_names + ["UG" + t for t in steps],
        row_sense=list(milp.row_sense) + [ROW_LE] * (2 * n_t),
        row_rhs=np.concatenate([milp.row_rhs, np.zeros(n_t),
                                np.full(n_t, p_sell)]),
        row_names=milp.row_names + ["GB" + t for t in steps]
        + ["GS" + t for t in steps],
        a_rows=np.concatenate([milp.a_rows, gb, gb, gs, gs]),
        a_cols=np.concatenate([milp.a_cols, idx.station_cols["grid_buy"], ug,
                               idx.station_cols["grid_sell"], ug]),
        a_vals=np.concatenate([milp.a_vals, np.ones(n_t), np.full(n_t, -p_buy),
                               np.ones(n_t), np.full(n_t, p_sell)]))


def lp_vertex_oracle(milp: CanonicalMilp, tol: float = 1e-7):
    """Exact LP optimum by enumerating basic points of a boxed polytope.

    Every variable must have finite bounds.  Returns (status, objective);
    unbounded models are outside this oracle's contract.
    """
    n = milp.n_cols
    lb, ub = milp.col_lb, milp.col_ub
    if not (np.all(np.isfinite(lb)) and np.all(np.isfinite(ub))):
        raise ValueError("oracle needs finite bounds on every column")

    dense = np.zeros((milp.n_rows, n))
    if len(milp.a_rows):
        dense[milp.a_rows, milp.a_cols] = milp.a_vals

    # candidate active sets: any mix of rows at equality and bounds
    candidates = []
    for i in range(milp.n_rows):
        candidates.append(("row", i))
    for j in range(n):
        candidates.append(("lb", j))
        candidates.append(("ub", j))

    def feasible(x: np.ndarray) -> bool:
        if np.any(x < lb - tol) or np.any(x > ub + tol):
            return False
        act = dense @ x
        for i, sense in enumerate(milp.row_sense):
            r = act[i] - milp.row_rhs[i]
            if sense == ROW_LE and r > tol:
                return False
            if sense == ROW_EQ and abs(r) > tol:
                return False
        return True

    best = np.inf
    found = False
    for combo in itertools.combinations(candidates, n):
        a_sq = np.zeros((n, n))
        b_sq = np.zeros(n)
        for k, (kind, idx) in enumerate(combo):
            if kind == "row":
                a_sq[k] = dense[idx]
                b_sq[k] = milp.row_rhs[idx]
            elif kind == "lb":
                a_sq[k, idx] = 1.0
                b_sq[k] = lb[idx]
            else:
                a_sq[k, idx] = 1.0
                b_sq[k] = ub[idx]
        try:
            x = np.linalg.solve(a_sq, b_sq)
        except np.linalg.LinAlgError:
            continue
        if feasible(x):
            found = True
            best = min(best, float(milp.col_obj @ x))
    if not found:
        return STATUS_INFEASIBLE, np.inf
    return STATUS_OPTIMAL, best


def brute_force_mip(milp: CanonicalMilp, max_binaries: int = 20) -> MipSolution:
    """Exhaustively enumerate every binary assignment and solve each LP.

    Reference oracle for small models; assignments are visited in
    lexicographic order and the first optimum found wins ties.
    """
    bin_idx = np.flatnonzero(milp.col_binary)
    if len(bin_idx) > max_binaries:
        raise ValueError(f"{len(bin_idx)} binaries exceed the brute-force cap "
                         f"of {max_binaries}")

    best_x: np.ndarray | None = None
    best_obj = np.inf
    lp_iterations = 0
    n_solved = 0

    for assign in itertools.product((0.0, 1.0), repeat=len(bin_idx)):
        lb = milp.col_lb.copy()
        ub = milp.col_ub.copy()
        if len(bin_idx):
            lb[bin_idx] = assign
            ub[bin_idx] = assign
        sol = solve_lp(milp, lb, ub)
        lp_iterations += sol.iterations
        n_solved += 1
        if sol.status == STATUS_OPTIMAL and sol.objective < best_obj - 1e-9:
            best_obj = sol.objective
            best_x = sol.x.copy()
            if len(bin_idx):
                best_x[bin_idx] = np.asarray(assign)

    if best_x is None:
        return MipSolution(STATUS_INFEASIBLE, None, np.inf, np.inf, np.inf,
                           n_solved, lp_iterations)
    return MipSolution(STATUS_OPTIMAL, best_x, best_obj, best_obj, 0.0,
                       n_solved, lp_iterations)


def parse_mps(path: str | Path) -> CanonicalMilp:
    """Read an MPS file back into a canonical model.

    Splits on whitespace and accepts what ``export_mps`` writes plus ``BV``
    bounds.  The model is assembled by ``ModelBuilder``, so it refuses what
    the builder refuses, a column left without a finite bound among them.
    """
    row_names: list[str] = []
    row_sense: list[str] = []
    row_index: dict[str, int] = {}
    obj_name: str | None = None

    col_names: list[str] = []
    col_index: dict[str, int] = {}
    col_obj: list[float] = []
    col_binary: list[bool] = []
    col_lb: list[float] = []
    col_ub: list[float] = []
    a_rows: list[int] = []
    a_cols: list[int] = []
    a_vals: list[float] = []
    rhs_map: dict[int, float] = {}

    in_integer = False
    section = None

    def new_column(name: str) -> int:
        col_index[name] = len(col_names)
        col_names.append(name)
        col_obj.append(0.0)
        col_binary.append(in_integer)
        col_lb.append(0.0)
        col_ub.append(1.0 if in_integer else np.inf)
        return col_index[name]

    def add_entry(j: int, row: str, value: float) -> None:
        if row == obj_name:
            col_obj[j] = value
            return
        if row not in row_index:
            raise ValueError(f"entry references unknown row {row!r}")
        a_rows.append(row_index[row])
        a_cols.append(j)
        a_vals.append(value)

    for raw in Path(path).read_text(encoding="ascii").splitlines():
        if not raw.strip() or raw.startswith("*"):
            continue
        head = not raw[0].isspace()
        fields = raw.split()
        if head:
            section = fields[0].upper()
            if section == "ENDATA":
                break
            if section == "RANGES":
                raise ValueError("RANGES sections are not supported")
            continue
        if section == "ROWS":
            sense, name = fields[0].upper(), fields[1]
            if sense == "N":
                if obj_name is not None:
                    raise ValueError("multiple objective rows")
                obj_name = name
            elif sense in (ROW_LE, ROW_EQ):
                row_index[name] = len(row_names)
                row_names.append(name)
                row_sense.append(sense)
            else:
                raise ValueError(f"unknown row sense {sense!r}")
        elif section == "COLUMNS":
            if "'MARKER'" in fields:
                if "'INTORG'" in fields:
                    in_integer = True
                elif "'INTEND'" in fields:
                    in_integer = False
                else:
                    raise ValueError(f"bad marker line: {raw!r}")
                continue
            name = fields[0]
            j = col_index.get(name)
            if j is None:
                j = new_column(name)
            pairs = fields[1:]
            if len(pairs) % 2:
                raise ValueError(f"odd entry list in column line: {raw!r}")
            for rn, sval in zip(pairs[::2], pairs[1::2]):
                add_entry(j, rn, float(sval))
        elif section == "RHS":
            pairs = fields[1:]
            if len(pairs) % 2:
                raise ValueError(f"odd entry list in rhs line: {raw!r}")
            for rn, sval in zip(pairs[::2], pairs[1::2]):
                if rn == obj_name:
                    continue  # objective offsets are not modelled
                if rn not in row_index:
                    raise ValueError(f"rhs references unknown row {rn!r}")
                rhs_map[row_index[rn]] = float(sval)
        elif section == "BOUNDS":
            btype = fields[0].upper()
            name = fields[2]
            if name not in col_index:
                raise ValueError(f"bound references unknown column {name!r}")
            j = col_index[name]
            if btype in ("UP", "LO", "FX", "BV"):
                value = float(fields[3]) if btype != "BV" else 0.0
            if btype == "UP":
                col_ub[j] = value
            elif btype == "LO":
                col_lb[j] = value
            elif btype == "FX":
                col_lb[j] = value
                col_ub[j] = value
            elif btype == "BV":
                col_binary[j] = True
                col_lb[j], col_ub[j] = 0.0, 1.0
            else:
                raise ValueError(f"unknown bound type {btype!r}")
        elif section == "NAME" or section is None:
            continue
        else:
            raise ValueError(f"unexpected data in section {section!r}")

    if obj_name is None:
        raise ValueError("no objective row declared")

    rhs_values = np.zeros(len(row_names))
    for i, value in rhs_map.items():
        rhs_values[i] = value

    b = ModelBuilder()
    b.add_columns(col_names, col_lb, col_ub, col_obj, col_binary)
    b.add_rows(row_names, row_sense, rhs_values, a_rows, a_cols, a_vals)
    return b.build()


REF_CONFIG = FIXTURES / "ref" / "config.json"

# the reference day with a 100 kWh store: with the braking-intake rows its
# trees still branch, taking 97 to 379 nodes per scenario in modes A and C
STORE_100 = {"ess.capacity_kwh": 100.0}


def ref_doc(changes: dict | None = None) -> dict:
    """The reference config document with ``changes`` applied, each a
    dotted path such as ``"ess.capacity_kwh"`` and its new value."""
    doc = json.loads(REF_CONFIG.read_text())
    for where, value in (changes or {}).items():
        *sections, key = where.split(".")
        node = doc
        for section in sections:
            node = node[section]
        node[key] = value
    return doc


def ref_config_copy(directory: Path, changes: dict) -> Path:
    """The reference day copied under ``directory`` with ``changes`` (as
    ``ref_doc``) applied to its config; returns the copy's config path."""
    shutil.copytree(REF_CONFIG.parent, directory, dirs_exist_ok=True)
    path = Path(directory) / REF_CONFIG.name
    path.write_text(json.dumps(ref_doc(changes)))
    return path


def ref_inputs(changes: dict | None = None):
    """Config, sessions and scenario tree of the committed reference day,
    with ``changes`` (as ``ref_doc``) applied to its config."""
    from station_ems.config import config_from_dict, require_valid
    from station_ems.pipeline import build_fleet, build_scenarios
    cfg = require_valid(config_from_dict(ref_doc(changes),
                                         str(REF_CONFIG.parent)))
    return cfg, build_fleet(cfg, cfg.fleet.seed), build_scenarios(cfg)


def ref_scenario_models(mode: str, changes: dict | None = None) -> list:
    """(index, model) per scenario of the committed reference day, with
    ``changes`` (as ``ref_doc``) applied to its config, each built on its
    own: one scenario with probability 1."""
    cfg, sessions, tree = ref_inputs(changes)
    return [(sc.index, build_model(cfg, sessions, single_set(sc), mode))
            for sc in tree]


# ---------------------------------------------------------------------------
# shared fixture runs

@pytest.fixture(scope="session")
def ref_config_path() -> Path:
    return REF_CONFIG


@pytest.fixture(scope="session")
def ref_run(ref_config_path):
    """Mode-A solve of the reference day, with its wall-clock time."""
    from station_ems.pipeline import run_pipeline
    t0 = time.perf_counter()
    result = run_pipeline(ref_config_path, mode="A")
    return result, time.perf_counter() - t0


@pytest.fixture
def factorizations(monkeypatch) -> list:
    """The arguments of each ``simplex._factorize`` call from here on, in
    order: ``(indptr, row_idx, col_vals, basis)``."""
    made = []
    factorize = simplex._factorize
    monkeypatch.setattr(simplex, "_factorize",
                        lambda *args: made.append(args) or factorize(*args))
    return made
