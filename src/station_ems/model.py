"""Station dispatch model: assembly, solving, extraction, and re-checking.

One model covers one scenario over the full horizon.  Scenarios share no
variable or constraint, so a scenario tree is solved leaf by leaf and its
expected objective is the probability-weighted sum of the leaf optima.  The
leaves share one structure: ``build_model`` assembles it from the config,
the visits, the mode and the scenario set, and ``with_scenario`` writes a
scenario's data in, the ``RV`` coefficients included.

Per step the station block carries grid import and export, and (in mode
A/C) storage charge/discharge with a direction binary, recovered braking
inflow, and the stored-energy state.  The direction binary ``UB_t`` gates
both sides of the store through big-M rows: ``EC`` holds the intake
``RB_t + BC_t`` under ``M_c * UB_t`` and ``ED`` the discharge under
``M_d * (1 - UB_t)``.  An ``RV`` row bounds the braking intake on its
own, ``RB_t <= c_t * UB_t`` with ``c_t = min(rb_t, M_c)``, or ``M_c`` where
the scenario has no braking energy: the relaxation can then no longer
pass braking energy through the store in a step that discharges, which no
integral dispatch can do (a variable-upper-bound disaggregation of ``EC``,
after Padberg, Van Roy & Wolsey, Oper. Res. 33, 1985).  ``c_t`` is
scenario data in the matrix, and never zero, so every scenario's matrix
has the same sparsity pattern.  The grid has no direction binary:
every scenario sells at no more than its buying price, so buying ``g`` and
selling ``v`` in one step can be netted to ``g - m`` and ``v - m`` with
``m = min(g, v)`` at no extra cost, and the balance row, the only row that
holds either column, keeps ``g - v``.  Extraction does that netting, and
mode B is a pure LP.

Each charging visit adds one power column per parked step and a
departure-energy target theta.  Power is never negative, so a vehicle's
level only rises and its bounds bind only at departure: a row per visit
bounds theta by the departure level (``DP``), another that level by the
request (``CP``), and extraction rebuilds the level from power.  A step
where a vehicle is parked holds the combined load under the peak cap
(``PK``).

Rows that cannot bind for any scenario of the set are not built (a
presolve step, after Andersen & Andersen, Math. Programming 71, 1995):
``RV`` where no scenario brakes, as ``RB_t`` is then fixed at 0; ``PK``
where the set's highest demand plus every parked vehicle's ``p_max``
stays at or under the cap; and ``CP`` where the visit cannot deliver more
than its request.  Every other row is built at every step or visit.  So
one sparsity pattern serves the whole set, and ``with_scenario`` refuses a
scenario whose demand would let a missing ``PK`` row bind.
``check_dispatch`` still checks the peak, braking and request limits,
without the model.

Modes: "A" is the full model, "B" removes the storage and braking recovery
entirely, "C" keeps storage but zeroes the solar contribution.

The storage state recursion is applied at every step, with the configured
initial level acting as the state just before the horizon; a literal reading
that pins the level at the first step would leave first-step storage power
without any energy bookkeeping.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter

import numpy as np

from .config import SiteConfig
from .milp.branch_bound import solve_mip
from .milp.canonical import (
    CanonicalMilp,
    LpSolution,
    MipSolution,
    ModelBuilder,
    ROW_EQ,
    ROW_LE,
    STATUS_OPTIMAL,
)
from .milp.simplex import solve_lp
from .scenarios import Scenario, ScenarioSet
from .types import EvSession

MODE_FULL = "A"
MODE_NO_ESS = "B"
MODE_NO_PV = "C"
MODES = (MODE_FULL, MODE_NO_ESS, MODE_NO_PV)

_CHECK_TOL = 1e-6  # largest residual, in the check's own unit, that passes
FLOW_TOL = 1e-9  # a flow above this many kW counts as on

SYM_GRID_BUY = "grid_buy"
SYM_GRID_SELL = "grid_sell"
SYM_ESS_CHARGE = "ess_charge"
SYM_ESS_DISCHARGE = "ess_discharge"
SYM_RB_TO_ESS = "rb_to_ess"
SYM_ESS_SOC = "ess_soc"
SYM_ESS_CHARGE_ON = "ess_charge_on"

STATION_SYMBOLS = (SYM_GRID_BUY, SYM_GRID_SELL, SYM_ESS_CHARGE,
                   SYM_ESS_DISCHARGE, SYM_RB_TO_ESS, SYM_ESS_SOC,
                   SYM_ESS_CHARGE_ON)

class InfeasibleModelError(Exception):
    """Raised when infeasibility is provable before any solve."""


class SolutionCheckError(Exception):
    """Raised when a solver answer fails the independent re-check."""

    def __init__(self, failures: list["CheckResult"]):
        self.failures = failures
        lines = ", ".join(f"{c.name} (residual {c.max_residual:.3e} > {c.tolerance:.0e})"
                          for c in failures)
        super().__init__(f"solution rejected by independent checks: {lines}")


class EmsSolveError(Exception):
    """Raised when the solver cannot certify an optimum.

    A failed tree search passes its ``MipSolution``, so the message carries
    the incumbent, best bound, gap, node count, LP iterations and the status
    of the last node relaxation.
    """

    def __init__(self, status: str, detail: str = "",
                 mip: MipSolution | None = None):
        self.status = status
        self.mip = mip
        text = f"solve ended with status {status!r}" + (f": {detail}" if detail else "")
        if mip is not None:
            text += (f" (incumbent {mip.objective:.9g}, best bound "
                     f"{mip.best_bound:.9g}, gap {mip.gap:.3g}, "
                     f"{mip.node_count} nodes, {mip.lp_iterations} LP iterations, "
                     f"last LP status {mip.last_lp_status!r})")
        super().__init__(text)


def _codes(count: int) -> list[str]:
    """Fixed-width base-36 name codes for 0..count-1, at least two digits."""
    width = 2
    while 36 ** width < count:
        width += 1
    return [np.base_repr(k, 36).rjust(width, "0") for k in range(count)]


def _add_step_columns(b: ModelBuilder, specs, codes: list[str],
                      binary: bool) -> dict:
    """Add one column per step and spec (symbol, name prefix, lb, ub, obj),
    the columns of one step side by side; returns symbol -> (N_t,) columns.
    Each bound or cost is a scalar or an (N_t,) array."""
    n_t = len(codes)

    def field(k):
        return np.stack([np.broadcast_to(np.asarray(spec[k], dtype=float), n_t)
                         for spec in specs], axis=1).ravel()

    cols = b.add_columns([spec[1] + c for c in codes for spec in specs],
                         field(2), field(3), field(4), binary)
    cols = cols.reshape(n_t, len(specs))
    return {spec[0]: cols[:, j].copy() for j, spec in enumerate(specs)}


def _by_session(sessions, field: str, dtype=float) -> np.ndarray:
    """(N_ev,) array of one session attribute; ``field`` may be dotted."""
    get = attrgetter(field)
    return np.array([get(s) for s in sessions], dtype=dtype)


def vehicle_entries(sessions) -> tuple[np.ndarray, np.ndarray]:
    """Session and step of every (session, parked step) entry, session-major:
    the order of the vehicle power columns and of the schedule CSV rows."""
    arrival = _by_session(sessions, "t_arrival", np.int64)
    length = _by_session(sessions, "t_departure", np.int64) - arrival + 1
    begin = np.cumsum(length) - length
    ses = np.repeat(np.arange(len(sessions)), length)
    return ses, np.arange(len(ses)) - np.repeat(begin - arrival, length)


def _triplets(terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and value arrays of terms (rows, columns, value), each
    giving one coefficient to each of its rows; the value is a scalar or one
    per row.  A row's coefficients keep the order of the terms."""
    return (np.concatenate([rows for rows, _, _ in terms]),
            np.concatenate([cols for _, cols, _ in terms]),
            np.concatenate([np.broadcast_to(np.asarray(v, dtype=float), len(rows))
                            for rows, _, v in terms]))


@dataclass(frozen=True, eq=False)
class Visits:
    """The visits' attributes as (N_ev,) arrays and their stays as
    (N_ev, N_t) masks, read from the sessions once per structure."""

    arrival: np.ndarray      # int step
    departure: np.ndarray    # int step
    p_max: np.ndarray        # kW
    eta: np.ndarray
    soc_init: np.ndarray     # kWh
    e_requested: np.ndarray  # kWh
    theta_min: np.ndarray    # kWh
    theta_max: np.ndarray    # kWh
    stay: np.ndarray         # parked at the step
    after_arrival: np.ndarray  # parked at a step after the arrival one


def _visits(sessions, n_t: int) -> Visits:
    arrival = _by_session(sessions, "t_arrival", np.int64)[:, None]
    departure = _by_session(sessions, "t_departure", np.int64)
    step = np.arange(n_t)
    stay = (step >= arrival) & (step <= departure[:, None])
    return Visits(
        arrival=arrival[:, 0], departure=departure,
        p_max=_by_session(sessions, "ev.p_max_kw"),
        eta=_by_session(sessions, "ev.eta"),
        soc_init=_by_session(sessions, "soc_init_kwh"),
        e_requested=_by_session(sessions, "e_requested_kwh"),
        theta_min=_by_session(sessions, "theta_min_kwh"),
        theta_max=_by_session(sessions, "theta_max_kwh"),
        stay=stay, after_arrival=stay & (step > arrival))


@dataclass(frozen=True, eq=False)
class EmsIndex:
    """Immutable map from model coordinates to canonical columns, with the
    config, visits and scenario series the model was built from; the time
    grid is ``cfg.time_grid``."""

    mode: str
    cfg: SiteConfig
    sessions: tuple[EvSession, ...]
    visits: Visits           # the sessions as arrays
    demand: np.ndarray       # (N_t,) kW
    pv: np.ndarray           # (N_t,) kW, zeros in mode C
    rb_available: np.ndarray  # (N_t,) kW, zeros in mode B
    price_buy: np.ndarray
    price_sell: np.ndarray
    station_cols: dict       # symbol -> (N_t,) int array, or None
    balance_rows: np.ndarray  # (N_t,) BL row of each step
    storage_rows: np.ndarray | None  # (N_t,) SR row of each step, or None
    braking_steps: np.ndarray    # steps with an RV row holding UB
    braking_entries: np.ndarray  # their a_vals entries of UB
    parked_kw: np.ndarray    # (N_t,) the parked vehicles' summed p_max
    peak_steps: np.ndarray   # steps with a PK row
    peak_rows: np.ndarray    # their PK rows
    ev_session: np.ndarray   # (N_entries,) session of each vehicle entry
    ev_step: np.ndarray      # (N_entries,) its parked step
    ev_power_cols: np.ndarray  # (N_entries,) its power column
    theta_cols: np.ndarray   # (N_ev,) int


@dataclass(frozen=True, eq=False)
class EmsModel:
    milp: CanonicalMilp
    index: EmsIndex


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    hard: bool


@dataclass(eq=False)
class EmsSolution:
    """Solver answer mapped back to per-step trajectories."""

    status: str
    objective: float
    best_bound: float
    gap: float
    node_count: int
    lp_iterations: int
    grid_buy: np.ndarray          # (N_t,) kW
    grid_sell: np.ndarray
    ess_charge: np.ndarray
    ess_discharge: np.ndarray
    rb_used: np.ndarray
    ess_soc: np.ndarray
    ess_charge_on: np.ndarray
    ev_power: np.ndarray          # (N_ev, N_t) kW
    ev_soc: np.ndarray            # (N_ev, N_t) kWh, zero outside the stay
    theta: np.ndarray             # (N_ev,) kWh
    departure_soc: np.ndarray     # (N_ev,) kWh
    cost: float                   # energy cost, currency
    theta_value: float            # weighted sum of the departure targets
    index: EmsIndex               # the model's map, with the series it was built from
    checks: tuple[CheckResult, ...]

    @property
    def ev_total_power(self) -> np.ndarray:
        return self.ev_power.sum(axis=0)


def _effective_discharge_factor(cfg: SiteConfig) -> float:
    ess = cfg.ess
    return (1.0 / ess.eta_discharge) if ess.discharge_efficiency_divides \
        else ess.eta_discharge


def _direction_big_ms(cfg: SiteConfig) -> tuple[float, float]:
    """The big-M of the charge and of the discharge direction row: the rate
    cap, or the most one step can move through the store's range if that
    is less (after Savelsbergh, ORSA J. Computing 6, 1994), which keeps a
    small store's tree small."""
    ess = cfg.ess
    dt_h = cfg.time_grid.step_hours
    keep = 1.0 - ess.self_discharge_rate
    m_c = min(ess.charge_rate_max_kw,
              (ess.soc_max_kwh - keep * ess.soc_min_kwh) / (ess.eta_charge * dt_h))
    m_d = min(ess.discharge_rate_max_kw,
              max(0.0, keep * ess.soc_max_kwh - ess.soc_min_kwh)
              / (_effective_discharge_factor(cfg) * dt_h))
    return m_c, m_d


def build_model(cfg: SiteConfig, sessions, scenarios: ScenarioSet,
                mode: str = MODE_FULL) -> EmsModel:
    """Assemble the dispatch program of the first scenario of ``scenarios``
    on the rows that can bind for some scenario of the set (the module
    docstring names them), so ``with_scenario`` can write any scenario of
    the set in: the structure of (cfg, sessions, mode), then
    ``with_scenario``.  The set is a tuple of scenarios, as ``build_tree``
    makes it; no probability is read.

    Raises ValueError for an empty set, and for a scenario whose length is
    not the horizon's, and InfeasibleModelError when the train demand alone
    already breaks the peak cap at some step, naming that step.
    """
    if not len(scenarios):
        raise ValueError("a model needs a scenario, the set holds 0")
    structure = _build_structure(cfg, tuple(sessions), mode, scenarios)
    return with_scenario(structure, scenarios[0])


def _check_steps(scenario: Scenario, n_t: int) -> None:
    if len(scenario.demand) != n_t:
        raise ValueError(f"scenario {scenario.index} has {len(scenario.demand)} "
                         f"steps, the model {n_t}")


def with_scenario(model: EmsModel, scenario: Scenario) -> EmsModel:
    """``model``'s program with the data of ``scenario`` written in.

    Scenarios differ only in the grid prices (costs of G and X), the net
    demand (BL right-hand sides), the room under the peak cap (PK right-hand
    sides) and the braking availability (bounds of RB and, with storage,
    the RV coefficients of UB), so the result shares every other array with
    ``model`` and its structure's cache, and, unless the model has RV rows
    (with storage, where some scenario brakes), the coefficient array and
    the basis factors kept for it.  A scenario that brakes at a step
    without an RV row gets none: the model stays exact, and its relaxation
    is as loose there as without the rows.  Raises InfeasibleModelError
    when the train demand alone already breaks the peak cap at some step,
    and ValueError when the sell price exceeds the buy price at some step,
    where netting buying against selling would cost, or when the demand
    leaves the parked vehicles room to break the cap at a step without a PK
    row; each names the step.
    """
    idx = model.index
    n_t = idx.cfg.time_grid.horizon_steps
    _check_steps(scenario, n_t)
    demand, pv, rb = scenario.demand, scenario.pv, scenario.rb_available
    price_buy, price_sell = scenario.price_buy, scenario.price_sell

    cfg = idx.cfg
    p_max = cfg.peak.p_max_kw
    over = np.flatnonzero(demand > p_max + 1e-9)
    if len(over):
        t_bad = int(over[0])
        raise InfeasibleModelError(
            f"train demand {demand[t_bad]:.6g} kW exceeds the peak cap "
            f"{p_max:.6g} kW at step {t_bad}, scenario {scenario.index}")
    above = np.flatnonzero(price_sell > price_buy)
    if len(above):
        t_bad = int(above[0])
        raise ValueError(
            f"scenario {scenario.index} sells at {price_sell[t_bad]:.6g} above "
            f"its buy price {price_buy[t_bad]:.6g} at step {t_bad}")
    unbound = _peak_can_bind(demand, idx.parked_kw, p_max)
    unbound[idx.peak_steps] = False
    if unbound.any():
        t_bad = int(np.argmax(unbound))
        raise ValueError(
            f"scenario {scenario.index}: train demand {demand[t_bad]:.6g} kW "
            f"at step {t_bad} lets the parked vehicles' "
            f"{idx.parked_kw[t_bad]:.6g} kW break the peak cap {p_max:.6g} kW, "
            f"and the model has no PK row there; build it with this scenario "
            f"in its set")

    if idx.mode == MODE_NO_PV:
        pv = np.zeros_like(pv)
    with_ess = idx.mode != MODE_NO_ESS
    if not with_ess:
        rb = np.zeros_like(rb)

    milp = model.milp
    col = idx.station_cols
    w_p = cfg.weights.w_power
    dt_h = idx.cfg.time_grid.step_hours
    obj = milp.col_obj.copy()
    obj[col[SYM_GRID_BUY]] = w_p * price_buy * dt_h
    obj[col[SYM_GRID_SELL]] = -w_p * price_sell * dt_h
    rhs = milp.row_rhs.copy()
    rhs[idx.balance_rows] = demand - pv
    rhs[idx.peak_rows] = p_max - demand[idx.peak_steps]
    ub = milp.col_ub
    if with_ess:
        ub = ub.copy()
        ub[col[SYM_RB_TO_ESS]] = rb
    a_vals = None
    if len(idx.braking_entries):
        m_c = _direction_big_ms(cfg)[0]
        rb_t = rb[idx.braking_steps]
        a_vals = milp.a_vals.copy()
        a_vals[idx.braking_entries] = -np.where(rb_t > 0.0,
                                                np.minimum(rb_t, m_c), m_c)

    index = replace(idx, demand=demand, pv=pv, rb_available=rb,
                    price_buy=price_buy, price_sell=price_sell)
    return EmsModel(milp=milp.with_data(col_ub=ub, col_obj=obj, row_rhs=rhs,
                                        a_vals=a_vals),
                    index=index)


def _peak_can_bind(demand: np.ndarray, parked_kw: np.ndarray,
                   p_max: float) -> np.ndarray:
    """Per step: whether vehicles are parked and at full power break the
    cap over ``demand``, so that the step's PK row can bind."""
    return (parked_kw > 0.0) & (demand + parked_kw > p_max)


def _row_block(codes: list[str], families: list[str], senses: list[str],
               present: np.ndarray):
    """Names, senses and row numbers of a block of rows: item ``i`` (a
    step or a visit) holds family ``f`` where ``present[i, f]``, and the
    rows run item by item, each item's in family order.  The row numbers
    are an (items, families) array, -1 where a row is absent."""
    items, fams = np.nonzero(present)
    row_of = np.full(present.shape, -1)
    row_of[items, fams] = np.arange(len(items))
    names = [families[f] + codes[i] for i, f in zip(items.tolist(), fams.tolist())]
    return names, [senses[f] for f in fams.tolist()], row_of


def _build_structure(cfg: SiteConfig, sessions: tuple[EvSession, ...],
                     mode: str, scenarios: ScenarioSet) -> EmsModel:
    """The program of (cfg, sessions, mode) with every scenario datum zero,
    on the rows that can bind for some scenario of ``scenarios``;
    ``with_scenario`` writes the data."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    grid = cfg.time_grid
    n_t = grid.horizon_steps
    dt_h = grid.step_hours
    for ses in sessions:
        if ses.t_departure > n_t - 1:
            raise ValueError(
                f"session {ses.session_id}: departure step {ses.t_departure} "
                f"outside horizon of {n_t} steps")
    for sc in scenarios:
        _check_steps(sc, n_t)
    with_ess = mode != MODE_NO_ESS

    ess = cfg.ess
    eta_c = ess.eta_charge
    w_th = cfg.weights.w_theta
    code = _codes(max(n_t, len(sessions)))
    b = ModelBuilder()

    # station columns, interleaved by step: the continuous ones, then the
    # storage direction binary
    station = [(SYM_GRID_BUY, "G", 0.0, cfg.grid.p_buy_max_kw, 0.0),
               (SYM_GRID_SELL, "X", 0.0, cfg.grid.p_sell_max_kw, 0.0)]
    if with_ess:
        station += [(SYM_ESS_CHARGE, "BC", 0.0, ess.charge_rate_max_kw, 0.0),
                    (SYM_ESS_DISCHARGE, "BD", 0.0, ess.discharge_rate_max_kw, 0.0),
                    (SYM_RB_TO_ESS, "RB", 0.0, 0.0, 0.0),
                    (SYM_ESS_SOC, "SB", ess.soc_min_kwh, ess.soc_max_kwh, 0.0)]
    station_cols = dict.fromkeys(STATION_SYMBOLS)
    station_cols.update(_add_step_columns(b, station, code[:n_t], False))
    if with_ess:
        station_cols.update(_add_step_columns(
            b, [(SYM_ESS_CHARGE_ON, "UB", 0.0, 1.0, 0.0)], code[:n_t], True))
    gb = station_cols[SYM_GRID_BUY]
    gs = station_cols[SYM_GRID_SELL]
    bc = station_cols[SYM_ESS_CHARGE]
    bd = station_cols[SYM_ESS_DISCHARGE]
    rbc = station_cols[SYM_RB_TO_ESS]
    soc = station_cols[SYM_ESS_SOC]
    ub = station_cols[SYM_ESS_CHARGE_ON]

    # vehicle columns: one power column per vehicle entry
    ev_ses, ev_t = vehicle_entries(sessions)
    pair = [code[i] + code[t] for i, t in zip(ev_ses.tolist(), ev_t.tolist())]
    p_max_ev = _by_session(sessions, "ev.p_max_kw")[ev_ses]
    power = b.add_columns(["EV" + c for c in pair], 0.0, p_max_ev)
    theta_cols = b.add_columns(
        ["TH" + code[i] for i in range(len(sessions))],
        _by_session(sessions, "theta_min_kwh"),
        _by_session(sessions, "theta_max_kwh"), obj=-w_th)

    # per-step rows: BL, then EC, ED, SR with storage, RV where some
    # scenario brakes, and PK where the parked vehicles can break the cap
    # over some scenario's demand
    parked_kw = np.bincount(ev_t, weights=p_max_ev, minlength=n_t)
    peak = _peak_can_bind(np.max([sc.demand for sc in scenarios], axis=0),
                          parked_kw, cfg.peak.p_max_kw)
    store = np.full(n_t, with_ess)
    brakes = store & np.any([sc.rb_available > 0.0 for sc in scenarios], axis=0)
    braking_steps = np.flatnonzero(brakes)
    names, row_senses, row_of = _row_block(
        code, ["BL", "EC", "ED", "SR", "RV", "PK"],
        [ROW_EQ, ROW_LE, ROW_LE, ROW_EQ, ROW_LE, ROW_LE],
        np.column_stack([np.ones(n_t, dtype=bool), store, store, store,
                         brakes, peak]))
    bl, ec, ed, sr, rv, pk = row_of.T
    rv = rv[braking_steps]
    rhs = np.zeros(len(names))
    held = peak[ev_t]  # the vehicle entries in a PK row
    terms = [(bl, gb, 1.0), (bl, gs, -1.0)]
    if with_ess:
        terms += [(bl, bd, 1.0), (bl, bc, -1.0)]
    terms += [(bl[ev_t], power, -1.0), (pk[ev_t[held]], power[held], 1.0)]
    if with_ess:
        m_c, m_d = _direction_big_ms(cfg)
        keep = 1.0 - ess.self_discharge_rate
        rhs[ed] = m_d
        rhs[sr[0]] = keep * ess.soc_init_kwh
        # RV's coefficient is M_c here; with_scenario writes c_t
        terms += [(ec, rbc, 1.0), (ec, bc, 1.0), (ec, ub, -m_c),
                  (ed, bd, 1.0), (ed, ub, m_d),
                  (sr, soc, 1.0), (sr, rbc, -eta_c * dt_h),
                  (sr, bc, -eta_c * dt_h),
                  (sr, bd, _effective_discharge_factor(cfg) * dt_h),
                  (sr[1:], soc[:-1], -keep),
                  (rv, rbc[braking_steps], 1.0), (rv, ub[braking_steps], -m_c)]
    b.add_rows(names, row_senses, rhs, *_triplets(terms))

    if with_ess and ess.terminal_equals_initial:
        b.add_row("ST", ROW_EQ, ess.soc_init_kwh, [(int(soc[n_t - 1]), 1.0)])

    # per-session rows, with the energy delivered after arrival
    # e_i = eta_i * dt * sum_{t > a_i} p_it:
    #   DP: theta_i - e_i <= soc_init_i           (theta under the level)
    #   CP: e_i <= e_requested_i - soc_init_i     (the level under the
    #       request), where the visit can deliver more than that
    n_ev = len(sessions)
    soc_init = _by_session(sessions, "soc_init_kwh")
    room = _by_session(sessions, "e_requested_kwh") - soc_init
    arrival = _by_session(sessions, "t_arrival", np.int64)
    later = np.flatnonzero(ev_t > arrival[ev_ses])
    owner = ev_ses[later]
    gain = (_by_session(sessions, "ev.eta") * dt_h)[owner]
    most = np.bincount(owner, weights=gain * p_max_ev[later], minlength=n_ev)
    present = np.column_stack([np.ones(n_ev, dtype=bool), most > room])
    names, row_senses, row_of = _row_block(code, ["DP", "CP"],
                                           [ROW_LE, ROW_LE], present)
    dp, cp = row_of[:, 0], row_of[:, 1]
    capped = present[owner, 1]
    b.add_rows(names, row_senses, np.column_stack([soc_init, room])[present],
               *_triplets([(dp, theta_cols, 1.0),
                           (dp[owner], power[later], -gain),
                           (cp[owner[capped]], power[later[capped]],
                            gain[capped])]))

    milp = b.build()
    zeros = np.zeros(n_t)
    peak_steps = np.flatnonzero(peak)
    # a zero M_c stores no UB coefficient in EC or RV, and then no c_t is
    # written; otherwise each RV row holds one, in step order
    braking = np.isin(milp.a_rows, rv) & milp.col_binary[milp.a_cols]
    index = EmsIndex(
        mode=mode, cfg=cfg, sessions=sessions,
        # the rows above read the sessions on their own, so check_dispatch,
        # which reads these arrays, shares no code with them
        visits=_visits(sessions, n_t),
        demand=zeros, pv=zeros, rb_available=zeros,
        price_buy=zeros, price_sell=zeros,
        station_cols=station_cols, balance_rows=bl,
        storage_rows=sr if with_ess else None,
        braking_steps=braking_steps,
        braking_entries=np.flatnonzero(braking), parked_kw=parked_kw,
        peak_steps=peak_steps, peak_rows=pk[peak_steps],
        ev_session=ev_ses, ev_step=ev_t,
        ev_power_cols=power, theta_cols=theta_cols)
    return EmsModel(milp=milp, index=index)


def storage_levels(cfg: SiteConfig, dt_h: float, rb: np.ndarray,
                   bc: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """The storage level after each step under intake ``rb + bc`` and
    discharge ``bd``, replayed from the initial level on Python floats."""
    ess = cfg.ess
    keep = 1.0 - ess.self_discharge_rate
    eta_c = ess.eta_charge
    k_dis = _effective_discharge_factor(cfg)
    levels = []
    prev = ess.soc_init_kwh
    for r, c, d in zip(rb.tolist(), bc.tolist(), bd.tolist()):
        prev = keep * prev + eta_c * (r + c) * dt_h - k_dis * d * dt_h
        levels.append(prev)
    return np.array(levels)


def repair_dispatch(model: EmsModel, x: np.ndarray) -> np.ndarray | None:
    """Turn a relaxation point into an integral dispatch candidate.

    Simultaneous buy/sell and charge/discharge are cancelled against each
    other.  Where braking intake meets discharge, both are cut by the
    smaller, and the lost discharge is made up by selling less and then
    buying more.  The storage level is then replayed from the initial one and
    the direction binary set from the surviving side.  Returns None only
    when the replayed level leaves its range; any other row the candidate
    breaks is left to the tree search, which verifies every candidate.
    """
    idx = model.index
    y = np.asarray(x, dtype=float).copy()
    col = idx.station_cols
    g = y[col[SYM_GRID_BUY]]
    v = y[col[SYM_GRID_SELL]]
    m = np.minimum(g, v)
    g, v = g - m, v - m
    if idx.mode != MODE_NO_ESS:
        bc = y[col[SYM_ESS_CHARGE]]
        bd = y[col[SYM_ESS_DISCHARGE]]
        m = np.minimum(bc, bd)
        bc, bd = bc - m, bd - m
        rb = y[col[SYM_RB_TO_ESS]]
        r = np.where((rb > FLOW_TOL) & (bd > FLOW_TOL), np.minimum(rb, bd), 0.0)
        dv = np.minimum(v, r)
        rb, bd = rb - r, bd - r
        g, v = g + (r - dv), v - dv
        ess = idx.cfg.ess
        soc = storage_levels(idx.cfg, idx.cfg.time_grid.step_hours, rb, bc, bd)
        if np.any(soc < ess.soc_min_kwh - 1e-7) or \
                np.any(soc > ess.soc_max_kwh + 1e-7):
            return None
        y[col[SYM_ESS_CHARGE]] = bc
        y[col[SYM_ESS_DISCHARGE]] = bd
        y[col[SYM_RB_TO_ESS]] = rb
        y[col[SYM_ESS_SOC]] = soc
        y[col[SYM_ESS_CHARGE_ON]] = ((rb + bc) > FLOW_TOL).astype(float)
    y[col[SYM_GRID_BUY]] = g
    y[col[SYM_GRID_SELL]] = v
    return y


def extract_solution(mip: MipSolution, model: EmsModel) -> EmsSolution:
    """Map an optimal ``MipSolution`` of ``model`` to trajectories and
    re-check every constraint.

    Buying and selling in one step are netted: the smaller of the two is
    taken off both, which keeps the balance and, as the sell price never
    exceeds the buy price, does not raise the cost.  Raises
    SolutionCheckError when any hard check fails; the solver's own
    residuals are never trusted on their own.
    """
    idx = model.index
    x = mip.x
    n_t = len(idx.demand)
    n_ev = len(idx.sessions)

    def station(sym):
        cols = idx.station_cols[sym]
        return np.zeros(n_t) if cols is None else x[cols]

    buy, sell = station(SYM_GRID_BUY), station(SYM_GRID_SELL)
    both = np.minimum(buy, sell)
    grid_buy, grid_sell = buy - both, sell - both
    dt_h = idx.cfg.time_grid.step_hours
    visits = idx.visits
    ses, steps = idx.ev_session, idx.ev_step
    entry_power = x[idx.ev_power_cols]
    ev_power = np.zeros((n_ev, n_t))
    ev_power[ses, steps] = entry_power
    # the level: soc_init at arrival, + eta*dt*p at each later parked step,
    # zero outside the stay
    delta = np.zeros((n_ev, n_t))
    delta[ses, steps] = np.where(
        steps == visits.arrival[ses], visits.soc_init[ses],
        visits.eta[ses] * dt_h * entry_power)
    ev_soc = np.zeros((n_ev, n_t))
    ev_soc[ses, steps] = delta.cumsum(axis=1)[ses, steps]
    theta = x[idx.theta_cols]
    departure_soc = ev_soc[np.arange(n_ev), visits.departure]

    cost = idx.cfg.weights.w_power * float(
        ((idx.price_buy * grid_buy - idx.price_sell * grid_sell) * dt_h).sum())
    theta_val = idx.cfg.weights.w_theta * float(theta.sum())

    sol = EmsSolution(
        status=mip.status, objective=mip.objective,
        best_bound=mip.best_bound, gap=mip.gap, node_count=mip.node_count,
        lp_iterations=mip.lp_iterations,
        grid_buy=grid_buy, grid_sell=grid_sell,
        ess_charge=station(SYM_ESS_CHARGE),
        ess_discharge=station(SYM_ESS_DISCHARGE),
        rb_used=station(SYM_RB_TO_ESS), ess_soc=station(SYM_ESS_SOC),
        ess_charge_on=np.round(station(SYM_ESS_CHARGE_ON)),
        ev_power=ev_power, ev_soc=ev_soc, theta=theta,
        departure_soc=departure_soc, cost=cost, theta_value=theta_val,
        index=idx, checks=())
    checks = check_dispatch(sol)
    sol.checks = tuple(checks)
    bad = [c for c in checks if c.hard and not c.passed]
    if bad:
        raise SolutionCheckError(bad)
    return sol


def check_dispatch(sol: EmsSolution) -> list[CheckResult]:
    """Constraint residuals measured from trajectories alone.

    Works purely from the solution arrays and the input series its index
    holds, so it shares no code with the solver or the row assembly.
    """
    out: list[CheckResult] = []
    idx = sol.index
    cfg = idx.cfg
    dt_h = cfg.time_grid.step_hours
    with_ess = idx.mode != MODE_NO_ESS
    ev_sum = sol.ev_total_power

    def add(name, residual, hard=True):
        r = float(residual)
        out.append(CheckResult(name, r, _CHECK_TOL, r <= _CHECK_TOL, hard))

    balance = (sol.grid_buy + idx.pv + sol.ess_discharge
               - idx.demand - ev_sum - sol.ess_charge - sol.grid_sell)
    add("power_balance", np.abs(balance).max(initial=0.0))

    add("grid_buy_cap", (sol.grid_buy - cfg.grid.p_buy_max_kw).max(initial=0.0))
    add("grid_sell_cap", (sol.grid_sell - cfg.grid.p_sell_max_kw).max(initial=0.0))
    add("grid_complementarity", (sol.grid_buy * sol.grid_sell).max(initial=0.0))

    if with_ess:
        ess = cfg.ess
        add("ess_charge_cap",
            (sol.rb_used + sol.ess_charge - ess.charge_rate_max_kw).max(initial=0.0))
        add("ess_discharge_cap",
            (sol.ess_discharge - ess.discharge_rate_max_kw).max(initial=0.0))
        add("ess_complementarity",
            ((sol.rb_used + sol.ess_charge) * sol.ess_discharge).max(initial=0.0))
        add("rb_availability", (sol.rb_used - idx.rb_available).max(initial=0.0))
        add("ess_soc_min", (ess.soc_min_kwh - sol.ess_soc).max(initial=0.0))
        add("ess_soc_max", (sol.ess_soc - ess.soc_max_kwh).max(initial=0.0))
        prev = np.concatenate([[ess.soc_init_kwh], sol.ess_soc[:-1]])
        expected = ((1.0 - ess.self_discharge_rate) * prev
                    + ess.eta_charge * (sol.rb_used + sol.ess_charge) * dt_h
                    - _effective_discharge_factor(cfg) * sol.ess_discharge * dt_h)
        add("ess_recursion", np.abs(sol.ess_soc - expected).max(initial=0.0))
        if ess.terminal_equals_initial:
            add("ess_terminal", abs(sol.ess_soc[-1] - ess.soc_init_kwh))

    peak = idx.demand + ev_sum - cfg.peak.p_max_kw
    add("peak_cap", peak.max(initial=0.0))

    # each session's departure level from power alone: soc_init plus
    # eta*dt*p over the steps after arrival
    visits = idx.visits
    inside = visits.stay
    add("ev_rate_cap",
        (sol.ev_power - visits.p_max[:, None])[inside].max(initial=0.0))
    add("ev_window_zero", np.abs(sol.ev_power[~inside]).max(initial=0.0))
    delivered = visits.soc_init + visits.eta * dt_h * np.where(
        visits.after_arrival, sol.ev_power, 0.0).sum(axis=1)
    th = sol.theta
    add("ev_departure_min", (th - delivered).max(initial=0.0))
    add("ev_departure_max",
        (delivered - visits.e_requested).max(initial=0.0))
    add("theta_lower_bound", (visits.theta_min - th).max(initial=0.0))
    add("theta_upper_bound", (th - visits.theta_max).max(initial=0.0))
    if cfg.weights.w_theta > 0:
        add("theta_tightness", np.abs(th - delivered).max(initial=0.0),
            hard=False)

    add("nonnegativity", max(float((-arr).max(initial=0.0)) for arr in (
        sol.grid_buy, sol.grid_sell, sol.ess_charge, sol.ess_discharge,
        sol.rb_used, sol.ev_power)))
    return out


def crash_basis(model: EmsModel) -> tuple[np.ndarray, np.ndarray]:
    """A triangular start basis read off the model (a crash basis, after
    Bixby, "Implementing the simplex method: the initial basis", 1992).

    In each balance row the grid column that carries the net demand is
    basic: the import where demand minus plant output is not negative, else
    the export.  In each storage row the level is basic; every other row
    keeps its slack.  Every nonbasic column starts at its lower bound but
    the departure targets theta in a model without storage, which start at
    their upper one: theta is the only column that such a start prices the
    wrong way, so the start is dual feasible and ``solve_lp`` takes it to
    its dual simplex.  With storage the discharge is priced the wrong way
    too, and the start goes to the primal phases.  Returns the basis, one
    column per row with row i's slack numbered ``n_cols + i``, and which
    columns start at their upper bound, as ``solve_lp`` takes them.
    """
    milp = model.milp
    idx = model.index
    col = idx.station_cols
    basis = milp.n_cols + np.arange(milp.n_rows)
    buys = milp.row_rhs[idx.balance_rows] >= 0.0
    basis[idx.balance_rows] = np.where(buys, col[SYM_GRID_BUY], col[SYM_GRID_SELL])
    at_upper = np.zeros(milp.n_cols + milp.n_rows, dtype=bool)
    if idx.storage_rows is not None:
        basis[idx.storage_rows] = col[SYM_ESS_SOC]
    else:
        at_upper[idx.theta_cols] = True
    return basis, at_upper


def solve_root(model: EmsModel, warm: LpSolution | None = None) -> LpSolution:
    """The model's relaxation, resumed from ``warm``, an optimal solve of a
    model that shares this one's structure (the run's anchor), or else
    solved from the crash basis.  ``warm``'s factors are kept on it with
    the coefficient array they were made in, and reused by every root that
    shares that array: every scenario does, unless the model has RV rows,
    whose coefficients each scenario writes afresh.
    """
    if warm is None or warm.basis is None:
        warm = crash_basis(model)
    return solve_lp(model.milp, warm=warm)


def solve_ems(model: EmsModel, *,
              warm: LpSolution | None = None) -> EmsSolution:
    """Solve one assembled model to proven optimality.

    Solves the relaxation with ``solve_root``, from ``warm`` when given, and
    hands it to the tree search as its root node, which tries the dispatch
    repair before it branches.  Returns the checked solution.
    """
    root = solve_root(model, warm)
    if root.status != STATUS_OPTIMAL:
        raise EmsSolveError(root.status, "relaxation did not solve")

    mip = solve_mip(model.milp, repair=partial(repair_dispatch, model),
                    warm_root=root)
    if mip.status != STATUS_OPTIMAL:
        raise EmsSolveError(mip.status, "tree search did not close the gap", mip)
    return extract_solution(mip, model)
