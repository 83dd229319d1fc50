"""Station dispatch model: assembly, solving, extraction, and re-checking.

One model covers a scenario set over the full horizon.  Per step and scenario
the station block carries grid import/export with a direction binary, and (in
mode A/C) storage charge/discharge with a direction binary, recovered braking
inflow, and the stored-energy state.  Each charging visit adds its power and
state columns over the parked window plus one delivered-energy target column.

Modes: "A" is the full model, "B" removes the storage and braking recovery
entirely, "C" keeps storage but zeroes the solar contribution.

The storage state recursion is applied at every step, with the configured
initial level acting as the state just before the horizon; a literal reading
that pins the level at the first step would leave first-step storage power
without any energy bookkeeping.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import SiteConfig
from .milp import (
    CanonicalMilp,
    MipSolution,
    ModelBuilder,
    ROW_EQ,
    ROW_LE,
    STATUS_OPTIMAL,
    feasibility_report,
    solve_lp,
    solve_mip,
)
from .milp.canonical import LpSolution
from .scenarios import ScenarioSet
from .types import EvSession, TimeGrid

MODE_FULL = "A"
MODE_NO_ESS = "B"
MODE_NO_PV = "C"
MODES = (MODE_FULL, MODE_NO_ESS, MODE_NO_PV)

SYM_GRID_BUY = "grid_buy"
SYM_GRID_SELL = "grid_sell"
SYM_ESS_CHARGE = "ess_charge"
SYM_ESS_DISCHARGE = "ess_discharge"
SYM_RB_TO_ESS = "rb_to_ess"
SYM_ESS_SOC = "ess_soc"
SYM_GRID_BUY_ON = "grid_buy_on"
SYM_ESS_CHARGE_ON = "ess_charge_on"
SYM_EV_POWER = "ev_power"
SYM_EV_SOC = "ev_soc"
SYM_EV_TARGET = "ev_target"

STATION_SYMBOLS = (SYM_GRID_BUY, SYM_GRID_SELL, SYM_ESS_CHARGE,
                   SYM_ESS_DISCHARGE, SYM_RB_TO_ESS, SYM_ESS_SOC,
                   SYM_GRID_BUY_ON, SYM_ESS_CHARGE_ON)

_B36 = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


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


def _b2(value: int) -> str:
    if not 0 <= value < 36 * 36:
        raise ValueError(f"index {value} too large for a two-digit code")
    return _B36[value // 36] + _B36[value % 36]


@dataclass(frozen=True, eq=False)
class EmsIndex:
    """Immutable map from model coordinates to canonical columns."""

    mode: str
    cfg: SiteConfig
    grid: TimeGrid
    sessions: tuple[EvSession, ...]
    probabilities: np.ndarray
    scenario_indices: tuple[int, ...]
    scenario_labels: tuple[str, ...]
    demand: np.ndarray       # (N_s, N_t) kW
    pv: np.ndarray           # (N_s, N_t) kW, zeros in mode C
    rb_available: np.ndarray  # (N_s, N_t) kW, zeros in mode B
    price_buy: np.ndarray
    price_sell: np.ndarray
    columns: dict
    station_cols: dict       # symbol -> (N_s, N_t) int array, or None
    ev_steps: tuple          # per session: parked step array
    ev_power_cols: tuple     # [s][i] -> col array aligned with ev_steps[i]
    ev_soc_cols: tuple
    theta_cols: np.ndarray   # (N_s, N_ev) int
    n_cols: int

    @property
    def n_scenarios(self) -> int:
        return len(self.probabilities)

    @property
    def n_sessions(self) -> int:
        return len(self.sessions)

    def col(self, symbol: str, s: int, t: int | None = None,
            i: int | None = None) -> int:
        return self.columns[(symbol, s, t, i)]


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

    mode: str
    status: str
    objective: float
    best_bound: float
    gap: float
    node_count: int
    lp_iterations: int
    probabilities: np.ndarray
    scenario_indices: tuple[int, ...]
    grid_buy: np.ndarray          # (N_s, N_t) kW
    grid_sell: np.ndarray
    ess_charge: np.ndarray
    ess_discharge: np.ndarray
    rb_used: np.ndarray
    ess_soc: np.ndarray
    grid_buy_on: np.ndarray
    ess_charge_on: np.ndarray
    ev_power: np.ndarray          # (N_s, N_ev, N_t) kW
    ev_soc: np.ndarray            # (N_s, N_ev, N_t) kWh, zero outside the stay
    theta: np.ndarray             # (N_s, N_ev) kWh
    departure_soc: np.ndarray     # (N_s, N_ev) kWh
    cost_per_scenario: np.ndarray      # unweighted currency per scenario
    theta_value_per_scenario: np.ndarray  # unweighted weighted-theta sum
    input_demand: np.ndarray      # the series the model was built from
    input_pv: np.ndarray
    input_rb: np.ndarray
    input_price_buy: np.ndarray
    input_price_sell: np.ndarray
    checks: tuple[CheckResult, ...]

    @property
    def ev_total_power(self) -> np.ndarray:
        return self.ev_power.sum(axis=1) if self.ev_power.size else \
            np.zeros_like(self.grid_buy)


def _effective_discharge_factor(cfg: SiteConfig) -> float:
    ess = cfg.ess
    return (1.0 / ess.eta_discharge) if ess.discharge_efficiency_divides \
        else ess.eta_discharge


def build_model(cfg: SiteConfig, sessions, scenarios: ScenarioSet,
                mode: str = MODE_FULL) -> EmsModel:
    """Assemble the dispatch program for every scenario in the set.

    Raises InfeasibleModelError when the train demand alone already breaks
    the peak cap at some step, naming that step.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    grid = cfg.time_grid
    n_t = grid.horizon_steps
    dt_h = grid.step_hours
    sessions = tuple(sessions)
    for ses in sessions:
        if ses.t_departure > n_t - 1:
            raise ValueError(
                f"session {ses.session_id}: departure step {ses.t_departure} "
                f"outside horizon of {n_t} steps")

    n_s = len(scenarios)
    if n_s == 0:
        raise ValueError("scenario set is empty")

    demand = np.stack([sc.demand.as_array() for sc in scenarios])
    pv = np.stack([sc.pv.as_array() for sc in scenarios])
    rb = np.stack([sc.rb_available.as_array() for sc in scenarios])
    price_buy = np.stack([sc.price_buy.as_array() for sc in scenarios])
    price_sell = np.stack([sc.price_sell.as_array() for sc in scenarios])
    probs = np.array([sc.probability for sc in scenarios])

    p_max = cfg.peak.p_max_kw
    for k, sc in enumerate(scenarios):
        over = np.flatnonzero(demand[k] > p_max + 1e-9)
        if len(over):
            t_bad = int(over[0])
            raise InfeasibleModelError(
                f"train demand {demand[k, t_bad]:.6g} kW exceeds the peak cap "
                f"{p_max:.6g} kW at step {t_bad}, scenario {sc.index}")

    if mode == MODE_NO_PV:
        pv = np.zeros_like(pv)
    with_ess = mode != MODE_NO_ESS
    if not with_ess:
        rb = np.zeros_like(rb)

    ess = cfg.ess
    eps = ess.self_discharge_rate
    eta_c = ess.eta_charge
    k_dis = _effective_discharge_factor(cfg)

    b = ModelBuilder()
    columns: dict = {}
    station_cols = {sym: (np.full((n_s, n_t), -1, dtype=np.int64)
                          if with_ess or sym in (SYM_GRID_BUY, SYM_GRID_SELL,
                                                 SYM_GRID_BUY_ON)
                          else None)
                    for sym in STATION_SYMBOLS}

    def put(symbol, s, t, i, col):
        columns[(symbol, s, t, i)] = col

    w_p = cfg.weights.w_power
    w_th = cfg.weights.w_theta

    ev_steps = tuple(np.arange(s.t_arrival, s.t_departure + 1) for s in sessions)
    ev_power_cols = []
    ev_soc_cols = []
    theta_cols = np.full((n_s, len(sessions)), -1, dtype=np.int64)

    for s in range(n_s):
        s2 = _b2(s)
        pi = probs[s]
        for t in range(n_t):
            t2 = _b2(t)
            c = b.add_column(f"G{s2}{t2}", 0.0, cfg.grid.p_buy_max_kw,
                             obj=pi * w_p * price_buy[s, t] * dt_h)
            station_cols[SYM_GRID_BUY][s, t] = c
            put(SYM_GRID_BUY, s, t, None, c)
            c = b.add_column(f"X{s2}{t2}", 0.0, cfg.grid.p_sell_max_kw,
                             obj=-pi * w_p * price_sell[s, t] * dt_h)
            station_cols[SYM_GRID_SELL][s, t] = c
            put(SYM_GRID_SELL, s, t, None, c)
            if with_ess:
                c = b.add_column(f"BC{s2}{t2}", 0.0, ess.charge_rate_max_kw)
                station_cols[SYM_ESS_CHARGE][s, t] = c
                put(SYM_ESS_CHARGE, s, t, None, c)
                c = b.add_column(f"BD{s2}{t2}", 0.0, ess.discharge_rate_max_kw)
                station_cols[SYM_ESS_DISCHARGE][s, t] = c
                put(SYM_ESS_DISCHARGE, s, t, None, c)
                c = b.add_column(f"RB{s2}{t2}", 0.0, rb[s, t])
                station_cols[SYM_RB_TO_ESS][s, t] = c
                put(SYM_RB_TO_ESS, s, t, None, c)
                c = b.add_column(f"SB{s2}{t2}", ess.soc_min_kwh, ess.soc_max_kwh)
                station_cols[SYM_ESS_SOC][s, t] = c
                put(SYM_ESS_SOC, s, t, None, c)
        for t in range(n_t):
            t2 = _b2(t)
            c = b.add_column(f"UG{s2}{t2}", 0.0, 1.0, binary=True)
            station_cols[SYM_GRID_BUY_ON][s, t] = c
            put(SYM_GRID_BUY_ON, s, t, None, c)
            if with_ess:
                c = b.add_column(f"UB{s2}{t2}", 0.0, 1.0, binary=True)
                station_cols[SYM_ESS_CHARGE_ON][s, t] = c
                put(SYM_ESS_CHARGE_ON, s, t, None, c)

        pcs = []
        scs = []
        for i, ses in enumerate(sessions):
            i2 = _b2(i)
            cols = np.empty(len(ev_steps[i]), dtype=np.int64)
            for j, t in enumerate(ev_steps[i]):
                cols[j] = b.add_column(f"EV{s2}{i2}{_b2(int(t))}",
                                       0.0, ses.ev.p_max_kw)
                put(SYM_EV_POWER, s, int(t), i, int(cols[j]))
            pcs.append(cols)
        for i, ses in enumerate(sessions):
            i2 = _b2(i)
            cols = np.empty(len(ev_steps[i]), dtype=np.int64)
            cap = max(ses.e_requested_kwh, ses.soc_init_kwh)
            for j, t in enumerate(ev_steps[i]):
                lb = ses.soc_init_kwh if t == ses.t_arrival else 0.0
                ub = ses.soc_init_kwh if t == ses.t_arrival else cap
                cols[j] = b.add_column(f"ES{s2}{i2}{_b2(int(t))}", lb, ub)
                put(SYM_EV_SOC, s, int(t), i, int(cols[j]))
            scs.append(cols)
        for i, ses in enumerate(sessions):
            c = b.add_column(f"TH{s2}{_b2(i)}", ses.theta_min_kwh,
                             ses.theta_max_kwh, obj=-pi * w_th)
            theta_cols[s, i] = c
            put(SYM_EV_TARGET, s, None, i, c)
        ev_power_cols.append(tuple(pcs))
        ev_soc_cols.append(tuple(scs))

    # rows
    parked_at: list[list[int]] = [[] for _ in range(n_t)]
    for i, ses in enumerate(sessions):
        for t in ev_steps[i]:
            parked_at[int(t)].append(i)

    for s in range(n_s):
        s2 = _b2(s)
        gb = station_cols[SYM_GRID_BUY]
        gs = station_cols[SYM_GRID_SELL]
        for t in range(n_t):
            t2 = _b2(t)
            coeffs = [(int(gb[s, t]), 1.0), (int(gs[s, t]), -1.0)]
            if with_ess:
                coeffs.append((int(station_cols[SYM_ESS_DISCHARGE][s, t]), 1.0))
                coeffs.append((int(station_cols[SYM_ESS_CHARGE][s, t]), -1.0))
            for i in parked_at[t]:
                j = int(np.searchsorted(ev_steps[i], t))
                coeffs.append((int(ev_power_cols[s][i][j]), -1.0))
            b.add_row(f"BL{s2}{t2}", ROW_EQ, demand[s, t] - pv[s, t], coeffs)

            ug = int(station_cols[SYM_GRID_BUY_ON][s, t])
            b.add_row(f"GB{s2}{t2}", ROW_LE, 0.0,
                      [(int(gb[s, t]), 1.0), (ug, -cfg.grid.p_buy_max_kw)])
            b.add_row(f"GS{s2}{t2}", ROW_LE, cfg.grid.p_sell_max_kw,
                      [(int(gs[s, t]), 1.0), (ug, cfg.grid.p_sell_max_kw)])

            if with_ess:
                bc = int(station_cols[SYM_ESS_CHARGE][s, t])
                bd = int(station_cols[SYM_ESS_DISCHARGE][s, t])
                rbc = int(station_cols[SYM_RB_TO_ESS][s, t])
                ub_col = int(station_cols[SYM_ESS_CHARGE_ON][s, t])
                b.add_row(f"EC{s2}{t2}", ROW_LE, 0.0,
                          [(rbc, 1.0), (bc, 1.0), (ub_col, -ess.charge_rate_max_kw)])
                b.add_row(f"ED{s2}{t2}", ROW_LE, ess.discharge_rate_max_kw,
                          [(bd, 1.0), (ub_col, ess.discharge_rate_max_kw)])
                soc_t = int(station_cols[SYM_ESS_SOC][s, t])
                coeffs = [(soc_t, 1.0), (rbc, -eta_c * dt_h), (bc, -eta_c * dt_h),
                          (bd, k_dis * dt_h)]
                if t == 0:
                    rhs = (1.0 - eps) * ess.soc_init_kwh
                else:
                    coeffs.append((int(station_cols[SYM_ESS_SOC][s, t - 1]),
                                   -(1.0 - eps)))
                    rhs = 0.0
                b.add_row(f"SR{s2}{t2}", ROW_EQ, rhs, coeffs)

            if parked_at[t]:
                coeffs = []
                for i in parked_at[t]:
                    j = int(np.searchsorted(ev_steps[i], t))
                    coeffs.append((int(ev_power_cols[s][i][j]), 1.0))
                b.add_row(f"PK{s2}{t2}", ROW_LE, p_max - demand[s, t], coeffs)

        if with_ess and ess.terminal_equals_initial:
            b.add_row(f"ST{s2}", ROW_EQ, ess.soc_init_kwh,
                      [(int(station_cols[SYM_ESS_SOC][s, n_t - 1]), 1.0)])

        for i, ses in enumerate(sessions):
            i2 = _b2(i)
            steps = ev_steps[i]
            for j in range(1, len(steps)):
                t = int(steps[j])
                b.add_row(f"ER{s2}{i2}{_b2(t)}", ROW_EQ, 0.0,
                          [(int(ev_soc_cols[s][i][j]), 1.0),
                           (int(ev_soc_cols[s][i][j - 1]), -1.0),
                           (int(ev_power_cols[s][i][j]), -ses.ev.eta * dt_h)])
            b.add_row(f"DP{s2}{i2}", ROW_LE, 0.0,
                      [(int(theta_cols[s, i]), 1.0),
                       (int(ev_soc_cols[s][i][-1]), -1.0)])

    milp = b.build()
    index = EmsIndex(
        mode=mode, cfg=cfg, grid=grid, sessions=sessions,
        probabilities=probs,
        scenario_indices=tuple(sc.index for sc in scenarios),
        scenario_labels=tuple(sc.label for sc in scenarios),
        demand=demand, pv=pv, rb_available=rb,
        price_buy=price_buy, price_sell=price_sell,
        columns=columns, station_cols=station_cols,
        ev_steps=ev_steps,
        ev_power_cols=tuple(ev_power_cols), ev_soc_cols=tuple(ev_soc_cols),
        theta_cols=theta_cols, n_cols=milp.n_cols)
    return EmsModel(milp=milp, index=index)


def _gather_station(x: np.ndarray, cols: np.ndarray | None,
                    shape: tuple[int, int]) -> np.ndarray:
    if cols is None:
        return np.zeros(shape)
    return x[cols]


def repair_dispatch(model: EmsModel, x: np.ndarray) -> np.ndarray | None:
    """Turn a relaxation point into an integral dispatch, or give up.

    Simultaneous buy/sell and charge/discharge are cancelled against each
    other, direction binaries are set from the surviving side, and the
    storage state is replayed forward.  A braking-intake-while-discharging
    conflict has two resolutions: dropping the intake costs nothing but may
    starve the store later, cutting the discharge keeps the stored energy but
    buys replacement power.  The free resolution is tried first.  Returns
    None when no resolution yields a point that passes the model check.
    """
    idx = model.index
    tol = 1e-9
    base = np.asarray(x, dtype=float).copy()
    n_s, n_t = idx.demand.shape
    dt_h = idx.grid.step_hours
    ess = idx.cfg.ess
    eta_c = ess.eta_charge
    k_dis = _effective_discharge_factor(idx.cfg)
    with_ess = idx.mode != MODE_NO_ESS

    col = idx.station_cols
    any_conflict = False
    for s in range(n_s):
        g = base[col[SYM_GRID_BUY][s]]
        v = base[col[SYM_GRID_SELL][s]]
        m = np.minimum(g, v)
        base[col[SYM_GRID_BUY][s]] = g - m
        base[col[SYM_GRID_SELL][s]] = v - m
        if with_ess:
            bc = base[col[SYM_ESS_CHARGE][s]]
            bd = base[col[SYM_ESS_DISCHARGE][s]]
            m = np.minimum(bc, bd)
            bc -= m
            bd -= m
            base[col[SYM_ESS_CHARGE][s]] = bc
            base[col[SYM_ESS_DISCHARGE][s]] = bd
            if np.any((base[col[SYM_RB_TO_ESS][s]] > tol) & (bd > tol)):
                any_conflict = True

    def finish(y: np.ndarray) -> np.ndarray | None:
        for s in range(n_s):
            if with_ess:
                rb = y[col[SYM_RB_TO_ESS][s]]
                bc = y[col[SYM_ESS_CHARGE][s]]
                bd = y[col[SYM_ESS_DISCHARGE][s]]
                soc = np.empty(n_t)
                prev = ess.soc_init_kwh
                for t in range(n_t):
                    prev = (1.0 - ess.self_discharge_rate) * prev \
                        + eta_c * (rb[t] + bc[t]) * dt_h \
                        - k_dis * bd[t] * dt_h
                    soc[t] = prev
                if np.any(soc < ess.soc_min_kwh - 1e-7) or \
                        np.any(soc > ess.soc_max_kwh + 1e-7):
                    return None
                y[col[SYM_ESS_SOC][s]] = soc
                y[col[SYM_ESS_CHARGE_ON][s]] = ((rb + bc) > tol).astype(float)
            y[col[SYM_GRID_BUY_ON][s]] = \
                (y[col[SYM_GRID_BUY][s]] > tol).astype(float)
        return y if feasibility_report(model.milp, y)["feasible"] else None

    if not (with_ess and any_conflict):
        return finish(base)

    drop_intake = base.copy()
    for s in range(n_s):
        rb = drop_intake[col[SYM_RB_TO_ESS][s]]
        bd = drop_intake[col[SYM_ESS_DISCHARGE][s]]
        rb[(rb > tol) & (bd > tol)] = 0.0
        drop_intake[col[SYM_RB_TO_ESS][s]] = rb
    done = finish(drop_intake)
    if done is not None:
        return done

    cut_discharge = base.copy()
    for s in range(n_s):
        rb = cut_discharge[col[SYM_RB_TO_ESS][s]]
        bd = cut_discharge[col[SYM_ESS_DISCHARGE][s]]
        g = cut_discharge[col[SYM_GRID_BUY][s]]
        v = cut_discharge[col[SYM_GRID_SELL][s]]
        conflict = (rb > tol) & (bd > tol)
        r = np.where(conflict, np.minimum(rb, bd), 0.0)
        rb -= r
        bd -= r
        dv = np.minimum(v, r)
        v -= dv
        g += r - dv
        cut_discharge[col[SYM_RB_TO_ESS][s]] = rb
        cut_discharge[col[SYM_ESS_DISCHARGE][s]] = bd
        cut_discharge[col[SYM_GRID_BUY][s]] = g
        cut_discharge[col[SYM_GRID_SELL][s]] = v
    return finish(cut_discharge)


def extract_solution(mip: MipSolution, model: EmsModel) -> EmsSolution:
    """Map solver output to trajectories and re-check every constraint.

    Raises SolutionCheckError when any hard check fails; the solver's own
    residuals are never trusted on their own.
    """
    if mip.status != STATUS_OPTIMAL or mip.x is None:
        raise EmsSolveError(mip.status, "extraction needs an optimal solution")
    idx = model.index
    x = mip.x
    n_s, n_t = idx.demand.shape
    n_ev = idx.n_sessions
    shape = (n_s, n_t)

    grid_buy = _gather_station(x, idx.station_cols[SYM_GRID_BUY], shape)
    grid_sell = _gather_station(x, idx.station_cols[SYM_GRID_SELL], shape)
    ess_charge = _gather_station(x, idx.station_cols[SYM_ESS_CHARGE], shape)
    ess_discharge = _gather_station(x, idx.station_cols[SYM_ESS_DISCHARGE], shape)
    rb_used = _gather_station(x, idx.station_cols[SYM_RB_TO_ESS], shape)
    ess_soc = _gather_station(x, idx.station_cols[SYM_ESS_SOC], shape)
    grid_buy_on = np.round(_gather_station(x, idx.station_cols[SYM_GRID_BUY_ON],
                                           shape))
    ess_charge_on = np.round(_gather_station(
        x, idx.station_cols[SYM_ESS_CHARGE_ON], shape))

    ev_power = np.zeros((n_s, n_ev, n_t))
    ev_soc = np.zeros((n_s, n_ev, n_t))
    for s in range(n_s):
        for i in range(n_ev):
            steps = idx.ev_steps[i]
            ev_power[s, i, steps] = x[idx.ev_power_cols[s][i]]
            ev_soc[s, i, steps] = x[idx.ev_soc_cols[s][i]]
    theta = x[idx.theta_cols] if n_ev else np.zeros((n_s, 0))
    departure_soc = np.zeros((n_s, n_ev))
    for i, ses in enumerate(idx.sessions):
        departure_soc[:, i] = ev_soc[:, i, ses.t_departure]

    dt_h = idx.grid.step_hours
    w_p = idx.cfg.weights.w_power
    w_th = idx.cfg.weights.w_theta
    cost = w_p * ((idx.price_buy * grid_buy
                   - idx.price_sell * grid_sell) * dt_h).sum(axis=1)
    theta_val = w_th * theta.sum(axis=1) if n_ev else np.zeros(n_s)

    sol = EmsSolution(
        mode=idx.mode, status=mip.status, objective=mip.objective,
        best_bound=mip.best_bound, gap=mip.gap, node_count=mip.node_count,
        lp_iterations=mip.lp_iterations,
        probabilities=idx.probabilities.copy(),
        scenario_indices=idx.scenario_indices,
        grid_buy=grid_buy, grid_sell=grid_sell,
        ess_charge=ess_charge, ess_discharge=ess_discharge,
        rb_used=rb_used, ess_soc=ess_soc,
        grid_buy_on=grid_buy_on, ess_charge_on=ess_charge_on,
        ev_power=ev_power, ev_soc=ev_soc, theta=theta,
        departure_soc=departure_soc,
        cost_per_scenario=cost, theta_value_per_scenario=theta_val,
        input_demand=idx.demand.copy(), input_pv=idx.pv.copy(),
        input_rb=idx.rb_available.copy(),
        input_price_buy=idx.price_buy.copy(),
        input_price_sell=idx.price_sell.copy(),
        checks=())
    checks = check_dispatch(idx, sol)
    sol.checks = tuple(checks)
    bad = [c for c in checks if c.hard and not c.passed]
    if bad:
        raise SolutionCheckError(bad)
    return sol


def check_dispatch(idx: EmsIndex, sol: EmsSolution,
                   tol: float = 1e-6) -> list[CheckResult]:
    """Constraint residuals measured from trajectories alone.

    Works purely from the solution arrays and the input series, so it shares
    no code with the solver or the row assembly.
    """
    out: list[CheckResult] = []
    cfg = idx.cfg
    dt_h = idx.grid.step_hours
    with_ess = idx.mode != MODE_NO_ESS
    ev_sum = sol.ev_power.sum(axis=1) if sol.ev_power.size else \
        np.zeros_like(sol.grid_buy)

    def add(name, residual, tolerance=tol, hard=True):
        r = float(residual)
        out.append(CheckResult(name, r, tolerance, r <= tolerance, hard))

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
        prev = np.concatenate(
            [np.full((len(sol.ess_soc), 1), ess.soc_init_kwh),
             sol.ess_soc[:, :-1]], axis=1)
        expected = ((1.0 - ess.self_discharge_rate) * prev
                    + ess.eta_charge * (sol.rb_used + sol.ess_charge) * dt_h
                    - _effective_discharge_factor(cfg) * sol.ess_discharge * dt_h)
        add("ess_recursion", np.abs(sol.ess_soc - expected).max(initial=0.0))
        if ess.terminal_equals_initial:
            add("ess_terminal",
                np.abs(sol.ess_soc[:, -1] - ess.soc_init_kwh).max(initial=0.0))

    peak = idx.demand + ev_sum - cfg.peak.p_max_kw
    add("peak_cap", peak.max(initial=0.0))

    rate_resid = 0.0
    window_resid = 0.0
    rec_resid = 0.0
    pin_resid = 0.0
    dep_low = 0.0
    dep_high = 0.0
    th_low = 0.0
    th_high = 0.0
    tight = 0.0
    for i, ses in enumerate(idx.sessions):
        steps = idx.ev_steps[i]
        inside = np.zeros(idx.grid.horizon_steps, dtype=bool)
        inside[steps] = True
        pw = sol.ev_power[:, i, :]
        sc = sol.ev_soc[:, i, :]
        rate_resid = max(rate_resid,
                         (pw[:, inside] - ses.ev.p_max_kw).max(initial=0.0))
        if (~inside).any():
            window_resid = max(window_resid,
                               np.abs(pw[:, ~inside]).max(initial=0.0),
                               np.abs(sc[:, ~inside]).max(initial=0.0))
        pin_resid = max(pin_resid,
                        np.abs(sc[:, ses.t_arrival] - ses.soc_init_kwh)
                        .max(initial=0.0))
        a, d = ses.t_arrival, ses.t_departure
        diff = sc[:, a + 1:d + 1] - sc[:, a:d] \
            - ses.ev.eta * pw[:, a + 1:d + 1] * dt_h
        rec_resid = max(rec_resid, np.abs(diff).max(initial=0.0))
        dep_low = max(dep_low,
                      (sol.theta[:, i] - sol.departure_soc[:, i]).max(initial=0.0))
        dep_high = max(dep_high,
                       (sol.departure_soc[:, i] - ses.e_requested_kwh)
                       .max(initial=0.0))
        th_low = max(th_low,
                     (ses.theta_min_kwh - sol.theta[:, i]).max(initial=0.0))
        th_high = max(th_high,
                      (sol.theta[:, i] - ses.theta_max_kwh).max(initial=0.0))
        tight = max(tight,
                    np.abs(sol.theta[:, i] - sol.departure_soc[:, i])
                    .max(initial=0.0))
    add("ev_rate_cap", rate_resid)
    add("ev_window_zero", window_resid)
    add("ev_arrival_pin", pin_resid)
    add("ev_recursion", rec_resid)
    add("ev_departure_min", dep_low)
    add("ev_departure_max", dep_high)
    add("theta_lower_bound", th_low)
    add("theta_upper_bound", th_high)
    if cfg.weights.w_theta > 0:
        add("theta_tightness", tight, hard=False)

    neg = 0.0
    for arr in (sol.grid_buy, sol.grid_sell, sol.ess_charge, sol.ess_discharge,
                sol.rb_used, sol.ev_power):
        if arr.size:
            neg = max(neg, float((-arr).max(initial=0.0)))
    add("nonnegativity", neg)
    return out


def solve_ems(model: EmsModel, *, rel_gap: float = 1e-6,
              integrality_tol: float = 1e-7, max_nodes: int = 200_000,
              warm: LpSolution | None = None
              ) -> tuple[EmsSolution, LpSolution]:
    """Solve one assembled model to proven optimality.

    Solves the relaxation (optionally warm started from another solve of the
    same shape), tries the dispatch repair, and only descends into the tree
    search, started from the relaxation's basis, when the repaired point
    does not already close the gap.  Returns the checked solution and the
    root relaxation for warm-starting the next solve.
    """
    milp = model.milp
    root = solve_lp(milp,
                    warm_basis=None if warm is None else warm.basis,
                    warm_at_upper=None if warm is None else warm.nonbasic_at_upper)
    if root.status != STATUS_OPTIMAL:
        raise EmsSolveError(root.status, "relaxation did not solve")

    cand = repair_dispatch(model, root.x)
    mip: MipSolution | None = None
    if cand is not None:
        obj = milp.objective_value(cand)
        if obj <= root.objective + rel_gap * max(1.0, abs(obj)):
            gap = max(0.0, obj - root.objective) / max(1.0, abs(obj))
            mip = MipSolution(STATUS_OPTIMAL, cand, obj, root.objective, gap,
                              1, root.iterations)
    if mip is None:
        mip = solve_mip(milp, rel_gap=rel_gap, integrality_tol=integrality_tol,
                        max_nodes=max_nodes, incumbent_x=cand,
                        repair=lambda _m, xx: repair_dispatch(model, xx),
                        warm_root=root)
        mip = replace(mip, lp_iterations=mip.lp_iterations + root.iterations)
        if mip.status != STATUS_OPTIMAL:
            raise EmsSolveError(mip.status, "tree search did not close the gap", mip)
    return extract_solution(mip, model), root
