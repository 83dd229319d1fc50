"""Station dispatch model: assembly, solving, extraction, and re-checking.

One model covers one scenario over the full horizon.  Scenarios share no
variable or constraint, so a scenario tree is solved leaf by leaf and its
expected objective is the probability-weighted sum of the leaf optima.

Per step the station block carries grid import/export with a direction
binary, and (in mode A/C) storage charge/discharge with a direction binary,
recovered braking inflow, and the stored-energy state.  Each charging visit
adds its power and state columns over the parked window plus one
delivered-energy target column.

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
    return [np.base_repr(v, 36).zfill(width) for v in range(count)]


@dataclass(frozen=True, eq=False)
class EmsIndex:
    """Immutable map from model coordinates to canonical columns."""

    mode: str
    cfg: SiteConfig
    grid: TimeGrid
    sessions: tuple[EvSession, ...]
    demand: np.ndarray       # (N_t,) kW
    pv: np.ndarray           # (N_t,) kW, zeros in mode C
    rb_available: np.ndarray  # (N_t,) kW, zeros in mode B
    price_buy: np.ndarray
    price_sell: np.ndarray
    station_cols: dict       # symbol -> (N_t,) int array, or None
    ev_steps: tuple          # per session: parked step array
    ev_power_cols: tuple     # per session: col array aligned with ev_steps
    ev_soc_cols: tuple
    theta_cols: np.ndarray   # (N_ev,) int

    @property
    def n_sessions(self) -> int:
        return len(self.sessions)


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
    grid_buy: np.ndarray          # (N_t,) kW
    grid_sell: np.ndarray
    ess_charge: np.ndarray
    ess_discharge: np.ndarray
    rb_used: np.ndarray
    ess_soc: np.ndarray
    grid_buy_on: np.ndarray
    ess_charge_on: np.ndarray
    ev_power: np.ndarray          # (N_ev, N_t) kW
    ev_soc: np.ndarray            # (N_ev, N_t) kWh, zero outside the stay
    theta: np.ndarray             # (N_ev,) kWh
    departure_soc: np.ndarray     # (N_ev,) kWh
    cost: float                   # energy cost, currency
    theta_value: float            # weighted sum of the departure targets
    input_demand: np.ndarray      # the series the model was built from
    input_pv: np.ndarray
    input_rb: np.ndarray
    input_price_buy: np.ndarray
    input_price_sell: np.ndarray
    checks: tuple[CheckResult, ...]

    @property
    def ev_total_power(self) -> np.ndarray:
        return self.ev_power.sum(axis=0)


def _effective_discharge_factor(cfg: SiteConfig) -> float:
    ess = cfg.ess
    return (1.0 / ess.eta_discharge) if ess.discharge_efficiency_divides \
        else ess.eta_discharge


def build_model(cfg: SiteConfig, sessions, scenarios: ScenarioSet,
                mode: str = MODE_FULL) -> EmsModel:
    """Assemble the dispatch program of a one-scenario set.

    Raises ValueError for a set of any other size, and InfeasibleModelError
    when the train demand alone already breaks the peak cap at some step,
    naming that step.
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

    if len(scenarios) == 0:
        raise ValueError("scenario set is empty")
    if len(scenarios) > 1:
        raise ValueError(f"a model covers one scenario, the set holds "
                         f"{len(scenarios)}; build one model per scenario")
    sc = scenarios[0]
    demand = sc.demand.as_array()
    pv = sc.pv.as_array()
    rb = sc.rb_available.as_array()
    price_buy = sc.price_buy.as_array()
    price_sell = sc.price_sell.as_array()

    p_max = cfg.peak.p_max_kw
    over = np.flatnonzero(demand > p_max + 1e-9)
    if len(over):
        t_bad = int(over[0])
        raise InfeasibleModelError(
            f"train demand {demand[t_bad]:.6g} kW exceeds the peak cap "
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
    w_p = cfg.weights.w_power
    w_th = cfg.weights.w_theta
    code = _codes(max(n_t, len(sessions)))

    b = ModelBuilder()
    station_cols = {sym: (np.full(n_t, -1, dtype=np.int64)
                          if with_ess or sym in (SYM_GRID_BUY, SYM_GRID_SELL,
                                                 SYM_GRID_BUY_ON)
                          else None)
                    for sym in STATION_SYMBOLS}
    gb = station_cols[SYM_GRID_BUY]
    gs = station_cols[SYM_GRID_SELL]
    ug = station_cols[SYM_GRID_BUY_ON]
    bc = station_cols[SYM_ESS_CHARGE]
    bd = station_cols[SYM_ESS_DISCHARGE]
    rbc = station_cols[SYM_RB_TO_ESS]
    soc = station_cols[SYM_ESS_SOC]
    ub = station_cols[SYM_ESS_CHARGE_ON]

    for t in range(n_t):
        k = code[t]
        gb[t] = b.add_column(f"G{k}", 0.0, cfg.grid.p_buy_max_kw,
                             obj=w_p * price_buy[t] * dt_h)
        gs[t] = b.add_column(f"X{k}", 0.0, cfg.grid.p_sell_max_kw,
                             obj=-w_p * price_sell[t] * dt_h)
        if with_ess:
            bc[t] = b.add_column(f"BC{k}", 0.0, ess.charge_rate_max_kw)
            bd[t] = b.add_column(f"BD{k}", 0.0, ess.discharge_rate_max_kw)
            rbc[t] = b.add_column(f"RB{k}", 0.0, rb[t])
            soc[t] = b.add_column(f"SB{k}", ess.soc_min_kwh, ess.soc_max_kwh)
    for t in range(n_t):
        ug[t] = b.add_column(f"UG{code[t]}", 0.0, 1.0, binary=True)
        if with_ess:
            ub[t] = b.add_column(f"UB{code[t]}", 0.0, 1.0, binary=True)

    ev_steps = tuple(np.arange(s.t_arrival, s.t_departure + 1) for s in sessions)
    ev_power_cols = tuple(
        np.array([b.add_column(f"EV{code[i]}{code[t]}", 0.0, ses.ev.p_max_kw)
                  for t in ev_steps[i]], dtype=np.int64)
        for i, ses in enumerate(sessions))
    ev_soc_cols = []
    for i, ses in enumerate(sessions):
        cap = max(ses.e_requested_kwh, ses.soc_init_kwh)
        cols = []
        for t in ev_steps[i]:
            pinned = t == ses.t_arrival
            cols.append(b.add_column(f"ES{code[i]}{code[t]}",
                                     ses.soc_init_kwh if pinned else 0.0,
                                     ses.soc_init_kwh if pinned else cap))
        ev_soc_cols.append(np.array(cols, dtype=np.int64))
    theta_cols = np.array([b.add_column(f"TH{code[i]}", ses.theta_min_kwh,
                                        ses.theta_max_kwh, obj=-w_th)
                           for i, ses in enumerate(sessions)], dtype=np.int64)

    # rows; ev_at[t] lists the power columns of the vehicles parked at step t
    ev_at: list[list[int]] = [[] for _ in range(n_t)]
    for steps, cols in zip(ev_steps, ev_power_cols):
        for t, c in zip(steps, cols):
            ev_at[t].append(int(c))

    for t in range(n_t):
        k = code[t]
        coeffs = [(int(gb[t]), 1.0), (int(gs[t]), -1.0)]
        if with_ess:
            coeffs += [(int(bd[t]), 1.0), (int(bc[t]), -1.0)]
        coeffs += [(c, -1.0) for c in ev_at[t]]
        b.add_row(f"BL{k}", ROW_EQ, demand[t] - pv[t], coeffs)
        b.add_row(f"GB{k}", ROW_LE, 0.0,
                  [(int(gb[t]), 1.0), (int(ug[t]), -cfg.grid.p_buy_max_kw)])
        b.add_row(f"GS{k}", ROW_LE, cfg.grid.p_sell_max_kw,
                  [(int(gs[t]), 1.0), (int(ug[t]), cfg.grid.p_sell_max_kw)])

        if with_ess:
            b.add_row(f"EC{k}", ROW_LE, 0.0,
                      [(int(rbc[t]), 1.0), (int(bc[t]), 1.0),
                       (int(ub[t]), -ess.charge_rate_max_kw)])
            b.add_row(f"ED{k}", ROW_LE, ess.discharge_rate_max_kw,
                      [(int(bd[t]), 1.0), (int(ub[t]), ess.discharge_rate_max_kw)])
            coeffs = [(int(soc[t]), 1.0), (int(rbc[t]), -eta_c * dt_h),
                      (int(bc[t]), -eta_c * dt_h), (int(bd[t]), k_dis * dt_h)]
            if t == 0:
                rhs = (1.0 - eps) * ess.soc_init_kwh
            else:
                coeffs.append((int(soc[t - 1]), -(1.0 - eps)))
                rhs = 0.0
            b.add_row(f"SR{k}", ROW_EQ, rhs, coeffs)

        if ev_at[t]:
            b.add_row(f"PK{k}", ROW_LE, p_max - demand[t],
                      [(c, 1.0) for c in ev_at[t]])

    if with_ess and ess.terminal_equals_initial:
        b.add_row("ST", ROW_EQ, ess.soc_init_kwh, [(int(soc[n_t - 1]), 1.0)])

    for i, ses in enumerate(sessions):
        pw, sc_cols = ev_power_cols[i], ev_soc_cols[i]
        for j in range(1, len(pw)):
            b.add_row(f"ER{code[i]}{code[ev_steps[i][j]]}", ROW_EQ, 0.0,
                      [(int(sc_cols[j]), 1.0), (int(sc_cols[j - 1]), -1.0),
                       (int(pw[j]), -ses.ev.eta * dt_h)])
        b.add_row(f"DP{code[i]}", ROW_LE, 0.0,
                  [(int(theta_cols[i]), 1.0), (int(sc_cols[-1]), -1.0)])

    index = EmsIndex(
        mode=mode, cfg=cfg, grid=grid, sessions=sessions,
        demand=demand, pv=pv, rb_available=rb,
        price_buy=price_buy, price_sell=price_sell,
        station_cols=station_cols, ev_steps=ev_steps,
        ev_power_cols=ev_power_cols, ev_soc_cols=tuple(ev_soc_cols),
        theta_cols=theta_cols)
    return EmsModel(milp=b.build(), index=index)


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
    n_t = len(idx.demand)
    dt_h = idx.grid.step_hours
    ess = idx.cfg.ess
    eta_c = ess.eta_charge
    k_dis = _effective_discharge_factor(idx.cfg)
    with_ess = idx.mode != MODE_NO_ESS

    col = idx.station_cols
    g = base[col[SYM_GRID_BUY]]
    v = base[col[SYM_GRID_SELL]]
    m = np.minimum(g, v)
    base[col[SYM_GRID_BUY]] = g - m
    base[col[SYM_GRID_SELL]] = v - m
    conflict = np.zeros(n_t, dtype=bool)
    if with_ess:
        bc = base[col[SYM_ESS_CHARGE]]
        bd = base[col[SYM_ESS_DISCHARGE]]
        m = np.minimum(bc, bd)
        bc, bd = bc - m, bd - m
        base[col[SYM_ESS_CHARGE]] = bc
        base[col[SYM_ESS_DISCHARGE]] = bd
        rb = base[col[SYM_RB_TO_ESS]]
        conflict = (rb > tol) & (bd > tol)

    def finish(y: np.ndarray) -> np.ndarray | None:
        if with_ess:
            rb = y[col[SYM_RB_TO_ESS]]
            bc = y[col[SYM_ESS_CHARGE]]
            bd = y[col[SYM_ESS_DISCHARGE]]
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
            y[col[SYM_ESS_SOC]] = soc
            y[col[SYM_ESS_CHARGE_ON]] = ((rb + bc) > tol).astype(float)
        y[col[SYM_GRID_BUY_ON]] = (y[col[SYM_GRID_BUY]] > tol).astype(float)
        return y if feasibility_report(model.milp, y)["feasible"] else None

    if not conflict.any():
        return finish(base)

    drop_intake = base.copy()
    drop_intake[col[SYM_RB_TO_ESS]] = np.where(conflict, 0.0, rb)
    done = finish(drop_intake)
    if done is not None:
        return done

    cut_discharge = base.copy()
    g = base[col[SYM_GRID_BUY]]
    v = base[col[SYM_GRID_SELL]]
    r = np.where(conflict, np.minimum(rb, bd), 0.0)
    dv = np.minimum(v, r)
    cut_discharge[col[SYM_RB_TO_ESS]] = rb - r
    cut_discharge[col[SYM_ESS_DISCHARGE]] = bd - r
    cut_discharge[col[SYM_GRID_BUY]] = g + (r - dv)
    cut_discharge[col[SYM_GRID_SELL]] = v - dv
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
    n_t = len(idx.demand)
    n_ev = idx.n_sessions

    def station(sym):
        cols = idx.station_cols[sym]
        return np.zeros(n_t) if cols is None else x[cols]

    grid_buy = station(SYM_GRID_BUY)
    grid_sell = station(SYM_GRID_SELL)
    ev_power = np.zeros((n_ev, n_t))
    ev_soc = np.zeros((n_ev, n_t))
    for i, steps in enumerate(idx.ev_steps):
        ev_power[i, steps] = x[idx.ev_power_cols[i]]
        ev_soc[i, steps] = x[idx.ev_soc_cols[i]]
    theta = x[idx.theta_cols]
    departure_soc = np.array([ev_soc[i, ses.t_departure]
                              for i, ses in enumerate(idx.sessions)])

    dt_h = idx.grid.step_hours
    cost = idx.cfg.weights.w_power * float(
        ((idx.price_buy * grid_buy - idx.price_sell * grid_sell) * dt_h).sum())
    theta_val = idx.cfg.weights.w_theta * float(theta.sum())

    sol = EmsSolution(
        mode=idx.mode, status=mip.status, objective=mip.objective,
        best_bound=mip.best_bound, gap=mip.gap, node_count=mip.node_count,
        lp_iterations=mip.lp_iterations,
        grid_buy=grid_buy, grid_sell=grid_sell,
        ess_charge=station(SYM_ESS_CHARGE),
        ess_discharge=station(SYM_ESS_DISCHARGE),
        rb_used=station(SYM_RB_TO_ESS), ess_soc=station(SYM_ESS_SOC),
        grid_buy_on=np.round(station(SYM_GRID_BUY_ON)),
        ess_charge_on=np.round(station(SYM_ESS_CHARGE_ON)),
        ev_power=ev_power, ev_soc=ev_soc, theta=theta,
        departure_soc=departure_soc, cost=cost, theta_value=theta_val,
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
    ev_sum = sol.ev_total_power

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
        prev = np.concatenate([[ess.soc_init_kwh], sol.ess_soc[:-1]])
        expected = ((1.0 - ess.self_discharge_rate) * prev
                    + ess.eta_charge * (sol.rb_used + sol.ess_charge) * dt_h
                    - _effective_discharge_factor(cfg) * sol.ess_discharge * dt_h)
        add("ess_recursion", np.abs(sol.ess_soc - expected).max(initial=0.0))
        if ess.terminal_equals_initial:
            add("ess_terminal", abs(sol.ess_soc[-1] - ess.soc_init_kwh))

    peak = idx.demand + ev_sum - cfg.peak.p_max_kw
    add("peak_cap", peak.max(initial=0.0))

    rate_resid = window_resid = rec_resid = pin_resid = 0.0
    dep_low = dep_high = th_low = th_high = tight = 0.0
    for i, ses in enumerate(idx.sessions):
        inside = np.zeros(idx.grid.horizon_steps, dtype=bool)
        inside[idx.ev_steps[i]] = True
        pw = sol.ev_power[i]
        sc = sol.ev_soc[i]
        th = sol.theta[i]
        dep = sol.departure_soc[i]
        rate_resid = max(rate_resid,
                         (pw[inside] - ses.ev.p_max_kw).max(initial=0.0))
        window_resid = max(window_resid,
                           np.abs(pw[~inside]).max(initial=0.0),
                           np.abs(sc[~inside]).max(initial=0.0))
        pin_resid = max(pin_resid, abs(sc[ses.t_arrival] - ses.soc_init_kwh))
        a, d = ses.t_arrival, ses.t_departure
        diff = sc[a + 1:d + 1] - sc[a:d] - ses.ev.eta * pw[a + 1:d + 1] * dt_h
        rec_resid = max(rec_resid, np.abs(diff).max(initial=0.0))
        dep_low = max(dep_low, th - dep)
        dep_high = max(dep_high, dep - ses.e_requested_kwh)
        th_low = max(th_low, ses.theta_min_kwh - th)
        th_high = max(th_high, th - ses.theta_max_kwh)
        tight = max(tight, abs(th - dep))
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

    add("nonnegativity", max(float((-arr).max(initial=0.0)) for arr in (
        sol.grid_buy, sol.grid_sell, sol.ess_charge, sol.ess_discharge,
        sol.rb_used, sol.ev_power)))
    return out


def solve_ems(model: EmsModel, *, rel_gap: float = 1e-6,
              integrality_tol: float = 1e-7, max_nodes: int = 200_000,
              warm: LpSolution | None = None
              ) -> tuple[EmsSolution, LpSolution]:
    """Solve one assembled model to proven optimality.

    Solves the relaxation (optionally warm started from another solve of the
    same shape) and hands it to the tree search as its root node, which tries
    the dispatch repair before it branches.  Returns the checked solution and
    the root relaxation for warm-starting the next solve.
    """
    milp = model.milp
    root = solve_lp(milp,
                    warm_basis=None if warm is None else warm.basis,
                    warm_at_upper=None if warm is None else warm.nonbasic_at_upper)
    if root.status != STATUS_OPTIMAL:
        raise EmsSolveError(root.status, "relaxation did not solve")

    mip = solve_mip(milp, rel_gap=rel_gap, integrality_tol=integrality_tol,
                    max_nodes=max_nodes,
                    repair=lambda _m, xx: repair_dispatch(model, xx),
                    warm_root=root)
    mip = replace(mip, lp_iterations=mip.lp_iterations + root.iterations)
    if mip.status != STATUS_OPTIMAL:
        raise EmsSolveError(mip.status, "tree search did not close the gap", mip)
    return extract_solution(mip, model), root
