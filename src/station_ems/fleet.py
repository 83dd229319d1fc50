"""EV session generation and per-session charging flexibility.

Cars arrive as a Poisson stream inside a service window and stay until their
requested energy would be met at nominal power, plus a random slack.  Buses
follow a fixed timetable and arrive a short random interval before departure.
Sampled clock times are mapped to grid steps by flooring; departures that
would cross the end of the horizon are truncated to the last step.  Cars are
drawn one at a time, so a run that caps its sessions draws only the cars it
keeps.  The kappa range, the car window and the nominal charging power
are ``config.validate_config``'s rules and are not checked again here; the
timetable is checked here, as only its file holds it.
"""
from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .config import BusFleetSpec, CarFleetSpec
from .types import EvSession, FlexPolicy, TimeGrid, parse_clock


def fulfillment_time(session: EvSession, grid: TimeGrid) -> int:
    """Steps of nominal-power charging needed to meet the requested energy."""
    return _fulfillment_steps(
        session.e_requested_kwh - session.soc_init_kwh,
        session.ev.eta, session.ev.p_nominal_kw, grid.step_hours)


def _fulfillment_steps(energy_kwh: float, eta: float, p_nominal_kw: float,
                       step_hours: float) -> int:
    if energy_kwh <= 0:
        return 0
    return math.ceil(energy_kwh / (eta * p_nominal_kw * step_hours) - 1e-12)


def flex_bounds(session: EvSession, kappa: float, grid: TimeGrid) -> tuple[float, float]:
    """Departure-energy window (theta_min, theta_max) for one session.

    The ceiling is what maximum-power charging over the usable span could
    deliver, capped by the request; the floor is the kappa fraction of the
    nominal-power equivalent, for a ``kappa`` in [0, 1] as the config
    admits.
    """
    stay_hours = (session.t_departure - session.t_arrival) * grid.step_hours
    e_req = session.e_requested_kwh
    theta_max = min(session.ev.eta * session.ev.p_max_kw * stay_hours, e_req)
    theta_min = kappa * min(session.ev.eta * session.ev.p_nominal_kw * stay_hours, e_req)
    return theta_min, theta_max


def iter_car_sessions(
    grid: TimeGrid,
    seed: int,
    *,
    spec: CarFleetSpec = CarFleetSpec(),
    kappa: float = FlexPolicy.kappa,
    first_id: int = 0,
) -> Iterator[EvSession]:
    """Draw car charging visits one at a time, in arrival order.

    Arrivals are exponential inter-arrival times at the spec's hourly rate
    inside its clock window.  Each car requests a uniform energy, starts
    empty, and departs ``fulfillment + Triangular(-offset, mode, +offset)``
    after arriving, clipped into the grid.  The draw ends at the window's
    end or at the first arrival in the grid's last step, which leaves no
    room for a stay; a caller that stops early makes no further draw.  A
    window that does not run forwards draws no car.
    """
    ev = spec.ev_class()
    start_min, end_min = parse_clock(spec.window_start), parse_clock(spec.window_end)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    if spec.arrival_rate_per_hour <= 0:
        return
    off_h = spec.departure_offset_hours
    clock = start_min
    sid = first_id
    while True:
        clock += rng.exponential(60.0 / spec.arrival_rate_per_hour)
        if clock >= end_min:
            break
        arrival = grid.step_of_minutes(clock)
        if arrival >= grid.horizon_steps - 1:
            break
        e_req = float(rng.uniform(spec.energy_min_kwh, spec.energy_max_kwh))
        if off_h > 0:
            offset_min = float(rng.triangular(
                -60.0 * off_h, 60.0 * spec.departure_offset_mode_hours, 60.0 * off_h))
        else:
            offset_min = 0.0
        need = _fulfillment_steps(e_req, ev.eta, ev.p_nominal_kw, grid.step_hours)
        departure = arrival + need + round(offset_min / grid.step_minutes)
        departure = min(max(departure, arrival + 1), grid.horizon_steps - 1)
        session = EvSession(sid, ev, arrival, departure, e_req)
        lo, hi = flex_bounds(session, kappa, grid)
        yield EvSession(sid, ev, arrival, departure, e_req,
                        theta_min_kwh=lo, theta_max_kwh=hi)
        sid += 1


def sample_bus_sessions(
    departures_minutes: Sequence[float],
    grid: TimeGrid,
    seed: int,
    *,
    spec: BusFleetSpec = BusFleetSpec(),
    kappa: float = FlexPolicy.kappa,
    first_id: int = 0,
) -> list[EvSession]:
    """One charging visit per timetable departure, in minutes from midnight.

    The bus shows up a triangular random interval before its fixed departure.
    Draws that collapse to a zero-length stay on the grid are retried a few
    times before the timetable entry is rejected.
    """
    ev = spec.ev_class()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    off_lo, off_hi = spec.arrival_offset_min_minutes, spec.arrival_offset_max_minutes
    sessions: list[EvSession] = []
    sid = first_id
    for dep_min in departures_minutes:
        if dep_min >= grid.horizon_minutes:
            raise ValueError(f"bus departure at {dep_min} min is outside the grid")
        dep_step = grid.step_of_minutes(dep_min)
        if dep_step == 0:
            raise ValueError(f"bus departure at {dep_min:g} min falls in step 0, "
                             f"which leaves no earlier step to arrive in")
        arrival = None
        for _ in range(8):
            if off_hi > off_lo:
                offset = float(rng.triangular(
                    off_lo, spec.arrival_offset_mode_minutes, off_hi))
            else:
                offset = off_lo
            cand = dep_step - round(offset / grid.step_minutes)
            if 0 <= cand < dep_step:
                arrival = cand
                break
        if arrival is None:
            raise ValueError(
                f"cannot place a bus arrival before departure step {dep_step}: "
                f"no offset drawn from fleet.bus.arrival_offset_*_minutes "
                f"rounds to 1 to {dep_step} steps of {grid.step_minutes:g} minutes")
        e_req = float(rng.uniform(spec.energy_min_kwh, spec.energy_max_kwh))
        session = EvSession(sid, ev, arrival, dep_step, e_req)
        lo, hi = flex_bounds(session, kappa, grid)
        sessions.append(EvSession(sid, ev, arrival, dep_step, e_req,
                                  theta_min_kwh=lo, theta_max_kwh=hi))
        sid += 1
    return sessions


def uncoordinated_profile(sessions: Sequence[EvSession], grid: TimeGrid) -> np.ndarray:
    """Aggregate charging load (kW per step) if every EV charges greedily.

    Each vehicle draws nominal power from its arrival step until the request
    is met (last step may overshoot by less than one step of energy) or it
    leaves, whichever comes first.
    """
    load = np.zeros(grid.horizon_steps)
    for s in sessions:
        need = fulfillment_time(s, grid)
        if need == 0:
            continue
        last = min(s.t_arrival + need - 1, s.t_departure)
        load[s.t_arrival:last + 1] += s.ev.p_nominal_kw
    return load
