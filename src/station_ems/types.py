"""Domain types shared across the scheduler.

The config section types here hold data only; ``config.validate_config``
states the rules a usable config keeps.

Conventions: power in kW, energy in kWh, prices in currency per kWh,
solar radiation in W/m2.  Step indices are 0-based and run over
``range(horizon_steps)``.  A per-step series is a read-only float64 array
of ``horizon_steps`` entries; it carries no unit, since each series ref in
the config declares one and the config checks it against its slot.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

UNIT_KW = "kW"
UNIT_RADIATION = "W_per_m2"
UNIT_PRICE = "per_kWh"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform dispatch grid covering the scheduling horizon."""

    step_minutes: float = 10.0
    horizon_steps: int = 144

    @property
    def step_hours(self) -> float:
        return self.step_minutes / 60.0

    @property
    def horizon_minutes(self) -> float:
        return self.step_minutes * self.horizon_steps

    def step_of_minutes(self, minutes: float) -> int:
        """Step index containing the given clock offset (minutes from 00:00)."""
        return int(minutes // self.step_minutes)


@dataclass(frozen=True)
class GridSpec:
    """Exchange limits and metering conventions at the feeder."""

    p_buy_max_kw: float
    p_sell_max_kw: float


@dataclass(frozen=True)
class EssSpec:
    """Stationary storage fed by the grid side and by recovered braking power.

    ``discharge_efficiency_divides`` switches the state recursion from the
    default form (discharge power scaled by the efficiency before leaving the
    store) to the conventional one (drawn energy divided by the efficiency).
    """

    soc_max_kwh: float
    soc_min_kwh: float
    soc_init_kwh: float
    charge_rate_max_kw: float = 1000.0
    discharge_rate_max_kw: float = 1000.0
    eta_charge: float = 0.95
    eta_discharge: float = 0.95
    self_discharge_rate: float = 0.0
    discharge_efficiency_divides: bool = False
    terminal_equals_initial: bool = False


@dataclass(frozen=True)
class PvSpec:
    """Rated PV plant and the radiation thresholds of its power curve."""

    rated_power_kw: float = 1000.0
    radiation_certain_w_per_m2: float = 150.0
    radiation_standard_w_per_m2: float = 1000.0


@dataclass(frozen=True)
class PeakPolicy:
    """Cap on combined train demand plus EV charging load."""

    p_max_kw: float = 3000.0


@dataclass(frozen=True)
class FlexPolicy:
    """Fraction of the nominal-charging energy guaranteed to each EV."""

    kappa: float = 0.6


@dataclass(frozen=True)
class ObjectiveWeights:
    """Relative weight of energy cost against delivered EV energy."""

    w_power: float = 1.0
    w_theta: float = 1.0


EV_KIND_CAR = "car"
EV_KIND_BUS = "bus"


@dataclass(frozen=True)
class EvClass:
    """Charging envelope of one vehicle category."""

    kind: str
    p_nominal_kw: float
    p_max_kw: float
    eta: float = 1.0


@dataclass(frozen=True)
class EvSession:
    """One charging visit.

    The vehicle occupies steps ``t_arrival .. t_departure`` inclusive; its
    state of charge at ``t_arrival`` equals ``soc_init_kwh`` and charging
    takes effect from the following step, so the usable charging span is
    ``t_departure - t_arrival`` steps.
    """

    session_id: int
    ev: EvClass
    t_arrival: int
    t_departure: int
    e_requested_kwh: float
    soc_init_kwh: float = 0.0
    theta_min_kwh: float = 0.0
    theta_max_kwh: float = 0.0

    def __post_init__(self) -> None:
        if self.t_arrival < 0:
            raise ValueError(f"session {self.session_id}: t_arrival must be >= 0")
        if self.t_departure <= self.t_arrival:
            raise ValueError(
                f"session {self.session_id}: t_departure must exceed t_arrival")
        if self.e_requested_kwh < 0:
            raise ValueError(f"session {self.session_id}: e_requested_kwh must be >= 0")
        if not 0 <= self.soc_init_kwh <= max(self.e_requested_kwh, 0.0):
            raise ValueError(
                f"session {self.session_id}: soc_init_kwh must lie in [0, e_requested_kwh]")


def parse_clock(text: str) -> float:
    """'HH:MM', two ASCII digits on each side -> minutes from midnight."""
    match = re.fullmatch(r"([0-9]{2}):([0-9]{2})", text.strip())
    if match is None:
        raise ValueError(f"bad clock time {text!r}, expected HH:MM")
    hours, minutes = int(match[1]), int(match[2])
    if not (0 <= hours < 24 and 0 <= minutes < 60):
        raise ValueError(f"bad clock time {text!r}")
    return 60.0 * hours + minutes


def readonly_series(values) -> np.ndarray:
    """``values`` as a read-only float64 array.

    A read-only float64 array is returned as it is, so one series can back
    many scenarios; anything else is copied first and the copy frozen.
    """
    if (isinstance(values, np.ndarray) and values.dtype == np.float64
            and not values.flags.writeable):
        return values
    out = np.array(values, dtype=np.float64)
    out.flags.writeable = False
    return out


def require_nonnegative(values: np.ndarray, name: str) -> None:
    """ValueError naming ``name`` and its first negative steps, if any."""
    bad = np.flatnonzero(values < 0)
    if len(bad):
        raise ValueError(
            f"{name} has negative entries at steps {bad[:5].tolist()}")
