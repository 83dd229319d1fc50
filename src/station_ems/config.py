"""Configuration loading and validation.

A run is described by one JSON file plus CSV series (columns ``step,value``)
referenced from it with paths relative to the config file.  Every series
ref declares a unit, and units are checked here, where the config declares
them: a unit that contradicts the slot it is used in is a rule violation.
A loaded series is a read-only float64 array with no unit of its own.  Each
section is read off its dataclass: a key is a field's name and is read as
that field's type, and an omitted key keeps the default the dataclass
declares.  Only ess differs: it is sized by a capacity and two
fractions of it, where ``EssSpec`` holds levels in kWh.  The section types
hold data; every rule they must keep is stated once, in ``validate_config``.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import typing
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Any

import numpy as np

from .types import (
    EV_KIND_BUS,
    EV_KIND_CAR,
    EssSpec,
    EvClass,
    FlexPolicy,
    GridSpec,
    ObjectiveWeights,
    PeakPolicy,
    PvSpec,
    TimeGrid,
    UNIT_KW,
    UNIT_PRICE,
    UNIT_RADIATION,
    parse_clock,
    readonly_series,
)


@dataclass(frozen=True)
class Violation:
    """One failed validation rule, named by the offending field."""

    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


class ConfigError(ValueError):
    """Raised when a config file cannot be parsed or fails validation."""

    def __init__(self, message: str, violations: list[Violation] | None = None):
        self.violations = violations or []
        detail = "; ".join(str(v) for v in self.violations)
        super().__init__(message if not detail else f"{message}: {detail}")


@dataclass(frozen=True)
class SeriesRef:
    """Reference to one CSV series, with its declared unit."""

    path: str
    unit: str


@dataclass(frozen=True)
class AxisMemberRef:
    series: SeriesRef
    probability: float


@dataclass(frozen=True)
class AxisRef:
    """One uncertainty axis: series members with occurrence probabilities."""

    name: str
    members: tuple[AxisMemberRef, ...]


@dataclass(frozen=True)
class CarFleetSpec:
    arrival_rate_per_hour: float = 4.0
    window_start: str = "06:00"
    window_end: str = "22:00"
    energy_min_kwh: float = 10.0
    energy_max_kwh: float = 50.0
    p_nominal_kw: float = 11.0
    p_max_kw: float = 22.0
    eta: float = 1.0
    departure_offset_hours: float = 2.0
    departure_offset_mode_hours: float = 0.0

    def ev_class(self) -> EvClass:
        return EvClass(EV_KIND_CAR, self.p_nominal_kw, self.p_max_kw, self.eta)


@dataclass(frozen=True)
class BusFleetSpec:
    timetable_csv: str = ""
    energy_min_kwh: float = 100.0
    energy_max_kwh: float = 300.0
    p_nominal_kw: float = 300.0
    p_max_kw: float = 300.0
    eta: float = 1.0
    arrival_offset_min_minutes: float = 10.0
    arrival_offset_max_minutes: float = 60.0
    arrival_offset_mode_minutes: float = 35.0

    def ev_class(self) -> EvClass:
        return EvClass(EV_KIND_BUS, self.p_nominal_kw, self.p_max_kw, self.eta)


@dataclass(frozen=True)
class FleetConfig:
    car: CarFleetSpec = CarFleetSpec()
    bus: BusFleetSpec = BusFleetSpec()
    max_sessions: int = 179
    seed: int = 0


@dataclass(frozen=True)
class DataConfig:
    """Series references feeding the scenario tree."""

    demand: SeriesRef
    pv_axis: AxisRef
    price_axis: AxisRef
    rb_axis: AxisRef | None  # None: recovered-braking series derived from demand dips


@dataclass(frozen=True)
class SiteConfig:
    """Everything a run needs, resolved against the config file location."""

    time_grid: TimeGrid
    grid: GridSpec
    ess: EssSpec
    pv: PvSpec
    peak: PeakPolicy
    flexibility: FlexPolicy
    weights: ObjectiveWeights
    fleet: FleetConfig
    data: DataConfig
    base_dir: str = "."

    def to_dict(self) -> dict[str, Any]:
        """The config as plain JSON values, without ``base_dir``."""
        d = asdict(self)
        d.pop("base_dir")
        for axis in d["data"].values():
            if axis is not None and "members" in axis:
                axis["members"] = list(axis["members"])
        return d

    def resolve(self, rel: str) -> Path:
        return (Path(self.base_dir) / rel).resolve()


def _envelope(where: str, spec: CarFleetSpec | BusFleetSpec) -> list:
    """The power-envelope rules of the car or bus class named ``where``."""
    return [
        (f"{where}.p_nominal_kw", spec.p_nominal_kw > 0, "must be > 0"),
        (f"{where}.p_max_kw", spec.p_max_kw >= spec.p_nominal_kw,
         "must be >= p_nominal_kw"),
        (f"{where}.eta", 0 < spec.eta <= 1, "must lie in (0, 1]"),
    ]


def _car_window(car: CarFleetSpec, grid: TimeGrid) -> list:
    """Each window clock must parse; a parsed window must run forwards and,
    if it does, end inside the time grid."""
    rules, clock = [], []
    for key in ("window_start", "window_end"):
        try:
            clock.append(parse_clock(getattr(car, key)))
        except ValueError as exc:
            rules.append((f"fleet.car.{key}", False, str(exc)))
    if len(clock) == 2:
        start, end = clock
        rules.append(("fleet.car.window_start", start < end, "must precede window_end"))
        rules.append(("fleet.car.window_end", start >= end or end <= grid.horizon_minutes,
                      f"must not pass the end of the time grid, "
                      f"{grid.horizon_minutes:g} minutes after 00:00"))
    return rules


def _unit(field: str, ref: SeriesRef, expected: str) -> tuple:
    return (field, ref.unit == expected,
            f"unit tag {ref.unit!r}, expected {expected!r}")


def validate_config(cfg: SiteConfig) -> list[Violation]:
    """Collect every rule violation; an empty list means the config is usable.

    Each rule is stated once, as a ``(field, holds, message)`` entry, in the
    order violations are reported."""
    grid, ess, pv, fleet = cfg.time_grid, cfg.ess, cfg.pv, cfg.fleet
    car, bus, weights = fleet.car, fleet.bus, cfg.weights
    rules = [
        ("time_grid.step_minutes", grid.step_minutes > 0, "must be > 0"),
        ("time_grid.horizon_steps", grid.horizon_steps > 0, "must be > 0"),
        ("grid.p_buy_max_kw", cfg.grid.p_buy_max_kw > 0, "must be > 0"),
        ("grid.p_sell_max_kw", cfg.grid.p_sell_max_kw >= 0, "must be >= 0"),
        ("ess.soc_max_kwh", ess.soc_max_kwh > 0, "must be > 0"),
        ("ess.soc_min_kwh", 0 <= ess.soc_min_kwh <= ess.soc_max_kwh,
         "must lie in [0, soc_max_kwh]"),
        ("ess.soc_init_kwh", ess.soc_min_kwh <= ess.soc_init_kwh <= ess.soc_max_kwh,
         "must lie in [soc_min_kwh, soc_max_kwh]"),
        ("ess.charge_rate_max_kw", ess.charge_rate_max_kw >= 0, "must be >= 0"),
        ("ess.discharge_rate_max_kw", ess.discharge_rate_max_kw >= 0, "must be >= 0"),
        ("ess.eta_charge", 0 < ess.eta_charge <= 1, "must lie in (0, 1]"),
        ("ess.eta_discharge", 0 < ess.eta_discharge <= 1, "must lie in (0, 1]"),
        ("ess.self_discharge_rate", 0 <= ess.self_discharge_rate < 1,
         "must lie in [0, 1)"),
        ("pv.rated_power_kw", pv.rated_power_kw >= 0, "must be >= 0"),
        ("pv.radiation_certain_w_per_m2", pv.radiation_certain_w_per_m2 > 0,
         "must be > 0"),
        ("pv.radiation_standard_w_per_m2",
         pv.radiation_standard_w_per_m2 > pv.radiation_certain_w_per_m2,
         "must exceed radiation_certain_w_per_m2"),
        ("peak.p_max_kw", cfg.peak.p_max_kw > 0, "must be > 0"),
        ("flexibility.kappa", 0 <= cfg.flexibility.kappa <= 1, "must lie in [0, 1]"),
        ("weights.w_power", weights.w_power >= 0, "must be >= 0"),
        ("weights.w_theta", weights.w_theta >= 0, "must be >= 0"),
        *_envelope("fleet.car", car),
        ("fleet.car.arrival_rate_per_hour", car.arrival_rate_per_hour >= 0,
         "must be >= 0"),
        ("fleet.car.energy_min_kwh", 0 <= car.energy_min_kwh <= car.energy_max_kwh,
         "must lie in [0, energy_max_kwh]"),
        *_car_window(car, grid),
        ("fleet.car.departure_offset_hours", car.departure_offset_hours >= 0,
         "must be >= 0"),
        ("fleet.car.departure_offset_mode_hours",
         abs(car.departure_offset_mode_hours) <= car.departure_offset_hours,
         "mode must lie within +-departure_offset_hours"),
        *_envelope("fleet.bus", bus),
        ("fleet.bus.energy_min_kwh", 0 <= bus.energy_min_kwh <= bus.energy_max_kwh,
         "must lie in [0, energy_max_kwh]"),
        ("fleet.bus.arrival_offset_min_minutes",
         0 < bus.arrival_offset_min_minutes <= bus.arrival_offset_max_minutes,
         "must lie in (0, arrival_offset_max_minutes]"),
        ("fleet.bus.arrival_offset_mode_minutes",
         bus.arrival_offset_min_minutes <= bus.arrival_offset_mode_minutes
         <= bus.arrival_offset_max_minutes,
         "mode must lie within the offset range"),
        # round() takes an offset of exactly half a step to 0 steps
        ("fleet.bus.arrival_offset_max_minutes", not bus.timetable_csv
         or bus.arrival_offset_max_minutes > grid.step_minutes / 2,
         f"must exceed {grid.step_minutes / 2:g}, half of time_grid.step_minutes"),
        ("fleet.max_sessions", fleet.max_sessions >= 0, "must be >= 0"),
        ("fleet.seed", fleet.seed >= 0, "must be >= 0"),
        _unit("data.demand", cfg.data.demand, UNIT_KW),
    ]
    for axis, unit in ((cfg.data.pv_axis, UNIT_RADIATION),
                       (cfg.data.price_axis, UNIT_PRICE),
                       (cfg.data.rb_axis, UNIT_KW)):
        if axis is None:
            continue
        name, members = f"scenario_axes.{axis.name}", axis.members
        total = sum(m.probability for m in members)
        rules.append((name, bool(members), "needs at least one member"))
        rules += [(f"{name}[{k}].probability", 0 < m.probability <= 1,
                   "must lie in (0, 1]") for k, m in enumerate(members)]
        rules.append((name, not members or abs(total - 1.0) <= 1e-9,
                      f"probabilities sum to {total!r}, expected 1"))
        rules += [_unit(f"{name}[{k}]", m.series, unit)
                  for k, m in enumerate(members)]
    return [Violation(field, message)
            for field, holds, message in rules if not holds]


# ---------------------------------------------------------------------------
# JSON parsing


def _expect_mapping(raw: Any, name: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return raw


def _refuse_unknown(raw: dict, name: str, known) -> None:
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"section {name!r} has unknown keys {unknown}")


def _take(raw: dict, name: str, keys: dict[str, Any]) -> dict[str, Any]:
    _refuse_unknown(raw, name, keys)
    return {**keys, **raw}


def _number(raw: dict, section: str, key: str) -> float:
    """``raw[key]`` as a float; anything but a finite JSON number is refused
    with the field ``section.key`` named."""
    value = raw[key]
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise ConfigError(f"{section}.{key} must be a finite number, got {value!r}")


def _integer(raw: dict, section: str, key: str) -> int:
    """``raw[key]`` as an int, refused like ``_number`` unless whole."""
    if not _number(raw, section, key).is_integer():
        raise ConfigError(f"{section}.{key} must be a whole number, got {raw[key]!r}")
    return int(raw[key])


def _flag(raw: dict, section: str, key: str) -> bool:
    """``raw[key]`` if it is JSON ``true`` or ``false``, else refused."""
    if isinstance(raw[key], bool):
        return raw[key]
    raise ConfigError(f"{section}.{key} must be true or false, got {raw[key]!r}")


def _text(raw: dict, section: str, key: str) -> str:
    """``raw[key]`` if it is a JSON string, else refused."""
    if isinstance(raw[key], str):
        return raw[key]
    raise ConfigError(f"{section}.{key} must be a string, got {raw[key]!r}")


_READERS = {float: _number, int: _integer, bool: _flag, str: _text}


def _section(raw: Any, name: str, cls, **given):
    """A ``cls`` read off the JSON mapping ``raw`` of section ``name``.

    Every field not in ``given`` is read under its own name by the reader of
    its type.  An omitted field keeps its declared default, one without a
    default is required, and a key that names no such field is refused.
    """
    raw = _expect_mapping(raw, name)
    hints = typing.get_type_hints(cls)
    read = [f for f in dataclasses.fields(cls) if f.name not in given]
    _refuse_unknown(raw, name, [f.name for f in read])
    for f in read:
        if f.name in raw:
            given[f.name] = _READERS[hints[f.name]](raw, name, f.name)
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"{name}.{f.name} is required")
    return cls(**given)


def _series_ref(raw: Any, field: str, default_unit: str) -> SeriesRef:
    if isinstance(raw, str):
        return SeriesRef(raw, default_unit)
    if isinstance(raw, dict):
        spec = _take(raw, field, {"csv": None, "unit": default_unit})
        return SeriesRef(_text(spec, field, "csv"), _text(spec, field, "unit"))
    raise ConfigError(f"{field} must be a path or a {{csv, unit}} mapping")


def _axis_ref(raw: Any, name: str, default_unit: str) -> AxisRef:
    if isinstance(raw, (str, dict)) and not (isinstance(raw, dict) and "members" in raw):
        # single-member shorthand
        ref = _series_ref(raw, f"scenario_axes.{name}", default_unit)
        return AxisRef(name, (AxisMemberRef(ref, 1.0),))
    spec = _take(_expect_mapping(raw, f"scenario_axes.{name}"),
                 f"scenario_axes.{name}", {"members": None})
    members_raw = spec["members"]
    if not isinstance(members_raw, list):
        raise ConfigError(f"scenario_axes.{name}.members must be a list")
    members = []
    for k, m in enumerate(members_raw):
        field = f"scenario_axes.{name}[{k}]"
        mm = _take(_expect_mapping(m, field), field,
                   {"csv": None, "unit": default_unit, "probability": None})
        members.append(AxisMemberRef(
            SeriesRef(_text(mm, field, "csv"), _text(mm, field, "unit")),
            _number(mm, field, "probability")))
    return AxisRef(name, tuple(members))


# the ess keys that size the store, with their defaults; EssSpec holds the
# levels in kWh they give
_ESS_SIZE = {"capacity_kwh": 1000.0, "soc_min_fraction": 0.10,
             "soc_init_fraction": 0.50}


def config_from_dict(doc: dict[str, Any], base_dir: str = ".") -> SiteConfig:
    """Build a SiteConfig from a parsed JSON document (schema errors raise)."""
    doc = _take(_expect_mapping(doc, "config"), "config", {
        "time_grid": {}, "grid": None, "ess": {}, "pv": {}, "peak": {},
        "flexibility": {}, "weights": {}, "fleet": {}, "scenario_axes": None,
    })
    time_grid = _section(doc["time_grid"], "time_grid", TimeGrid)
    if doc["grid"] is None:
        raise ConfigError("section 'grid' is required (p_buy_max_kw, p_sell_max_kw)")
    grid = _section(doc["grid"], "grid", GridSpec)

    e_raw = dict(_expect_mapping(doc["ess"], "ess"))
    size = {key: e_raw.pop(key, default) for key, default in _ESS_SIZE.items()}
    cap, soc_min, soc_init = (_number(size, "ess", key) for key in size)
    ess = _section(e_raw, "ess", EssSpec, soc_max_kwh=cap,
                   soc_min_kwh=cap * soc_min, soc_init_kwh=cap * soc_init)

    pv = _section(doc["pv"], "pv", PvSpec)
    peak = _section(doc["peak"], "peak", PeakPolicy)
    flexibility = _section(doc["flexibility"], "flexibility", FlexPolicy)
    weights = _section(doc["weights"], "weights", ObjectiveWeights)

    fl_raw = dict(_expect_mapping(doc["fleet"], "fleet"))
    car = _section(fl_raw.pop("car", {}), "fleet.car", CarFleetSpec)
    bus = _section(fl_raw.pop("bus", {}), "fleet.bus", BusFleetSpec)
    fleet = _section(fl_raw, "fleet", FleetConfig, car=car, bus=bus)

    if doc["scenario_axes"] is None:
        raise ConfigError("section 'scenario_axes' is required (demand plus axes)")
    ax_raw = _take(_expect_mapping(doc["scenario_axes"], "scenario_axes"),
                   "scenario_axes", {"demand": None, "pv": None, "price": None, "rb": None})
    if ax_raw["demand"] is None:
        raise ConfigError("scenario_axes.demand is required")
    if ax_raw["pv"] is None or ax_raw["price"] is None:
        raise ConfigError("scenario_axes.pv and scenario_axes.price are required")
    data = DataConfig(
        demand=_series_ref(ax_raw["demand"], "scenario_axes.demand", UNIT_KW),
        pv_axis=_axis_ref(ax_raw["pv"], "pv", UNIT_RADIATION),
        price_axis=_axis_ref(ax_raw["price"], "price", UNIT_PRICE),
        rb_axis=None if ax_raw["rb"] is None else _axis_ref(ax_raw["rb"], "rb", UNIT_KW),
    )

    return SiteConfig(time_grid, grid, ess, pv, peak, flexibility, weights,
                      fleet, data, base_dir=base_dir)


def require_valid(cfg: SiteConfig, source: str = "config") -> SiteConfig:
    """``cfg`` itself; ConfigError listing every rule it breaks otherwise."""
    violations = validate_config(cfg)
    if violations:
        raise ConfigError(f"{source} failed validation", violations)
    return cfg


def load_config(path: str | Path) -> SiteConfig:
    """Parse and validate a JSON config file.

    Raises ConfigError on unreadable JSON, schema errors, or rule violations.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return require_valid(config_from_dict(doc, base_dir=str(path.parent)),
                         f"config {path}")


def load_series_csv(path: str | Path, expected_steps: int | None = None,
                    name: str | None = None) -> np.ndarray:
    """Read a ``step,value`` CSV into a read-only float64 array.

    Steps must be 0..n-1 in order and every value a finite number; a
    mismatched row count against ``expected_steps`` is rejected.  The unit is
    the one its series ref declares, checked by ``validate_config``.
    """
    path = Path(path)
    label = name or path.name
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read series {path}: {exc}") from exc
    rows = [row for row in csv.reader(text.splitlines()) if row and row[0].strip()]
    if rows and [c.strip().lower() for c in rows[0][:2]] == ["step", "value"]:
        rows = rows[1:]  # the header row is optional
    values: list[float] = []
    for row in rows:
        try:
            step, value = int(row[0]), float(row[1])
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"series {label}: bad row {row!r}") from exc
        if step != len(values):
            raise ConfigError(f"series {label}: step {step} out of order")
        if not math.isfinite(value):
            raise ConfigError(f"series {label}: step {step} value {value} is not finite")
        values.append(value)
    if expected_steps is not None and len(values) != expected_steps:
        raise ConfigError(
            f"series {label} has {len(values)} steps, expected {expected_steps}")
    return readonly_series(values)


def load_timetable_csv(path: str | Path) -> tuple[float, ...]:
    """Read a one-column ``departure_time`` CSV of HH:MM clock times into
    departure minutes from midnight."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read timetable {path}: {exc}") from exc
    cells = [row[0].strip() for row in csv.reader(text.splitlines()) if row]
    times = [cell for cell in cells if cell and cell.lower() != "departure_time"]
    try:
        return tuple(parse_clock(t) for t in times)
    except ValueError as exc:
        raise ConfigError(f"timetable {path}: {exc}") from exc
