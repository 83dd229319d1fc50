"""Validation and loading behaviour of the typed configuration layer."""
from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from station_ems.config import (
    ConfigError,
    config_from_dict,
    load_config,
    load_series_csv,
    load_timetable_csv,
    validate_config,
)
from station_ems.model import vehicle_entries
from station_ems.types import (
    EssSpec,
    EvClass,
    EvSession,
    TimeGrid,
    parse_clock,
    readonly_series,
    require_nonnegative,
)

MINIMAL = {
    "grid": {"p_buy_max_kw": 4000, "p_sell_max_kw": 500},
    "scenario_axes": {
        "demand": "demand.csv",
        "pv": "radiation.csv",
        "price": "price.csv",
    },
}


def test_time_grid_arithmetic():
    grid = TimeGrid(10.0, 144)
    assert grid.step_hours == pytest.approx(1 / 6)
    assert grid.horizon_minutes == pytest.approx(1440.0)
    # clock times map to steps by flooring
    assert grid.step_of_minutes(0.0) == 0
    assert grid.step_of_minutes(9.999) == 0
    assert grid.step_of_minutes(10.0) == 1
    assert grid.step_of_minutes(450.0) == 45


def test_parse_clock():
    assert parse_clock("00:00") == 0.0
    assert parse_clock("07:30") == 450.0
    assert parse_clock("23:59") == 1439.0
    with pytest.raises(ValueError):
        parse_clock("24:00")
    with pytest.raises(ValueError):
        parse_clock("7h30")
    assert parse_clock(" 06:05\n") == 365.0
    for text in ("06:0x", "6:5", "6:00", "+6:00", " 6 : 00", "06 :00",
                 "\u0660\u0666:\u0660\u0660", "06:00:00", "", "0600"):
        with pytest.raises(ValueError) as err:
            parse_clock(text)
        assert str(err.value) == f"bad clock time {text!r}, expected HH:MM"


def test_readonly_series_shares_only_what_nobody_can_write():
    values = np.array([1.0, 2.0, 3.0])
    frozen = readonly_series(values)
    assert frozen.dtype == np.float64 and not frozen.flags.writeable
    assert not np.shares_memory(frozen, values)   # a writable input is copied
    assert readonly_series(frozen) is frozen      # a read-only one is shared
    assert readonly_series([1, 2]).tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        frozen[0] = 0.0
    require_nonnegative(frozen, "demand")
    with pytest.raises(ValueError,
                       match=r"^demand has negative entries at steps \[1, 3\]$"):
        require_nonnegative(np.array([1.0, -0.5, 0.0, -2.0]), "demand")


def test_ev_session_window_rules():
    ev = EvClass("car", 11.0, 22.0)
    with pytest.raises(ValueError):
        EvSession(0, ev, 5, 5, 10.0)
    with pytest.raises(ValueError):
        EvSession(0, ev, -1, 3, 10.0)
    with pytest.raises(ValueError):
        EvSession(0, ev, 0, 3, 10.0, soc_init_kwh=11.0)
    with pytest.raises(ValueError, match="e_requested_kwh must be >= 0"):
        EvSession(0, ev, 0, 3, -1.0)
    ses = EvSession(0, ev, 2, 6, 10.0)
    owner, steps = vehicle_entries([ses])
    assert owner.tolist() == [0] * 5
    assert steps.tolist() == [2, 3, 4, 5, 6]
    # power after arrival charges the vehicle; the arrival step does not
    assert steps[steps > ses.t_arrival].tolist() == [3, 4, 5, 6]


def test_ess_spec_validation():
    bad = EssSpec(soc_max_kwh=100.0, soc_min_kwh=50.0, soc_init_kwh=20.0,
                  charge_rate_max_kw=10.0, discharge_rate_max_kw=10.0,
                  eta_charge=0.9, eta_discharge=0.9)
    cfg = replace(config_from_dict(json.loads(json.dumps(MINIMAL))), ess=bad)
    fields = {v.field for v in validate_config(cfg)}
    assert any("soc_init" in f for f in fields)


@pytest.mark.parametrize("timetable, offset_max, refused", [
    ("buses.csv", 3.0, True),
    ("buses.csv", 5.0, True),    # half a step rounds to 0 steps
    ("buses.csv", 5.5, False),
    ("", 3.0, False),            # no buses, nothing to place
])
def test_bus_offsets_must_reach_past_half_a_step(timetable, offset_max, refused):
    doc = json.loads(json.dumps(MINIMAL))
    doc["fleet"] = {"bus": {"timetable_csv": timetable,
                            "arrival_offset_min_minutes": 1.0,
                            "arrival_offset_mode_minutes": 2.0,
                            "arrival_offset_max_minutes": offset_max}}
    report = [str(v) for v in validate_config(config_from_dict(doc))]
    assert report == (["fleet.bus.arrival_offset_max_minutes: must exceed 5, "
                       "half of time_grid.step_minutes"] if refused else [])


def test_config_defaults_fill_in():
    cfg = config_from_dict(json.loads(json.dumps(MINIMAL)))
    assert cfg.time_grid.horizon_steps == 144
    assert cfg.ess.soc_max_kwh == 1000.0
    assert cfg.ess.soc_min_kwh == pytest.approx(100.0)
    assert cfg.ess.soc_init_kwh == pytest.approx(500.0)
    assert cfg.pv.rated_power_kw == 1000.0
    assert cfg.peak.p_max_kw == 3000.0
    assert cfg.flexibility.kappa == 0.6
    assert cfg.weights.w_power == 1.0 and cfg.weights.w_theta == 1.0
    assert cfg.fleet.max_sessions == 179
    assert cfg.data.rb_axis is None
    assert validate_config(cfg) == []


def test_config_rejects_unknown_keys():
    doc = json.loads(json.dumps(MINIMAL))
    doc["ess"] = {"capacity_kwh": 500, "bogus": 1}
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict(doc)


def test_config_requires_grid_and_axes():
    with pytest.raises(ConfigError, match="grid"):
        config_from_dict({"scenario_axes": MINIMAL["scenario_axes"]})
    with pytest.raises(ConfigError, match="scenario_axes"):
        config_from_dict({"grid": MINIMAL["grid"]})
    with pytest.raises(ConfigError, match=r"^grid\.p_buy_max_kw is required$"):
        config_from_dict({**MINIMAL, "grid": {"p_sell_max_kw": 500}})
    axes = MINIMAL["scenario_axes"]
    with pytest.raises(ConfigError, match=r"^scenario_axes\.demand is required$"):
        config_from_dict({**MINIMAL, "scenario_axes": {**axes, "demand": None}})
    with pytest.raises(ConfigError, match=r"^scenario_axes\.pv and "
                       r"scenario_axes\.price are required$"):
        config_from_dict({**MINIMAL, "scenario_axes": {**axes, "price": None}})


@pytest.mark.parametrize("members, field, message", [
    ([{"csv": "a.csv", "probability": 0.7}, {"csv": "b.csv", "probability": 0.7}],
     "scenario_axes.pv", "probabilities sum to 1.4, expected 1"),
    ([], "scenario_axes.pv", "needs at least one member"),
    ([{"csv": "a.csv", "probability": 1.5}, {"csv": "b.csv", "probability": -0.5}],
     "scenario_axes.pv[0].probability", "must lie in (0, 1]"),
], ids=["sum", "no member", "outside (0, 1]"])
def test_axis_member_probabilities_checked(members, field, message):
    doc = json.loads(json.dumps(MINIMAL))
    doc["scenario_axes"]["pv"] = {"members": members}
    cfg = config_from_dict(doc)
    violations = validate_config(cfg)
    assert any((v.field, v.message) == (field, message) for v in violations), \
        violations


# breaks at least one rule of every section, car and bus included
BROKEN = {
    "time_grid": {"step_minutes": 0, "horizon_steps": 0},
    "grid": {"p_buy_max_kw": 0, "p_sell_max_kw": -1},
    "ess": {"capacity_kwh": -5, "charge_rate_max_kw": -1,
            "discharge_rate_max_kw": -1, "eta_charge": 0, "eta_discharge": 1.5,
            "self_discharge_rate": 1},
    "pv": {"rated_power_kw": -1, "radiation_certain_w_per_m2": 0,
           "radiation_standard_w_per_m2": 0},
    "peak": {"p_max_kw": 0},
    "flexibility": {"kappa": 1.5},
    "weights": {"w_power": -1, "w_theta": -1},
    "fleet": {
        "car": {"arrival_rate_per_hour": -1, "energy_min_kwh": 60,
                "window_start": "6:00", "p_nominal_kw": 0, "p_max_kw": -1,
                "eta": 0, "departure_offset_hours": -1,
                "departure_offset_mode_hours": 0.5},
        "bus": {"timetable_csv": "buses.csv", "p_nominal_kw": -1,
                "p_max_kw": -2, "eta": 2, "energy_min_kwh": 400,
                "arrival_offset_min_minutes": 0,
                "arrival_offset_mode_minutes": 70},
        "max_sessions": -1, "seed": -1},
    "scenario_axes": {
        "demand": {"csv": "demand.csv", "unit": "MW"},
        "pv": {"members": [
            {"csv": "a.csv", "unit": "kW", "probability": 1.5},
            {"csv": "b.csv", "probability": -0.2}]},
        "price": {"members": []},
        "rb": {"members": [
            {"csv": "rb.csv", "unit": "per_kWh", "probability": 1}]}},
}
BROKEN_REPORT = [
    "time_grid.step_minutes: must be > 0",
    "time_grid.horizon_steps: must be > 0",
    "grid.p_buy_max_kw: must be > 0",
    "grid.p_sell_max_kw: must be >= 0",
    "ess.soc_max_kwh: must be > 0",
    "ess.soc_min_kwh: must lie in [0, soc_max_kwh]",
    "ess.soc_init_kwh: must lie in [soc_min_kwh, soc_max_kwh]",
    "ess.charge_rate_max_kw: must be >= 0",
    "ess.discharge_rate_max_kw: must be >= 0",
    "ess.eta_charge: must lie in (0, 1]",
    "ess.eta_discharge: must lie in (0, 1]",
    "ess.self_discharge_rate: must lie in [0, 1)",
    "pv.rated_power_kw: must be >= 0",
    "pv.radiation_certain_w_per_m2: must be > 0",
    "pv.radiation_standard_w_per_m2: must exceed radiation_certain_w_per_m2",
    "peak.p_max_kw: must be > 0",
    "flexibility.kappa: must lie in [0, 1]",
    "weights.w_power: must be >= 0",
    "weights.w_theta: must be >= 0",
    "fleet.car.p_nominal_kw: must be > 0",
    "fleet.car.p_max_kw: must be >= p_nominal_kw",
    "fleet.car.eta: must lie in (0, 1]",
    "fleet.car.arrival_rate_per_hour: must be >= 0",
    "fleet.car.energy_min_kwh: must lie in [0, energy_max_kwh]",
    "fleet.car.window_start: bad clock time '6:00', expected HH:MM",
    "fleet.car.departure_offset_hours: must be >= 0",
    "fleet.car.departure_offset_mode_hours: mode must lie within "
    "+-departure_offset_hours",
    "fleet.bus.p_nominal_kw: must be > 0",
    "fleet.bus.p_max_kw: must be >= p_nominal_kw",
    "fleet.bus.eta: must lie in (0, 1]",
    "fleet.bus.energy_min_kwh: must lie in [0, energy_max_kwh]",
    "fleet.bus.arrival_offset_min_minutes: must lie in "
    "(0, arrival_offset_max_minutes]",
    "fleet.bus.arrival_offset_mode_minutes: mode must lie within the offset "
    "range",
    "fleet.max_sessions: must be >= 0",
    "fleet.seed: must be >= 0",
    "data.demand: unit tag 'MW', expected 'kW'",
    "scenario_axes.pv[0].probability: must lie in (0, 1]",
    "scenario_axes.pv[1].probability: must lie in (0, 1]",
    "scenario_axes.pv: probabilities sum to 1.3, expected 1",
    "scenario_axes.pv[0]: unit tag 'kW', expected 'W_per_m2'",
    "scenario_axes.price: needs at least one member",
    "scenario_axes.rb[0]: unit tag 'per_kWh', expected 'kW'",
]


@pytest.mark.parametrize("doc, report", [
    (BROKEN, BROKEN_REPORT),
    ({**MINIMAL, "fleet": {"car": {"window_start": "22:00",
                                   "window_end": "06:00"}}},
     ["fleet.car.window_start: must precede window_end"]),
    ({**MINIMAL, "time_grid": {"horizon_steps": 60}},
     ["fleet.car.window_end: must not pass the end of the time grid, "
      "600 minutes after 00:00"]),
], ids=["every section", "reversed car window", "window past the grid"])
def test_validate_config_reports_every_broken_rule_in_order(doc, report):
    assert [str(v) for v in validate_config(config_from_dict(doc))] == report


def test_load_config_round_trip(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    path = tmp_path / "site.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.grid.p_buy_max_kw == 4000.0
    assert cfg.base_dir == str(tmp_path)
    assert cfg.resolve("demand.csv") == tmp_path / "demand.csv"
    echoed = cfg.to_dict()
    assert "base_dir" not in echoed
    assert echoed["grid"]["p_buy_max_kw"] == 4000.0


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_series_csv(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("step,value\n0,1.5\n1,2.5\n2,0\n")
    series = load_series_csv(path, expected_steps=3)
    assert series.dtype == np.float64 and not series.flags.writeable
    assert series.tolist() == [1.5, 2.5, 0.0]
    # header is optional
    path.write_text("0,1.0\n1,2.0\n")
    assert len(load_series_csv(path)) == 2


def test_load_series_csv_rejects_gaps(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("0,1.0\n2,2.0\n")
    with pytest.raises(ConfigError, match="out of order"):
        load_series_csv(path)
    path.write_text("0,1.0\n1,2.0\n")
    with pytest.raises(ConfigError, match="expected"):
        load_series_csv(path, expected_steps=3)
    with pytest.raises(ConfigError):
        load_series_csv(tmp_path / "missing.csv")
    path.write_text("0,1.0\n1,x\n")
    with pytest.raises(ConfigError, match=r"^series s\.csv: bad row \['1', 'x'\]$"):
        load_series_csv(path)


def test_load_timetable_csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("departure_time\n07:30\n09:00\n")
    table = load_timetable_csv(path)
    assert table == (450.0, 540.0)
    path.write_text("departure_time\n25:00\n")
    with pytest.raises(ConfigError):
        load_timetable_csv(path)
    with pytest.raises(ConfigError, match="^cannot read timetable"):
        load_timetable_csv(tmp_path / "missing.csv")


# every scalar config key, by section and JSON kind, listed here rather than
# read off the dataclasses so that a field dropped from the reader shows
NUMBER_KEYS = {
    "time_grid": ["step_minutes"],
    "grid": ["p_buy_max_kw", "p_sell_max_kw"],
    "ess": ["capacity_kwh", "soc_min_fraction", "soc_init_fraction",
            "charge_rate_max_kw", "discharge_rate_max_kw", "eta_charge",
            "eta_discharge", "self_discharge_rate"],
    "pv": ["rated_power_kw", "radiation_certain_w_per_m2",
           "radiation_standard_w_per_m2"],
    "peak": ["p_max_kw"],
    "flexibility": ["kappa"],
    "weights": ["w_power", "w_theta"],
    "fleet.car": ["arrival_rate_per_hour", "energy_min_kwh", "energy_max_kwh",
                  "p_nominal_kw", "p_max_kw", "eta", "departure_offset_hours",
                  "departure_offset_mode_hours"],
    "fleet.bus": ["energy_min_kwh", "energy_max_kwh", "p_nominal_kw",
                  "p_max_kw", "eta", "arrival_offset_min_minutes",
                  "arrival_offset_max_minutes", "arrival_offset_mode_minutes"],
    "scenario_axes.pv[0]": ["probability"],
}
INTEGER_KEYS = {"time_grid": ["horizon_steps"],
                "fleet": ["max_sessions", "seed"]}
FLAG_KEYS = {"ess": ["discharge_efficiency_divides", "terminal_equals_initial"]}
TEXT_KEYS = {"fleet.car": ["window_start", "window_end"],
             "fleet.bus": ["timetable_csv"],
             "scenario_axes.demand": ["csv", "unit"],
             "scenario_axes.pv[0]": ["csv", "unit"]}

NAN, INF = float("nan"), float("inf")
NOT_A_NUMBER = ["1", True, False, None, [1], {"v": 1}, NAN, INF, -INF]
WRONG_KINDS = [
    (NUMBER_KEYS, NOT_A_NUMBER),
    (INTEGER_KEYS, NOT_A_NUMBER + [1.5]),
    (FLAG_KEYS, ["true", "false", 1, 0, None, [True], {"v": True}, NAN, INF, -INF]),
    (TEXT_KEYS, [1, True, None, ["a.csv"], {"v": "a.csv"}, NAN, INF, -INF]),
]
KIND_CASES = [(f"{section}.{key}", value)
              for keys, values in WRONG_KINDS
              for section, names in keys.items() for key in names
              for value in values]
# a section, a series ref and a member list of the wrong JSON kind
KIND_CASES += [("fleet.car", 5), ("scenario_axes.demand", 5),
               ("scenario_axes.pv.members", "a.csv")]


def with_value(field: str, value):
    """MINIMAL with every section in mapping form and ``field`` set."""
    doc = json.loads(json.dumps(MINIMAL))
    doc["scenario_axes"]["demand"] = {"csv": "demand.csv"}
    doc["scenario_axes"]["pv"] = {"members": [
        {"csv": "radiation.csv", "probability": 1.0}]}
    *path, key = field.replace("[0]", ".members.0").split(".")
    node = doc
    for part in path:
        node = node[int(part)] if part.isdigit() else node.setdefault(part, {})
    node[key] = value
    return doc


def test_every_listed_key_reads_a_right_value():
    for keys, value in [(NUMBER_KEYS, 1.0), (INTEGER_KEYS, 1),
                        (FLAG_KEYS, True), (TEXT_KEYS, "06:00")]:
        for section, names in keys.items():
            for key in names:
                config_from_dict(with_value(f"{section}.{key}", value))


@pytest.mark.parametrize("field, value", KIND_CASES,
                         ids=[f"{f}={v!r}" for f, v in KIND_CASES])
def test_config_refuses_every_wrong_json_kind(field, value):
    with pytest.raises(ConfigError) as info:
        config_from_dict(with_value(field, value))
    assert field in str(info.value)
