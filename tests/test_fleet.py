"""Session sampling, flexibility windows, and the greedy baseline profile."""
from __future__ import annotations

import math

import numpy as np
import pytest

from station_ems.config import CarFleetSpec
from station_ems.fleet import (
    flex_bounds,
    fulfillment_time,
    sample_bus_sessions,
    sample_car_sessions,
    uncoordinated_profile,
)
from station_ems.types import EvClass, EvSession, TimeGrid

GRID = TimeGrid(10.0, 144)


def test_fulfillment_time_exact():
    car = EvClass("car", 11.0, 22.0, 1.0)
    # 30 kWh at 11 kW and 10-minute steps: 30 / (11/6) = 16.36 -> 17 steps
    ses = EvSession(0, car, 10, 40, 30.0)
    assert fulfillment_time(ses, GRID) == 17
    # an exact multiple must not round up: 11 kWh -> 6 steps
    ses = EvSession(1, car, 10, 40, 11.0)
    assert fulfillment_time(ses, GRID) == 6
    ses = EvSession(2, car, 10, 40, 5.0, soc_init_kwh=5.0)
    assert fulfillment_time(ses, GRID) == 0
    idle = EvClass("car", 0.0, 22.0, 1.0)
    with pytest.raises(ValueError, match="nominal charging power must be > 0"):
        fulfillment_time(EvSession(3, idle, 10, 40, 5.0), GRID)


def test_flex_bounds_car():
    car = EvClass("car", 11.0, 22.0, 1.0)
    # 3-hour stay: nominal deliverable 33, max deliverable 66
    ses = EvSession(0, car, 0, 18, 30.0)
    lo, hi = flex_bounds(ses, 0.6, GRID)
    assert hi == pytest.approx(30.0)          # request caps the ceiling
    assert lo == pytest.approx(0.6 * 30.0)    # nominal also covers the request
    ses = EvSession(1, car, 0, 6, 30.0)       # 1-hour stay, starved window
    lo, hi = flex_bounds(ses, 0.6, GRID)
    assert hi == pytest.approx(22.0)          # max-power ceiling binds
    assert lo == pytest.approx(0.6 * 11.0)    # nominal floor binds


def test_flex_bounds_eta_scales_deliverable():
    car = EvClass("car", 11.0, 22.0, 0.9)
    ses = EvSession(0, car, 0, 6, 30.0)
    lo, hi = flex_bounds(ses, 0.5, GRID)
    assert hi == pytest.approx(0.9 * 22.0)
    assert lo == pytest.approx(0.5 * 0.9 * 11.0)


def test_flex_bounds_kappa_range():
    car = EvClass("car", 11.0, 22.0, 1.0)
    ses = EvSession(0, car, 0, 6, 30.0)
    with pytest.raises(ValueError):
        flex_bounds(ses, 1.5, GRID)
    lo0, _ = flex_bounds(ses, 0.0, GRID)
    lo1, hi1 = flex_bounds(ses, 1.0, GRID)
    assert lo0 == 0.0
    assert lo1 <= hi1 + 1e-12


def test_car_sampling_is_deterministic_and_in_window():
    a = sample_car_sessions(GRID, 123)
    b = sample_car_sessions(GRID, 123)
    assert [(s.t_arrival, s.t_departure, s.e_requested_kwh) for s in a] \
        == [(s.t_arrival, s.t_departure, s.e_requested_kwh) for s in b]
    start = GRID.step_of_minutes(6 * 60)
    for s in a:
        assert start <= s.t_arrival < GRID.horizon_steps - 1
        assert s.t_arrival < s.t_departure <= GRID.horizon_steps - 1
        assert 10.0 <= s.e_requested_kwh <= 50.0
        assert s.theta_min_kwh <= s.theta_max_kwh + 1e-12


def test_car_sampling_without_departure_slack_leaves_when_fulfilled():
    spec = CarFleetSpec(departure_offset_hours=0.0)
    sessions = sample_car_sessions(GRID, 123, spec=spec)
    assert sessions
    for s in sessions:
        assert s.t_departure == min(s.t_arrival + fulfillment_time(s, GRID),
                                    GRID.horizon_steps - 1)


@pytest.mark.parametrize("start, end, problem", [
    ("10:00", "10:00", "car window start must precede its end"),
    ("10:00", "23:00", "car window does not fit inside the time grid"),
])
def test_car_sampling_refuses_a_window_off_the_grid(start, end, problem):
    spec = CarFleetSpec(window_start=start, window_end=end)
    with pytest.raises(ValueError, match=f"^{problem}$"):
        sample_car_sessions(TimeGrid(10.0, 132), 1, spec=spec)


def test_car_count_concentrates_near_rate():
    # 4 per hour over a 16-hour window: far from 0 and from double
    counts = [len(sample_car_sessions(GRID, seed)) for seed in range(40)]
    assert all(40 <= c <= 90 for c in counts)
    assert 55 <= np.mean(counts) <= 75


def test_bus_sampling_follows_timetable():
    sessions = sample_bus_sessions((450.0, 540.0, 1090.0), GRID, 5)
    assert len(sessions) == 3
    deps = [s.t_departure for s in sessions]
    assert deps == [45, 54, 109]
    for s in sessions:
        assert s.t_arrival < s.t_departure
        # offsets of 10..60 minutes put the arrival 1 to 6 steps earlier
        assert s.t_departure - s.t_arrival <= 6
        assert 100.0 <= s.e_requested_kwh <= 300.0


def test_bus_sampling_rejects_departure_outside_grid():
    short = TimeGrid(10.0, 2)
    with pytest.raises(ValueError):
        sample_bus_sessions((20.0,), short, 5)


def test_bus_sampling_refuses_a_departure_in_step_0_not_the_offsets():
    # no offset can serve a departure before 00:10 on a 10-minute grid
    with pytest.raises(ValueError, match=r"^bus departure at 5 min falls in "
                       r"step 0, which leaves no earlier step to arrive in$"):
        sample_bus_sessions((450.0, 5.0), GRID, 1)


def test_uncoordinated_profile_exact_small_case():
    car = EvClass("car", 11.0, 22.0, 1.0)
    grid = TimeGrid(10.0, 10)
    # 5.5 kWh at 11 kW: 3 steps of charging from arrival
    sessions = [EvSession(0, car, 2, 8, 5.5),
                EvSession(1, car, 3, 6, 5.5),
                EvSession(2, car, 3, 4, 99.0)]   # leaves before it finishes
    load = uncoordinated_profile(sessions, grid)
    expected = np.zeros(10)
    expected[2:5] += 11.0
    expected[3:6] += 11.0
    expected[3:5] += 11.0
    assert load == pytest.approx(expected)


def test_uncoordinated_profile_respects_fulfilled_sessions():
    car = EvClass("car", 11.0, 22.0, 1.0)
    grid = TimeGrid(10.0, 6)
    ses = EvSession(0, car, 1, 5, 4.0, soc_init_kwh=4.0)
    assert uncoordinated_profile([ses], grid) == pytest.approx(np.zeros(6))
