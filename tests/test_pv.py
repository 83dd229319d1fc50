"""Plant output transform: quadratic low-light branch, linear branch, clamp."""
from __future__ import annotations

import numpy as np
import pytest

from station_ems.pv import pv_power, pv_series
from station_ems.types import PvSpec

SPEC = PvSpec(rated_power_kw=1000.0, radiation_certain_w_per_m2=150.0,
              radiation_standard_w_per_m2=1000.0)


def reference_curve(beta: float, spec: PvSpec) -> float:
    # independent restatement of the two-branch curve
    if beta < 0:
        raise ValueError
    if beta < spec.radiation_certain_w_per_m2:
        return (spec.rated_power_kw * beta * beta
                / (spec.radiation_certain_w_per_m2
                   * spec.radiation_standard_w_per_m2))
    return spec.rated_power_kw * min(beta / spec.radiation_standard_w_per_m2, 1.0)


def test_known_points():
    assert pv_power(0.0, SPEC) == 0.0
    # halfway into the low-light branch: 1000 * 75^2 / (150 * 1000)
    assert pv_power(75.0, SPEC) == pytest.approx(37.5, abs=1e-12)
    assert pv_power(150.0, SPEC) == pytest.approx(150.0, abs=1e-9)
    assert pv_power(500.0, SPEC) == pytest.approx(500.0, abs=1e-9)
    assert pv_power(1000.0, SPEC) == pytest.approx(1000.0, abs=1e-9)
    assert pv_power(1400.0, SPEC) == pytest.approx(1000.0, abs=1e-12)


def test_rejects_negative_radiation():
    with pytest.raises(ValueError):
        pv_power(-1.0, SPEC)


def test_monotone_nondecreasing():
    grid = np.linspace(0.0, 1500.0, 4001)
    vals = [pv_power(b, SPEC) for b in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_branch_continuity():
    for knee in (SPEC.radiation_certain_w_per_m2,
                 SPEC.radiation_standard_w_per_m2):
        below = pv_power(knee - 1e-6, SPEC)
        above = pv_power(knee + 1e-6, SPEC)
        assert abs(above - below) <= 1e-3


def test_matches_reference_curve():
    rng = np.random.default_rng(42)
    for beta in rng.uniform(0.0, 1600.0, 2000):
        assert pv_power(float(beta), SPEC) == pytest.approx(
            reference_curve(float(beta), SPEC), rel=1e-12, abs=1e-12)


def test_series_transform_matches_pointwise():
    radiation = np.array([0.0, 30.0, 149.9, 150.1, 800.0, 1200.0])
    out = pv_series(radiation, SPEC)
    assert out.dtype == np.float64 and not out.flags.writeable
    assert len(out) == len(radiation)
    for got, beta in zip(out.tolist(), radiation.tolist()):
        assert got == pytest.approx(pv_power(beta, SPEC), abs=1e-12)
