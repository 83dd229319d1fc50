"""Radiation-to-power transform for the PV plant.

The output curve has three regimes: quadratic ramp-up below the certainty
threshold, linear growth up to standard radiation, and rated output above it.
Interval edges are half-open, so each threshold belongs to the branch above
it; the curve is continuous at both thresholds.
"""
from __future__ import annotations

import numpy as np

from .types import PvSpec, TimeSeries, UNIT_KW, UNIT_RADIATION


def _plant_curve(beta, spec: PvSpec):
    """Plant output (kW) of radiation ``beta`` (W/m2), elementwise."""
    r_c = spec.radiation_certain_w_per_m2
    r_std = spec.radiation_standard_w_per_m2
    return np.where(
        beta < r_c,
        beta * beta * (spec.rated_power_kw / (r_c * r_std)),
        np.where(beta < r_std, beta * (spec.rated_power_kw / r_std), spec.rated_power_kw),
    )


def pv_power(radiation_w_per_m2: float, spec: PvSpec) -> float:
    """Plant output (kW) for one radiation sample (W/m2)."""
    beta = float(radiation_w_per_m2)
    if beta < 0:
        raise ValueError(f"radiation must be >= 0, got {beta}")
    return float(_plant_curve(beta, spec))


def pv_series(radiation: TimeSeries, spec: PvSpec) -> TimeSeries:
    """Apply the transform to a radiation series, yielding plant output in kW."""
    if radiation.unit != UNIT_RADIATION:
        raise ValueError(f"expected a {UNIT_RADIATION} series, got {radiation.unit!r}")
    radiation.require_nonnegative("radiation")
    return TimeSeries.of(_plant_curve(radiation.as_array(), spec), UNIT_KW)
