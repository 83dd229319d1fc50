"""Radiation-to-power transform for the PV plant.

The output curve has three regimes: quadratic ramp-up below the certainty
threshold, linear growth up to standard radiation, and rated output above it.
Interval edges are half-open, so each threshold belongs to the branch above
it; the curve is continuous at both thresholds.  A radiation series (W/m2)
maps to a read-only float64 array of plant output (kW).
"""
from __future__ import annotations

import numpy as np

from .types import PvSpec, readonly_series, require_nonnegative


def _plant_curve(beta, spec: PvSpec):
    """Plant output (kW) of radiation ``beta`` (W/m2), elementwise."""
    r_c = spec.radiation_certain_w_per_m2
    r_std = spec.radiation_standard_w_per_m2
    return np.where(
        beta < r_c,
        beta * beta * (spec.rated_power_kw / (r_c * r_std)),
        np.where(beta < r_std, beta * (spec.rated_power_kw / r_std), spec.rated_power_kw),
    )


def pv_series(radiation, spec: PvSpec) -> np.ndarray:
    """Apply the transform to a radiation series, yielding plant output in kW."""
    beta = np.asarray(radiation, dtype=np.float64)
    require_nonnegative(beta, "radiation")
    return readonly_series(_plant_curve(beta, spec))
