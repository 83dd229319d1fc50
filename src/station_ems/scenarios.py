"""Scenario tree over PV output, energy price, and recovered braking power.

The tree is the full cross product of three independent axes, each a tuple
of members; each scenario's probability is the product of its members'
probabilities.  The probability rules are ``config.validate_config``'s, which
checks each axis where the config enters; no leaf is checked again.  Train
demand is shared by all scenarios, and the selling price follows the buying
price.  Every series is a read-only float64 array, so one member's array backs
every scenario that member is part of.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .types import readonly_series, require_nonnegative

_SERIES = ("demand", "rb_available", "pv", "price_buy", "price_sell")


@dataclass(frozen=True, eq=False)
class AxisMember:
    """One realisation on an axis, with its occurrence probability."""

    payload: np.ndarray
    probability: float
    label: str = ""


@dataclass(frozen=True, eq=False)
class Scenario:
    """One joint realisation of the uncertain inputs.

    Each series is stored as a read-only float64 array (``readonly_series``).
    """

    index: int
    probability: float
    demand: np.ndarray          # train demand, kW, >= 0
    rb_available: np.ndarray    # recoverable braking power offered to the store, kW
    pv: np.ndarray              # plant output, kW
    price_buy: np.ndarray       # currency per kWh
    price_sell: np.ndarray      # currency per kWh
    label: str = ""

    def __post_init__(self) -> None:
        for name in _SERIES:
            object.__setattr__(self, name, readonly_series(getattr(self, name)))
        n = len(self.demand)
        for name in _SERIES[1:]:
            if len(getattr(self, name)) != n:
                raise ValueError(f"scenario {self.index}: {name} has "
                                 f"{len(getattr(self, name))} steps, expected {n}")
        for name in ("demand", "rb_available", "pv"):
            require_nonnegative(getattr(self, name), name)


# the cross-product tree, in ``build_tree``'s order
ScenarioSet = tuple[Scenario, ...]


def split_demand(raw) -> tuple[np.ndarray, np.ndarray]:
    """Split a signed feeder measurement into consumption and braking power.

    Negative readings mean the trains are feeding power back; the split is
    lossless: consumption - braking == raw, elementwise.
    """
    values = np.asarray(raw, dtype=np.float64)
    return (readonly_series(np.maximum(values, 0.0)),
            readonly_series(np.maximum(-values, 0.0)))


def build_tree(
    pv: tuple[AxisMember, ...],
    price: tuple[AxisMember, ...],
    rb: tuple[AxisMember, ...],
    base_demand: np.ndarray,
) -> ScenarioSet:
    """Cross the three member tuples into a scenario set.

    PV members must already be plant output in kW.  Each scenario's
    probability is the product of its members'.  The selling price of each
    scenario equals its buying price.  Scenario indices run in row-major
    order (pv outermost, rb innermost).  Each ``Scenario`` checks the
    lengths and signs of its series.
    """
    base_demand = readonly_series(base_demand)
    return tuple(
        Scenario(index=index,
                 probability=pv_m.probability * price_m.probability * rb_m.probability,
                 demand=base_demand, rb_available=rb_m.payload, pv=pv_m.payload,
                 price_buy=price_m.payload, price_sell=price_m.payload,
                 label="/".join(m.label for m in (pv_m, price_m, rb_m) if m.label))
        for index, (pv_m, price_m, rb_m) in enumerate(product(pv, price, rb)))
