"""Scenario tree over PV output, energy price, and recovered braking power.

The tree is the full cross product of three independent axes; each scenario's
probability is the product of its members' probabilities.  Train demand is
shared by all scenarios, and the selling price follows the buying price.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .types import TimeSeries, UNIT_KW, UNIT_PRICE


@dataclass(frozen=True)
class AxisMember:
    """One realisation on an axis, with its occurrence probability."""

    payload: TimeSeries
    probability: float
    label: str = ""


@dataclass(frozen=True)
class ScenarioAxis:
    name: str
    members: tuple[AxisMember, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"axis {self.name!r} needs at least one member")
        for m in self.members:
            if not 0 < m.probability <= 1:
                raise ValueError(
                    f"axis {self.name!r}: probability {m.probability} outside (0, 1]")
        total = sum(m.probability for m in self.members)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"axis {self.name!r}: probabilities sum to {total!r}, expected 1")

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Scenario:
    """One joint realisation of the uncertain inputs."""

    index: int
    probability: float
    demand: TimeSeries          # train demand, kW, >= 0
    rb_available: TimeSeries    # recoverable braking power offered to the store, kW
    pv: TimeSeries              # plant output, kW
    price_buy: TimeSeries       # currency per kWh
    price_sell: TimeSeries      # currency per kWh
    label: str = ""

    def __post_init__(self) -> None:
        if not 0 < self.probability <= 1:
            raise ValueError(f"scenario {self.index}: probability outside (0, 1]")
        n = len(self.demand)
        for name in ("rb_available", "pv", "price_buy", "price_sell"):
            series: TimeSeries = getattr(self, name)
            if len(series) != n:
                raise ValueError(
                    f"scenario {self.index}: {name} has {len(series)} steps, expected {n}")
        self.demand.require_nonnegative("demand")
        self.rb_available.require_nonnegative("rb_available")
        self.pv.require_nonnegative("pv")


@dataclass(frozen=True)
class ScenarioSet:
    """Cross-product tree; probabilities sum to one."""

    scenarios: tuple[Scenario, ...]

    def __post_init__(self) -> None:
        total = sum(s.probability for s in self.scenarios)
        if self.scenarios and abs(total - 1.0) > 1e-9:
            raise ValueError(f"scenario probabilities sum to {total!r}, expected 1")

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    def __getitem__(self, k: int) -> Scenario:
        return self.scenarios[k]


def split_demand(raw: TimeSeries) -> tuple[TimeSeries, TimeSeries]:
    """Split a signed feeder measurement into consumption and braking power.

    Negative readings mean the trains are feeding power back; the split is
    lossless: consumption - braking == raw, elementwise.
    """
    values = raw.as_array()
    demand = np.maximum(values, 0.0)
    braking = np.maximum(-values, 0.0)
    return TimeSeries.of(demand, UNIT_KW), TimeSeries.of(braking, UNIT_KW)


def build_tree(
    pv_axis: ScenarioAxis,
    price_axis: ScenarioAxis,
    rb_axis: ScenarioAxis,
    base_demand: TimeSeries,
) -> ScenarioSet:
    """Cross the three axes into a scenario set.

    PV members must already be plant output in kW.  The selling price of each
    scenario equals its buying price.  Scenario indices run in row-major
    order (pv outermost, rb innermost).
    """
    base_demand.require_nonnegative("base_demand")
    n = len(base_demand)
    for axis, expected_unit in ((pv_axis, UNIT_KW), (price_axis, UNIT_PRICE),
                                (rb_axis, UNIT_KW)):
        for m in axis.members:
            if m.payload.unit != expected_unit:
                raise ValueError(
                    f"axis {axis.name!r}: member unit {m.payload.unit!r}, "
                    f"expected {expected_unit!r}")
            m.payload.require_length(n, f"axis {axis.name!r} member")

    scenarios: list[Scenario] = []
    index = 0
    for pv_m in pv_axis.members:
        for price_m in price_axis.members:
            for rb_m in rb_axis.members:
                prob = pv_m.probability * price_m.probability * rb_m.probability
                label = "/".join(x for x in (pv_m.label, price_m.label, rb_m.label) if x)
                scenarios.append(Scenario(
                    index=index,
                    probability=prob,
                    demand=base_demand,
                    rb_available=rb_m.payload,
                    pv=pv_m.payload,
                    price_buy=price_m.payload,
                    price_sell=price_m.payload,
                    label=label,
                ))
                index += 1
    return ScenarioSet(tuple(scenarios))


def single_scenario_axis(name: str, payload: TimeSeries, label: str = "") -> ScenarioAxis:
    return ScenarioAxis(name, (AxisMember(payload, 1.0, label),))


def single_scenario_set(sc: Scenario) -> ScenarioSet:
    """One tree leaf as a set of its own, at probability 1."""
    return ScenarioSet((replace(sc, probability=1.0),))
