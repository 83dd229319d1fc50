"""Scenario axes, the demand sign split, and cross-product bookkeeping."""
from __future__ import annotations

import numpy as np
import pytest

from station_ems.scenarios import (
    AxisMember,
    Scenario,
    ScenarioAxis,
    ScenarioSet,
    build_tree,
    single_scenario_axis,
    split_demand,
)


def axis(name, specs):
    return ScenarioAxis(name, tuple(
        AxisMember(np.array(v), p, label) for v, p, label in specs))


def test_split_demand_is_lossless():
    raw = np.array([100.0, -40.0, 0.0, -0.5, 250.0])
    demand, braking = split_demand(raw)
    assert demand.tolist() == [100.0, 0.0, 0.0, 0.0, 250.0]
    assert braking.tolist() == [0.0, 40.0, 0.0, 0.5, 0.0]
    assert demand - braking == pytest.approx(raw)
    assert np.all(demand >= 0) and np.all(braking >= 0)
    assert not demand.flags.writeable and not braking.flags.writeable


def test_axis_probability_must_sum_to_one():
    with pytest.raises(ValueError, match="sum"):
        axis("pv", [([1.0], 0.5, "a"), ([2.0], 0.4, "b")])
    with pytest.raises(ValueError, match="probability"):
        axis("pv", [([1.0], 0.0, "a"), ([2.0], 1.0, "b")])
    with pytest.raises(ValueError, match="member"):
        ScenarioAxis("pv", ())


def test_tree_row_major_order_and_member_product():
    pv = axis("pv", [([10.0], 0.6, "hi"), ([5.0], 0.4, "lo")])
    price = axis("price", [([0.1], 0.7, "cheap"), ([0.3], 0.3, "dear")])
    rb = axis("rb", [([8.0], 0.5, "r1"), ([2.0], 0.5, "r2")])
    demand = np.array([100.0])
    tree = build_tree(pv, price, rb, demand)
    assert len(tree) == 8
    labels = [s.label for s in tree]
    # pv outermost, rb innermost
    assert labels[0] == "hi/cheap/r1"
    assert labels[1] == "hi/cheap/r2"
    assert labels[2] == "hi/dear/r1"
    assert labels[4] == "lo/cheap/r1"
    assert [s.index for s in tree] == list(range(8))
    probs = [s.probability for s in tree]
    assert probs[0] == pytest.approx(0.6 * 0.7 * 0.5)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    # every leaf sells at its buying price
    for s in tree:
        assert s.price_sell.tolist() == s.price_buy.tolist()


def test_tree_rejects_wrong_lengths_and_signs():
    demand = np.array([100.0, 90.0])
    pv = axis("pv", [([10.0, 10.0], 1.0, "p")])
    price = axis("price", [([0.1, 0.1], 1.0, "c")])
    rb = axis("rb", [([0.0, 0.0], 1.0, "r")])
    short = axis("rb", [([0.0], 1.0, "r")])
    with pytest.raises(ValueError, match=r"rb_available has 1 steps, expected 2"):
        build_tree(pv, price, short, demand)
    signed = np.array([100.0, -1.0])
    with pytest.raises(ValueError, match=r"^demand has negative entries at steps \[1\]"):
        build_tree(pv, price, rb, signed)
    for name in ("pv", "rb"):
        negative = axis(name, [([0.0, -3.0], 1.0, "n")])
        axes = {"pv": pv, "price": price, "rb": rb, name: negative}
        with pytest.raises(ValueError, match=r"negative entries at steps \[1\]"):
            build_tree(axes["pv"], axes["price"], axes["rb"], demand)


def test_single_scenario_axis():
    ax = single_scenario_axis("rb", np.array([1.0, 2.0]), "only")
    assert len(ax.members) == 1
    assert ax.members[0].probability == 1.0
    assert ax.members[0].label == "only"


def test_scenario_set_guards_probability_total():
    s = Scenario(0, 0.5, [1.0], [0.0], [0.0], [0.1], [0.1])
    with pytest.raises(ValueError, match="sum"):
        ScenarioSet((s,))
    for p in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"^scenario 3: probability "
                           r"outside \(0, 1\]$"):
            Scenario(3, p, [1.0], [0.0], [0.0], [0.1], [0.1])


def test_large_cross_product_probabilities():
    def uniform_axis(name, k, value):
        return ScenarioAxis(name, tuple(
            AxisMember(np.array([value]), 1.0 / k, f"{name}{j}")
            for j in range(k)))

    pv = uniform_axis("pv", 4, 10.0)
    price = uniform_axis("price", 5, 0.2)
    rb = uniform_axis("rb", 5, 1.0)
    tree = build_tree(pv, price, rb, np.array([50.0]))
    assert len(tree) == 100
    probs = np.array([s.probability for s in tree])
    assert probs == pytest.approx(np.full(100, 0.01), abs=1e-15)
    assert abs(probs.sum() - 1.0) <= 1e-9
