"""Axis member tuples, the demand sign split, and cross-product bookkeeping."""
from __future__ import annotations

import numpy as np
import pytest

from station_ems.scenarios import AxisMember, build_tree, split_demand


def axis(specs):
    return tuple(AxisMember(np.array(v), p, label) for v, p, label in specs)


def test_split_demand_is_lossless():
    raw = np.array([100.0, -40.0, 0.0, -0.5, 250.0])
    demand, braking = split_demand(raw)
    assert demand.tolist() == [100.0, 0.0, 0.0, 0.0, 250.0]
    assert braking.tolist() == [0.0, 40.0, 0.0, 0.5, 0.0]
    assert demand - braking == pytest.approx(raw)
    assert np.all(demand >= 0) and np.all(braking >= 0)
    assert not demand.flags.writeable and not braking.flags.writeable


def test_tree_row_major_order_and_member_product():
    pv = axis([([10.0], 0.6, "hi"), ([5.0], 0.4, "lo")])
    price = axis([([0.1], 0.7, "cheap"), ([0.3], 0.3, "dear")])
    rb = axis([([8.0], 0.5, "r1"), ([2.0], 0.5, "r2")])
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
    pv = axis([([10.0, 10.0], 1.0, "p")])
    price = axis([([0.1, 0.1], 1.0, "c")])
    rb = axis([([0.0, 0.0], 1.0, "r")])
    short = axis([([0.0], 1.0, "r")])
    with pytest.raises(ValueError, match=r"rb_available has 1 steps, expected 2"):
        build_tree(pv, price, short, demand)
    signed = np.array([100.0, -1.0])
    with pytest.raises(ValueError, match=r"^demand has negative entries at steps \[1\]"):
        build_tree(pv, price, rb, signed)
    for name in ("pv", "rb"):
        negative = axis([([0.0, -3.0], 1.0, "n")])
        axes = {"pv": pv, "price": price, "rb": rb, name: negative}
        with pytest.raises(ValueError, match=r"negative entries at steps \[1\]"):
            build_tree(axes["pv"], axes["price"], axes["rb"], demand)


def test_large_cross_product_probabilities():
    def uniform_axis(name, k, value):
        return tuple(AxisMember(np.array([value]), 1.0 / k, f"{name}{j}")
                     for j in range(k))

    pv = uniform_axis("pv", 4, 10.0)
    price = uniform_axis("price", 5, 0.2)
    rb = uniform_axis("rb", 5, 1.0)
    tree = build_tree(pv, price, rb, np.array([50.0]))
    assert len(tree) == 100
    probs = np.array([s.probability for s in tree])
    assert probs == pytest.approx(np.full(100, 0.01), abs=1e-15)
    assert abs(probs.sum() - 1.0) <= 1e-9


@pytest.mark.parametrize("pv_p, rb_p", [
    ((0.5999999994, 0.4), (0.4999999994, 0.5)),   # leaves sum to 1 - 1.2e-9
    ((1e-200, 1.0), (1e-200, 1.0)),               # leaf 0 underflows to 0
], ids=["leaf sum off by more than 1e-9", "leaf probability 0"])
def test_tree_keeps_member_products_unchecked(pv_p, rb_p):
    # each axis passes the config's rules, so the tree takes the member
    # products as they come, with no second check of the leaves
    pv = axis([([10.0], pv_p[0], "p0"), ([5.0], pv_p[1], "p1")])
    price = axis([([0.1], 1.0, "c")])
    rb = axis([([8.0], rb_p[0], "r0"), ([2.0], rb_p[1], "r1")])
    tree = build_tree(pv, price, rb, np.array([100.0]))
    assert [s.probability for s in tree] == [p * 1.0 * r
                                             for p in pv_p for r in rb_p]
