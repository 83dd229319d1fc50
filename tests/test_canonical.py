"""Model assembly in blocks: the same model as one element at a time, and
every check made before a block is stored; new data on a built structure."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from station_ems.milp.canonical import ROW_EQ, ROW_LE, ModelBuilder
from station_ems.milp.simplex import solve_lp


def same_model(a, b) -> bool:
    return (a.col_names == b.col_names and a.row_names == b.row_names
            and a.row_sense == b.row_sense
            and all(np.array_equal(getattr(a, f), getattr(b, f)) for f in (
                "col_lb", "col_ub", "col_obj", "col_binary", "row_rhs",
                "a_rows", "a_cols", "a_vals")))


def test_blocks_build_the_model_the_scalar_calls_build():
    one = ModelBuilder()
    for name, lb, ub, obj, binary in (("x", 0.0, 1.0, -1.0, True),
                                      ("y", -2.0, 4.0, 0.5, False),
                                      ("z", 0.0, 5.0, 0.0, False)):
        one.add_column(name, lb, ub, obj, binary)
    one.add_row("r0", ROW_LE, 1.0, [(2, 3.0), (0, 1.0), (1, 0.0)])
    one.add_row("r1", ROW_LE, 1.0, [])
    one.add_row("r2", ROW_EQ, 0.0, [(1, -1.0), (2, 2.0)])

    blocks = ModelBuilder()
    assert list(blocks.add_columns(["x", "y"], [0.0, -2.0], [1.0, 4.0],
                                   [-1.0, 0.5], [True, False])) == [0, 1]
    assert list(blocks.add_columns(["z"], 0.0, 5.0)) == [2]
    # triplets in any row order; each row keeps its own order, zeros dropped
    rows = blocks.add_rows(["r0", "r1", "r2"], [ROW_LE, ROW_LE, ROW_EQ],
                           [1.0, 1.0, 0.0], [2, 0, 0, 2, 0], [1, 2, 0, 2, 1],
                           [-1.0, 3.0, 1.0, 2.0, 0.0])
    assert list(rows) == [0, 1, 2]
    assert same_model(one.build(), blocks.build())


@pytest.mark.parametrize("add, message", [
    (lambda b: b.add_columns(["p", "p"], 0.0, 1.0), "duplicate column name 'p'"),
    (lambda b: b.add_columns(["q", "x"], 0.0, 1.0), "duplicate column name 'x'"),
    (lambda b: b.add_columns(["p", "q"], [0.0, 2.0], 1.0),
     "column 'q': lb 2.0 exceeds ub 1.0"),
    (lambda b: b.add_columns(["p", "q"], 0.0, [1.0, np.inf]),
     r"column 'q': bounds \[0.0, inf\] not finite"),
    (lambda b: b.add_column("p", -np.inf, 1.0),
     r"column 'p': bounds \[-inf, 1.0\] not finite"),
    (lambda b: b.add_columns(["p", "q"], [0.0, np.nan], 1.0),
     r"column 'q': bounds \[nan, 1.0\] not finite"),
    (lambda b: b.add_column("p", 0.0, np.nan),
     r"column 'p': bounds \[0.0, nan\] not finite"),
    (lambda b: b.add_columns(["p", "q"], 0.0, [1.0, 2.0], binary=True),
     r"binary column 'q': bounds \[0.0, 2.0\] outside \[0, 1\]"),
    (lambda b: b.add_rows(["s", "t"], [ROW_LE, "<"], 0.0, [], [], []),
     "row 't': unknown sense '<'"),
    (lambda b: b.add_rows(["s", "t"], [ROW_LE, "G"], 0.0, [], [], []),
     "row 't': unknown sense 'G'"),
    (lambda b: b.add_rows(["s"], [ROW_LE, ROW_LE], 0.0, [], [], []),
     "2 senses for 1 rows"),
    (lambda b: b.add_rows(["s", "s"], [ROW_LE] * 2, 0.0, [], [], []),
     "duplicate row name 's'"),
    (lambda b: b.add_rows(["r"], [ROW_LE], 0.0, [], [], []),
     "duplicate row name 'r'"),
    (lambda b: b.add_rows(["s", "t"], [ROW_LE] * 2, 0.0, [0, 1], [0, 2], 1.0),
     "row 't': column index 2 out of range"),
    (lambda b: b.add_rows(["s", "t"], [ROW_LE] * 2, 0.0, [1, 0, 1], [0, 0, 0],
                          1.0),
     "row 't': duplicate coefficient for column 0"),
    (lambda b: b.add_rows(["s"], [ROW_LE], 0.0, [1], [0], 1.0),
     "triplet row 1 outside a block of 1 rows"),
    (lambda b: b.add_rows(["s"], [ROW_LE], 0.0, [0, 0], [0], 1.0),
     "1 column indices for 2 triplet rows"),
    (lambda b: b.add_row("s", ROW_EQ, 0.0, [(-1, 1.0)]),
     "row 's': column index -1 out of range"),
])
def test_a_rejected_block_stores_nothing(add, message):
    b = ModelBuilder()
    b.add_columns(["x", "y"], 0.0, 1.0)
    b.add_row("r", ROW_LE, 1.0, [(0, 1.0)])
    before = b.build()
    with pytest.raises(ValueError, match=message):
        add(b)
    assert (b.n_cols, b.n_rows) == (2, 1)
    b.add_columns(["p", "q"], 0.0, 1.0)
    b.add_row("s", ROW_LE, 0.0, [(3, 1.0)])
    after = b.build()
    assert after.col_names == before.col_names + ["p", "q"]
    assert after.row_names == before.row_names + ["s"]


def two_row_model():
    # min x + 2y  s.t.  x <= 1,  2x - y = 2,  x in [0, 1] binary, y in [-1, 4]
    b = ModelBuilder()
    b.add_columns(["x", "y"], [0.0, -1.0], [1.0, 4.0], [1.0, 2.0], [True, False])
    b.add_rows(["r", "s"], [ROW_LE, ROW_EQ], [1.0, 2.0], [0, 1, 1], [0, 0, 1],
               [1.0, 2.0, -1.0])
    return b.build()


def test_with_data_shares_the_structure_and_its_caches(factorizations):
    milp = two_row_model()
    csc = milp.columns_csc()
    sib = milp.with_data(col_ub=[0.0, 3.0], row_rhs=[5.0, -5.0])
    assert sib.col_ub.tolist() == [0.0, 3.0] and milp.col_ub.tolist() == [1.0, 4.0]
    assert sib.row_rhs.tolist() == [5.0, -5.0]
    assert sib.col_lb is milp.col_lb and sib.col_obj is milp.col_obj
    assert sib.a_vals is milp.a_vals and sib.col_names is milp.col_names
    assert sib.columns_csc()[0] is csc[0] and sib.columns_csc()[1] is csc[1]
    assert sib.row_is_le() is milp.row_is_le()
    # the factors of the optimal basis {x, r's slack}, made at the first
    # start from it, serve a sibling with these coefficients
    sol = solve_lp(milp)
    assert sorted(sol.basis) == [0, 2]
    assert solve_lp(milp, warm=sol).iterations == 0
    assert len(factorizations) == 1
    assert solve_lp(milp.with_data(col_obj=[1.0, 3.0]), warm=sol).iterations == 0
    assert len(factorizations) == 1
    # a structure edit through dataclasses.replace starts afresh
    other = dataclasses.replace(milp, a_vals=milp.a_vals * 2.0)
    assert other.columns_csc()[0] is not csc[0]
    assert other.columns_csc()[2].tolist() == [2.0, 4.0, -2.0]
    assert solve_lp(other, warm=sol).iterations == 0
    assert len(factorizations) == 2


def test_new_coefficients_share_the_pattern_caches_alone(factorizations):
    milp = two_row_model()
    csc, slacks = milp.columns_csc(), milp.columns_csc_with_slacks()
    sib = milp.with_data(a_vals=[3.0, -2.0, 5.0])
    assert milp.a_vals.tolist() == [1.0, 2.0, -1.0]
    assert sib.a_rows is milp.a_rows and sib.a_cols is milp.a_cols
    assert sib.row_is_le() is milp.row_is_le()
    # the column order and row indices come from the pattern, the values
    # from the matrix at hand
    for got, first in ((sib.columns_csc(), csc),
                       (sib.columns_csc_with_slacks(), slacks)):
        assert got[0] is first[0] and got[1] is first[1]
    assert sib.columns_csc()[2].tolist() == [3.0, -2.0, 5.0]
    assert sib.columns_csc_with_slacks()[2].tolist() == [3.0, -2.0, 5.0, 1.0, 1.0]
    # factors kept on a solution are made again for the new coefficients,
    # and shared by a sibling of the sibling that keeps them
    sol = solve_lp(milp)
    solve_lp(milp, warm=sol)
    assert len(factorizations) == 1
    solve_lp(sib, warm=sol)
    assert len(factorizations) == 2
    assert np.array_equal(factorizations[1][-1], sol.basis)
    solve_lp(sib.with_data(col_obj=[0.0, 0.0]), warm=sol)
    assert len(factorizations) == 2


@pytest.mark.parametrize("data, message", [
    ({"col_lb": [0.0, 5.0]}, "column 'y': lb 5.0 exceeds ub 4.0"),
    # the builder's exact rule: no tolerance on a crossed pair
    ({"col_lb": [1.0 + 1e-13, 0.0]}, r"column 'x': lb 1.0000000000001 exceeds ub 1.0"),
    ({"col_ub": [2.0, 4.0]}, r"binary column 'x': bounds \[0.0, 2.0\] outside \[0, 1\]"),
    ({"row_rhs": [1.0]}, "row_rhs has shape"),
    ({"col_ub": [1.0, np.inf]}, r"column 'y': bounds \[0.0, inf\] not finite"),
    ({"col_lb": [0.0, -np.inf]}, r"column 'y': bounds \[-inf, 4.0\] not finite"),
    ({"col_lb": [0.0, np.nan]}, r"column 'y': bounds \[nan, 4.0\] not finite"),
    ({"col_ub": [1.0, np.nan]}, r"column 'y': bounds \[0.0, nan\] not finite"),
    ({"a_vals": [1.0, 1.0, 1.0]}, r"a_vals has shape \(3,\), the model \(2,\)"),
    # the pattern holds nonzeros only, as the builder stores them
    ({"a_vals": [1.0, 0.0]}, "row 's': zero coefficient for column 'y'"),
    ({"a_vals": [-0.0, 1.0]}, "row 'r': zero coefficient for column 'x'"),
])
def test_with_data_checks_the_new_data(data, message):
    b = ModelBuilder()
    b.add_columns(["x", "y"], 0.0, [1.0, 4.0], 0.0, [True, False])
    b.add_rows(["r", "s"], [ROW_LE] * 2, 0.0, [0, 1], [0, 1], 1.0)
    with pytest.raises(ValueError, match=message):
        b.build().with_data(**data)
