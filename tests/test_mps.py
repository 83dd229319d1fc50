"""Model export round-trips: structure, bounds, coefficients, objectives."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from station_ems.milp.branch_bound import solve_mip
from station_ems.milp.canonical import ROW_EQ, ROW_LE, ModelBuilder
from station_ems.milp.mps import export_mps

from conftest import parse_mps, three_step_instance


def dense_matrix(milp):
    a = np.zeros((milp.n_rows, milp.n_cols))
    if len(milp.a_rows):
        a[milp.a_rows, milp.a_cols] = milp.a_vals
    return a


def assert_same_model(a, b):
    assert b.n_cols == a.n_cols
    assert b.n_rows == a.n_rows
    # column order may be preserved or renamed, but never permuted
    assert np.array_equal(a.col_lb, b.col_lb)
    assert np.array_equal(a.col_ub, b.col_ub)
    assert np.array_equal(a.col_obj, b.col_obj)
    assert np.array_equal(a.col_binary, b.col_binary)
    assert a.row_sense == b.row_sense
    assert np.array_equal(a.row_rhs, b.row_rhs)
    assert np.array_equal(dense_matrix(a), dense_matrix(b))


def awkward_model():
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 1.0, -1.0, binary=True)
    y = b.add_column("y", -2.5, 7.125, 0.1)
    z = b.add_column("z", 0.0, 1e30, 1e-7)
    w = b.add_column("w", 3.0, 3.0, -0.3333333333333333)
    b.add_row("le", ROW_LE, 1.9999999999999998, [(x, 1.0), (y, -0.75)])
    b.add_row("floor", ROW_LE, 4.0, [(y, -2.0), (z, -1e-9)])
    b.add_row("eq", ROW_EQ, 3.0, [(w, 1.0)])
    return b.build()


def test_round_trip_preserves_everything(tmp_path):
    milp = awkward_model()
    path = tmp_path / "m.mps"
    export_mps(milp, path, name="AWKWARD")
    back = parse_mps(path)
    assert_same_model(milp, back)


def test_round_trip_is_idempotent(tmp_path):
    milp = awkward_model()
    p1 = tmp_path / "a.mps"
    p2 = tmp_path / "b.mps"
    export_mps(milp, p1)
    export_mps(parse_mps(p1), p2)
    assert p1.read_text() == p2.read_text()


def test_no_rows_model(tmp_path):
    b = ModelBuilder()
    b.add_column("x", 0.0, 2.0, 1.0)
    milp = b.build()
    path = tmp_path / "empty.mps"
    export_mps(milp, path)
    back = parse_mps(path)
    assert_same_model(milp, back)


def test_float_values_survive_exactly(tmp_path):
    b = ModelBuilder()
    x = b.add_column("x", 1 / 3, np.pi, -np.e)
    b.add_row("r", ROW_LE, 0.1 + 0.2, [(x, 1.0000000000000002)])
    milp = b.build()
    path = tmp_path / "f.mps"
    export_mps(milp, path)
    back = parse_mps(path)
    assert back.col_lb[0] == milp.col_lb[0]
    assert back.col_ub[0] == milp.col_ub[0]
    assert back.col_obj[0] == milp.col_obj[0]
    assert back.row_rhs[0] == milp.row_rhs[0]
    assert back.a_vals[0] == milp.a_vals[0]


def test_dispatch_model_round_trip(tmp_path):
    model = three_step_instance()
    path = tmp_path / "ems.mps"
    export_mps(model.milp, path, name="EMSA")
    back = parse_mps(path)
    assert_same_model(model.milp, back)
    original = solve_mip(model.milp)
    reparsed = solve_mip(back)
    assert original.status == reparsed.status == "optimal"
    scale = max(1.0, abs(original.objective))
    assert abs(original.objective - reparsed.objective) / scale <= 1e-6


@pytest.mark.parametrize("bad", ["x\n", "a\nb", "name_of_9", "OBJ", None])
def test_unfit_names_fall_back_to_generated_ones(tmp_path, bad):
    # None stands for a name repeated from the first column and row
    milp = awkward_model()
    cols, rows = list(milp.col_names), list(milp.row_names)
    cols[1] = cols[0] if bad is None else bad
    rows[1] = rows[0] if bad is None else bad
    path = tmp_path / "m.mps"
    export_mps(dataclasses.replace(milp, col_names=cols, row_names=rows), path)
    back = parse_mps(path)
    assert back.col_names == ["X0", "X1", "X2", "X3"]
    assert back.row_names == ["R0", "R1", "R2"]
    assert_same_model(milp, back)


def test_fitting_names_are_kept(tmp_path):
    milp = awkward_model()
    cols = ["A-8.char", "b_2", "c", "Z9"]
    path = tmp_path / "m.mps"
    export_mps(dataclasses.replace(milp, col_names=cols), path)
    back = parse_mps(path)
    assert back.col_names == cols
    assert back.row_names == milp.row_names


def test_a_sibling_export_formats_only_its_own_values(tmp_path):
    # the lines are made for the first model of a structure; a with_data
    # sibling must print what a model of its own prints, -0.0 as -0
    milp = awkward_model()
    export_mps(milp, tmp_path / "first.mps")
    sib = milp.with_data(col_lb=[0.0, -8.0, -0.0, 2.0],
                         col_ub=[1.0, 7.125, 6.0, 3.0],
                         col_obj=[-0.0, 0.1, 0.0, 5.0],
                         row_rhs=[-0.0, 0.0, 3.0])
    export_mps(sib, tmp_path / "sib.mps")
    export_mps(dataclasses.replace(sib), tmp_path / "own.mps")
    text = (tmp_path / "sib.mps").read_text()
    assert text == (tmp_path / "own.mps").read_text()
    assert " LO BND1 z -0\n UP BND1 z 6\n" in text
    assert " LO BND1 y -8\n UP BND1 y 7.125\n" in text
    assert " LO BND1 w 2\n UP BND1 w 3\n" in text
    assert "x OBJ" not in text and "RHS1 le" not in text
    assert_same_model(sib, parse_mps(tmp_path / "sib.mps"))


def test_siblings_share_a_section_only_with_its_values_bytes(tmp_path):
    # a section is made once per set of values and then reused: siblings A,
    # B, A again, and siblings of A that differ from it only by -0.0 against
    # 0.0 each print what a model of their own prints
    milp = awkward_model()
    a = milp.with_data(col_lb=[0.0, -8.0, 0.0, 2.0],
                       col_obj=[0.0, 0.1, 0.0, 5.0], row_rhs=[0.0, 4.0, 3.0])
    siblings = {
        "a": a,
        "b": milp.with_data(col_obj=[-1.0, 0.2, 1e-7, 5.0],
                            row_rhs=[1.0, 4.0, -3.0]),
        "a_again": a,
        "costs": a.with_data(col_obj=[-0.0, 0.1, -0.0, 5.0]),
        "rhs": a.with_data(row_rhs=[-0.0, 4.0, 3.0]),
        "bounds": a.with_data(col_lb=[-0.0, -8.0, -0.0, 2.0]),
    }
    texts = {}
    for name, sib in siblings.items():
        export_mps(sib, tmp_path / f"{name}.mps")
        export_mps(dataclasses.replace(sib), tmp_path / f"{name}_own.mps")
        texts[name] = (tmp_path / f"{name}.mps").read_text()
        assert texts[name] == (tmp_path / f"{name}_own.mps").read_text()
        assert_same_model(sib, parse_mps(tmp_path / f"{name}.mps"))
    assert texts["a"] == texts["a_again"] != texts["b"]
    # a zero cost or right-hand side is not printed, whatever its sign
    assert texts["costs"] == texts["rhs"] == texts["a"]
    assert " LO BND1 x -0\n" in texts["bounds"]
    assert " LO BND1 z -0\n" in texts["bounds"]
    assert " LO BND1 z 0\n" in texts["a"]


def test_a_trailing_binary_and_an_empty_zero_cost_column(tmp_path):
    # the integer block still open after the last column is closed before
    # RHS, and a column with no entry and no cost is declared at cost 0
    b = ModelBuilder()
    x = b.add_column("x", 0.0, 2.0, 1.0)
    b.add_column("idle", 0.0, 4.0, 0.0)
    u = b.add_column("u", 0.0, 1.0, -1.0, binary=True)
    b.add_row("cap", ROW_LE, 1.5, [(x, 1.0), (u, 1.0)])
    milp = b.build()
    path = tmp_path / "m.mps"
    export_mps(milp, path)
    lines = path.read_text().splitlines()
    at = lines.index("RHS")
    assert lines[at - 5:at] == [
        "    idle OBJ 0", "    M0 'MARKER' 'INTORG'", "    u OBJ -1",
        "    u cap 1", "    M1 'MARKER' 'INTEND'"]
    assert_same_model(milp, parse_mps(path))
