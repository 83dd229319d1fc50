"""Fixed digests of the reference scenario models, their MPS files and the
reference day's CSV artifacts, and the reference day's optimal objectives.

The model and MPS digests were taken once the grid-direction binary and
its two row families were dropped, from the array-block assembly with two
rows per vehicle and the whole-array MPS writer.  Building and exporting
involve no solver, so the digests are the same on every machine.  The
objectives were taken from earlier formulations, with a level column per
parked step and a grid-direction binary per step, and pin the current one
to the same optima.  The CSV digests were taken from the same model, with
the writer that formats each distinct value once; against the formulation
with the grid binary, the CSVs differ only in float last digits.  The
mode-A and mode-C dispatch digests were taken again once tree children
started with a dual simplex: the tree reaches the same optima by other
pivots, and ``dispatch.csv`` moved by at most 1.3e-12 in its grid,
storage and level columns.  All three modes' digests were taken again once
SuperLU factored the bases in their natural column order: the same pivot
counts reach the same optima, and the CSV values moved by at most 1.7e-12.
The mode-A and mode-C model, MPS and dispatch digests were taken again once
the braking-intake rows (``RV``) joined the storage rows: each tree closes
at its root, at the same optima, and ``dispatch.csv`` moved by at most
1.4e-12 in its grid, storage, braking and level columns.
"""
from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from station_ems.milp.canonical import ModelBuilder
from station_ems.milp.mps import NumberTexts, export_mps
from station_ems.model import build_model, with_scenario
from station_ems.pipeline import run_pipeline, write_outputs

from conftest import ref_inputs, ref_scenario_models, single_set

# (mode, scenario) -> (model digest, MPS file digest)
GOLDEN = {
    ("A", 0): ("76ae1a088148a05a9459492474731cbb9d2491f1f4a29ea67ee8b81c8fef1382",
               "980e0ebf6348674775c43f3ff0d35439dfca5c26b61c87c32441a936b793471a"),
    ("A", 1): ("7ce19ccf8374ba75b9ded94af2676bcf084015543bc8798da28cd6bf40cdc495",
               "72207d47ce755649b6e9376991c6f614dccba8a6cb10d8cd0172ef5ef15a1820"),
    ("A", 2): ("ea80b6946a8de7b0f164bc17846360da3c5635400ac5ade72f63e20b0c816eda",
               "371d4d0ede069a0275188cb0e9ce975606d0f29685b03b032d272d765d10f614"),
    ("A", 3): ("a72be4b55cf7983f11e449303bc15feb2442a8530d2e44757656ee2093fbbbd9",
               "e7559d9d5a6e16e3fa2be2dbc6b5b5ef972092daae09834ae4cb3087daf01124"),
    ("B", 0): ("d21c8d171ee0fb5a967576b641558294c3fd30c0e1ef9b2e833be785c756131a",
               "dbfb9d0afa1a12d6bbcf1ba0d7f5a7e470a2736685d816b8fa0046091982a33d"),
    ("B", 1): ("d21c8d171ee0fb5a967576b641558294c3fd30c0e1ef9b2e833be785c756131a",
               "a25147ca4553ae5f656aa07f49acfcc4aeda20b88e6f9914bd3a964f09b57a1a"),
    ("B", 2): ("abc9e78174020c9fe223d148974c43e109ca50be11270a9c852ed3af02f50336",
               "3d7ddbd715d3b0ff765f0912ac34e0db0c80feedaa62259dd49855128acc5816"),
    ("B", 3): ("abc9e78174020c9fe223d148974c43e109ca50be11270a9c852ed3af02f50336",
               "ba8e8c2b82b53c7dcb280e1d5371600359991e5f3671194872e89236af7e52ef"),
    ("C", 0): ("75ca201d1e56e64c6019058f9e6a07cab1b68e014350eb609bc5fb39e4eae496",
               "3f8f60ef3aaa5ba3b6790d925f5d460630852614c8e356fe732544a8326ba170"),
    ("C", 1): ("7a5803a3ea29deef4b7536afff491c73a93c7e8d8ba40e3dd68e5d1d0f5ef782",
               "a4b488a3c0bfbc750afb24f20e8febcc38347d0a08ea249bd10ce681057796da"),
    ("C", 2): ("75ca201d1e56e64c6019058f9e6a07cab1b68e014350eb609bc5fb39e4eae496",
               "1889ec2e11936bb0773f298e705f261854de612c3f65e741254494fc136fec51"),
    ("C", 3): ("7a5803a3ea29deef4b7536afff491c73a93c7e8d8ba40e3dd68e5d1d0f5ef782",
               "d160a301839d3cab8a088cc4513e486414db5f449680f0b4ef485b903cedc99a"),
}

# mode -> per-scenario optimal objectives of the reference day, as solved
# by the formulation with a level column per parked step and a recursion
# row per step after arrival; the two-row formulation must reach the same
# optima
OBJECTIVES = {
    "A": (4342.680663182317, 4388.725129848985, 5205.29627552655,
          5251.340742193216),
    "B": (4735.7054000244225, 4735.7054000244225, 5598.321012368655,
          5598.321012368655),
    "C": (5579.616171562105, 5625.660638228772, 5579.616171562105,
          5625.660638228772),
}


# mode -> sha256 of (dispatch.csv, schedule_ev.csv, theta.csv) of the
# reference day
CSV_DIGESTS = {
    "A": ("144ee8fae047d6347dac07ac992b0c58ea09e73a6c7c3eda56bba3175d3761fe",
          "43b74978f5a3582a7e1d227ba6ab15481ce70ef3fc73bc205553c6954438c6c1",
          "ec1758d7ee95d6287a8d00cc0672665bb6fb92fa0cd8e775857c8ab3aef747b3"),
    "B": ("fa89b37199770508db3ddf61cc01954c58aca61df62350b93d25ee44f6df8f64",
          "43b74978f5a3582a7e1d227ba6ab15481ce70ef3fc73bc205553c6954438c6c1",
          "ec1758d7ee95d6287a8d00cc0672665bb6fb92fa0cd8e775857c8ab3aef747b3"),
    "C": ("b779bc46d29f994a9f9b5c4d7c49db8b4c6fe81521578f24d0b1388d81f53b08",
          "43b74978f5a3582a7e1d227ba6ab15481ce70ef3fc73bc205553c6954438c6c1",
          "ec1758d7ee95d6287a8d00cc0672665bb6fb92fa0cd8e775857c8ab3aef747b3"),
}


@pytest.fixture(scope="module")
def ref_results(ref_config_path, ref_run):
    """The reference day solved in every mode, mode A from ``ref_run``."""
    return {mode: ref_run[0] if mode == "A"
            else run_pipeline(ref_config_path, mode=mode) for mode in "ABC"}


def model_digest(milp) -> str:
    """sha256 over names, bounds, costs, binaries, senses, right-hand sides
    and the coefficient triplets in stored order."""
    h = hashlib.sha256()
    for strings in (milp.col_names, milp.row_names, milp.row_sense):
        h.update("\n".join(strings).encode())
        h.update(b"\0")
    for arr, dtype in ((milp.col_lb, "<f8"), (milp.col_ub, "<f8"),
                       (milp.col_obj, "<f8"), (milp.col_binary, "?"),
                       (milp.row_rhs, "<f8"), (milp.a_rows, "<i8"),
                       (milp.a_cols, "<i8"), (milp.a_vals, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_reference_models_and_mps_files_keep_their_digests(mode, tmp_path):
    for idx, model in ref_scenario_models(mode):
        path = tmp_path / f"{mode}{idx}.mps"
        export_mps(model.milp, path, name=f"EMS{mode}S{idx}")
        got = (model_digest(model.milp),
               hashlib.sha256(path.read_bytes()).hexdigest())
        assert got == GOLDEN[(mode, idx)], (mode, idx)


@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_reference_objectives_keep_their_values(mode, ref_results):
    result = ref_results[mode]
    got = [sol.objective for sol in result.solutions]
    assert result.solved_indices == (0, 1, 2, 3)
    for idx, (value, pinned) in enumerate(zip(got, OBJECTIVES[mode])):
        assert abs(value - pinned) <= 1e-9 * abs(pinned), (mode, idx, value)


@pytest.mark.parametrize("mode", ["A", "C"])
def test_reference_trees_close_at_the_root(mode, ref_results):
    # the braking-intake rows keep each root relaxation from passing braking
    # energy through the store, and the dispatch repair turns the root into
    # an incumbent within the gap; without the repair a scenario takes 7
    # nodes, and without the rows 13
    assert [sol.node_count for sol in ref_results[mode].solutions] == [1] * 4


@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_patched_models_match_built_ones_bit_for_bit(mode, tmp_path):
    # the pipeline builds the first scenario's model and writes every other
    # scenario's data into it; each step here patches the previous patch,
    # and the MPS lines are made once, from the first scenario
    cfg, sessions, tree = ref_inputs()
    base = build_model(cfg, sessions, single_set(tree[0]), mode)
    export_mps(base.milp, tmp_path / "base.mps")
    patched = base
    for sc in (*tree, tree[0]):
        patched = with_scenario(patched, sc)
        built = build_model(cfg, sessions, single_set(sc), mode)
        assert model_digest(patched.milp) == model_digest(built.milp), sc.index
        for name in ("demand", "pv", "rb_available", "price_buy", "price_sell"):
            assert getattr(patched.index, name).tobytes() \
                == getattr(built.index, name).tobytes(), (sc.index, name)
        for model, stem in ((patched, "patched"), (built, "built")):
            export_mps(model.milp, tmp_path / f"{stem}.mps",
                       name=f"EMS{mode}S{sc.index}")
        assert (tmp_path / "patched.mps").read_bytes() \
            == (tmp_path / "built.mps").read_bytes(), sc.index
        # the pattern's caches are shared; with storage each scenario writes
        # its own braking-intake coefficients, so the matrix's are its own
        assert patched.milp.row_is_le() is base.milp.row_is_le()
        for make in ("columns_csc", "columns_csc_with_slacks"):
            got, first = (getattr(m.milp, make)() for m in (patched, base))
            assert got[0] is first[0] and got[1] is first[1], make
            assert (got[2] is first[2]) == (mode == "B"), make


@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_reference_mps_files_hold_no_zero_coefficient(mode, tmp_path):
    # each scenario writes its braking-intake coefficients into one
    # pattern, and never a zero: where no braking energy is available the
    # coefficient is the charge row's big-M
    path = tmp_path / "model.mps"
    for idx, model in ref_scenario_models(mode):
        export_mps(model.milp, path)
        text = path.read_text()
        columns = text[text.index("\nCOLUMNS\n"):text.index("\nRHS\n")]
        entries = [line.split() for line in columns.splitlines()[2:]
                   if "'MARKER'" not in line]
        values = [float(value) for _, row, value in entries if row != "OBJ"]
        assert len(values) == len(model.milp.a_vals), (mode, idx)
        assert all(values), (mode, idx)


@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_reference_csv_files_keep_their_digests(mode, ref_results, tmp_path):
    write_outputs(ref_results[mode], tmp_path)
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("dispatch.csv", "schedule_ev.csv", "theta.csv"))
    assert got == CSV_DIGESTS[mode]


def test_signed_zeros_keep_their_own_text(ref_results, tmp_path):
    # a value's text is looked up by its bits: -0.0 and 0.0 are equal
    # values but print apart, in one block and across blocks
    texts = NumberTexts(repr)
    assert texts(np.array([[0.0, -0.0], [-0.0, 1.5]])).tolist() \
        == [["0.0", "-0.0"], ["-0.0", "1.5"]]
    assert texts(np.array([-0.0, 0.0])).tolist() == ["-0.0", "0.0"]

    result = ref_results["B"]
    sol = result.solutions[0]
    grid_sell = sol.grid_sell.copy()
    grid_sell[:2] = (-0.0, 0.0)
    signed = dataclasses.replace(
        result, solutions=(dataclasses.replace(sol, grid_sell=grid_sell),
                           *result.solutions[1:]))
    write_outputs(signed, tmp_path)
    lines = (tmp_path / "dispatch.csv").read_text().splitlines()
    head = lines[0].split(",")
    column = head.index("grid_sell_kw")
    assert [lines[k].split(",")[column] for k in (1, 2)] == ["-0.0", "0.0"]

    milp = ModelBuilder()
    milp.add_columns(["a", "b"], lb=[-0.0, 0.0], ub=[1.0, 2.0])
    milp.add_rows(["r"], ["L"], [1.0], [0, 0], [0, 1], [1.0, 1.0])
    path = tmp_path / "signed.mps"
    export_mps(milp.build(), path)
    text = path.read_text()
    assert " LO BND1 a -0\n" in text and " LO BND1 b 0\n" in text
