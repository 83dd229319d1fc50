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
    ("A", 0): ("5c4f92d5b0ba61ca94564c4932d24f6f86770c2e6e721e65cbaab55cc297fe46",
               "bb8043dc12f66bac3ec8c64f849c9a2d0f27170767f60bec3c49bf7f498f2420"),
    ("A", 1): ("3bb7cb870cbc4b8456f95050aea810dbfcf7e8557172788a4590c8166f935f76",
               "1c8ca4308e2b936aee601b77d5793382e6c4b9c203c2778e638301a90c7943f5"),
    ("A", 2): ("9731a244ab1d3d4b30039eabc79d78ac00f0f4307a2a825b34f746dea76461ab",
               "ec0510f9db3bf6cc2e9368141e2086cba6ed7d4778f1c7364d13ea0e8147bb6b"),
    ("A", 3): ("871a2c56cd11647c789ebe21c9c4ec9243b9aadf72b0d627eeff523c6fe2be69",
               "6621db6add54979ea9cc192786810356f0b3e0bb4f88f5ba16413656a998f198"),
    ("B", 0): ("d21c8d171ee0fb5a967576b641558294c3fd30c0e1ef9b2e833be785c756131a",
               "dbfb9d0afa1a12d6bbcf1ba0d7f5a7e470a2736685d816b8fa0046091982a33d"),
    ("B", 1): ("d21c8d171ee0fb5a967576b641558294c3fd30c0e1ef9b2e833be785c756131a",
               "a25147ca4553ae5f656aa07f49acfcc4aeda20b88e6f9914bd3a964f09b57a1a"),
    ("B", 2): ("abc9e78174020c9fe223d148974c43e109ca50be11270a9c852ed3af02f50336",
               "3d7ddbd715d3b0ff765f0912ac34e0db0c80feedaa62259dd49855128acc5816"),
    ("B", 3): ("abc9e78174020c9fe223d148974c43e109ca50be11270a9c852ed3af02f50336",
               "ba8e8c2b82b53c7dcb280e1d5371600359991e5f3671194872e89236af7e52ef"),
    ("C", 0): ("aaa0fe3ea05f3acf6b1acb37f2dc09abb1f32fb9e80a090751cbbc37fe7f655d",
               "47de9297afdfcd231ad1739128a67e7411457326767a32bc8eacf9ff1c27ea45"),
    ("C", 1): ("f495b0cfbcc6ba411c4d3f7e2f608000d7d6ea0f5f8cf9f035668c4b20dc462c",
               "aff0c9fbc0bc1c347b2371ff3fe58bb018d8eb486570bfec79e8b26147457b94"),
    ("C", 2): ("aaa0fe3ea05f3acf6b1acb37f2dc09abb1f32fb9e80a090751cbbc37fe7f655d",
               "d4427ec53c0833d4294a781258188d317be5728b46c33e9feeb4742a432c6ce7"),
    ("C", 3): ("f495b0cfbcc6ba411c4d3f7e2f608000d7d6ea0f5f8cf9f035668c4b20dc462c",
               "c8a0da79e3ea64637ce08bb6ab9a9ff74d84565b77734c087ca346f2aea88c3f"),
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
    "A": ("04a2a3b636692f2894883321aea15b33e69bda0454f117c68ae657e47ac64bc6",
          "43b74978f5a3582a7e1d227ba6ab15481ce70ef3fc73bc205553c6954438c6c1",
          "ec1758d7ee95d6287a8d00cc0672665bb6fb92fa0cd8e775857c8ab3aef747b3"),
    "B": ("fa89b37199770508db3ddf61cc01954c58aca61df62350b93d25ee44f6df8f64",
          "43b74978f5a3582a7e1d227ba6ab15481ce70ef3fc73bc205553c6954438c6c1",
          "ec1758d7ee95d6287a8d00cc0672665bb6fb92fa0cd8e775857c8ab3aef747b3"),
    "C": ("60e76a726e83db7c68e6d404bb60805cabc321be47d50b2933a70732ae62a252",
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
def test_reference_trees_close_in_thirteen_nodes(mode, ref_results):
    # the dispatch repair's candidates settle each search early; without
    # them a scenario takes about 20 nodes
    assert [sol.node_count for sol in ref_results[mode].solutions] == [13] * 4


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
        assert patched.milp.columns_csc() is base.milp.columns_csc()


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
