"""Fixed digests of the reference scenario models, their MPS files and the
reference day's CSV artifacts, and the reference day's optimal objectives.

The digests were taken from the array-block assembly once each vehicle's
state-of-charge chain became two rows (no level columns), and from the
whole-array MPS writer; they hold later changes to the same models and the
same bytes.  Building and exporting involve no solver, so the digests are
the same on every machine.  The objectives were taken from the earlier
formulation, with a level column per parked step, and pin the two-row one
to the same optima.  The CSV digests were taken when each CSV value was
still formatted by its own ``repr`` call and every line written by
``csv.writer``; they hold the writer that formats each distinct value once
to the same bytes.
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
    ("A", 0): ("9b7954aa30650e46706f6012e08ad783bb7798bff8b338f1e0c53a04f3a84232",
               "a1bdeccc225e899a114f5043121cc21c46042d1fd1f29a7f603a113083737516"),
    ("A", 1): ("485e1143d57dc6e4c92cb54513090025ec52549fa7fe97933273475c453c4af1",
               "16ebf04221de30845a81bdf02fefe48e2fddcabacd838581e8db091b99ac5f32"),
    ("A", 2): ("874db2aa2ffae4490468048f402d49c7b83cc6eb5955579ba91e1a9323367420",
               "bb1abbf114c9ac909f207aeb88dfadbd9e719651f5c2b0dc326aaabad6b87e23"),
    ("A", 3): ("fcd6a2b42c9575fef6598c4ae1fd0df11ea278c7e07465f6be757f8a89d48e93",
               "875d4a2fda86268baf2c9676b813524db9c16574020922a691a879576521eb85"),
    ("B", 0): ("fc71582f882f954d185232fa6e7d08cb0b0bade3b465365301d39456a16eb9f2",
               "f1033bb49c3b7574dcb7f0287e24bf491e55a99b7606b44430af5b1b1eede306"),
    ("B", 1): ("fc71582f882f954d185232fa6e7d08cb0b0bade3b465365301d39456a16eb9f2",
               "26d9f43a7695e907e6fe9370d70180bab1b775370edd70b7f92745280a1954fa"),
    ("B", 2): ("0568b028ba7d7c057a0a952b5ca633789f82442c7abf5866cd957c71fd269073",
               "afcff612e0632a5cacafd1a7918cf8327c8b8bae854f83fd68763cd8c3277c15"),
    ("B", 3): ("0568b028ba7d7c057a0a952b5ca633789f82442c7abf5866cd957c71fd269073",
               "06109037a7b7834427d53d862179e1712949307a656e724f1778bc2961a66420"),
    ("C", 0): ("0ea7ba231ddc77f1236d1aad0aeadcd012c4ea237d54cdf27f030aff98f01804",
               "48e0e0c7993011ece4f4973f65f72dd793de55243f04d1d374930d2225bd5d20"),
    ("C", 1): ("699b8b85e82384359d15c9ea4dbbbf07eb91948fa51d7bf58e4305da586a382b",
               "dca2d43430e9b54910654c1dc6c975a70a0318cf557798d23634338ed728d055"),
    ("C", 2): ("0ea7ba231ddc77f1236d1aad0aeadcd012c4ea237d54cdf27f030aff98f01804",
               "5f67a73533f5bbe181325e06af1568d91cb487f834415dd91d6ddee6defe72ff"),
    ("C", 3): ("699b8b85e82384359d15c9ea4dbbbf07eb91948fa51d7bf58e4305da586a382b",
               "32f3ec6752b09d0c4d02f61776c9d6e57d8de689d36fa86ae48acbbbff862d47"),
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
    "A": ("d2cc6264978dc07283a80298e49f3f7309155febfa32b424ddfc848603e74062",
          "86a4a914c41d23ccc7c7d4622a88793fd32ac221d410537f3dfdba7138e7c38c",
          "3a99d72a07542c167b8b130706d935fa274f98681f5065678a6d1e26c5b9fb0f"),
    "B": ("52aef18fc1323b0c1bd4f6eae1d6ceb78ce327d7c943088dec0f99517af49586",
          "f31534757374315e147b8ba5d35ea0acbb34124af021ee83926c48f91bbf58ed",
          "ecdf5ef1b72f85136888108e20b88d1e07ffecebe68c36fa1e1603992ff9452a"),
    "C": ("d09e11b7f2b4ceb267026dc87008d42f5dd2d152c68d82ef23989b51b6f845a3",
          "bd657a9917881dc8ffe5db44ac0859c1b2dc72cddfbffa14c9d2a90729f476aa",
          "f71eb10cb336a727de669cd7276c6ce2cc1c4a3d94aae9e9d8d5fa2ded8f77cf"),
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
