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
1.4e-12 in its grid, storage, braking and level columns.  All three modes'
model, MPS, dispatch and schedule digests were taken again once the rows
that cannot bind were left out (``RV`` where no scenario brakes, ``PK``
where the parked vehicles cannot break the cap, ``CP`` where a visit
cannot deliver more than its request): the anchors take the same pivot
counts to the same optima, and the vehicle power columns moved by at most
7.2e-15 kW.
"""
from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from station_ems.milp.canonical import ModelBuilder
from station_ems.milp.mps import NumberTexts, export_mps
from station_ems.milp.simplex import solve_lp
from station_ems.model import build_model, with_scenario
from station_ems.pipeline import run_pipeline, write_outputs

from conftest import ref_inputs, ref_scenario_models, single_set

# (mode, scenario) -> (model digest, MPS file digest)
GOLDEN = {
    ("A", 0): ("12684e528b14b87906ecc6310566511656b17d7eff939e638dc32a6ea51e18eb",
               "2398d457faef1504d50c83f0c674fdc0c4eac29c63744dfcadb9fc488ac06553"),
    ("A", 1): ("adeab30871ddc782bc75f52855278da7efb42d0e0558578740efff2246fb8edf",
               "aa8022c531658d7f982fa26a7f01e2cf7a52052be48e354065e5c3963d4ac06c"),
    ("A", 2): ("c9317a6cdd4bf53fd8c4b38eade99753c5b7c5de62aff8725d5218298851bdda",
               "01a8f3abf4076e870c5cadc285c78b21a4cfa808684965b4fc808c904f0c1e25"),
    ("A", 3): ("e82a39c5a26000e38826b79d17ed344e801413fc2425d681cc0c69efe12d7d4d",
               "4f4bbab906e16940e7eb8c847f43977a45c68eae17c6ea088639c9b467e55f5e"),
    ("B", 0): ("9dc62176aaa6a290608638c1a33bbe7b2811081add2661914ead75758c4086ac",
               "2afccdeabd0f121d42f1046a0a0447fa09fcbfffc40a6e1ebabc33ae5899df69"),
    ("B", 1): ("9dc62176aaa6a290608638c1a33bbe7b2811081add2661914ead75758c4086ac",
               "fb5db92153800391ecd1db5acc9ec66e05b0c875b10943a9824a3bdd432b14d4"),
    ("B", 2): ("593e5623879e992144ad91f17d5d45ec97ec8ab65345f82966c6bb34b6d592bc",
               "5342ac934d1b8ecb48c2c78162bfa28216d4239e280fd3180e765aeb9d50aad3"),
    ("B", 3): ("593e5623879e992144ad91f17d5d45ec97ec8ab65345f82966c6bb34b6d592bc",
               "98c8631b6021b02089b0173bfc8781287392c2c258fffa3b7c4fefed10854cc3"),
    ("C", 0): ("920b42a0a8f2b7faa8bef96a9a7f8f9f675cc2daf4168f8933a39ac4e26bc791",
               "e4fae035f6b99906b1565adcb10e01b21f8d2921ff68ff4b063924d8e589903d"),
    ("C", 1): ("2321940fb6a700504b6ea239378a04afd516b3551c68003509edc73b4cf7c420",
               "47bdcea88612edd546a7c048afbc5df12f6b365b0b9a0ce23aa8ec91cba26e96"),
    ("C", 2): ("920b42a0a8f2b7faa8bef96a9a7f8f9f675cc2daf4168f8933a39ac4e26bc791",
               "277c720e46cc1d4fccc0cb29c2975be6180e97ebc55822602a024f35f6294ea3"),
    ("C", 3): ("2321940fb6a700504b6ea239378a04afd516b3551c68003509edc73b4cf7c420",
               "00bd73277bbd6fe3466ef60d63a80f8a31e5d0df712d3506b74ab91ef9edce85"),
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
    "A": ("3d125af1399459ab41fe51949506e2efa60e35668181f8f31767e98c4fe6fffe",
          "db5bbf26744af96d61be1325d338f43e391d468067475f9fa6cdae62dd9e5860",
          "ec1758d7ee95d6287a8d00cc0672665bb6fb92fa0cd8e775857c8ab3aef747b3"),
    "B": ("d5211dd9103db8b74aba9095dccd09b0afb18d8f39edae689f4dea2512f7e2e0",
          "db5bbf26744af96d61be1325d338f43e391d468067475f9fa6cdae62dd9e5860",
          "ec1758d7ee95d6287a8d00cc0672665bb6fb92fa0cd8e775857c8ab3aef747b3"),
    "C": ("75b26e2677c69bbbbd84f778752806c6e9c4cde49f4b51930420e71925f0a0b6",
          "db5bbf26744af96d61be1325d338f43e391d468067475f9fa6cdae62dd9e5860",
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
def test_patched_models_match_built_ones_bit_for_bit(mode, tmp_path,
                                                     factorizations):
    # the pipeline builds the first scenario's model and writes every other
    # scenario's data into it; each step here patches the previous patch,
    # and the MPS lines are made once, from the first scenario
    cfg, sessions, tree = ref_inputs()
    base = build_model(cfg, sessions, single_set(tree[0]), mode)
    export_mps(base.milp, tmp_path / "base.mps")
    # a solution of the base model with its basis factors kept for it
    kept = solve_lp(base.milp)
    solve_lp(base.milp, warm=kept)
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
        # its own braking-intake coefficients, so the base's factors serve
        # it only without storage, and a start in it makes its own
        assert patched.milp.row_is_le() is base.milp.row_is_le()
        for make in ("columns_csc", "columns_csc_with_slacks"):
            got, first = (getattr(m.milp, make)() for m in (patched, base))
            assert got[0] is first[0] and got[1] is first[1], make
        factorizations.clear()
        solve_lp(patched.milp, warm=dataclasses.replace(kept))
        if mode == "B":
            assert factorizations == [], sc.index
        else:
            assert np.array_equal(factorizations[0][-1], kept.basis), sc.index


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
