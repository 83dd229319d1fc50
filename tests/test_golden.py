"""Fixed digests of the reference scenario models and their MPS files.

The digests were taken from the per-column, per-row assembly and the
per-coefficient MPS writer that the array-block versions replaced, so they
hold the block versions to the same models and the same bytes.  Building and
exporting involve no solver, so the digests are the same on every machine.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from station_ems.milp.mps import export_mps

from conftest import ref_scenario_models

# (mode, scenario) -> (model digest, MPS file digest)
GOLDEN = {
    ("A", 0): ("d27642d8d5f178e6f9279330af4c9a10a149c01e61fb932e1255ce4626e16bbe",
               "d3f2d434c9bc0b290f81e680dc764f981425fd0639735f0f9ee8396d5072a261"),
    ("A", 1): ("6e137186591b4af09af3c87bfa9aa9ae4b3605e8b83877f3cadd0f8ea7c20580",
               "cdad8c15cc411d2a87b59c47a08eba453a651c7b9b555a2604a92a8a14f50087"),
    ("A", 2): ("bec26b3538c7479c6150c7b0e9e5d63284ca26fd1f627f2d93bb1eacf57fe8c6",
               "5a8bc03d12a28a1d340535e7aa019ff897ce37bd8866b4a6121f79f411caeee4"),
    ("A", 3): ("4d6c378aee4662c2d68780fd7c22e11053295acd9ba7c44577f25a52c72a0159",
               "bb42da037af7b54fee95b03f717c3d2482f73d31e7922147ee6b3f9c58d280c2"),
    ("B", 0): ("4fd9599f699f0aa773ce1a696c03fd73d573c061373122ae4ab5545c5b87bdee",
               "8e703132a3908b6b1f8ac4eb1e562a4d73aeaaf3e346a56946d11ca2ffb7efb8"),
    ("B", 1): ("4fd9599f699f0aa773ce1a696c03fd73d573c061373122ae4ab5545c5b87bdee",
               "acd15a924aa5a7adf5505f40452a0df549e9bedec74510c394f80264974da9ab"),
    ("B", 2): ("5783ae064e61e44661b2519ee578d69eaaedd8a0576066375e0546d0d599b407",
               "71b1b3f4a7bca56854f4f554fc3d3cec8af6a6ad52c2f68424af5dfe000c9aaa"),
    ("B", 3): ("5783ae064e61e44661b2519ee578d69eaaedd8a0576066375e0546d0d599b407",
               "4067d30431e100952b701fc467fff6a55645df1c25aa2e0531d317d63ff6154a"),
    ("C", 0): ("49874418a8c5cbf4d56dcf64b55ffecc1d2032bc2d2ab3321fbdef64c3735a89",
               "7e469b8869dfbfd9a709e14c0009a7866f9eb8f049b78ec32b0cad93edc6f100"),
    ("C", 1): ("d76fecec961453bc5975bc1932b875918514be732cc12c888af0dd683e19ff04",
               "5be1bd1902398c54e824296847deac39aff358ed07cee08d993d7bc6a0dc8a39"),
    ("C", 2): ("49874418a8c5cbf4d56dcf64b55ffecc1d2032bc2d2ab3321fbdef64c3735a89",
               "7bd0303e732eae426a7f33f859d6f3bb567538baa25eda679a7cff2e1f458806"),
    ("C", 3): ("d76fecec961453bc5975bc1932b875918514be732cc12c888af0dd683e19ff04",
               "44c6d7e6421b7192a2b8e47410f0c098863d71d4d788bee1f1533c28a5bcbd60"),
}


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
