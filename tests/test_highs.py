"""Cross-check of the bundled solver against HiGHS.

HiGHS is reached through ``highs_solve``, the helper that the ``oracle``
subcommand uses, and shares no code with the bundled simplex or tree
search.  Every scenario model of the committed reference day is solved by
both, in each mode, and HiGHS also solves the paper's formulation, with a
grid-direction binary per step.  Random instances too large for exhaustive
enumeration are checked the same way.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from station_ems.milp.canonical import STATUS_OPTIMAL
from station_ems.milp.highs import highs_solve
from station_ems.model import solve_ems
from station_ems.pipeline import run_pipeline

from conftest import paper_formulation, random_ems_instance, ref_scenario_models


def highs_objective(milp) -> float:
    status, objective = highs_solve(milp)
    assert status == STATUS_OPTIMAL, status
    return objective


def rel_error(ours: float, ref: float) -> float:
    return abs(ours - ref) / max(1.0, abs(ref))


@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_reference_day_objectives_match_highs(mode, ref_config_path, ref_run):
    result = ref_run[0] if mode == "A" else run_pipeline(ref_config_path, mode=mode)
    ours = dict(zip(result.solved_indices,
                    (sol.objective for sol in result.solutions)))
    models = ref_scenario_models(mode)
    assert sorted(ours) == [idx for idx, _ in models]
    for idx, model in models:
        for name, milp in (("model", model.milp),
                           ("paper formulation", paper_formulation(model))):
            rel = rel_error(ours[idx], highs_objective(milp))
            assert rel <= 1e-6, (f"mode {mode} scenario {idx}, {name}: "
                                 f"relative error {rel:.3e}")


def test_grown_random_instances_match_highs_on_the_paper_formulation():
    # the criterion-1 generator over 12 to 16 steps in modes A and C: the
    # paper's formulation holds 24 to 32 binaries, past exhaustive
    # enumeration
    rng = np.random.default_rng(20240820)
    t0 = time.perf_counter()
    for k in range(20):
        model = random_ems_instance(rng, steps=range(12, 17), modes=("A", "C"))
        paper = paper_formulation(model)
        assert 24 <= paper.n_binaries <= 32, k
        sol = solve_ems(model)
        rel = rel_error(sol.objective, highs_objective(paper))
        assert rel <= 1e-6, f"instance {k}: relative error {rel:.3e}"
    print(f"\n20 grown instances checked against HiGHS in "
          f"{time.perf_counter() - t0:.1f}s")
