"""Cross-check of the bundled solver against HiGHS on the reference day.

HiGHS is reached through ``scipy.optimize.milp`` and shares no code with the
bundled simplex or tree search; every scenario model of the committed
reference day is solved by both, in each mode.
"""
from __future__ import annotations

import pytest

from station_ems.pipeline import run_pipeline

from conftest import ref_scenario_models, scipy_rows

optimize = pytest.importorskip("scipy.optimize")


def highs_objective(milp) -> float:
    a, lo, hi = scipy_rows(milp)
    res = optimize.milp(milp.col_obj, integrality=milp.col_binary.astype(int),
                        bounds=optimize.Bounds(milp.col_lb, milp.col_ub),
                        constraints=optimize.LinearConstraint(a, lo, hi),
                        options={"mip_rel_gap": 1e-9})
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_reference_day_objectives_match_highs(mode, ref_config_path, ref_run):
    result = ref_run[0] if mode == "A" else run_pipeline(ref_config_path, mode=mode)
    ours = dict(zip(result.solved_indices,
                    (sol.objective for sol in result.solutions)))
    models = ref_scenario_models(mode)
    assert sorted(ours) == [idx for idx, _ in models]
    for idx, model in models:
        ref = highs_objective(model.milp)
        rel = abs(ours[idx] - ref) / max(1.0, abs(ref))
        assert rel <= 1e-6, f"mode {mode} scenario {idx}: relative error {rel:.3e}"
