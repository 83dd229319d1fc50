"""Property test of the command line's exit-code contract.

Configs are drawn around the committed reference day, some of them breaking
config rules.  Every run ends in exit code 0 (a certified report), 1 (no
certified answer) or 2 (unusable input), and no exception escapes.

Mode A is left out: a run has no wall-clock budget yet, and a drawn mode-A
config can search its node limit for minutes (see ROADMAP item 8).
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from station_ems import cli

from conftest import FIXTURES

REF = json.loads((FIXTURES / "ref" / "config.json").read_text())


@pytest.fixture(scope="module")
def site_dir(tmp_path_factory):
    """The reference day's CSVs, written once for every drawn config."""
    root = tmp_path_factory.mktemp("site")
    for path in (FIXTURES / "ref").glob("*.csv"):
        shutil.copy(path, root / path.name)
    return root


def _between(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def _ess(draw):
    low = draw(_between(0.0, 0.9))
    return {"capacity_kwh": draw(_between(0.001, 3000.0)),
            "soc_min_fraction": low,
            "soc_init_fraction": low + draw(_between(0.0, 1.0)) * (1.0 - low),
            "charge_rate_max_kw": draw(_between(0.0, 5000.0)),
            "discharge_rate_max_kw": draw(_between(0.0, 5000.0))}


# each drawn value keeps its key's rules, but arrival offsets that no step
# can hold are drawn too; one rule may then be broken on purpose
CONFIGS = st.fixed_dictionaries({
    "ess": _ess(),
    "grid": st.fixed_dictionaries({
        "p_buy_max_kw": _between(1000.0, 6000.0),
        "p_sell_max_kw": _between(0.0, 2000.0),
    }),
    "peak": st.fixed_dictionaries({"p_max_kw": _between(1500.0, 6000.0)}),
    "flexibility": st.fixed_dictionaries({"kappa": _between(0.0, 1.0)}),
    "weights": st.fixed_dictionaries({
        "w_power": _between(0.0, 2.0),
        "w_theta": _between(0.0, 2.0),
    }),
    "car": st.fixed_dictionaries({
        "arrival_rate_per_hour": _between(0.0, 20.0),
    }),
    # sorted, so min <= mode <= max; a max of 5 minutes or less is refused
    "bus": st.lists(_between(0.5, 120.0), min_size=3, max_size=3).map(sorted),
    "broken": st.one_of(st.none(), st.sampled_from([
        ("ess", "capacity_kwh", 0.0),
        ("ess", "soc_min_fraction", -0.1),
        ("ess", "soc_init_fraction", 1.1),
        ("ess", "charge_rate_max_kw", -1.0),
        ("grid", "p_buy_max_kw", 0.0),
        ("grid", "p_sell_max_kw", -1.0),
        ("peak", "p_max_kw", 0.0),
        ("flexibility", "kappa", 1.5),
        ("weights", "w_theta", -1.0),
        ("car", "arrival_rate_per_hour", -1.0),
    ])),
})


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(draw=CONFIGS)
def test_run_exits_0_1_or_2_and_0_means_a_checked_report(site_dir, draw):
    doc = json.loads(json.dumps(REF))
    for section in ("ess", "grid", "peak", "flexibility", "weights"):
        doc[section].update(draw[section])
    doc["fleet"]["car"].update(draw["car"])
    if draw["broken"] is not None:
        section, key, value = draw["broken"]
        (doc["fleet"] if section == "car" else doc)[section][key] = value
    low, mode, high = draw["bus"]
    doc["fleet"]["bus"].update(arrival_offset_min_minutes=low,
                               arrival_offset_mode_minutes=mode,
                               arrival_offset_max_minutes=high)
    # beside the CSVs, since the config names them by relative path
    fd, cfg_path = tempfile.mkstemp(suffix=".json", dir=site_dir)
    with open(fd, "w") as f:
        json.dump(doc, f)
    out = Path(tempfile.mkdtemp(dir=site_dir))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["run", "--config", cfg_path, "--mode", "B",
                         "--scenarios", "0", "--out", str(out)])
    assert code in (0, 1, 2), err.getvalue()
    if code == 0:
        report = json.loads((out / "report.json").read_text())
        assert report["checks_passed"] is True

