"""The accuracy harness runs a fixed case matrix and prints reproducible
bytes; here its case list, one cheap case, and the config cases against
the committed baseline, not the whole matrix."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HARNESS = ROOT / "scripts" / "accuracy.py"


def _load_harness():
    spec = importlib.util.spec_from_file_location("accuracy_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_case_matrix():
    names = list(_load_harness().cases())
    assert len(names) == len(set(names)) == 40
    stems = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
    assert sorted(n for n in names if n.startswith("config/")) == [f"config/{s}" for s in stems]
    assert sum(n.startswith("clean/") for n in names) == 9
    assert sum(n.startswith("noise/") for n in names) == 27


def test_case_record_is_reproducible():
    harness = _load_harness()
    scenario = harness.cases()["config/zero_interval"]
    first, second = (json.dumps(harness.run_case(scenario), sort_keys=True)
                     for _ in range(2))
    assert first == second
    record = json.loads(first)
    assert record["paper"]["rel_sup_error"] is None
    assert "timings" not in record and "timings" not in record["paper"]


@pytest.mark.parametrize("stem", sorted(p.stem for p in (ROOT / "configs").glob("*.json")))
def test_config_cases_keep_the_baseline_paper_values(stem):
    # the values keep 6 significant digits and a discrepancy at rounding
    # level is written as 0, so rounding-level moves of the pipeline, or of
    # the host, leave the whole record as committed
    baseline = json.loads((ROOT / "ACCURACY_25.json").read_text())
    name = f"config/{stem}"
    harness = _load_harness()
    assert harness.run_case(harness.cases()[name]) == baseline[name]


def test_baseline_keeps_the_paper_values_of_the_first():
    # ACCURACY_24 differs from ACCURACY_18 only in the discrepancies that
    # are rounding noise, which it writes as 0; ACCURACY_25 keeps every paper
    # value, and only the alternative extension, so the discrepancy, moves
    old, mid, new = (json.loads((ROOT / f"ACCURACY_{n}.json").read_text())
                     for n in (18, 24, 25))
    assert old.keys() == mid.keys() == new.keys()
    for name in old:
        assert mid[name]["paper"] == old[name]["paper"]
        assert new[name]["paper"] == old[name]["paper"]
        assert new[name].keys() == old[name].keys()
        if mid[name]["extension_discrepancy"] != old[name]["extension_discrepancy"]:
            assert mid[name]["extension_discrepancy"] == 0.0
            assert old[name]["extension_discrepancy"] < 1e-9 * old[name]["paper"]["curve_sup"]
