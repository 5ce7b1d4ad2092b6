"""scripts/bench_pairs.py: the verdicts on fixed numbers, and the pair
order and report with run_once replaced, so no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _floats(text):
    return [float(x) for x in text.split()]


def test_a_claim_that_holds(pairs):
    # verify_suites ops_per_s of two trees, ten 40 s runs each, in pair order
    parent = _floats("1.449 1.453 1.159 1.217 1.552 1.549 1.597 1.758 1.752 1.714")
    change = _floats("2.053 1.906 1.463 1.708 1.869 1.594 1.998 2.014 2.148 2.090")
    s = pairs.summarize(parent, change, "higher", 0.25)
    assert s["parent_median"] == pytest.approx(1.5505)
    assert (s["parent_q1"], s["parent_q3"]) == (pytest.approx(1.391), pytest.approx(1.7235))
    assert s["change_median"] == pytest.approx(1.952)
    assert (s["won"], s["pairs"]) == (10, 10)
    assert s["claim"] and not s["worse_than_bound"]


def test_lower_is_better(pairs):
    parent = _floats("48.88 48.87 48.76 48.77 48.82 48.77 49.05 48.88 48.82 48.79")
    change = _floats("47.90 47.79 47.76 47.77 47.79 47.82 47.80 47.78 47.81 47.90")
    s = pairs.summarize(parent, change, "lower", 0.05)
    assert s["won"] == 10 and s["claim"] and not s["worse_than_bound"]
    flipped = pairs.summarize(change, parent, "lower", 0.05)
    assert flipped["won"] == 0 and not flipped["claim"] and not flipped["worse_than_bound"]
    assert pairs.summarize(change, parent, "lower", 0.01)["worse_than_bound"]


def test_nine_pairs_with_a_gap_inside_the_spread(pairs):
    # 9 of 10 pairs won, but the medians are 1 apart and the parent's
    # quartiles 2 apart
    parent = [20.0, 22.0, 21.0, 23.0, 19.0, 22.0, 20.0, 24.0, 21.0, 22.0]
    change = [x + 1.0 for x in parent[:9]] + [parent[9] - 1.0]
    s = pairs.summarize(parent, change, "higher", 0.25)
    assert s["won"] == 9
    assert s["parent_q3"] - s["parent_q1"] > s["change_median"] - s["parent_median"] > 0
    assert not s["claim"]


def test_ties_count_for_neither_side(pairs):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    change = [0.0] + [x + 100.0 for x in parent[1:]]
    change[1] = parent[1]
    s = pairs.summarize(parent, change, "higher", 0.25)
    assert s["won"] == 8 and not s["claim"]
    assert pairs.summarize(parent, [x + 100.0 for x in parent], "higher", 0.25)["claim"]


def test_a_median_worse_than_its_bound(pairs):
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.0, 1.02, 0.98]
    assert pairs.summarize(parent, [x * 0.7 for x in parent], "higher", 0.25)["worse_than_bound"]
    assert not pairs.summarize(parent, [x * 0.8 for x in parent], "higher", 0.25)[
        "worse_than_bound"]
    assert pairs.summarize(parent, [x * 1.3 for x in parent], "lower", 0.25)["worse_than_bound"]


def test_runs_alternate_and_every_metric_is_reported(pairs, monkeypatch, capsys):
    calls = []
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree.name, seed))
        value = 2.0 if tree.name == "change" else 1.0
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {n: {"value": value, "unit": "u"} for n in names}}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    assert pairs.main([str(ROOT / "parent"), str(ROOT / "change"), "--workload", "w",
                       "--pairs", "4", "--seconds", "1", "--seed", "7"]) == 0
    assert calls == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
                     ("parent", 9), ("change", 9), ("change", 10), ("parent", 10)]
    out = capsys.readouterr().out
    for name in names:
        assert f"\n{name} (" in out
    assert "parent: 0 of 12 operations failed" in out
