"""Tests of the benchmark's own helpers. Run from the repository root:

    python -m pytest -q perfbench/tests
"""

import json
import shutil
from pathlib import Path

import pytest

import harness
import workloads
from fluxrecon import experiments
from fluxrecon.errors import InputError

ROOT = Path(__file__).resolve().parents[2]


# -- tail percentile ---------------------------------------------------


@pytest.mark.parametrize("n, expected", [(1, None), (39, None), (40, 75.0), (99, 75.0),
                                         (100, 90.0), (199, 90.0), (200, 95.0),
                                         (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    xs = [float(v) for v in range(n, 0, -1)]  # unsorted on purpose
    tail = harness.tail_percentile(xs)
    if expected is None:
        assert tail is None
        return
    p, value = tail
    assert p == expected
    assert sum(1 for x in xs if x > value) >= 10
    higher = [q for q in harness.TAIL_LADDER if q > p]
    for q in higher:  # every higher ladder step has fewer than ten beyond
        assert harness.tail_percentile(xs, ladder=(q,)) is None


# -- spans and self time -----------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tr = harness.Tracer(clock)
    with tr.span("op"):             # 0 .. 10
        clock.now = 1.0
        with tr.span("a"):          # 1 .. 4
            clock.now = 2.0
            with tr.span("b"):      # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 5.0
        with tr.span("b"):          # 5 .. 6
            clock.now = 6.0
        clock.now = 10.0
    assert harness.self_times(tr.spans) == [6.0, 2.0, 1.0, 1.0]
    [op] = harness.per_root(tr.spans).values()
    assert dict(op["self"]) == {"op": 6.0, "a": 2.0, "b": 2.0}
    assert dict(op["total"]) == {"op": 10.0, "a": 3.0, "b": 2.0}
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]


def test_self_time_counts_overlapping_children_once():
    spans = [harness.Span(0, "p", 0.0, None, end=10.0),
             harness.Span(1, "c", 1.0, 0, end=4.0),
             harness.Span(2, "c", 3.0, 0, end=5.0),
             harness.Span(3, "c", 9.0, 0, end=12.0)]  # clipped to the parent
    assert harness.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_nested_same_name_spans_count_once_in_total():
    clock = FakeClock()
    tr = harness.Tracer(clock)
    with tr.span("op"):
        with tr.span("x"):
            clock.now = 1.0
            with tr.span("x"):
                clock.now = 3.0
    [op] = harness.per_root(tr.spans).values()
    assert op["total"]["x"] == 3.0
    assert op["self"]["x"] == 3.0


class Target:
    def work(self, n):
        return n + 1


def test_patched_wraps_and_restores():
    clock = FakeClock()
    tr = harness.Tracer(clock)
    original = Target.__dict__["work"]
    targets = [(Target, "work", "t.work", lambda self, n: {"n": n}, None)]
    with tr.patched(targets):
        assert Target().work(2) == 3
    assert Target.__dict__["work"] is original
    assert [(s.name, s.attrs) for s in tr.spans] == [("t.work", {"n": 2})]


def test_under_only_spans_calls_made_below_a_matching_span():
    tr = harness.Tracer(FakeClock())
    with tr.patched([(Target, "work", "t.work", None, "suites.")]):
        Target().work(1)
        with tr.span("suites.kernel"):
            Target().work(1)
        with tr.span("heatkernel.functional"):
            Target().work(1)
    assert [s.name for s in tr.spans] == ["suites.kernel", "t.work",
                                          "heatkernel.functional"]


# -- failure accounting ------------------------------------------------


def _small_observation(outdir: Path) -> Path:
    scenario = experiments.ScenarioConfig(fine_n=32, fine_nt=128, recon_n=16, recon_nt=64)
    return Path(experiments.run_synthesize(scenario, outdir)["observation"])


def test_malformed_observation_is_one_failed_operation(tmp_path):
    good = _small_observation(tmp_path / "good")
    bad_dir = tmp_path / "bad"
    shutil.copytree(good.parent, bad_dir)
    bad = bad_dir / good.name
    lines = bad.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:-1] + ["not-a-number"])
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError):
        experiments.run_reconstruct(bad, tmp_path / "direct")

    log = harness.OpLog()
    assert log.run(lambda: workloads.reconstruct_checked(bad, tmp_path / "o1")) is None
    fingerprint, sup, seconds = log.run(
        lambda: workloads.reconstruct_checked(good, tmp_path / "o2"))
    assert (log.attempted, log.failed) == (2, 1)
    assert log.errors[0].startswith("InputError: malformed observation row")
    assert sup >= 0.0 and seconds > 0.0 and len(fingerprint) == 64


def test_reconstruct_check_rejects_a_decreasing_curve(tmp_path):
    good = _small_observation(tmp_path / "obs")
    paths = experiments.run_reconstruct(good, tmp_path / "out")
    curve = Path(paths["curve"])
    lines = curve.read_text().splitlines()
    row = lines[-1].split(",")
    row[1] = "-1"
    curve.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
    with pytest.raises(workloads.CheckFailed, match="decreases"):
        workloads.check_reconstruction(paths)


# -- BENCHMARK.json matches what the benchmark prints ------------------


def test_benchmark_json_names_match_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in workloads.LAYER_METRICS]
