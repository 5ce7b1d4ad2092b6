"""scripts/bench_stages.py: the report's shape on one cheap config, and the
shape of the newest committed BENCH_*.json against configs/ and the verify
suites."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from fluxrecon.recon import STAGES
from fluxrecon.suites import SUITES

ROOT = Path(__file__).resolve().parents[1]
KEYS = ({"synthesize_s", "load_s", "reconstruct_s", "total_s"}
        | {f"{stage}_s" for stage in STAGES})
CHEAP = {"domain_kind": "interval", "lengths": [1.0], "final_time": 1.0,
         "fine_n": 64, "fine_nt": 256, "recon_n": 16, "recon_nt": 64,
         "phi": {"family": "ramp", "profile": "const"},
         "reaction": {"family": "linear", "coeff": 1.0},
         "reconstruction": {"compare_extensions": True}}


@pytest.fixture(scope="module")
def stages():
    spec = importlib.util.spec_from_file_location("bench_stages",
                                                  ROOT / "scripts" / "bench_stages.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_report(report: dict, stems: set[str]) -> None:
    assert set(report) == {"host", "runs", "configs", "suites"}
    assert set(report["suites"]) == {f"{suite}_s" for suite in SUITES + ("all",)}
    assert all(isinstance(v, float) and v > 0.0 for v in report["suites"].values())
    assert set(report["host"]) == {"python", "numpy", "machine", "cpus", "openblas_threads"}
    assert set(report["configs"]) == stems
    for timings in report["configs"].values():
        assert set(timings) == KEYS
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        # a median keeps an order that holds in every run, and so does
        # rounding, but not a sum
        assert max(timings[f"{s}_s"] for s in STAGES) <= timings["reconstruct_s"]
        assert max(timings["load_s"], timings["reconstruct_s"]) <= timings["total_s"]


def test_report_of_one_config(stages, tmp_path, capsys):
    config = tmp_path / "cheap.json"
    config.write_text(json.dumps(CHEAP))
    assert stages.main([str(config), "--runs", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    _check_report(report, {"cheap"})
    assert report["runs"] == 2


def test_runs_must_be_positive(stages):
    with pytest.raises(SystemExit):
        stages.main(["--runs", "0"])


def test_newest_committed_bench_covers_every_config():
    benches = sorted(ROOT.glob("BENCH_*.json"),
                     key=lambda p: int(re.fullmatch(r"BENCH_(\d+)\.json", p.name)[1]))
    assert benches, "no BENCH_*.json is committed"
    report = json.loads(benches[-1].read_text())
    _check_report(report, {p.stem for p in (ROOT / "configs").glob("*.json")})
