"""Time synthesize and every reconstruct stage on each scenario config, and
each verify suite, and print the medians as one JSON document to stdout.

    PYTHONPATH=src python3 scripts/bench_stages.py --runs 7 > BENCH_<n>.json

Each config (default: configs/*.json) runs once untimed, then `--runs`
times, each run a synthesize and a reconstruct in a fresh temporary
directory. `synthesize_s` is the wall time of run_synthesize. The other
entries are the `timings` of the run's metrics.json: `load_s`, one
`<stage>_s` per stage of fluxrecon.recon.STAGES, summed over both passes
and over both extensions when the config compares them, `reconstruct_s`
(the stages and the diagnostics) and `total_s` (load, reconstruct and the
writes). Under `suites`, `<suite>_s` is the wall time of
fluxrecon.suites.run_suite for each suite of fluxrecon.suites.SUITES, run
once untimed (a suite that fails ends the script) and then `--runs` times.
Each entry is the median over the runs, in seconds to 4 significant
digits. `host` names the interpreter, numpy, the machine and its CPU
count, and OPENBLAS_NUM_THREADS as set, since the numbers mean nothing
without them. The output is committed at the repo root as
BENCH_<n>.json, which a speed claim cites beside its benchmark pairs.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from fluxrecon import suites
from fluxrecon.experiments import load_scenario, run_reconstruct, run_synthesize

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def run_config(config: Path) -> dict[str, float]:
    """The wall seconds of one synthesize and the timings of the
    reconstruct that reads its observation."""
    scenario = load_scenario(config)
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        paths = run_synthesize(scenario, Path(tmp))
        synthesize_s = time.perf_counter() - t0
        paths.update(run_reconstruct(paths["observation"], Path(tmp)))
        timings = json.loads(Path(paths["metrics"]).read_text())["timings"]
    return {"synthesize_s": synthesize_s, **timings}


def time_suite(name: str) -> float:
    """The wall seconds of one run of a verify suite."""
    t0 = time.perf_counter()
    suites.run_suite(name)
    return time.perf_counter() - t0


def medians(runs: list[dict[str, float]]) -> dict[str, float]:
    return {key: float(f"{statistics.median(run[key] for run in runs):.4g}")
            for key in runs[0]}


def host() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "cpus": os.cpu_count(),
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("configs", nargs="*", help="scenario JSONs (default: configs/*.json)")
    ap.add_argument("--runs", type=int, default=7, help="timed runs per config (default 7)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    configs = [Path(c) for c in args.configs] or sorted(CONFIG_DIR.glob("*.json"))
    report = {}
    for config in configs:
        run_config(config)
        report[config.stem] = medians([run_config(config) for _ in range(args.runs)])
        print(f"{config.stem}: {report[config.stem]}", file=sys.stderr, flush=True)
    for name in suites.SUITES:
        if not suites.run_suite(name)["passed"]:
            raise SystemExit(f"verify suite {name} failed")
    verify = medians([{f"{name}_s": time_suite(name) for name in suites.SUITES}
                      for _ in range(args.runs)])
    print(f"suites: {verify}", file=sys.stderr, flush=True)
    print(json.dumps({"host": host(), "runs": args.runs, "configs": report, "suites": verify},
                     sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
