"""The fluxrecon side of the benchmark: workloads, output checks, and the
layer boundaries the traced run puts spans on.

Every workload drives the package only through `experiments.run_synthesize`,
`experiments.run_reconstruct` and `experiments.run_verify`, looked up on
the module at call time so the traced run can wrap them. Its inputs (the
scenario files and, for `rect_reconstruct`, the observations) are made
from the benchmark seed in `setup`; `op(i)` runs the i-th operation of
the closed loop, checks its outputs and returns its phase times.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from fluxrecon import eigenbasis, experiments, forward, heatkernel, recon, suites


class CheckFailed(Exception):
    """An operation's outputs are malformed, wrong, or not reproducible."""


# Sizes of configs/saturating_rectangle.json and configs/linear_interval.json,
# fixed here so that editing those files does not change the benchmark.
RECTANGLE = {"domain_kind": "rectangle", "lengths": [1.0, 1.0], "final_time": 1.0,
             "fine_n": 64, "fine_nt": 512, "recon_n": 16, "recon_nt": 64,
             "phi": {"family": "ramp", "profile": "const", "amplitude": 1.0},
             "reaction": {"family": "saturating", "coeff": 1.0}}
INTERVAL = {"domain_kind": "interval", "lengths": [1.0], "final_time": 1.0,
            "fine_n": 512, "fine_nt": 2048, "recon_n": 128, "recon_nt": 256,
            "phi": {"family": "ramp", "profile": "const", "amplitude": 1.0}}
RECT_NOISE = (0.0, 0.005, 0.01, 0.02)
SWEEP_REACTIONS = ({"family": "linear", "coeff": 1.0}, {"family": "zero"},
                   {"family": "power", "coeff": 1.0, "exponent": 2.0},
                   {"family": "saturating", "coeff": 1.0})
SWEEP_NOISE = (0.0, 0.01)


# -- output checks -----------------------------------------------------


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def check_reconstruction(paths: dict) -> tuple[str, float]:
    """Fingerprint and sup error of one reconstruct's outputs.

    Passes when curve.csv, diagnostics.json and metrics.json parse and the
    curve is finite, anchored at (0, 0) and nondecreasing. The fingerprint
    covers the bytes of the curve and diagnostics files and metrics.json
    without its `timings` key, the one key allowed to change between runs.
    """
    if "metrics" not in paths:
        raise CheckFailed("reconstruct wrote no metrics.json")
    curve_bytes = Path(paths["curve"]).read_bytes()
    diag_bytes = Path(paths["diagnostics"]).read_bytes()
    try:
        rows = list(csv.reader(ln for ln in curve_bytes.decode().splitlines()
                               if not ln.startswith("#")))
        if rows[0] != ["knot", "value", "count", "spread"]:
            raise CheckFailed(f"curve.csv header is {rows[0]}")
        knots = [float(r[0]) for r in rows[1:]]
        values = [float(r[1]) for r in rows[1:]]
        json.loads(diag_bytes)
        metrics = json.loads(Path(paths["metrics"]).read_text())
    except (ValueError, IndexError) as exc:
        raise CheckFailed(f"reconstruct outputs do not parse: {exc}") from None
    if len(knots) < 2 or not all(map(math.isfinite, knots + values)):
        raise CheckFailed("curve is empty or not finite")
    if knots[0] != 0.0 or values[0] != 0.0:
        raise CheckFailed(f"curve starts at ({knots[0]}, {values[0]}), not (0, 0)")
    if any(b < a for a, b in zip(values, values[1:])):
        raise CheckFailed("curve decreases")
    sup = metrics.get("sup_error")
    if not isinstance(sup, float) or not math.isfinite(sup):
        raise CheckFailed(f"metrics.json sup_error is {sup!r}")
    metrics.pop("timings", None)
    stable = json.dumps(metrics, sort_keys=True, indent=2).encode()
    return _digest(curve_bytes, diag_bytes, stable), sup


def reconstruct_checked(observation: Path, outdir: Path) -> tuple[str, float, float]:
    """One timed `run_reconstruct` with its output check: (fingerprint,
    sup error, seconds in the call)."""
    t0 = time.perf_counter()
    paths = experiments.run_reconstruct(observation, outdir)
    elapsed = time.perf_counter() - t0
    fingerprint, sup = check_reconstruction(paths)
    return fingerprint, sup, elapsed


class Workload:
    """Base: seeded inputs under `workdir`, and the determinism check.

    The warm-up and the first timed operation share an input, so every
    run sees at least one input twice; every run of an input must give
    outputs identical to its first run.
    """

    name = ""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self._fingerprints: dict[object, str] = {}
        self._ops = 0

    def setup(self) -> None:
        """Write the inputs; runs before the warm-up, inside set-up time."""

    def op(self, i: int) -> dict:
        raise NotImplementedError

    def _opdir(self) -> Path:
        self._ops += 1
        return self.workdir / "ops" / str(self._ops)

    def _remember(self, key, fingerprint: str) -> None:
        first = self._fingerprints.setdefault(key, fingerprint)
        if first != fingerprint:
            raise CheckFailed(f"outputs for input {key!r} differ from its first run")

    def _write_scenario(self, name: str, raw: dict):
        path = self.workdir / "inputs" / name / "scenario.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(raw, sort_keys=True, indent=2) + "\n")
        return experiments.load_scenario(path)

    def _noise_seeds(self, count: int) -> list[int]:
        return [int(s) for s in self.rng.integers(0, 2**31 - 1, size=count)]


class RectReconstruct(Workload):
    """`run_reconstruct` of four rectangle observations, noise 0 to 0.02."""

    name = "rect_reconstruct"

    def setup(self) -> None:
        seeds = self._noise_seeds(len(RECT_NOISE))
        self.order = [int(k) for k in self.rng.permutation(len(RECT_NOISE))]
        self.observations = []
        for k, (level, seed) in enumerate(zip(RECT_NOISE, seeds)):
            scenario = self._write_scenario(
                f"rect{k}", {**RECTANGLE, "noise_level": level, "seed": seed})
            out = self.workdir / "inputs" / f"rect{k}"
            self.observations.append(
                Path(experiments.run_synthesize(scenario, out)["observation"]))

    def op(self, i: int) -> dict:
        k = self.order[i % len(self.order)]
        outdir = self._opdir()
        fingerprint, sup, elapsed = reconstruct_checked(self.observations[k], outdir)
        self._remember(k, fingerprint)
        shutil.rmtree(outdir)
        return {"phases": {"reconstruct": elapsed}, "sup_error": sup, "input": k}


class IntervalSweep(Workload):
    """`run_synthesize` then `run_reconstruct` on the interval, cycling
    through four reaction families at two noise levels."""

    name = "interval_sweep"

    def setup(self) -> None:
        combos = [(r, n) for r in SWEEP_REACTIONS for n in SWEEP_NOISE]
        seeds = self._noise_seeds(len(combos))
        self.order = [int(k) for k in self.rng.permutation(len(combos))]
        self.scenarios = [
            self._write_scenario(f"sweep{k}", {**INTERVAL, "reaction": reaction,
                                               "noise_level": level, "seed": seed})
            for k, ((reaction, level), seed) in enumerate(zip(combos, seeds))]

    def op(self, i: int) -> dict:
        k = self.order[i % len(self.order)]
        outdir = self._opdir()
        t0 = time.perf_counter()
        paths = experiments.run_synthesize(self.scenarios[k], outdir)
        synth = time.perf_counter() - t0
        observed = (Path(paths["observation"]).read_bytes()
                    + Path(paths["metadata"]).read_bytes())
        fingerprint, sup, elapsed = reconstruct_checked(Path(paths["observation"]), outdir)
        self._remember(k, _digest(observed, fingerprint.encode()))
        shutil.rmtree(outdir)
        return {"phases": {"synthesize": synth, "reconstruct": elapsed},
                "sup_error": sup, "input": k}


class VerifySuites(Workload):
    """`run_verify("all")`: the five invariant suites, no file IO."""

    name = "verify_suites"

    def op(self, i: int) -> dict:
        t0 = time.perf_counter()
        report = experiments.run_verify("all")
        elapsed = time.perf_counter() - t0
        if report.get("passed") is not True:
            failed = [c["name"] for s in report.get("suites", [])
                      for c in s["checks"] if not c["passed"]]
            raise CheckFailed(f"verify report did not pass: {failed}")
        self._remember("all", _digest(json.dumps(report, sort_keys=True).encode()))
        return {"phases": {"verify": elapsed}, "input": "all"}


WORKLOADS = {w.name: w for w in (RectReconstruct, IntervalSweep, VerifySuites)}


# -- traced layer boundaries ---------------------------------------------


def _counts(fn, **rules):
    """attrs callback for Tracer.wrap: each rule maps the call's bound
    arguments to one count."""
    sig = inspect.signature(fn)

    def attrs(*args, **kwargs):
        bound = sig.bind(*args, **kwargs).arguments
        return {key: rule(bound) for key, rule in rules.items()}
    return attrs


def _node_steps(a):
    return math.prod(a["grid"].shape) * a["nt"]


# (module, function, span name, counts); every module of the package that
# binds the function gets the wrapper, since callers look names up there.
FUNCTION_SPANS = [
    (experiments, "run_synthesize", "experiments.run", {}),
    (experiments, "run_reconstruct", "experiments.run", {}),
    (experiments, "run_verify", "experiments.run", {}),
    (experiments, "load_observation", "experiments.load_observation",
     {"observation_bytes": lambda a: os.path.getsize(a["csv_path"])}),
    (experiments, "write_observation", "experiments.write", {}),
    (experiments, "write_curve", "experiments.write", {}),
    (experiments, "write_metrics", "experiments.write", {}),
    (forward, "solve_semilinear", "forward.solve", {"node_steps": _node_steps}),
    (forward, "solve_linear_heat", "forward.solve", {"node_steps": _node_steps}),
    (forward, "neumann_trace", "forward.neumann_trace", {}),
    (recon, "compute_data_functional", "heatkernel.functional",
     {"functional_samples": lambda a: a["gap"].values.size}),
    (recon, "flux_difference", "recon.flux_difference", {}),
    (recon, "extend_boundary_data", "recon.extend", {}),
    (recon, "project_coefficients", "recon.project", {}),
    (recon, "differentiate_coefficients", "recon.derivative", {}),
    (recon, "assemble_series", "recon.assemble", {}),
    (recon, "build_curve", "recon.curve", {}),
    (recon, "reconstruct", "recon.reconstruct", {}),
    *[(suites, f"{s}_suite", f"suites.{s}", {}) for s in suites.SUITES],
]
# Point methods count as heatkernel.pointwise only when a suite calls them;
# inside the data functional their time belongs to the functional.
POINT_METHODS = ("value", "values", "spectral_values", "images_values", "profile",
                 "mass", "boundary_propagate")
METHOD_SPANS = [  # (class, method, span name, counts, only under spans named)
    (heatkernel.KernelEvaluator, "__init__", "heatkernel.evaluator_init", {}, None),
    *[(heatkernel.KernelEvaluator, m, "heatkernel.pointwise", {}, "suites.")
      for m in POINT_METHODS],
    (eigenbasis.EigenBasis, "values_at", "eigenbasis.values_at",
     {"values_at_calls": lambda a: 1,
      "mode_evals": lambda a: a["self"].size * a["self"].domain.dim}, None),
    (eigenbasis.EigenBasis, "project", "eigenbasis.project", {}, None),
]


def trace_targets() -> list[tuple]:
    """Targets for Tracer.patched covering every layer boundary above."""
    modules = [m for name, m in sys.modules.items()
               if name == "fluxrecon" or name.startswith("fluxrecon.")]
    targets = []
    for module, fname, span, rules in FUNCTION_SPANS:
        fn = vars(module)[fname]
        attrs = _counts(fn, **rules) if rules else None
        targets += [(m, attr, span, attrs, None) for m in modules
                    for attr, value in vars(m).items() if value is fn]
    for cls, meth, span, rules, under in METHOD_SPANS:
        fn = vars(cls)[meth]
        targets.append((cls, meth, span, _counts(fn, **rules) if rules else None, under))
    return targets


# The end-to-end metrics every workload reports on its result line, with
# their units. With one caller in a closed loop ops_per_s is the inverse of
# the mean operation time. It stands in for the median because a CPU of a
# shared host can switch between two speeds about 1.6x apart, each held for
# 10 s to over a minute, and a median over one run jumps between the two
# where a mean moves with the share of time spent at each.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics: (name, unit, better, kind, source). A "self" metric is
# the median per traced operation of the summed self time of the named
# spans; "count" the median per operation of a count; "rate" a count over
# the self time of a span, both summed over the traced operations. The
# suites are "total": the median per operation of a suite's whole time,
# children included, since a suite's own code does almost none of the work
# and the self-time split of that work is in the forward, heatkernel and
# eigenbasis metrics.
LAYER_METRICS = [
    ("experiments.load_observation_s", "s", "lower", "self", ("experiments.load_observation",)),
    ("experiments.write_s", "s", "lower", "self", ("experiments.write",)),
    ("experiments.other_s", "s", "lower", "self", ("experiments.run",)),
    ("experiments.observation_bytes", "bytes", "lower", "count", "observation_bytes"),
    ("forward.solve_s", "s", "lower", "self", ("forward.solve",)),
    ("forward.node_steps", "count", "lower", "count", "node_steps"),
    ("forward.node_steps_per_s", "1/s", "higher", "rate", ("node_steps", "forward.solve")),
    ("forward.neumann_trace_s", "s", "lower", "self", ("forward.neumann_trace",)),
    ("heatkernel.functional_s", "s", "lower", "self", ("heatkernel.functional",)),
    ("heatkernel.functional_total_s", "s", "lower", "total", "heatkernel.functional"),
    ("heatkernel.functional_samples_per_s", "1/s", "higher", "rate",
     ("functional_samples", "heatkernel.functional")),
    ("heatkernel.evaluator_init_s", "s", "lower", "self", ("heatkernel.evaluator_init",)),
    ("heatkernel.pointwise_s", "s", "lower", "self", ("heatkernel.pointwise",)),
    ("eigenbasis.values_at_s", "s", "lower", "self", ("eigenbasis.values_at",)),
    ("eigenbasis.values_at_calls", "count", "lower", "count", "values_at_calls"),
    ("eigenbasis.mode_evals", "count", "lower", "count", "mode_evals"),
    ("eigenbasis.project_s", "s", "lower", "self", ("eigenbasis.project",)),
    ("recon.flux_difference_s", "s", "lower", "self", ("recon.flux_difference",)),
    ("recon.extend_s", "s", "lower", "self", ("recon.extend",)),
    ("recon.project_s", "s", "lower", "self", ("recon.project",)),
    ("recon.derivative_s", "s", "lower", "self", ("recon.derivative",)),
    ("recon.assemble_s", "s", "lower", "self", ("recon.assemble",)),
    ("recon.curve_s", "s", "lower", "self", ("recon.curve",)),
    ("recon.other_s", "s", "lower", "self", ("recon.reconstruct",)),
    *[(f"suites.{s}_s", "s", "lower", "total", f"suites.{s}") for s in suites.SUITES],
    ("trace.overhead", "ratio", "lower", "overhead", None),  # filled in by run.py
]


def layer_metrics(ops: list[dict]) -> dict[str, float]:
    """Per-layer values from the per-root totals of the traced operations."""
    out = {}
    for name, _unit, _better, kind, source in LAYER_METRICS:
        if kind == "self":
            out[name] = float(np.median([sum(op["self"].get(s, 0.0) for s in source)
                                         for op in ops]))
        elif kind == "total":
            out[name] = float(np.median([op["total"].get(source, 0.0) for op in ops]))
        elif kind == "overhead":
            continue
        elif kind == "count":
            out[name] = float(np.median([op["counts"].get(source, 0.0) for op in ops]))
        else:
            key, span = source
            busy = sum(op["self"].get(span, 0.0) for op in ops)
            out[name] = sum(op["counts"].get(key, 0.0) for op in ops) / busy if busy else 0.0
    return out
