"""Scenario configs, deterministic file IO and the experiment runners.

All outputs are written atomically (temp file + rename) with floats at
17 significant digits and sorted JSON keys, so identical inputs yield
byte-identical files. Wall-clock timings are confined to the "timings"
key of metrics.json; everything else is reproducible byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InputError, check_fields, is_finite_real
from .families import make_boundary_data, make_reaction
from .fields import BoundaryTrace
from .forward import ObservedData, synthesize_observation
from .geometry import DomainKind, DomainSpec, boundary_nodes, build_grid
from .recon import (ReconstructionConfig, ReconstructionResult, evaluate_curve,
                    reconstruct)
from .suites import run_suite

SCHEMA_VERSION = 1
OUTPUT_ENV_VAR = "FLUXRECON_OUT"

# the keys of a scenario's reconstruction block; grid_n is the scenario's recon_n
_RECON_KEYS = {f.name for f in fields(ReconstructionConfig)} - {"grid_n"}
# integer keys with their least value
_INT_KEYS = {"fine_n": 1, "fine_nt": 1, "recon_n": 1, "recon_nt": 1, "seed": 0}


@dataclass(frozen=True)
class ScenarioConfig:
    """One synthesize-then-reconstruct experiment, JSON round-trippable."""

    domain_kind: str = "interval"
    lengths: tuple[float, ...] = (1.0,)
    final_time: float = 1.0
    fine_n: int = 512
    fine_nt: int = 2048
    recon_n: int = 128
    recon_nt: int = 256
    phi: dict = field(default_factory=lambda: {"family": "ramp", "profile": "const"})
    reaction: dict = field(default_factory=lambda: {"family": "linear", "coeff": 1.0})
    noise_level: float = 0.0
    seed: int = 0
    reconstruction: dict = field(default_factory=dict)

    def __post_init__(self):
        """Check every value and build every part once, so a malformed
        scenario fails here as a ConfigurationError and not in a later run."""
        for key in ("phi", "reaction", "reconstruction"):
            _require(isinstance(getattr(self, key), dict), key, "an object")
        check_fields("scenario", self, integers=_INT_KEYS, reals=("final_time", "noise_level"))
        for key, least in _INT_KEYS.items():
            _require(getattr(self, key) >= least, key, f"an integer >= {least}")
        _require(isinstance(self.lengths, (list, tuple))
                 and all(is_finite_real(v) for v in self.lengths), "lengths",
                 "a list of finite numbers")
        object.__setattr__(self, "lengths", tuple(float(v) for v in self.lengths))
        if self.final_time <= 0:
            raise ConfigurationError(f"final_time must be positive, got {self.final_time}")
        if self.noise_level < 0:
            raise ConfigurationError(f"noise_level must be >= 0, got {self.noise_level}")
        if self.fine_nt % self.recon_nt != 0 or self.fine_nt < 2 * self.recon_nt:
            raise ConfigurationError(
                "synthesis time grid must refine the reconstruction grid by an "
                f"integer factor >= 2, got {self.fine_nt} vs {self.recon_nt}")
        if self.fine_n % self.recon_n != 0 or self.fine_n < 2 * self.recon_n:
            raise ConfigurationError(
                "synthesis space grid must refine the reconstruction grid by an "
                f"integer factor >= 2, got {self.fine_n} vs {self.recon_n}")
        unknown = set(self.reconstruction) - _RECON_KEYS
        if unknown:
            raise ConfigurationError(f"unknown reconstruction keys {sorted(unknown)}")
        for key, build in (("phi", self.build_phi), ("reaction", self.build_reaction),
                           ("reconstruction", self.recon_config)):
            try:
                build()
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"bad scenario {key}: {exc}") from None
        # a cell wider than the diffusion length sqrt(T) cannot resolve the
        # data's reach into the domain, and the flux carries no information
        for d, length in enumerate(self.lengths):
            h = length / self.recon_n
            if h * h > self.final_time:
                raise ConfigurationError(
                    f"reconstruction cell {h:g} on axis {d} is wider than the "
                    f"diffusion length sqrt(final_time) = {self.final_time ** 0.5:g}")

    def domain(self) -> DomainSpec:
        try:
            kind = DomainKind(self.domain_kind)
        except ValueError:
            raise ConfigurationError(f"unknown domain kind {self.domain_kind!r}") from None
        return DomainSpec(kind, self.lengths)

    def build_phi(self):
        return make_boundary_data(self.phi, self.domain(), self.final_time)

    def build_reaction(self):
        return make_reaction(self.reaction)

    def recon_config(self) -> ReconstructionConfig:
        return ReconstructionConfig(grid_n=self.recon_n, **self.reconstruction)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lengths"] = list(self.lengths)
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError("scenario config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"unknown scenario keys {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigurationError(f"bad scenario config: {exc}") from None


def _require(ok: bool, key: str, kind: str) -> None:
    if not ok:
        raise ConfigurationError(f"scenario value {key!r} must be {kind}")


def _read(path: Path, what: str, parse=str):
    """parse(text of the file at path), what naming the file in the
    InputError raised when it is missing, cannot be read or decoded, is
    not valid JSON or holds an integer past Python's digit limit."""
    try:
        return parse(path.read_text())
    except FileNotFoundError:
        raise InputError(f"{what} not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} {path} is not valid JSON: {exc}") from None
    except (OSError, ValueError) as exc:
        raise InputError(f"{what} {path} cannot be read: {exc}") from None


def load_scenario(path: str | Path) -> ScenarioConfig:
    return ScenarioConfig.from_dict(_read(Path(path), "scenario file", json.loads))


# -- deterministic writers ----------------------------------------------


def _atomic_write(path: Path, text: str) -> None:
    """Write through path.tmp and a rename. An OSError becomes an
    InputError naming path, and path.tmp is not left behind."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise InputError(f"output {path} cannot be written: {exc}") from None


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def output_dir(explicit: str | None) -> Path:
    base = explicit or os.environ.get(OUTPUT_ENV_VAR) or "fluxrecon_out"
    path = Path(base)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"output directory {path} cannot be made: {exc}") from None
    return path


def write_observation(obs: ObservedData, scenario: ScenarioConfig, outdir: Path
                      ) -> tuple[Path, Path]:
    dim = obs.domain.dim
    coord_cols = ["x", "y"][:dim]
    buf = io.StringIO()
    buf.write(f"# fluxrecon-observation schema={SCHEMA_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node_id", *coord_cols, "t", "value"])
    trace = obs.flux
    for b in range(trace.nodes.count):
        coords = [_fmt(c) for c in trace.nodes.nodes[b]]
        for j, t in enumerate(trace.times):
            writer.writerow([b, *coords, _fmt(t), _fmt(trace.values[j, b])])
    csv_path = outdir / "observation.csv"
    _atomic_write(csv_path, buf.getvalue())

    meta = {
        "schema": SCHEMA_VERSION,
        "kind": "observation",
        "config": scenario.to_dict(),
        "f_label": obs.f_label,
        "noise_level": obs.noise_level,
        "seed": obs.seed,
        "node_count": trace.nodes.count,
        "time_count": len(trace.values),
        "flux_scale": float(np.max(np.abs(trace.values))),
    }
    meta_path = outdir / "observation_meta.json"
    _atomic_write(meta_path, _json_text(meta))
    return csv_path, meta_path


def _expected_nodes(scenario: ScenarioConfig):
    return boundary_nodes(build_grid(scenario.domain(), scenario.recon_n))


def load_observation(csv_path: str | Path) -> tuple[ObservedData, ScenarioConfig]:
    """Rebuild an observation from observation.csv + its sibling meta file.

    The one check of a time axis: a row's t is read as the time
    t_j = j dt of the scenario's axis, dt = final_time / recon_nt, that it
    lies within 1e-10 dt of. A count of distinct times other than
    recon_nt + 1, or fewer rows than the table has entries, is an
    InputError before any grid is built; after them, so is the first row
    off the axis, off its node or past the node count, in file order."""
    csv_path = Path(csv_path)
    meta_path = csv_path.with_name(csv_path.stem + "_meta.json")
    text = _read(csv_path, "observation file")
    meta = _read(meta_path, "observation metadata", json.loads)
    if not isinstance(meta, dict):
        raise InputError(f"metadata {meta_path} must be a JSON object")
    schema = meta.get("schema")
    # an int and not a bool, as check_fields takes integers: True == 1.0 == 1
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise InputError(f"unsupported schema {schema!r} in {meta_path}")
    if "config" not in meta:
        raise InputError(f"metadata {meta_path} has no 'config' key")
    scenario = ScenarioConfig.from_dict(meta["config"])
    f_label = meta.get("f_label")
    if not (f_label is None or isinstance(f_label, str)):
        raise InputError(f"f_label in {meta_path} must be a string or null, got {f_label!r}")
    dom = scenario.domain()
    coord_cols = ["x", "y"][:dom.dim]

    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader, None)
    expected_header = ["node_id", *coord_cols, "t", "value"]
    if header != expected_header:
        raise InputError(f"bad observation header {header}, expected {expected_header}")
    # parse row by row, stopping at the first malformed one; then check the
    # parsed rows as arrays, always reporting the first offending row
    row_lns, ids, nums = [], [], []
    malformed = None
    for ln, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(expected_header):
            malformed = f"malformed observation row {ln}: {row}"
            break
        try:
            parsed = int(row[0]), [float(v) for v in row[1:]]
        except ValueError as exc:
            malformed = f"malformed observation row {ln}: {exc}"
            break
        row_lns.append(ln)
        ids.append(parsed[0])
        nums.append(parsed[1])
    numbers = np.array(nums, dtype=float).reshape(len(nums), len(expected_header) - 1)
    finite = np.isfinite(numbers).all(axis=1)
    if not finite.all():
        ln = row_lns[int(np.argmin(finite))]
        row = next(islice(csv.reader(lines), ln - 1, None))
        raise InputError(f"non-finite value in observation row {ln}: {row}")
    if malformed is not None:
        raise InputError(malformed)
    if not ids:
        raise InputError("observation file holds no samples")

    nt, final_time = scenario.recon_nt, scenario.final_time
    coords, t_col, v_col = numbers[:, :dom.dim], numbers[:, -2], numbers[:, -1]
    dt = final_time / nt
    step = np.rint(np.clip(t_col, 0.0, final_time) / dt).astype(np.intp)
    # distinct steps, counted without an array of nt + 1 (a plain
    # np.unique(step) would import numpy.ma, which nothing else loads)
    count = 1 + np.count_nonzero(np.diff(np.sort(step)))
    if count != nt + 1:
        raise InputError(f"observation has {count} time samples, scenario expects {nt + 1}")
    # fewer rows than boundary_nodes' count (2, or recon_n / 2 per side)
    # times nt + 1 cannot cover the table; checked before a grid of recon_n
    # cells is built
    uncovered = "observation table does not cover all (node, time) pairs"
    if len(ids) < (2 if dom.dim == 1 else 2 * scenario.recon_n) * (nt + 1):
        raise InputError(uncovered)
    nodes = _expected_nodes(scenario)
    node_ids = np.array(ids)
    in_range = (node_ids >= 0) & (node_ids < nodes.count)
    expected = nodes.nodes[np.where(in_range, node_ids, 0).astype(np.intp)]
    off_node = np.max(np.abs(coords - expected), axis=1) > 1e-9
    # the axis time of each row as np.linspace(0, T, nt + 1) gives it, bit
    # for bit, without an array of nt + 1 times
    t_axis = np.where(step == nt, final_time, step * dt)
    off_axis = ~(np.abs(t_col - t_axis) <= 1e-10 * dt)
    bad = ~in_range | off_node | off_axis
    if bad.any():
        k = int(np.argmax(bad))
        b = ids[k]
        if not in_range[k]:
            raise InputError(f"node_id {b} out of range (0..{nodes.count - 1})")
        if off_node[k]:
            raise InputError(f"node {b} coordinates {coords[k]} do not match the "
                             f"expected boundary node {nodes.nodes[b]}")
        raise InputError(f"observation row {row_lns[k]}: t = {_fmt(t_col[k])} is not "
                         f"one of the times j * {final_time:g} / {nt}, j = 0..{nt}")
    flat = step * nodes.count + node_ids
    # a (node, time) pair given twice keeps its last row
    last = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]
    values = np.full((nt + 1, nodes.count), np.nan)
    values.flat[flat[last]] = v_col[last]
    if np.any(~np.isfinite(values)):
        raise InputError(uncovered)
    flux = BoundaryTrace(nodes=nodes, final_time=final_time, values=values)
    # the scenario's noise level and seed are the validated copies
    obs = ObservedData(domain=dom, phi=scenario.build_phi(), flux=flux,
                       noise_level=float(scenario.noise_level), seed=scenario.seed,
                       f_label=f_label)
    return obs, scenario


def write_curve(result: ReconstructionResult, scenario: ScenarioConfig,
                outdir: Path) -> tuple[Path, Path]:
    curve = result.curve
    buf = io.StringIO()
    buf.write(f"# fluxrecon-curve schema={SCHEMA_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["knot", "value", "count", "spread"])
    for i in range(len(curve.knots)):
        writer.writerow([_fmt(curve.knots[i]), _fmt(curve.values[i]),
                         int(curve.counts[i]), _fmt(curve.spreads[i])])
    curve_path = outdir / "curve.csv"
    _atomic_write(curve_path, buf.getvalue())

    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "diagnostics",
        "config": scenario.to_dict(),
        "trusted_lo": curve.trusted_lo,
        "trusted_hi": curve.trusted_hi,
        "diagnostics": result.diagnostics,
    }
    diag_path = outdir / "diagnostics.json"
    _atomic_write(diag_path, _json_text(payload))
    return curve_path, diag_path


@dataclass(frozen=True)
class MetricsReport:
    """Scores of a reconstruction against the generating reaction law."""

    sup_error: float
    l2_error: float
    rel_sup_error: float | None
    normalization: float
    flux_scale: float
    curve_sup: float
    trusted_lo: float
    trusted_hi: float
    noise_level: float
    f_label: str
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def score_reconstruction(result: ReconstructionResult, obs: ObservedData,
                         scenario: ScenarioConfig,
                         timings: dict | None = None) -> MetricsReport:
    """Compare the curve against the named true law on the trusted band."""
    curve = result.curve
    reaction = scenario.build_reaction()
    us = np.linspace(curve.trusted_lo, curve.trusted_hi, 401)
    fhat = evaluate_curve(curve, us)
    ftrue = np.asarray(reaction.fn(us), dtype=float)
    diff = fhat - ftrue
    sup = float(np.max(np.abs(diff)))
    # diff over a power of two near sup is exact and squares without overflow
    scale = np.ldexp(1.0, np.frexp(sup)[1] - 1)
    l2 = float(scale * np.sqrt(np.trapezoid((diff / scale) ** 2, us)
                               / max(us[-1] - us[0], 1e-300)))
    norm = float(np.max(np.abs(ftrue)))
    return MetricsReport(
        sup_error=sup, l2_error=l2,
        rel_sup_error=(sup / norm) if norm > 0 else None,
        normalization=norm,
        flux_scale=float(np.max(np.abs(obs.flux.values))),
        curve_sup=float(np.max(np.abs(fhat))),
        trusted_lo=curve.trusted_lo, trusted_hi=curve.trusted_hi,
        noise_level=obs.noise_level, f_label=obs.f_label or "unknown",
        timings=dict(timings or {}))


def write_metrics(metrics: MetricsReport, scenario: ScenarioConfig, outdir: Path) -> Path:
    payload = {"schema": SCHEMA_VERSION, "kind": "metrics",
               "config": scenario.to_dict(), **metrics.to_dict()}
    path = outdir / "metrics.json"
    _atomic_write(path, _json_text(payload))
    return path


# -- runners -------------------------------------------------------------


def run_synthesize(scenario: ScenarioConfig, outdir: Path) -> dict:
    obs = synthesize_observation(
        scenario.domain(), scenario.build_reaction(), scenario.build_phi(),
        fine_n=scenario.fine_n, fine_nt=scenario.fine_nt, sub_nt=scenario.recon_nt,
        noise_level=scenario.noise_level, seed=scenario.seed,
        nodes=_expected_nodes(scenario))
    csv_path, meta_path = write_observation(obs, scenario, outdir)
    return {"observation": str(csv_path), "metadata": str(meta_path)}


def run_reconstruct(obs_path: str | Path, outdir: Path) -> dict:
    t0 = time.perf_counter()
    obs, scenario = load_observation(obs_path)
    t1 = time.perf_counter()
    result = reconstruct(obs, scenario.recon_config())
    t2 = time.perf_counter()
    curve_path, diag_path = write_curve(result, scenario, outdir)
    paths = {"curve": str(curve_path), "diagnostics": str(diag_path)}
    if obs.f_label is not None:
        timings = {"load_s": t1 - t0, "reconstruct_s": t2 - t1,
                   **{f"{stage}_s": s for stage, s in result.timings.items()},
                   "total_s": time.perf_counter() - t0}
        metrics = score_reconstruction(result, obs, scenario, timings)
        paths["metrics"] = str(write_metrics(metrics, scenario, outdir))
    return paths


def run_verify(suite: str, outdir: Path | None = None) -> dict:
    report = run_suite(suite)
    if outdir is not None:
        _atomic_write(outdir / f"verify_{suite}.json", _json_text(report))
    return report
