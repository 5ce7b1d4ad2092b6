"""Recovery of the reaction law from observed boundary flux.

Pipeline: subtract the reaction-free flux (flux_difference), propagate
the mismatch through the Neumann kernel to the data functional on the
boundary (compute_data_functional), extend it into the domain
(extend_boundary_data), project onto the eigenbasis, differentiate the
coefficients in time, and resum

    F(x, s) = sum_k (a_k'(s) + lambda_k a_k(s)) omega_k(x)

at boundary nodes. The extension puts the trace on the boundary ring of
the grid and continues it inside by one rule per method on either
domain: harmonic (the chord on the interval, one sine solve on the
rectangle), or normal_constant, which compare_extensions reruns with.
Pairing F(x, s) with the known boundary state phi(x, s) and aggregating
over all (node, time) samples yields a monotone curve estimate of f.

The boundary data alone do not fix the interior of the functional, and
the resummed series inherits whatever curvature the extension carries;
symmetric data make a plain extension constant in x, and the curve then
tracks the spatial mean of f(u) instead of f(phi). So the pipeline runs
twice: the first curve f0 drives the linear Neumann response to
f0(v_phi), with v_phi the reaction-free state, and that response is the
interior shape the second extension continues (reaction_free_response).
Neither pass solves the semilinear equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eigenbasis import EigenBasis, make_basis
from .errors import ConfigurationError, InputError, NumericalError, check_fields
from .fields import BoundaryTrace, SolutionField
from .forward import (Nonlinearity, ObservedData, dirichlet_solver, interior_laplacian,
                      march_flux, neumann_trace, solve_linear_heat)
from .geometry import SpatialGrid, build_grid
from .heatkernel import KernelEvaluator
from .numerics import exp_convolve, isotonic_nondecreasing, quantiles, sliding_derivative

# the primary extension, then the one compare_extensions reruns with
EXTENSIONS = ("harmonic", "normal_constant")
# eigenmodes of the projection, half width of the derivative window,
# bins of the curve, and the phi quantiles that bound its trusted range
_K_MODES = 16
_DIFF_HALFWIDTH = 2
_BINS = 24
_Q_LO, _Q_HI = 0.1, 0.9


@dataclass(frozen=True)
class ReconstructionConfig:
    """The settings of one reconstruction: cells per axis of its grid, and
    whether to rerun the pipeline with the other extension."""

    grid_n: int = 128
    compare_extensions: bool = False

    def __post_init__(self):
        check_fields("reconstruction", self, integers=("grid_n",),
                     flags=("compare_extensions",))


@dataclass(frozen=True, eq=False)
class CurveEstimate:
    """Monotone curve u -> f_hat(u) with per-knot sample statistics."""

    knots: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    spreads: np.ndarray = field(repr=False)
    trusted_lo: float = 0.0
    trusted_hi: float = 0.0


def flux_difference(obs: ObservedData, grid: SpatialGrid,
                    v_phi: SolutionField) -> BoundaryTrace:
    """g = observed flux minus the flux of the reaction-free evolution v_phi.

    v_phi is the caller's solve on the reconstruction grid; it is solved
    again on the grid with twice the cells per axis. Both
    fluxes carry an O(h^2) bias, so they are Richardson-extrapolated as
    (4 F_2n - F_n) / 3; v_phi depends only on the known phi, and the
    synthesis grid is never used.
    """
    nt = len(obs.flux.values) - 1
    fine = build_grid(obs.domain, tuple(2 * n for n in grid.n))
    coarse_flux = neumann_trace(v_phi, obs.flux.nodes).values
    fine_flux = march_flux(fine, None, obs.phi, nt, obs.flux.nodes)[0].values
    v_flux = (4.0 * fine_flux - coarse_flux) / 3.0
    return BoundaryTrace(nodes=obs.flux.nodes, final_time=obs.flux.final_time,
                         values=obs.flux.values - v_flux)


def compute_data_functional(gap: BoundaryTrace, kernel: KernelEvaluator) -> BoundaryTrace:
    """Propagate the flux mismatch to the boundary data functional

        a(x, t) = int_0^t int_bnd U(x, t; y, s) g(y, s) dS(y) ds.
    """
    values = kernel.boundary_propagate_trace(gap)
    return BoundaryTrace(nodes=gap.nodes, final_time=gap.final_time, values=values)


# -- extensions --------------------------------------------------------


def _side_values_on_axis(a: BoundaryTrace, side: int, coords: np.ndarray) -> np.ndarray:
    """Interpolate one side's trace onto tangential coordinates, with
    linear extrapolation past the first/last node; (nt+1, len(coords)).
    The chord of cell j is slope_j (x - tc[at]) + vals[at], at = j + 1
    from the last node on and j before it, which is np.interp's rounding
    inside the node span."""
    sel = a.nodes.side == side
    tc = a.nodes.nodes[sel][:, 1 - side // 2]
    order = np.argsort(tc)
    tc = tc[order]
    vals = a.values[:, sel][:, order]
    slope = np.diff(vals, axis=1) / np.diff(tc)
    j = np.clip(np.searchsorted(tc, coords, "right") - 1, 0, len(tc) - 2)
    at = np.where(coords >= tc[-1], j + 1, j)
    return slope[:, j] * (coords - tc[at]) + vals[:, at]


def _boundary_ring(a: BoundaryTrace, grid: SpatialGrid) -> np.ndarray:
    """The trace on the boundary ring of the grid and zero inside;
    (nt+1, *grid.shape). On the interval the ring is the two end values;
    on the rectangle each side's trace is interpolated along the side,
    and a corner averages the two adjacent sides' extrapolations."""
    ring = np.zeros((len(a.values),) + grid.shape)
    if grid.domain.dim == 1:
        ring[:, -a.nodes.side] = a.values  # side 0 at node 0, side 1 at node -1
        return ring
    sides = [_side_values_on_axis(a, s, grid.axes[1 - s // 2]) for s in range(4)]
    for s, side in enumerate(sides):
        ring[grid.face(s)] = side
    # corner (i, j) closes x-side -i at its end j and y-side 2 - j at its end i
    for i in (0, -1):
        for j in (0, -1):
            ring[:, i, j] = 0.5 * (sides[-i][:, j] + sides[2 - j][:, i])
    return ring


def _harmonic(ring: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """lap = 0 inside with the ring as Dirichlet data, every time row.
    On the interval that is the chord between the two ends. On the
    rectangle the ring is zero inside, so its interior Laplacian is the
    boundary coupling, and one sine solve takes all the rows. The solve
    works in units of h0^2, so no step divides by h^2 alone, which
    overflows on a tiny domain."""
    if grid.domain.dim == 1:
        lam = grid.axes[0] / grid.domain.lengths[0]
        return ring[:, :1] + (ring[:, -1:] - ring[:, :1]) * lam
    h2 = grid.h[0] * grid.h[0]
    inner = interior_laplacian(h2 * ring, grid)
    dirichlet_solver(grid, 0.0, h2)(inner)
    out = ring.copy()
    out[:, 1:-1, 1:-1] = inner
    return out


def _normal_constant(ring: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Each side's ring values held along its inward normal, blended by
    inverse distance to the fourth power: near-constant along each normal
    and a C^inf crossover at the medial region."""
    lengths = grid.domain.lengths
    coords = np.moveaxis(grid.points, -1, 0)
    scale = min(lengths)
    out = np.zeros_like(ring)
    total = np.zeros(grid.shape)
    for s in range(2 * grid.domain.dim):
        d = s // 2
        dist = lengths[d] - coords[d] if s % 2 else coords[d]
        w = 1.0 / (dist / scale + 1e-14) ** 4
        out += w * np.expand_dims(ring[grid.face(s)], 1 + d)
        total += w
    return out / total


def extend_boundary_data(a: BoundaryTrace, grid: SpatialGrid, method: str,
                         shape: np.ndarray | None = None) -> np.ndarray:
    """Continue boundary data into the domain; (nt+1, *grid.shape).

    The trace is put on the boundary ring of the grid (_boundary_ring),
    and each method is one rule on either domain: harmonic solves lap = 0
    per time node (on the interval, the chord between the ends);
    normal_constant holds each side's value along its inward normal and
    blends the sides by inverse distance^4. Both write the ring back onto
    every boundary node, so they reproduce the input exactly at
    (grid-aligned) boundary nodes.

    A `shape` field on the grid supplies the interior profile: the
    result is shape + E[a - shape on the boundary], which still matches
    a at the boundary nodes and is E[a] when shape is zero.
    """
    if method not in EXTENSIONS:
        raise ConfigurationError(
            f"unknown extension {method!r}, expected one of {EXTENSIONS}")
    if shape is not None:
        at_nodes = shape[(slice(None), *grid.indices(a.nodes.nodes))]
        rest = BoundaryTrace(nodes=a.nodes, final_time=a.final_time,
                             values=a.values - at_nodes)
        return shape + extend_boundary_data(rest, grid, method)
    ring = _boundary_ring(a, grid)
    out = (_harmonic if method == "harmonic" else _normal_constant)(ring, grid)
    for s in range(2 * grid.domain.dim):
        out[grid.face(s)] = ring[grid.face(s)]
    return out


# -- modal stages ------------------------------------------------------


def project_coefficients(extended: np.ndarray, grid: SpatialGrid,
                         basis: EigenBasis) -> np.ndarray:
    """Quadrature eigenbasis coefficients of the extended field per time;
    (nt+1, K)."""
    return basis.project(grid, extended)


def differentiate_coefficients(dt: float, coeffs: np.ndarray, halfwidth: int) -> np.ndarray:
    """Sliding-window least-squares time derivatives of the coefficients
    sampled at time step dt."""
    return sliding_derivative(dt, coeffs, halfwidth)


def assemble_series(coeffs: np.ndarray, derivs: np.ndarray, basis: EigenBasis,
                    points: np.ndarray) -> np.ndarray:
    """F(x, s) = sum_k (a_k'(s) + lambda_k a_k(s)) omega_k(x) at points
    (npts, dim); (nt+1, npts).
    NumericalError when a sample of F is not finite, as when lambda_k a_k
    overflows on a tiny domain."""
    with np.errstate(over="ignore", invalid="ignore"):
        series = (derivs + coeffs * basis.lambdas[None, :]) @ basis.values_at(points)
    bad = int(np.sum(~np.isfinite(series)))
    if bad:
        raise NumericalError(f"the modal series F(x, s) overflows: {bad} of its "
                             f"{series.size} samples are not finite")
    return series


def volterra_blocks(grid: SpatialGrid, dt: float, blocks, reaction: Nonlinearity,
                    basis: EigenBasis) -> tuple[np.ndarray, np.ndarray]:
    """Oracle modal data from a known interior state: source coefficients
    c_k(s) = (f(u(s)), omega_k) and their Volterra responses

        p_k(t) = int_0^t exp(-lambda_k (t - s)) c_k(s) ds

    computed by the exponentially-weighted trapezoid rule (exact for
    piecewise-linear c_k), both (nt+1, K). The state u on the grid at the
    times j dt comes in blocks (m0, rows) of `march`, rows =
    u[m0 : m0 + len(rows)], where row 0 of every block after the first
    repeats the last row before it; each block is projected as it comes,
    so no field is kept.
    """
    modes = basis.quadrature_modes(grid).T
    parts = []
    for m0, rows in blocks:
        fu = reaction.fn(rows[1:] if m0 else rows)  # a later block's row 0 is already in
        parts.append(fu.reshape(len(fu), -1) @ modes)
    source = np.concatenate(parts)
    return source, exp_convolve(basis.lambdas, dt, source)


def volterra_oracle(u: SolutionField, reaction: Nonlinearity, basis: EigenBasis
                    ) -> tuple[np.ndarray, np.ndarray]:
    """volterra_blocks of a stored field, fed as one block. On the true
    state u this is an oracle the inverse problem cannot run, since u is
    not observed; on the reaction-free state v_phi with a curve estimate
    it gives the interior shape of reaction_free_response."""
    return volterra_blocks(u.grid, u.dt, [(0, u.values)], reaction, basis)


# -- curve aggregation -------------------------------------------------


def build_curve(phi_samples: np.ndarray, series_samples: np.ndarray) -> CurveEstimate:
    """Aggregate (phi, F) pairs into a monotone curve estimate.

    Bins [0, max phi] uniformly, takes per-bin medians, anchors the
    curve at (0, 0) and projects onto nondecreasing sequences (PAV).
    The trusted range is the [_Q_LO, _Q_HI] quantile band of the phi
    samples.
    """
    phi = np.asarray(phi_samples, dtype=float).ravel()
    fv = np.asarray(series_samples, dtype=float).ravel()
    if phi.shape != fv.shape:
        raise InputError("phi and series samples must align")
    ok = np.isfinite(phi) & np.isfinite(fv)
    phi, fv = phi[ok], fv[ok]
    pmax = float(np.max(phi)) if len(phi) else 0.0
    if len(phi) < 3 * _BINS or pmax <= 0:
        raise NumericalError(
            f"degenerate sample set for curve fitting ({len(phi)} samples, "
            f"{int(np.sum(~ok))} dropped as non-finite, max phi {pmax:g})")
    edges = np.linspace(0.0, pmax, _BINS + 1)
    idx = np.clip(np.digitize(phi, edges) - 1, 0, _BINS - 1)
    knots, meds, counts, spreads = [0.0], [0.0], [0.0], [0.0]
    for b in range(_BINS):
        sel = idx == b
        cnt = int(np.sum(sel))
        if cnt == 0:
            continue
        q25, q50, q75 = quantiles(fv[sel], [0.25, 0.5, 0.75])
        knots.append(0.5 * (edges[b] + edges[b + 1]))
        meds.append(float(q50))
        counts.append(cnt)
        spreads.append(float(q75 - q25))
    if len(knots) < 4:  # anchor plus at least 3 populated bins
        raise NumericalError("too few populated bins for a curve estimate")
    knots = np.asarray(knots)
    values = np.asarray(meds)
    counts = np.asarray(counts, dtype=float)
    spreads = np.asarray(spreads)
    weights = counts.copy()
    weights[0] = np.sum(counts)  # pin the exact anchor f(0) = 0
    values = isotonic_nondecreasing(values, weights)
    # the admissible class has f >= 0, so negative pooled levels
    # (possible when early-bin medians dip below zero) clip to zero;
    # this keeps the sequence nondecreasing with the anchor at 0
    values = np.maximum(values, 0.0)
    values[0] = 0.0
    lo, hi = quantiles(phi, [_Q_LO, _Q_HI])
    return CurveEstimate(knots=knots, values=values, counts=counts, spreads=spreads,
                         trusted_lo=float(lo), trusted_hi=float(hi))


def evaluate_curve(curve: CurveEstimate, u) -> np.ndarray:
    """Piecewise-linear curve evaluation; arguments outside the knot span
    clamp to the nearest knot value."""
    return np.interp(u, curve.knots, curve.values)


# -- orchestration -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    curve: CurveEstimate
    diagnostics: dict = field(default_factory=dict)


def _pipeline(a: BoundaryTrace, grid: SpatialGrid, basis: EigenBasis, method: str,
              shape: np.ndarray | None = None):
    extended = extend_boundary_data(a, grid, method, shape)
    coeffs = project_coefficients(extended, grid, basis)
    derivs = differentiate_coefficients(a.dt, coeffs, _DIFF_HALFWIDTH)
    return coeffs, assemble_series(coeffs, derivs, basis, a.nodes.nodes)


def reaction_free_response(v_phi: SolutionField, curve: CurveEstimate,
                           basis: EigenBasis) -> np.ndarray:
    """Interior shape of the data functional under a curve estimate f0.

    The linear Neumann response p0 = sum_k p0_k omega_k with
    p0_k = exp_convolve(lambda_k, (f0(v_phi), omega_k)), i.e. the
    volterra_oracle chain run on the reaction-free state v_phi; sampled
    on v_phi's grid, (nt+1, *grid.shape). Needs no semilinear solve.
    """
    law = Nonlinearity(fn=lambda u: evaluate_curve(curve, u), label="curve")
    _, response = volterra_oracle(v_phi, law, basis)
    return np.tensordot(response, basis.values_at(v_phi.grid.points), axes=1)


def _corrected_pipeline(a: BoundaryTrace, v_phi: SolutionField, basis: EigenBasis,
                        method: str, phi_vals: np.ndarray):
    """A first pass with the plain extension gives a curve f0; one more
    pass extends with the reaction-free response to f0 as interior shape."""
    _, first = _pipeline(a, v_phi.grid, basis, method)
    shape = reaction_free_response(v_phi, build_curve(phi_vals, first), basis)
    coeffs, fvals = _pipeline(a, v_phi.grid, basis, method, shape)
    return coeffs, build_curve(phi_vals, fvals)


def reconstruct(obs: ObservedData, config: ReconstructionConfig) -> ReconstructionResult:
    """Run the full pipeline on one observation.

    Never touches obs.f_label; scoring against a known law is the
    caller's business.
    """
    grid = build_grid(obs.domain, config.grid_n)
    v_phi = solve_linear_heat(grid, obs.phi, len(obs.flux.values) - 1)
    gap = flux_difference(obs, grid, v_phi)
    kernel = KernelEvaluator(obs.domain)
    functional = compute_data_functional(gap, kernel)
    basis = make_basis(obs.domain, _K_MODES)
    phi_vals = obs.phi.table(functional.nodes.nodes, functional.times)
    method, other = EXTENSIONS
    coeffs, curve = _corrected_pipeline(functional, v_phi, basis, method, phi_vals)

    energy = np.max(np.abs(coeffs), axis=0)
    tail = float(np.max(energy[3 * len(energy) // 4:]) / max(np.max(energy), 1e-300))
    diagnostics = {
        "functional_min": float(np.min(functional.values)),
        "functional_initial_max": float(np.max(np.abs(functional.values[0]))),
        "mode_energy": energy.tolist(),
        "tail_energy_ratio": tail,
        "tail_energy_flagged": bool(tail > 0.1),
        "extension_method": method,
    }
    if config.compare_extensions:
        _, alt_curve = _corrected_pipeline(functional, v_phi, basis, other, phi_vals)
        us = np.linspace(max(curve.trusted_lo, alt_curve.trusted_lo),
                         min(curve.trusted_hi, alt_curve.trusted_hi), 101)
        v1 = evaluate_curve(curve, us)
        v2 = evaluate_curve(alt_curve, us)
        diagnostics["extension_discrepancy"] = float(np.max(np.abs(v1 - v2)))
        diagnostics["alt_extension_method"] = other
    return ReconstructionResult(curve=curve, diagnostics=diagnostics)
