"""Recovery of the reaction law from observed boundary flux.

Pipeline: subtract the reaction-free flux (flux_difference), propagate
the mismatch through the Neumann kernel to the data functional on the
boundary (compute_data_functional), extend it into the domain
(extend_boundary_data), project onto the eigenbasis, differentiate the
coefficients in time, and resum

    F(x, s) = sum_k (a_k'(s) + lambda_k a_k(s)) omega_k(x)

at boundary nodes. Pairing F(x, s) with the known boundary state
phi(x, s) and aggregating over all (node, time) samples yields a
monotone curve estimate of f.

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
from .forward import (Nonlinearity, ObservedData, interior_laplacian, march_flux,
                      neumann_trace, rect_sine_solver, solve_linear_heat)
from .geometry import DomainKind, SpatialGrid, build_grid
from .heatkernel import KernelEvaluator
from .numerics import exp_convolve, isotonic_nondecreasing, sliding_derivative, smoothstep

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
                    v_phi: SolutionField | None = None) -> BoundaryTrace:
    """g = observed flux minus the flux of the reaction-free evolution v_phi.

    v_phi is solved on the reconstruction grid (pass it in to reuse that
    solve) and again on the grid with twice the cells per axis. Both
    fluxes carry an O(h^2) bias, so they are Richardson-extrapolated as
    (4 F_2n - F_n) / 3; v_phi depends only on the known phi, and the
    synthesis grid is never used.
    """
    nt = len(obs.flux.times) - 1
    if v_phi is None:
        v_phi = solve_linear_heat(grid, obs.phi, nt)
    if not np.allclose(v_phi.times, obs.flux.times, rtol=0.0, atol=1e-12):
        raise InputError("observation time grid is not the uniform grid on "
                         f"[0, {obs.phi.final_time}] with {nt} steps")
    fine = build_grid(obs.domain, tuple(2 * n for n in grid.n))
    coarse_flux = neumann_trace(v_phi, obs.flux.nodes).values
    fine_flux = march_flux(fine, None, obs.phi, nt, obs.flux.nodes)[0].values
    v_flux = (4.0 * fine_flux - coarse_flux) / 3.0
    return BoundaryTrace(nodes=obs.flux.nodes, times=obs.flux.times,
                         values=obs.flux.values - v_flux)


def compute_data_functional(gap: BoundaryTrace, kernel: KernelEvaluator) -> BoundaryTrace:
    """Propagate the flux mismatch to the boundary data functional

        a(x, t) = int_0^t int_bnd U(x, t; y, s) g(y, s) dS(y) ds.
    """
    values = kernel.boundary_propagate_trace(gap, gap.nodes.nodes)
    return BoundaryTrace(nodes=gap.nodes, times=gap.times, values=values)


# -- extensions --------------------------------------------------------


def _interval_extension(a: BoundaryTrace, grid: SpatialGrid, method: str) -> np.ndarray:
    L = grid.domain.lengths[0]
    xs = grid.axes[0]
    left = a.values[:, 0][:, None]
    right = a.values[:, 1][:, None]
    if method == "harmonic":
        lam = (xs / L)[None, :]
    else:
        lam = smoothstep((xs - 0.4 * L) / (0.2 * L))[None, :]
    return left + (right - left) * lam


def _side_values_on_axis(a: BoundaryTrace, side: int, coords: np.ndarray) -> np.ndarray:
    """Interpolate one side's trace onto tangential coordinates, with
    linear extrapolation past the first/last node; (nt+1, len(coords))."""
    sel = a.nodes.side == side
    tc = a.nodes.nodes[sel][:, 1 - side // 2]
    order = np.argsort(tc)
    tc = tc[order]
    vals = a.values[:, sel][:, order]
    out = np.empty((vals.shape[0], len(coords)))
    for j in range(vals.shape[0]):
        out[j] = np.interp(coords, tc, vals[j])
    lo = coords < tc[0]
    hi = coords > tc[-1]
    if np.any(lo):
        slope = (vals[:, 1] - vals[:, 0]) / (tc[1] - tc[0])
        out[:, lo] = vals[:, [0]] + slope[:, None] * (coords[lo] - tc[0])[None, :]
    if np.any(hi):
        slope = (vals[:, -1] - vals[:, -2]) / (tc[-1] - tc[-2])
        out[:, hi] = vals[:, [-1]] + slope[:, None] * (coords[hi] - tc[-1])[None, :]
    return out


def _rect_sides(a: BoundaryTrace, grid: SpatialGrid) -> list[np.ndarray]:
    """Each side's trace on the grid nodes along that side, in side order;
    side s runs along axis 1 - s // 2."""
    return [_side_values_on_axis(a, s, grid.axes[1 - s // 2]) for s in range(4)]


def _rect_rings(a: BoundaryTrace, grid: SpatialGrid) -> np.ndarray:
    """Boundary-ring Dirichlet values per time from the side traces;
    corners average the two adjacent sides' extrapolations."""
    sides = _rect_sides(a, grid)
    rings = np.zeros((a.values.shape[0],) + grid.shape)
    for s, side in enumerate(sides):
        rings[grid.face(s)] = side
    # corner (i, j) closes x-side -i at its end j and y-side 2 - j at its end i
    for i in (0, -1):
        for j in (0, -1):
            rings[:, i, j] = 0.5 * (sides[-i][:, j] + sides[2 - j][:, i])
    return rings


def _rect_harmonic(a: BoundaryTrace, grid: SpatialGrid) -> np.ndarray:
    out = _rect_rings(a, grid)
    # the rings are zero inside, so their interior Laplacian is the
    # boundary coupling of every time row; one solve takes all the rows
    inner = interior_laplacian(out, grid)
    rect_sine_solver(grid, 0.0, 1.0)(inner)
    out[:, 1:-1, 1:-1] = inner
    return out


def _rect_normal_constant(a: BoundaryTrace, grid: SpatialGrid) -> np.ndarray:
    lx, ly = grid.domain.lengths
    X, Y = np.moveaxis(grid.points, -1, 0)
    dists = np.stack([X, lx - X, Y, ly - Y])            # per side
    sides = _rect_sides(a, grid)
    vals = np.empty((4, a.values.shape[0]) + grid.shape)
    for s, side in enumerate(sides):
        # constant along the normal axis of the side
        vals[s] = np.expand_dims(side, 1 + s // 2)
    # inverse-distance-power blend: near-constant along each normal,
    # C^inf crossover at the medial region, exact on the boundary
    scale = min(lx, ly)
    w = 1.0 / (dists / scale + 1e-14) ** 4
    w /= np.sum(w, axis=0)
    out = np.einsum("sxy,stxy->txy", w, vals)
    for s, side in enumerate(sides):
        out[grid.face(s)] = side
    return out


def extend_boundary_data(a: BoundaryTrace, grid: SpatialGrid, method: str,
                         shape: np.ndarray | None = None) -> np.ndarray:
    """Continue boundary data into the domain; (nt+1, *grid.shape).

    harmonic solves lap = 0 per time node (interval: linear profile);
    normal_constant holds the nearest side's value along the inward
    normal and blends smoothly at the medial region. Both reproduce the
    input exactly at (grid-aligned) boundary nodes.

    A `shape` field on the grid supplies the interior profile: the
    result is shape + E[a - shape on the boundary], which still matches
    a at the boundary nodes and is E[a] when shape is zero.
    """
    if method not in EXTENSIONS:
        raise ConfigurationError(
            f"unknown extension {method!r}, expected one of {EXTENSIONS}")
    if shape is not None:
        at_nodes = shape[(slice(None), *grid.indices(a.nodes.nodes))]
        rest = BoundaryTrace(nodes=a.nodes, times=a.times, values=a.values - at_nodes)
        return shape + extend_boundary_data(rest, grid, method)
    if grid.domain.kind is DomainKind.INTERVAL:
        return _interval_extension(a, grid, method)
    if method == "harmonic":
        return _rect_harmonic(a, grid)
    return _rect_normal_constant(a, grid)


# -- modal stages ------------------------------------------------------


def project_coefficients(extended: np.ndarray, grid: SpatialGrid,
                         basis: EigenBasis) -> np.ndarray:
    """Quadrature eigenbasis coefficients of the extended field per time;
    (nt+1, K)."""
    return basis.project(grid, extended)


def differentiate_coefficients(times: np.ndarray, coeffs: np.ndarray,
                               halfwidth: int) -> np.ndarray:
    """Sliding-window least-squares time derivatives of the coefficients."""
    return sliding_derivative(times, coeffs, halfwidth)


def assemble_series(coeffs: np.ndarray, derivs: np.ndarray, basis: EigenBasis,
                    points: np.ndarray) -> np.ndarray:
    """F(x, s) = sum_k (a_k'(s) + lambda_k a_k(s)) omega_k(x); (nt+1, npts)."""
    combo = derivs + coeffs * basis.lambdas[None, :]
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return combo @ basis.values_at(pts)


def volterra_blocks(grid: SpatialGrid, times: np.ndarray, blocks, reaction: Nonlinearity,
                    basis: EigenBasis) -> tuple[np.ndarray, np.ndarray]:
    """Oracle modal data from a known interior state: source coefficients
    c_k(s) = (f(u(s)), omega_k) and their Volterra responses

        p_k(t) = int_0^t exp(-lambda_k (t - s)) c_k(s) ds

    computed by the exponentially-weighted trapezoid rule (exact for
    piecewise-linear c_k), both (nt+1, K). The state u on the grid at the
    times comes in blocks (m0, rows) of `march`, rows = u[m0 : m0 + len(rows)],
    where row 0 of every block after the first repeats the last row before
    it; each block is projected as it comes, so no field is kept.
    """
    modes = basis.quadrature_modes(grid).T
    source = np.empty((len(times), basis.size))
    for m0, rows in blocks:
        first = 1 if m0 else 0  # row 0 of a later block is the block before's last
        fu = reaction.fn(rows[first:])
        source[m0 + first:m0 + len(rows)] = fu.reshape(len(fu), -1) @ modes
    return source, exp_convolve(basis.lambdas, times, source)


def volterra_oracle(u: SolutionField, reaction: Nonlinearity, basis: EigenBasis
                    ) -> tuple[np.ndarray, np.ndarray]:
    """volterra_blocks of a stored field, fed as one block. On the true
    state u this is an oracle the inverse problem cannot run, since u is
    not observed; on the reaction-free state v_phi with a curve estimate
    it gives the interior shape of reaction_free_response."""
    return volterra_blocks(u.grid, u.times, [(0, u.values)], reaction, basis)


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
            f"max phi {pmax:g})")
    edges = np.linspace(0.0, pmax, _BINS + 1)
    idx = np.clip(np.digitize(phi, edges) - 1, 0, _BINS - 1)
    knots, meds, counts, spreads = [0.0], [0.0], [0.0], [0.0]
    for b in range(_BINS):
        sel = idx == b
        cnt = int(np.sum(sel))
        if cnt == 0:
            continue
        q25, q50, q75 = np.percentile(fv[sel], [25.0, 50.0, 75.0])
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
    lo, hi = np.quantile(phi, [_Q_LO, _Q_HI])
    return CurveEstimate(knots=knots, values=values, counts=counts, spreads=spreads,
                         trusted_lo=float(lo), trusted_hi=float(hi))


def evaluate_curve(curve: CurveEstimate, u) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-linear curve evaluation with an out-of-range flag.

    Arguments outside the knot span clamp to the nearest knot value;
    the flag marks anything outside the trusted quantile band.
    """
    uu = np.asarray(u, dtype=float)
    vals = np.interp(np.clip(uu, 0.0, curve.knots[-1]), curve.knots, curve.values)
    flags = (uu < curve.trusted_lo) | (uu > curve.trusted_hi)
    return vals, flags


# -- orchestration -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    curve: CurveEstimate
    diagnostics: dict = field(default_factory=dict)


def _pipeline(a: BoundaryTrace, grid: SpatialGrid, basis: EigenBasis, method: str,
              shape: np.ndarray | None = None):
    extended = extend_boundary_data(a, grid, method, shape)
    coeffs = project_coefficients(extended, grid, basis)
    derivs = differentiate_coefficients(a.times, coeffs, _DIFF_HALFWIDTH)
    return coeffs, assemble_series(coeffs, derivs, basis, a.nodes.nodes)


def reaction_free_response(v_phi: SolutionField, curve: CurveEstimate,
                           basis: EigenBasis) -> np.ndarray:
    """Interior shape of the data functional under a curve estimate f0.

    The linear Neumann response p0 = sum_k p0_k omega_k with
    p0_k = exp_convolve(lambda_k, (f0(v_phi), omega_k)), i.e. the
    volterra_oracle chain run on the reaction-free state v_phi; sampled
    on v_phi's grid, (nt+1, *grid.shape). Needs no semilinear solve.
    """
    law = Nonlinearity(fn=lambda u: evaluate_curve(curve, u)[0], label="curve")
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
    v_phi = solve_linear_heat(grid, obs.phi, len(obs.flux.times) - 1)
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
        v1, _ = evaluate_curve(curve, us)
        v2, _ = evaluate_curve(alt_curve, us)
        diagnostics["extension_discrepancy"] = float(np.max(np.abs(v1 - v2)))
        diagnostics["alt_extension_method"] = other
    return ReconstructionResult(curve=curve, diagnostics=diagnostics)
