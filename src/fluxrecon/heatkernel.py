"""Neumann heat kernel on intervals and rectangles, with propagation rules.

The kernel U(x, t; y, s) depends on time only through tau = t - s and is
evaluated through one of two exact representations:

  * spectral:   sum_k exp(-lambda_k tau) omega_k(x) omega_k(y), accurate
    once the tail exp(-lambda_K tau) is negligible, so used for
    tau >= crossover;
  * images:     per-axis sums of reflected Gaussians
    G(z) = exp(-z^2 / 4 tau) / sqrt(4 pi tau), whose truncation error
    dies like exp(-L^2/tau), so used for tau < crossover.

The default crossover is 2 ln(1/tail_tol) / lambda_K, which keeps the
spectral tail below tail_tol^2 at the crossover itself and below
tail_tol at half the crossover, where the two branches are compared.

The boundary data functional (boundary_propagate_trace) is a lag
operator: on a uniform time grid starting at 0 its sigma = sqrt(t - s)
panels depend only on the lag j - i, so the kernel is tabulated once
per lag (nt * gl_order evaluations per point/node pair) and the
functional is a causal O(nt^2 * npts * nb) sum over lags. The scalar
boundary_propagate evaluates the same quadrature at one (point, time)
and is kept as its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigenbasis import EigenBasis, make_basis
from .errors import ConfigurationError, InputError
from .fields import BoundaryTrace
from .geometry import DomainSpec, SpatialGrid
from .numerics import exp_convolve, gauss_legendre, trapezoid_weights

# modes with lambda * tau above this contribute < 1e-26 relative and are dropped
_MODE_CUTOFF = 60.0


@dataclass(frozen=True)
class KernelConfig:
    """Evaluation parameters for the kernel.

    crossover_time = None derives the spectral/images switch point from
    tail_tol as described in the module docstring.
    """

    k_max: int = 200
    tail_tol: float = 1e-12
    image_count: int = 5
    crossover_time: float | None = None

    def __post_init__(self):
        if self.k_max < 2:
            raise ConfigurationError(f"k_max must be >= 2, got {self.k_max}")
        if not (0.0 < self.tail_tol < 1.0):
            raise ConfigurationError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")
        if self.image_count < 1:
            raise ConfigurationError(f"image_count must be >= 1, got {self.image_count}")
        if self.crossover_time is not None and self.crossover_time <= 0:
            raise ConfigurationError("crossover_time must be positive")


class KernelEvaluator:
    """Evaluates the Neumann heat kernel and its propagation integrals."""

    def __init__(self, domain: DomainSpec, config: KernelConfig = KernelConfig()):
        self.domain = domain
        self.config = config
        self.basis: EigenBasis = make_basis(domain, config.k_max)
        lam_top = float(self.basis.lambdas[-1])
        if config.crossover_time is None:
            self.crossover = 2.0 * math.log(1.0 / config.tail_tol) / lam_top
        else:
            self.crossover = float(config.crossover_time)
        # construction fails rather than silently evaluating a truncated tail
        if math.exp(-lam_top * self.crossover) > config.tail_tol:
            raise ConfigurationError(
                f"spectral tail exp(-{lam_top:.4g} * {self.crossover:.4g}) exceeds "
                f"tail_tol={config.tail_tol:g}; raise k_max or crossover_time")

    # -- pointwise values ------------------------------------------------

    def _point(self, p) -> np.ndarray:
        q = np.atleast_1d(np.asarray(p, dtype=float))
        if q.shape != (self.domain.dim,):
            raise InputError(f"expected a point of dim {self.domain.dim}, got shape {q.shape}")
        return q

    def spectral_values(self, x, y, taus: np.ndarray) -> np.ndarray:
        """Spectral-branch values over an array of time gaps."""
        taus = np.asarray(taus, dtype=float)
        wx = self.basis.values_at(self._point(x)[None, :])[:, 0]
        wy = self.basis.values_at(self._point(y)[None, :])[:, 0]
        wxy = wx * wy
        tmin = float(np.min(taus))
        lam = self.basis.lambdas
        if tmin > 0:
            keep = int(np.searchsorted(lam, _MODE_CUTOFF / tmin, side="right"))
            keep = max(keep, 1)
        else:
            keep = len(lam)
        return np.exp(-np.outer(taus, lam[:keep])) @ wxy[:keep]

    def _images_axis(self, xd: float, yd: float, L: float, taus: np.ndarray) -> np.ndarray:
        js = np.arange(-self.config.image_count, self.config.image_count + 1)
        shifts = 2.0 * L * js
        zs = np.concatenate([xd - yd - shifts, xd + yd - shifts])
        tt = taus[:, None]
        return np.sum(np.exp(-zs[None, :] ** 2 / (4.0 * tt)), axis=1) / np.sqrt(4.0 * np.pi * taus)

    def images_values(self, x, y, taus: np.ndarray) -> np.ndarray:
        """Method-of-images values over an array of time gaps."""
        taus = np.asarray(taus, dtype=float)
        xp, yp = self._point(x), self._point(y)
        out = np.ones_like(taus)
        for d, L in enumerate(self.domain.lengths):
            out = out * self._images_axis(float(xp[d]), float(yp[d]), L, taus)
        return out

    def values(self, x, y, taus: np.ndarray) -> np.ndarray:
        """Kernel values over an array of positive time gaps, branch-switched."""
        taus = np.asarray(taus, dtype=float)
        if np.any(taus <= 0):
            raise InputError("kernel requires positive time gaps")
        out = np.empty_like(taus)
        near = taus < self.crossover
        if np.any(near):
            out[near] = self.images_values(x, y, taus[near])
        if np.any(~near):
            # the kernel is positive; where it is below the series' rounding
            # error (far points, short gaps) the sum can come out -1e-16
            out[~near] = np.maximum(self.spectral_values(x, y, taus[~near]), 0.0)
        return out

    def value(self, x, y, tau: float) -> float:
        """U(x, t; y, s) for tau = t - s > 0."""
        return float(self.values(x, y, np.array([float(tau)]))[0])

    def _values_batch(self, x, ys: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Kernel at one x against many y, vectorized over both y and tau;
        returns (len(taus), len(ys)). Same branch split as `values`."""
        taus = np.asarray(taus, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if ys.ndim == 1:
            ys = ys[:, None]
        xp = self._point(x)
        out = np.empty((len(taus), len(ys)))
        near = taus < self.crossover
        if np.any(near):
            tt = taus[near][:, None, None]
            block = np.ones((int(np.sum(near)), len(ys)))
            js = np.arange(-self.config.image_count, self.config.image_count + 1)
            for d, L in enumerate(self.domain.lengths):
                shifts = 2.0 * L * js
                zs = np.concatenate([xp[d] - ys[:, d, None] - shifts,
                                     xp[d] + ys[:, d, None] - shifts], axis=1)
                block *= (np.sum(np.exp(-zs[None, :, :] ** 2 / (4.0 * tt)), axis=2)
                          / np.sqrt(4.0 * np.pi * taus[near])[:, None])
            out[near] = block
        if np.any(~near):
            far = taus[~near]
            wx = self.basis.values_at(xp[None, :])[:, 0]
            wy = self.basis.values_at(ys)
            lam = self.basis.lambdas
            keep = max(int(np.searchsorted(lam, _MODE_CUTOFF / float(np.min(far)),
                                           side="right")), 1)
            out[~near] = np.exp(-np.outer(far, lam[:keep])) @ (wx[:keep, None] * wy[:keep])
        return out

    def profile(self, x, ys: np.ndarray, tau: float) -> np.ndarray:
        """Kernel values at one x against many y points, fixed tau."""
        if tau <= 0:
            raise InputError("kernel requires positive time gaps")
        ys = np.asarray(ys, dtype=float)
        if ys.ndim == 1:
            ys = ys[:, None]
        if tau >= self.crossover:
            wx = self.basis.values_at(self._point(x)[None, :])[:, 0]
            wy = self.basis.values_at(ys)
            lam = self.basis.lambdas
            keep = max(int(np.searchsorted(lam, _MODE_CUTOFF / tau, side="right")), 1)
            return (wx[:keep] * np.exp(-lam[:keep] * tau)) @ wy[:keep]
        xp = self._point(x)
        out = np.ones(len(ys))
        for d, L in enumerate(self.domain.lengths):
            col = np.array([self._images_axis(float(xp[d]), float(yv), L,
                                              np.array([tau]))[0] for yv in ys[:, d]])
            out *= col
        return out

    # -- integral rules ---------------------------------------------------

    def mass(self, x, tau: float, cells: int = 1024) -> float:
        """Quadrature of U(x, .; tau) over the domain.

        Both branches factor over axes, so the integral is computed as a
        product of per-axis trapezoid quadratures of the actual
        one-dimensional kernel factors.
        """
        if tau <= 0:
            raise InputError("kernel requires positive time gaps")
        xp = self._point(x)
        total = 1.0
        for d, L in enumerate(self.domain.lengths):
            ys = np.linspace(0.0, L, cells + 1)
            w = trapezoid_weights(cells, L)
            if tau >= self.crossover:
                lam1 = (np.arange(self._axis_modes(d)) * np.pi / L) ** 2
                wx = _axis_samples(np.array([xp[d]]), len(lam1), L)[:, 0]
                wy = _axis_samples(ys, len(lam1), L)
                vals = (wx * np.exp(-lam1 * tau)) @ wy
            else:
                vals = np.array([self._images_axis(float(xp[d]), float(yv), L,
                                                   np.array([tau]))[0] for yv in ys])
            total *= float(w @ vals)
        return total

    def _axis_modes(self, d: int) -> int:
        return int(np.max(self.basis.modes[:, d])) + 1

    def boundary_propagate(self, g: BoundaryTrace, x, t: float,
                           gl_order: int = 4) -> float:
        """int_0^t int_bnd U(x, t; y, s) g(y, s) dS(y) ds.

        The substitution sigma = sqrt(t - s) removes the tau^(-1/2)
        endpoint singularity of the same-point kernel; each time cell of
        g maps to one sigma panel integrated by Gauss-Legendre, with g
        interpolated linearly in s.
        """
        if t < 0 or t > g.final_time + 1e-12:
            raise InputError(f"propagation time {t} outside data range [0, {g.final_time}]")
        if t <= 0:
            return 0.0
        knots = g.times[g.times < t - 1e-14]
        knots = np.append(knots, t)
        sig_edges = np.sqrt(np.maximum(t - knots, 0.0))[::-1]  # ascending in sigma
        xi, wq = gauss_legendre(gl_order)
        half = 0.5 * np.diff(sig_edges)
        mid = 0.5 * (sig_edges[:-1] + sig_edges[1:])
        sigma = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
        wall = (half[:, None] * wq[None, :]).ravel()
        s = t - sigma**2
        kv = self._values_batch(x, g.nodes.nodes, sigma**2)      # (nsig, nb)
        gv = np.stack([np.interp(s, g.times, g.values[:, b])
                       for b in range(g.nodes.count)], axis=1)
        return float((wall * 2.0 * sigma) @ (kv * gv) @ g.nodes.weights)

    def boundary_propagate_trace(self, g: BoundaryTrace, points: np.ndarray,
                                 gl_order: int = 4) -> np.ndarray:
        """boundary_propagate at every (point, sample time of g); (nt+1, npts).

        Same quadrature as `boundary_propagate`, evaluated as a lag
        operator. On the uniform grid t_j = j dt the sigma panel that
        covers s in [t_{j-l-1}, t_{j-l}] is [sqrt(l dt), sqrt((l+1) dt)]
        for every j, so the kernel is evaluated once per (lag, Gauss
        point, point, node) and folded with the quadrature, the linear
        interpolation in s and the boundary weights into per-lag
        matrices W_up[l] (acting on g[j-l]) and W_lo[l] (on g[j-l-1]),
        each (npts, nb). Then

            a[j] = sum_{l<j} W_up[l] g[j-l] + W_lo[l] g[j-l-1],  a[0] = 0.

        Cost: nt * gl_order kernel evaluations per (point, node) pair
        plus an O(nt^2 * npts * nb) causal sum. Raises InputError unless
        the time grid of g is uniform and starts at 0.
        """
        pts = np.asarray(points, dtype=float)
        times = g.times
        nt = len(times) - 1
        if times[0] != 0.0:
            raise InputError(f"lag operator needs a time grid starting at 0, got {times[0]}")
        out = np.zeros((nt + 1, len(pts)))
        if nt == 0:
            return out
        dt = float(times[-1]) / nt
        if not (dt > 0 and np.max(np.abs(times - dt * np.arange(nt + 1))) <= 1e-10 * dt):
            raise InputError("lag operator needs a uniform time grid")

        sig_edges = np.sqrt(np.arange(nt + 1) * dt)
        xi, wq = gauss_legendre(gl_order)
        half = 0.5 * np.diff(sig_edges)[:, None]
        mid = 0.5 * (sig_edges[:-1] + sig_edges[1:])[:, None]
        sigma = mid + half * xi[None, :]                          # (nt, q)
        theta_lo = sigma**2 / dt - np.arange(nt)[:, None]          # weight of g[j-l-1]
        quad = 2.0 * sigma * half * wq[None, :]
        c_up = quad * (1.0 - theta_lo)
        c_lo = quad * theta_lo
        w_up = np.empty((nt, len(pts), g.nodes.count))
        w_lo = np.empty_like(w_up)
        for i in range(len(pts)):
            kv = self._values_batch(pts[i], g.nodes.nodes, (sigma**2).ravel())
            kv = kv.reshape(nt, gl_order, -1) * g.nodes.weights    # (nt, q, nb)
            w_up[:, i] = np.einsum("lq,lqb->lb", c_up, kv)
            w_lo[:, i] = np.einsum("lq,lqb->lb", c_lo, kv)

        gv = g.values
        for lag in range(nt):
            out[lag + 1:] += gv[1:nt + 1 - lag] @ w_up[lag].T + gv[:nt - lag] @ w_lo[lag].T
        return out

    def domain_propagate(self, h: np.ndarray, grid: SpatialGrid, times: np.ndarray,
                         x, t: float) -> float:
        """int_0^t int_dom U(x, t; y, s) h(y, s) dy ds.

        h is projected onto the eigenbasis by tensor quadrature and each
        modal coefficient is convolved exactly against its exponential
        (piecewise-linear interpolation in s), so the s-integral needs
        no special handling near s = t. The grid must resolve the
        configured modes (2n > k_max per axis), otherwise the top modes
        alias onto low ones in the projection.
        """
        if t < 0 or t > times[-1] + 1e-12:
            raise InputError(f"propagation time {t} outside data range [0, {times[-1]}]")
        series = self.domain_propagate_series(h, grid, times, np.asarray([self._point(x)]))
        return float(np.interp(t, times, series[:, 0]))

    def domain_propagate_series(self, h: np.ndarray, grid: SpatialGrid,
                                times: np.ndarray, points: np.ndarray) -> np.ndarray:
        """domain_propagate at every sample time, several points; (nt+1, npts)."""
        h = np.asarray(h, dtype=float)
        if h.shape != (len(times),) + grid.shape:
            raise InputError(f"field shape {h.shape} does not match "
                             f"{(len(times),) + grid.shape}")
        coeffs = self.basis.project(grid, h)               # (nt+1, K)
        p = exp_convolve(self.basis.lambdas, times, coeffs)
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        return p @ self.basis.values_at(pts)


def _axis_samples(xs: np.ndarray, count: int, L: float) -> np.ndarray:
    """One-dimensional Neumann modes 0..count-1 sampled at xs; (count, len(xs))."""
    out = np.empty((count, len(xs)))
    out[0] = np.sqrt(1.0 / L)
    for m in range(1, count):
        out[m] = np.sqrt(2.0 / L) * np.cos(m * np.pi * xs / L)
    return out
