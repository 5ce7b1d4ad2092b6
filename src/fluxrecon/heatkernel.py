"""Neumann heat kernel on intervals and rectangles, with propagation rules.

The kernel U(x, t; y, s) depends on time only through tau = t - s. On a
rectangle it is the product of the interval kernels of its two axes, so
every evaluation goes through one per-axis factor, the interval kernel
of side L from every x to every y, in one of two exact representations:

  * cosine series:  sum_{m < _K_MAX} exp(-lambda_m tau) w_m(x) w_m(y) over
    the interval modes w_m of eigenbasis.axis_modes, lambda_m = (m pi / L)^2;
    accurate once the tail exp(-lambda_top tau) is negligible, so used for
    tau >= crossover;
  * images:         sums of reflected Gaussians
    G(z) = exp(-z^2 / 4 tau) / sqrt(4 pi tau), whose truncation error
    dies like exp(-L^2/tau), so used for tau < crossover.

The evaluator takes no settings. It keeps _K_MAX = 200 modes per axis,
_IMAGE_COUNT = 5 images on each side, _GL_ORDER = 4 Gauss points per
sigma panel and _MASS_CELLS = 1024 trapezoid cells per axis in `mass`.
These are constants because the data functional needs the kernel only
to rounding accuracy, which these values give, and no run needs others.
The crossover is 2 ln(1/_TAIL_TOL) / lambda_top with _TAIL_TOL = 1e-12
and lambda_top = ((_K_MAX - 1) pi / L)^2 of the longest axis, the
smallest top eigenvalue over the axes. It keeps every
axis's series tail below _TAIL_TOL^2 at the crossover itself and below
_TAIL_TOL at half the crossover, where the two branches are compared.

The boundary data functional (boundary_propagate_trace) is a lag
operator: on a uniform time grid starting at 0 its sigma = sqrt(t - s)
panels depend only on the lag j - i, so the kernel is tabulated once
per lag (nt * _GL_ORDER time gaps for every point/node pair) and the
functional is a causal O(nt^2 * npts * nb) sum over lags. The table is
built _LAG_BLOCK = 256 lags at a time, each block with its own mode
cutoff from its own shortest gap, so its size does not grow with nt
and the blocks of long gaps keep few modes. The scalar
boundary_propagate evaluates the same quadrature at one (point, time)
and is kept as its reference.
"""

from __future__ import annotations

import math

import numpy as np

from .eigenbasis import axis_modes
from .errors import InputError
from .fields import BoundaryTrace
from .geometry import DomainSpec
from .numerics import trapezoid_weights

# modes with lambda * tau above this contribute < 1e-26 relative and are dropped
_MODE_CUTOFF = 60.0
# the fixed evaluation constants of the module docstring
_K_MAX = 200
_TAIL_TOL = 1e-12
_IMAGE_COUNT = 5
_GL_ORDER = 4
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
_MASS_CELLS = 1024
# lags per kernel table of boundary_propagate_trace
_LAG_BLOCK = 256


class KernelEvaluator:
    """Evaluates the Neumann heat kernel and its propagation integrals."""

    def __init__(self, domain: DomainSpec):
        self.domain = domain
        # per-axis eigenvalues lambda_m = (m pi / L)^2, m < _K_MAX
        self._lambdas = [(np.arange(_K_MAX) * np.pi / L) ** 2 for L in domain.lengths]
        lam_top = min(float(lam[-1]) for lam in self._lambdas)
        self.crossover = 2.0 * math.log(1.0 / _TAIL_TOL) / lam_top

    # -- the kernel core ---------------------------------------------------

    def _axis(self, d: int, xs: np.ndarray, ys: np.ndarray, taus: np.ndarray,
              spectral: bool) -> np.ndarray:
        """Interval kernel of axis d from every x to every y at every tau,
        by the cosine series or by images; (len(taus), len(xs), len(ys))."""
        L = self.domain.lengths[d]
        if spectral:
            lam = self._lambdas[d]
            tmin = float(np.min(taus))
            keep = (max(int(np.searchsorted(lam, _MODE_CUTOFF / tmin, side="right")), 1)
                    if tmin > 0 else len(lam))
            wx, wy = axis_modes(xs, keep, L), axis_modes(ys, keep, L)
            wxy = (wx[:, :, None] * wy[:, None, :]).reshape(keep, -1)
            # the table exp(-tau lambda_m), built in place
            table = np.outer(-taus, lam[:keep])
            np.exp(table, out=table)
            return (table @ wxy).reshape(len(taus), len(xs), len(ys))
        shifts = 2.0 * L * np.arange(-_IMAGE_COUNT, _IMAGE_COUNT + 1)
        zs = np.concatenate([xs[:, None, None] - ys[None, :, None] - shifts,
                             xs[:, None, None] + ys[None, :, None] - shifts], axis=2)
        tt = taus[:, None, None, None]
        return (np.sum(np.exp(-zs[None] ** 2 / (4.0 * tt)), axis=3)
                / np.sqrt(4.0 * np.pi * taus)[:, None, None])

    def _block(self, xs: np.ndarray, ys: np.ndarray, taus: np.ndarray,
               spectral: bool | None = None) -> np.ndarray:
        """Kernel from every point of xs to every point of ys (both
        (n, dim)) at every tau; (len(taus), len(xs), len(ys)). The branch
        is images below the crossover and the cosine series from it on;
        spectral=True or False takes that one branch for every tau."""
        if spectral is None:
            out = np.empty((len(taus), len(xs), len(ys)))
            near = taus < self.crossover
            if np.any(near):
                out[near] = self._block(xs, ys, taus[near], spectral=False)
            if np.any(~near):
                out[~near] = self._block(xs, ys, taus[~near], spectral=True)
            return out
        out = self._axis(0, xs[:, 0], ys[:, 0], taus, spectral)
        for d in range(1, self.domain.dim):
            out = out * self._axis(d, xs[:, d], ys[:, d], taus, spectral)
        return out

    # -- pointwise values ------------------------------------------------

    def _point(self, p) -> np.ndarray:
        q = np.atleast_1d(np.asarray(p, dtype=float))
        if q.shape != (self.domain.dim,):
            raise InputError(f"expected a point of dim {self.domain.dim}, got shape {q.shape}")
        return q[None, :]

    def _pair(self, x, y, taus, spectral: bool | None) -> np.ndarray:
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        return self._block(self._point(x), self._point(y), taus, spectral)[:, 0, 0]

    def spectral_values(self, x, y, taus: np.ndarray) -> np.ndarray:
        """Spectral-branch values over an array of time gaps."""
        return self._pair(x, y, taus, spectral=True)

    def images_values(self, x, y, taus: np.ndarray) -> np.ndarray:
        """Method-of-images values over an array of time gaps."""
        return self._pair(x, y, taus, spectral=False)

    def values(self, x, y, taus: np.ndarray) -> np.ndarray:
        """Kernel values over an array of positive time gaps, branch-switched."""
        if np.any(np.asarray(taus) <= 0):
            raise InputError("kernel requires positive time gaps")
        # the kernel is positive; where it is below the series' rounding
        # error (far points, short gaps) the sum can come out -1e-16
        return np.maximum(self._pair(x, y, taus, spectral=None), 0.0)

    def value(self, x, y, tau: float) -> float:
        """U(x, t; y, s) for tau = t - s > 0."""
        return float(self.values(x, y, np.array([float(tau)]))[0])

    def profile(self, x, ys: np.ndarray, tau: float) -> np.ndarray:
        """Kernel values at one x against many y points, fixed tau."""
        if tau <= 0:
            raise InputError("kernel requires positive time gaps")
        ys = np.asarray(ys, dtype=float)
        if ys.ndim == 1:
            ys = ys[:, None]
        return self._block(self._point(x), ys, np.array([float(tau)]))[0, 0]

    # -- integral rules ---------------------------------------------------

    def mass(self, x, tau: float) -> float:
        """Quadrature of U(x, .; tau) over the domain.

        The kernel factors over axes, so the integral is the product of
        per-axis trapezoid quadratures of the interval factors.
        """
        if tau <= 0:
            raise InputError("kernel requires positive time gaps")
        xp = self._point(x)
        taus = np.array([float(tau)])
        total = 1.0
        for d, L in enumerate(self.domain.lengths):
            ys = np.linspace(0.0, L, _MASS_CELLS + 1)
            vals = self._axis(d, xp[:, d], ys, taus, tau >= self.crossover)[0, 0]
            total *= float(trapezoid_weights(_MASS_CELLS, L) @ vals)
        return total

    def boundary_propagate(self, g: BoundaryTrace, x, t: float) -> float:
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
        xi, wq = _GL_NODES, _GL_WEIGHTS
        half = 0.5 * np.diff(sig_edges)
        mid = 0.5 * (sig_edges[:-1] + sig_edges[1:])
        sigma = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
        wall = (half[:, None] * wq[None, :]).ravel()
        s = t - sigma**2
        kv = self._block(self._point(x), g.nodes.nodes, sigma**2)[:, 0]   # (nsig, nb)
        gv = np.stack([np.interp(s, g.times, g.values[:, b])
                       for b in range(g.nodes.count)], axis=1)
        return float((wall * 2.0 * sigma) @ (kv * gv) @ g.nodes.weights)

    def boundary_propagate_trace(self, g: BoundaryTrace, points: np.ndarray) -> np.ndarray:
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

        Cost: nt * _GL_ORDER kernel evaluations per (point, node) pair,
        tabulated _LAG_BLOCK lags at a time, plus an O(nt^2 * npts * nb)
        causal sum. Raises InputError unless the time grid of g is uniform
        and starts at 0.
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
        xi, wq = _GL_NODES, _GL_WEIGHTS
        half = 0.5 * np.diff(sig_edges)[:, None]
        mid = 0.5 * (sig_edges[:-1] + sig_edges[1:])[:, None]
        sigma = mid + half * xi[None, :]                          # (nt, q)
        theta_lo = sigma**2 / dt - np.arange(nt)[:, None]          # weight of g[j-l-1]
        quad = 2.0 * sigma * half * wq[None, :]
        c_up = quad * (1.0 - theta_lo)
        c_lo = quad * theta_lo
        nb = g.nodes.count
        w_up, w_lo = np.empty((nt, len(pts), nb)), np.empty((nt, len(pts), nb))
        for l0 in range(0, nt, _LAG_BLOCK):
            lags = slice(l0, min(l0 + _LAG_BLOCK, nt))
            kv = self._block(pts, g.nodes.nodes, (sigma[lags] ** 2).ravel())
            kv = kv.reshape(-1, _GL_ORDER, len(pts), nb) * g.nodes.weights  # (lags, q, npts, nb)
            np.einsum("lq,lqib->lib", c_up[lags], kv, out=w_up[lags])
            np.einsum("lq,lqib->lib", c_lo[lags], kv, out=w_lo[lags])

        gv = g.values
        for lag in range(nt):
            out[lag + 1:] += gv[1:nt + 1 - lag] @ w_up[lag].T + gv[:nt - lag] @ w_lo[lag].T
        return out
