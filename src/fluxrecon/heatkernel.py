"""Neumann heat kernel on intervals and rectangles, with propagation rules.

The kernel U(x, t; y, s) depends on time only through tau = t - s. On a
rectangle it is the product of the interval kernels of its two axes, so
every evaluation goes through one per-axis factor, the interval kernel
of side L from every x to every y, in one of two exact representations:

  * cosine series:  sum_{m < _K_MAX} exp(-lambda_m tau) w_m(x) w_m(y) over
    the interval modes w_m of eigenbasis.axis_modes, lambda_m = (m pi / L)^2;
    accurate once the tail exp(-lambda_top tau) is negligible, so used for
    tau at or above the axis's crossover;
  * images:         sums of reflected Gaussians
    G(z) = exp(-z^2 / 4 tau) / sqrt(4 pi tau), whose truncation error
    dies like exp(-L^2/tau), so used below it.

The evaluator takes no settings. It keeps _K_MAX = 200 modes per axis,
_IMAGE_COUNT = 5 images on each side, _GL_ORDER = 4 Gauss points per
sigma panel and _MASS_CELLS = 1024 trapezoid cells per axis in `mass`
(below the axis's crossover, on the window about x that holds the images).
These are constants because the data functional needs the kernel only
to rounding accuracy, which these values give, and no run needs others.
The Gauss rule is written out as literal nodes and weights, bit-equal to
numpy's `polynomial.legendre.leggauss(4)`, whose import loads the
`numpy.polynomial` subpackage and whose call runs an eigensolve.
Each axis takes its branch at its own crossover 2 ln(1/_TAIL_TOL) /
lambda_top, with _TAIL_TOL = 1e-12 and lambda_top = ((_K_MAX - 1) pi / L)^2
of that axis. It keeps the axis's series tail below _TAIL_TOL^2 at the
crossover and below _TAIL_TOL at half of it, where the two branches are
compared, and images of that axis are exact to rounding below it. So a
long, thin rectangle sums images along its long axis and the series
along its short one at the same tau.

The boundary data functional (boundary_propagate_trace) is a lag
operator on a trace's axis t_j = j dt at the trace's own nodes. It is
split at tau0 = L0 dt, L0 = min(_NEAR_LAGS = 8, nt) on domains of about
the diffusion length and more on longer ones, into the local and history
parts of a heat potential (Greengard and Strain, CPAM 43, 1990): a kernel
table for the near lags, built _NEAR_LAGS lags at a time, and for the far
lags the product cosine series
over eigenbasis.modes_below, summed over all of them by exp_convolve.
The scalar boundary_propagate evaluates the one quadrature, the sigma
panels of _sigma_panels, at one (point, time) and is its reference.
"""

from __future__ import annotations

import math

import numpy as np

from .eigenbasis import axis_modes, modes_below
from .errors import InputError
from .fields import BoundaryTrace
from .geometry import DomainSpec
from .numerics import exp_convolve, trapezoid_weights

# modes with lambda * tau above this contribute < 1e-26 relative and are dropped
_MODE_CUTOFF = 60.0
# the fixed evaluation constants of the module docstring
_K_MAX = 200
_TAIL_TOL = 1e-12
_IMAGE_COUNT = 5
_GL_NODES = np.array([-0.8611363115940526, -0.33998104358485626,
                      0.33998104358485626, 0.8611363115940526])
_GL_WEIGHTS = np.array([0.34785484513745357, 0.6521451548625464,
                        0.6521451548625464, 0.34785484513745357])
_GL_ORDER = len(_GL_NODES)
_MASS_CELLS = 1024
# lags of boundary_propagate_trace taken from the kernel table
_NEAR_LAGS = 8


def _sigma_panels(sig_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points of each sigma panel [sig_edges[i], sig_edges[i+1]] and
    their weights times 2 sigma (ds = -2 sigma dsigma); both (panels, q)."""
    half = 0.5 * np.diff(sig_edges)[:, None]
    mid = 0.5 * (sig_edges[:-1] + sig_edges[1:])[:, None]
    sigma = mid + half * _GL_NODES
    return sigma, 2.0 * sigma * half * _GL_WEIGHTS


class KernelEvaluator:
    """Evaluates the Neumann heat kernel and its propagation integrals."""

    def __init__(self, domain: DomainSpec):
        self.domain = domain
        # per-axis eigenvalues lambda_m = (m pi / L)^2, m < _K_MAX
        self._lambdas = [(np.arange(_K_MAX) * np.pi / L) ** 2 for L in domain.lengths]
        self.crossovers = [2.0 * math.log(1.0 / _TAIL_TOL) / float(lam[-1])
                           for lam in self._lambdas]

    # -- the kernel core ---------------------------------------------------

    def _axis(self, d: int, xs: np.ndarray, ys: np.ndarray, taus: np.ndarray,
              spectral: bool | None = None) -> np.ndarray:
        """Interval kernel of axis d from every x to every y at every tau;
        (len(taus), len(xs), len(ys)). The branch is images below the
        axis's crossover and the cosine series from it on; spectral=True
        or False takes that one branch for every tau."""
        if spectral is None:
            out = np.empty((len(taus), len(xs), len(ys)))
            near = taus < self.crossovers[d]
            for branch, sel in ((False, near), (True, ~near)):
                if np.any(sel):
                    out[sel] = self._axis(d, xs, ys, taus[sel], branch)
            return out
        L = self.domain.lengths[d]
        if spectral:
            lam = self._lambdas[d]
            tmin = float(np.min(taus))
            keep = (max(int(np.searchsorted(lam, _MODE_CUTOFF / tmin, side="right")), 1)
                    if tmin > 0 else len(lam))
            wx, wy = axis_modes(xs, keep, L), axis_modes(ys, keep, L)
            if len(xs) == 1:
                # one x, as in mass: the product is written over wy
                wxy = np.multiply(wx, wy, out=wy)
            else:
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
        (n, dim)) at every tau, the product of the axes' factors;
        (len(taus), len(xs), len(ys))."""
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
        """Kernel values at one x against many y points (n, dim), fixed tau."""
        if tau <= 0:
            raise InputError("kernel requires positive time gaps")
        ys = np.asarray(ys, dtype=float)
        return self._block(self._point(x), ys, np.array([float(tau)]))[0, 0]

    # -- integral rules ---------------------------------------------------

    def mass(self, x, tau: float) -> float:
        """Quadrature of U(x, .; tau) over the domain.

        The kernel factors over axes, so the integral is the product of
        per-axis trapezoid quadratures of the interval factors. Below an
        axis's crossover the cells span only [x - r, x + r] of it, with
        r = sqrt(8 ln(1/_TAIL_TOL) tau): the images hold < _TAIL_TOL^2 outside.
        """
        if tau <= 0:
            raise InputError("kernel requires positive time gaps")
        xp = self._point(x)
        taus = np.array([float(tau)])
        total = 1.0
        for d, L in enumerate(self.domain.lengths):
            lo, hi = 0.0, L
            if tau < self.crossovers[d]:
                r = math.sqrt(8.0 * math.log(1.0 / _TAIL_TOL) * tau)
                lo, hi = max(0.0, xp[0, d] - r), min(L, xp[0, d] + r)
            ys = np.linspace(lo, hi, _MASS_CELLS + 1)
            vals = self._axis(d, xp[:, d], ys, taus)[0, 0]
            total *= float(trapezoid_weights(_MASS_CELLS, hi - lo) @ vals)
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
        times = g.times
        knots = times[times < t - 1e-14]
        knots = np.append(knots, t)
        sig_edges = np.sqrt(np.maximum(t - knots, 0.0))[::-1]  # ascending in sigma
        sigma, quad = (a.ravel() for a in _sigma_panels(sig_edges))
        s = t - sigma**2
        kv = self._block(self._point(x), g.nodes.nodes, sigma**2)[:, 0]   # (nsig, nb)
        gv = np.stack([np.interp(s, times, g.values[:, b])
                       for b in range(g.nodes.count)], axis=1)
        return float(quad @ (kv * gv) @ g.nodes.weights)

    def boundary_propagate_trace(self, g: BoundaryTrace) -> np.ndarray:
        """boundary_propagate at every (node, sample time) of g; (nt+1, nb).

        Same quadrature as `boundary_propagate`, evaluated as a lag
        operator at the trace's own nodes. On the uniform grid t_j = j dt
        the sigma panel that covers s in [t_{j-l-1}, t_{j-l}] is
        [sqrt(l dt), sqrt((l+1) dt)] for every j. The near lags l < L0
        evaluate the kernel once per (lag, Gauss point, node, node),
        _NEAR_LAGS lags at a time, and fold it with the quadrature, the
        linear interpolation in s and the boundary weights into matrices
        W_up[l] (acting on g[j-l]) and W_lo[l] (on g[j-l-1]), each
        (nb, nb). Past tau0 = L0 dt the kernel is
        sum_k exp(-lambda_k tau) w_k(x) w_k(y) over every product mode
        with lambda_k tau0 < _MODE_CUTOFF (not capped at _K_MAX), and its
        integral against g, linear in s, is exact: with
        G = g (w_b w_k(y_b)) and p = exp_convolve(lambda, dt, G),

            a[j] = sum_{l<min(j,L0)} W_up[l] g[j-l] + W_lo[l] g[j-l-1]
                   + sum_k w_k(x) exp(-lambda_k tau0) p_k[j-L0],   a[0] = 0,

        the last sum for j >= L0 only.

        L0 is min(_NEAR_LAGS, nt), doubled (up to nt) while more than
        max(_K_MAX, nb^2) far modes are kept. K grows like
        L / sqrt(tau0) per axis: at T = 1 and nt = 2048 it is 40 on the
        unit interval and 1264 on the unit square, where 32 nodes double
        L0 once. So only long domains move L0, and the (nt+1, K) far
        arrays stay the order of the per-lag (nb, nb) weights, and the
        near table holds _NEAR_LAGS lags whatever L0 is.
        Cost: O(nt * (L0 nb^2 + K nb + K log nt)).
        """
        nt, nb = len(g.values) - 1, g.nodes.count
        out = np.zeros((nt + 1, nb))
        if nt == 0:
            return out
        dt, gv, nodes = g.dt, g.values, g.nodes
        width = max(_K_MAX, nb**2)
        near = min(_NEAR_LAGS, nt)
        far = modes_below(self.domain, _MODE_CUTOFF / (near * dt))
        while near < nt and far.size > width:
            near = min(2 * near, nt)
            far = modes_below(self.domain, _MODE_CUTOFF / (near * dt))

        # the table in chunks of _NEAR_LAGS lags, each folded in before the next
        for l0 in range(0, near, _NEAR_LAGS):
            edges = np.arange(l0, min(l0 + _NEAR_LAGS, near) + 1)
            lags = edges[:-1]
            sigma, quad = _sigma_panels(np.sqrt(edges * dt))        # (lags, q)
            theta_lo = sigma**2 / dt - lags[:, None]               # weight of g[j-l-1]
            kv = self._block(nodes.nodes, nodes.nodes, (sigma**2).ravel())
            kv = kv.reshape(len(lags), _GL_ORDER, nb, nb) * nodes.weights
            w_up = np.einsum("lq,lqib->lib", quad * (1.0 - theta_lo), kv)
            w_lo = np.einsum("lq,lqib->lib", quad * theta_lo, kv)
            for lag, up, lo in zip(lags, w_up, w_lo):
                out[lag + 1:] += gv[1:nt + 1 - lag] @ up.T + gv[:nt - lag] @ lo.T

        if nt > near:
            tau0, lam = near * dt, far.lambdas
            modes = far.values_at(nodes.nodes)                         # (K, nb)
            p = exp_convolve(lam, dt, gv @ (modes * nodes.weights).T)
            out[near:] += p[:nt + 1 - near] @ (np.exp(-lam * tau0)[:, None] * modes)
        return out
