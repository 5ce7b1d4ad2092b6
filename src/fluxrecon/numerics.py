"""Small numerical helpers shared by the kernel and reconstruction stages."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


def trapezoid_weights(n: int, length: float) -> np.ndarray:
    """Composite trapezoid weights for n cells on an interval of given length."""
    h = length / n
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2.0
    return w


def _exp_step_weights(lam: np.ndarray, dt: float):
    """Per-step weights for the exact convolution of a linear segment.

    Over one step the contribution of c(s) = a + b (s - t_j) to
    int_0^t exp(-lam (t - s)) c(s) ds is a*A + b*B with

        A = (1 - E) / lam,    B = dt / lam - (1 - E) / lam^2,    E = exp(-lam dt).

    Evaluated through expm1 with a series fallback for small lam*dt so
    both stay accurate down to lam = 0 (where A = dt, B = dt^2 / 2).
    """
    z = lam * dt
    E = np.exp(-z)
    small = z < 1e-3
    zs = np.where(small, z, 1.0)  # keep the series branch finite
    rate = np.where(small, 1.0, lam)  # a tiny or zero lam never reaches the closed form
    A = np.where(small,
                 dt * (1.0 - zs / 2.0 + zs**2 / 6.0 - zs**3 / 24.0),
                 -np.expm1(-z) / rate)
    B = np.where(small,
                 dt * dt * (0.5 - zs / 6.0 + zs**2 / 24.0 - zs**3 / 120.0),
                 dt / rate + np.expm1(-z) / (rate * rate))
    return E, A, B


def exp_convolve(lam: np.ndarray, dt: float, coeffs: np.ndarray) -> np.ndarray:
    """Exact convolution of piecewise-linear coefficients against exp decay.

    Returns p with p[j, k] = int_0^{t_j} exp(-lam_k (t_j - s)) c_k(s) ds
    where c_k is the linear interpolant of coeffs[:, k] on t_j = j dt.
    Exact for data that is piecewise linear in s, which makes it an
    exponentially-weighted trapezoid rule (plain trapezoid at lam = 0).
    It is the package's one modal convolution: it gives the modal Volterra
    responses of recon and the far lags of the boundary data functional
    (heatkernel.KernelEvaluator.boundary_propagate_trace).

    The recurrence p[j+1] = E p[j] + d[j], with the step increments
    d[j] = c[j] A + slope[j] B of _exp_step_weights, is summed as a
    log-depth scan (Hillis and Steele, CACM 29(12), 1986): p[1:] starts
    as d, and for s = 1, 2, 4, ... < nt each pass adds E^s p[j-s] to p[j]
    for j > s, E^s squared from pass to pass. After the pass with s, p[j]
    holds the last 2s increments, so about log2(nt) passes give the whole
    sum in O(nt K log nt) work with no loop over rows.

    Parameters
    ----------
    lam : (K,) nonnegative decay rates.
    dt : the time step of the samples.
    coeffs : (nt+1, K) coefficient samples.
    """
    lam = np.asarray(lam, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    nt = len(coeffs) - 1
    p = np.zeros_like(coeffs)
    if nt < 1:
        return p
    E, A, B = _exp_step_weights(lam, dt)
    # the increments c[j] A + slope[j] B, the slope term built in tmp
    tmp = np.subtract(coeffs[1:], coeffs[:-1])
    tmp /= dt
    tmp *= B
    np.multiply(coeffs[:-1], A, out=p[1:])
    p[1:] += tmp
    s = 1
    while s < nt:
        shifted = np.multiply(E, p[1:nt + 1 - s], out=tmp[:nt - s])
        p[s + 1:] += shifted
        E = E * E
        s *= 2
    return p


def sliding_derivative(dt: float, values: np.ndarray, halfwidth: int) -> np.ndarray:
    """Least-squares quadratic sliding-window derivative along axis 0.

    Fits a quadratic to each window of w = 2*halfwidth + 1 samples, dt
    apart (Savitzky and Golay, Anal. Chem. 36, 1964) and takes its slope
    at the window's centre; the first and last halfwidth samples take the
    slope of the first and last window's fit at their own place. On the
    window offsets t = -h..h, with S2 = sum t^2 and S4 = sum t^4, the fit
    on the orthogonal basis 1, t, t^2 - S2/w has the slope D[p] @ x at
    offset t_p, with

        D[p, j] = (t_j / S2 + 2 t_p (t_j^2 - S2/w) / (S4 - S2^2/w)) / dt.

    Exact on quadratics at any dt. It agrees with SciPy's
    `savgol_filter(values, w, 2, deriv=1, delta=dt, axis=0, mode="interp")`
    to rounding; SciPy's signal subpackage is not used because importing
    it loads some 380 more modules.
    """
    if halfwidth < 1:
        raise ConfigurationError("derivative halfwidth must be >= 1")
    values = np.asarray(values, dtype=float)
    h, window = halfwidth, 2 * halfwidth + 1
    if window > len(values):
        raise ConfigurationError(
            f"derivative window {window} exceeds {len(values)} time samples")
    t = np.arange(-h, h + 1, dtype=float)
    s2, s4 = np.sum(t * t), np.sum(t ** 4)
    taps = (t / s2 + 2.0 * np.outer(t, t * t - s2 / window) / (s4 - s2 * s2 / window)) / dt
    x = values.reshape(len(values), -1)
    out = np.empty_like(x)
    out[:h] = taps[:h] @ x[:window]
    out[h:len(x) - h] = np.lib.stride_tricks.sliding_window_view(x, window, axis=0) @ taps[h]
    out[len(x) - h:] = taps[h + 1:] @ x[-window:]
    return out.reshape(values.shape)


def quantiles(values: np.ndarray, qs) -> np.ndarray:
    """Quantiles qs of a 1-d sample by numpy's default linear rule, bit for bit.

    Follows np.quantile's steps, whose import of `numpy.ma` this avoids: the
    virtual index v = (n - 1) q, one partition of a copy at its neighbours and
    both ends, then a + (b - a) t, or b - (b - a)(1 - t) where t >= 0.5. Like
    numpy, a top index (v >= n - 1) reads the last value on both sides with
    t = v + 1, and partitioning rather than sorting places the signed zeros.
    """
    x = np.array(values, dtype=float)
    n = len(x)
    v = (n - 1) * np.asarray(qs, dtype=float)
    top = v >= n - 1
    lo = np.where(top, n - 1, np.floor(v)).astype(np.intp)
    hi = np.where(top, n - 1, lo + 1)
    x.partition(sorted({0, n - 1, *lo.tolist(), *hi.tolist()}))
    a, b = x[lo], x[hi]
    t = v - np.where(top, -1, lo)
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def isotonic_nondecreasing(values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Weighted pool-adjacent-violators projection onto nondecreasing sequences."""
    y = np.asarray(values, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    if y.shape != w.shape or y.ndim != 1:
        raise ConfigurationError("isotonic projection expects matching 1-d arrays")
    # blocks as (weight, mean, count), merged while out of order
    bw: list[float] = []
    bm: list[float] = []
    bn: list[int] = []
    for yi, wi in zip(y, w):
        bw.append(float(wi))
        bm.append(float(yi))
        bn.append(1)
        while len(bm) > 1 and bm[-2] > bm[-1]:
            w2, m2, n2 = bw.pop(), bm.pop(), bn.pop()
            w1, m1, n1 = bw.pop(), bm.pop(), bn.pop()
            wt = w1 + w2
            bw.append(wt)
            bm.append((w1 * m1 + w2 * m2) / wt if wt > 0 else 0.5 * (m1 + m2))
            bn.append(n1 + n2)
    out = np.empty_like(y)
    pos = 0
    for m, n in zip(bm, bn):
        out[pos:pos + n] = m
        pos += n
    return out
