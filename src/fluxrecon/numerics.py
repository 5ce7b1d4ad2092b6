"""Small numerical helpers shared by the kernel and reconstruction stages."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, InputError

_EPS = float(np.finfo(float).eps)


def trapezoid_weights(n: int, length: float) -> np.ndarray:
    """Composite trapezoid weights for n cells on an interval of given length."""
    h = length / n
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2.0
    return w


@lru_cache(maxsize=32)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def smoothstep(u: np.ndarray) -> np.ndarray:
    """C^1 ramp: 0 below 0, 1 above 1, 3u^2 - 2u^3 between."""
    v = np.clip(u, 0.0, 1.0)
    return v * v * (3.0 - 2.0 * v)


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


def exp_convolve(lam: np.ndarray, times: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Exact convolution of piecewise-linear coefficients against exp decay.

    Returns p with p[j, k] = int_0^{t_j} exp(-lam_k (t_j - s)) c_k(s) ds
    where c_k is the linear interpolant of coeffs[:, k] on `times`.
    Exact for data that is piecewise linear in s, which makes it an
    exponentially-weighted trapezoid rule (plain trapezoid at lam = 0).

    Parameters
    ----------
    lam : (K,) nonnegative decay rates.
    times : (nt+1,) uniformly spaced sample times, else InputError; the
        step weights are computed once, from the first step.
    coeffs : (nt+1, K) coefficient samples.
    """
    lam = np.asarray(lam, dtype=float)
    times = np.asarray(times, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    nt = len(times) - 1
    p = np.zeros_like(coeffs)
    if nt < 1:
        return p
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-12, atol=0.0):
        raise InputError("exp_convolve needs a uniform time grid")
    E, A, B = _exp_step_weights(lam, float(dts[0]))
    # the two data terms of every step at once; the loop adds them in the
    # order of E p[j] + c[j] A + b[j] B, so it rounds as that expression
    head = coeffs[:-1] * A
    slope = (coeffs[1:] - coeffs[:-1]) / dts[:, None] * B
    for j in range(nt):
        row = np.multiply(E, p[j], out=p[j + 1])
        row += head[j]
        row += slope[j]
    return p


def sliding_derivative(times: np.ndarray, values: np.ndarray, halfwidth: int) -> np.ndarray:
    """Least-squares quadratic sliding-window derivative along axis 0.

    Fits a quadratic over a window of 2*halfwidth + 1 uniformly spaced
    samples; the end windows use one-sided fits. Exact on quadratics.
    The result is bit for bit that of SciPy's (1.17) Savitzky-Golay filter,
    `savgol_filter(values, 2*halfwidth + 1, 2, deriv=1, delta=dt, axis=0,
    mode="interp")`, on float64 data; `test_bit_equal_to_savgol_interp`
    checks that. It is written out here because importing SciPy's signal
    subpackage loads some 380 more modules and would triple the start-up
    time of every command.
    """
    times = np.asarray(times, dtype=float)
    if halfwidth < 1:
        raise ConfigurationError("derivative halfwidth must be >= 1")
    window = 2 * halfwidth + 1
    if window > len(times):
        raise ConfigurationError(
            f"derivative window {window} exceeds {len(times)} time samples")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ConfigurationError("sliding derivative requires a uniform time grid")
    values = np.asarray(values, dtype=float)
    return _quadratic_derivative(values.reshape(len(values), -1), halfwidth,
                                 float(dts[0])).reshape(values.shape)


def _quadratic_derivative(x: np.ndarray, h: int, delta: float) -> np.ndarray:
    """savgol `interp` derivative of the columns of x, in savgol's own
    arithmetic: its least-squares taps, ndimage's summation order in the
    interior and scaled polyfit, polyder and Horner on the end windows.
    The fits use numpy.linalg.lstsq, which calls the same LAPACK driver,
    gelsd, as the scipy.linalg.lstsq inside savgol."""
    n, window = x.shape[0], 2 * h + 1
    # taps on the flipped Vandermonde, reversed so w[h + k] weights x[j + k]
    t = np.arange(h, -h - 1, -1, dtype=float)
    w = np.linalg.lstsq(t ** np.arange(3.0)[:, None], np.array([0.0, 1.0 / delta, 0.0]),
                        rcond=_EPS * window)[0][::-1]
    out = np.empty_like(x)

    def tap(k):
        return x[h + k:n - h + k]

    left, right = w[h - 1::-1], w[h + 1:]  # the taps at -k and +k, k = 1..h
    symmetric = np.all(np.abs(right - left) <= _EPS)
    if symmetric or np.all(np.abs(right + left) <= _EPS):
        # ndimage's (anti)symmetric branch: the centre, then the tap pairs
        pair = np.add if symmetric else np.subtract
        acc = tap(0) * w[h]
        for k in range(-h, 0):
            acc += pair(tap(k), tap(-k)) * w[h + k]
    else:
        # the general branch: the last tap, then the rest left to right
        acc = tap(h) * w[2 * h]
        for k in range(-h, h):
            acc += tap(k) * w[h + k]
    out[h:n - h] = acc

    lhs = np.arange(window, dtype=float)[:, None] ** np.arange(2.0, -1.0, -1.0)
    scale = np.sqrt(np.sum(lhs * lhs, axis=0))
    lhs /= scale
    for start, first in ((0, 0), (n - window, h + 1)):  # window start, first row in it
        c = np.linalg.lstsq(lhs, x[start:start + window],
                            rcond=_EPS * window)[0] / scale[:, None]
        at = np.arange(first, first + h, dtype=float)[:, None]
        y = np.zeros_like(at)  # Horner from zero, as polyval does
        for coef in c[:-1] * np.array([[2.0], [1.0]]):
            y = y * at + coef
        out[start + first:start + first + h] = y / delta
    return out


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
