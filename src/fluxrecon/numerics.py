"""Small numerical helpers shared by the kernel and reconstruction stages."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.signal import savgol_filter

from .errors import ConfigurationError


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
    times : (nt+1,) increasing sample times.
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
    uniform = np.allclose(dts, dts[0], rtol=1e-12, atol=0.0)
    if uniform:
        E, A, B = _exp_step_weights(lam, float(dts[0]))
    for j in range(nt):
        dt = float(dts[j])
        if not uniform:
            E, A, B = _exp_step_weights(lam, dt)
        a = coeffs[j]
        b = (coeffs[j + 1] - coeffs[j]) / dt
        p[j + 1] = E * p[j] + a * A + b * B
    return p


def sliding_derivative(times: np.ndarray, values: np.ndarray, halfwidth: int) -> np.ndarray:
    """Least-squares quadratic sliding-window derivative along axis 0.

    Fits a quadratic over a window of 2*halfwidth + 1 uniformly spaced
    samples; the end windows use one-sided fits (savgol 'interp' mode).
    Exact on quadratics.
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
    return savgol_filter(values, window, polyorder=2, deriv=1,
                         delta=float(dts[0]), axis=0, mode="interp")


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
