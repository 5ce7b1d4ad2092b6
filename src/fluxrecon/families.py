"""Named boundary-data and reaction-law families for configs and CLIs.

Family selectors are plain dicts so they can ride in JSON configs and
output metadata unchanged.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .forward import DirichletData, Nonlinearity
from .geometry import DomainSpec


def make_reaction(spec: dict) -> Nonlinearity:
    """Build a reaction law from a family selector.

    Families: zero; linear {coeff}; power {coeff, exponent >= 1};
    saturating {coeff} for coeff * u / (1 + u). Arguments below zero
    are treated as zero (the admissible range is u >= 0), keeping every
    family nondecreasing with f(0) = 0.
    """
    family = spec.get("family")
    label = _label(spec)
    if family == "zero":
        return Nonlinearity(fn=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                            label=label)
    if family == "linear":
        c = float(spec.get("coeff", 1.0))
        _nonneg(c, "coeff")
        return Nonlinearity(fn=lambda u: c * np.asarray(u, dtype=float), label=label)
    if family == "power":
        c = float(spec.get("coeff", 1.0))
        p = float(spec.get("exponent", 2.0))
        _nonneg(c, "coeff")
        if p < 1.0:
            raise ConfigurationError(f"power exponent must be >= 1, got {p}")
        def fn(u, c=c, p=p):
            up = np.maximum(np.asarray(u, dtype=float), 0.0)
            return c * up ** p
        return Nonlinearity(fn=fn, label=label)
    if family == "saturating":
        c = float(spec.get("coeff", 1.0))
        _nonneg(c, "coeff")
        def fn(u, c=c):
            up = np.maximum(np.asarray(u, dtype=float), 0.0)
            return c * up / (1.0 + up)
        return Nonlinearity(fn=fn, label=label)
    raise ConfigurationError(f"unknown reaction family {family!r}")


def make_boundary_data(spec: dict, domain: DomainSpec, final_time: float) -> DirichletData:
    """Build Dirichlet data from a family selector.

    Time course: ramp gives phi = t * g(x); saturating_ramp gives
    phi = (1 - exp(-t / scale)) * g(x). Spatial profile g: const is the
    constant `amplitude`; affine is amplitude * (1 + slope * x1 / L1)
    along the first axis (slope > -1 keeps the data nonnegative).
    """
    family = spec.get("family")
    profile = spec.get("profile", "const")
    amp = float(spec.get("amplitude", 1.0))
    slope = float(spec.get("slope", 0.0))
    if amp <= 0:
        raise ConfigurationError(f"amplitude must be positive, got {amp}")
    if profile == "const":
        def g(pts):
            return np.full(np.asarray(pts).shape[0], amp)
    elif profile == "affine":
        if slope <= -1.0:
            raise ConfigurationError(f"affine slope must exceed -1, got {slope}")
        L0 = domain.lengths[0]
        def g(pts, L0=L0, amp=amp, slope=slope):
            return amp * (1.0 + slope * np.asarray(pts, dtype=float)[:, 0] / L0)
    else:
        raise ConfigurationError(f"unknown boundary profile {profile!r}")

    if family == "ramp":
        fn = lambda pts, t: t * g(pts)
    elif family == "saturating_ramp":
        scale = float(spec.get("scale", 1.0))
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        fn = lambda pts, t: -np.expm1(-t / scale) * g(pts)
    else:
        raise ConfigurationError(f"unknown boundary family {family!r}")
    return DirichletData(fn=fn, final_time=float(final_time), label=_label(spec))


def _label(spec: dict) -> str:
    parts = [str(spec.get("family"))]
    for key in sorted(spec):
        if key != "family":
            parts.append(f"{key}={spec[key]}")
    return ",".join(parts)


def _nonneg(value: float, name: str) -> None:
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
