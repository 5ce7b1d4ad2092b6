"""Named boundary-data and reaction-law families for configs and CLIs.

Family selectors are plain dicts so they can ride in JSON configs and
output metadata unchanged.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, is_finite_real
from .forward import DirichletData, Nonlinearity
from .geometry import DomainSpec

# the parameters each family reads; a spec that sets any other key is rejected
_REACTION_KEYS = {"zero": (), "linear": ("coeff",), "saturating": ("coeff",),
                  "power": ("coeff", "exponent")}
_PROFILE_KEYS = ("profile", "amplitude", "slope")
_BOUNDARY_KEYS = {"ramp": _PROFILE_KEYS, "saturating_ramp": _PROFILE_KEYS + ("scale",)}


def make_reaction(spec: dict) -> Nonlinearity:
    """Build a reaction law from a family selector.

    Families: zero; linear {coeff}; power {coeff, exponent >= 1};
    saturating {coeff} for coeff * u / (1 + u). Arguments below zero
    are treated as zero (the admissible range is u >= 0), keeping every
    family nondecreasing with f(0) = 0. A key the family does not read
    is a ConfigurationError.
    """
    family = _family(spec, "reaction", _REACTION_KEYS)
    label = _label(spec)
    if family == "zero":
        return Nonlinearity(fn=lambda u: np.zeros(np.shape(u)), label=label)
    # c, 0 and 1 as 0-d float arrays, which a ufunc takes faster than floats;
    # as float64 operands they make every result float64, as
    # np.asarray(u, dtype=float) did, whatever u is
    c = np.array(_param(spec, "coeff", 1.0, least=0.0))
    zero, one = np.array(0.0), np.array(1.0)
    if family == "linear":
        return Nonlinearity(fn=lambda u: np.multiply(c, u), label=label)
    # the laws below work in the one array np.maximum makes; on a scalar u
    # that is a numpy float, and the in-place operators rebind it
    if family == "power":
        p = _param(spec, "exponent", 2.0, least=1.0)
        def fn(u, c=c, p=p):
            up = np.maximum(u, zero)
            up **= p
            up *= c
            return up
        return Nonlinearity(fn=fn, label=label)
    def fn(u, c=c):
        up = np.maximum(u, zero)
        den = up + one
        up *= c
        up /= den
        return up
    return Nonlinearity(fn=fn, label=label)


def make_boundary_data(spec: dict, domain: DomainSpec, final_time: float) -> DirichletData:
    """Build Dirichlet data from a family selector.

    Time course: ramp gives phi = t * g(x); saturating_ramp gives
    phi = (1 - exp(-t / scale)) * g(x). Spatial profile g: const is the
    constant `amplitude`; affine is amplitude * (1 + slope * x1 / L1)
    along the first axis (slope > -1 keeps the data nonnegative). A key
    the family does not read (scale on ramp) is a ConfigurationError.
    """
    family = _family(spec, "boundary", _BOUNDARY_KEYS)
    profile = spec.get("profile", "const")
    amp = _param(spec, "amplitude", 1.0)
    slope = _param(spec, "slope", 0.0)
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
    else:
        scale = _param(spec, "scale", 1.0)
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        fn = lambda pts, t: -np.expm1(-t / scale) * g(pts)
    return DirichletData(fn=fn, final_time=float(final_time), label=_label(spec))


def _family(spec: dict, kind: str, keys: dict) -> str:
    """spec["family"], once it names one of keys and spec sets no key
    that family does not read; else a ConfigurationError naming it."""
    family = spec.get("family")
    if not (isinstance(family, str) and family in keys):
        raise ConfigurationError(f"unknown {kind} family {family!r}")
    unknown = sorted(set(spec) - {"family", *keys[family]})
    if unknown:
        raise ConfigurationError(
            f"{kind} family {family!r} takes no parameter {unknown[0]!r}")
    return family


def _label(spec: dict) -> str:
    parts = [str(spec.get("family"))]
    for key in sorted(spec):
        if key != "family":
            parts.append(f"{key}={spec[key]}")
    return ",".join(parts)


def _param(spec: dict, key: str, default: float, least: float = -np.inf) -> float:
    """spec[key], or default when it is absent, as a float; a
    ConfigurationError naming the key when it is not a finite real (a
    bool is not) or is below least."""
    value = spec.get(key, default)
    if not is_finite_real(value):
        raise ConfigurationError(f"parameter {key!r} must be a finite number, got {value!r}")
    if value < least:
        raise ConfigurationError(f"parameter {key!r} must be >= {least:g}, got {value}")
    return float(value)
