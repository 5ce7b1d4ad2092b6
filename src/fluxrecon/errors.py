"""Exception types shared across the package, and the type checks of
config fields that raise them.

The CLI maps these to exit codes: configuration / input problems exit
with 2, numerical failures with 3.
"""

import math


class FluxreconError(Exception):
    """Base class for package errors."""


class ConfigurationError(FluxreconError):
    """A config value is out of range or internally inconsistent."""


class InputError(FluxreconError):
    """Input data violates a documented precondition."""


class NumericalError(FluxreconError):
    """A numerical stage failed (divergence, degenerate data, ...)."""


def is_finite_real(value) -> bool:
    """A finite int or float that is not a bool: JSON files may carry NaN,
    +-Infinity and integers too large for a float."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) \
            and math.isfinite(value)
    except OverflowError:
        return False


def check_fields(owner: str, obj, integers=(), reals=(), flags=()) -> None:
    """ConfigurationError naming the first field of obj in integers that is
    not an int (a bool is not), in reals that is not a finite real, or in
    flags that is not a bool."""
    for keys, kind, ok in (
            (integers, "an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
            (reals, "a finite number", is_finite_real),
            (flags, "true or false", lambda v: isinstance(v, bool))):
        for key in keys:
            if not ok(getattr(obj, key)):
                raise ConfigurationError(
                    f"{owner} value {key!r} must be {kind}, got {getattr(obj, key)!r}")
