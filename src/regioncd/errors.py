"""Exception types shared across the package, and the number checks of the input paths."""

import math
from contextlib import suppress


class InputError(ValueError):
    """Invalid input: bad values, inconsistent shapes, unusable arguments."""


class ShapeError(InputError):
    """Array or grid dimensions inconsistent with the declared layout."""


class FormatError(InputError):
    """Malformed file content (PGM image, weight fixture, bbox JSON)."""


class NumericError(ArithmeticError):
    """Non-finite values where finite arithmetic is required."""


def is_int(value: object) -> bool:
    """Whether ``value`` is a Python ``int``: a float or a boolean (``2.5``, ``True``) is not."""
    return type(value) is int


def is_real(value: object) -> bool:
    """Whether ``value`` is an ``int`` or a ``float``: a boolean or a string is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def require_numbers(obj: object, ints: tuple[str, ...] = (), reals: tuple[str, ...] = ()) -> None:
    """Raise :class:`InputError` unless each field of ``obj`` named in ``ints`` passes
    :func:`is_int` and each named in ``reals`` passes :func:`is_real`.

    So a range check that follows sees no boolean, which would pass as 1, and
    no string, which would escape it as a ``TypeError``.
    """
    for names, test, kind in ((ints, is_int, "an int"), (reals, is_real, "a real number")):
        for name in names:
            value = getattr(obj, name)
            if not test(value):
                raise InputError(f"{type(obj).__name__}.{name} must be {kind}, got {value!r}")


# each guidance strength's range, in interval notation; require_strength is its one check
STRENGTHS = {"alpha": "[0, 1]", "beta": "[1, inf)", "gamma": "[0, inf)", "tau": "[0, 1)"}


def require_strength(name: str, value: object) -> None:
    """The one check of a strength's range: InputError unless ``value`` is a finite real in it."""
    interval = STRENGTHS[name]
    low, high = map(float, interval[1:-1].split(","))
    with suppress(OverflowError):  # math.isfinite raises for an int too large for a float
        if is_real(value) and math.isfinite(value) and low <= value and (
                value <= high if interval.endswith("]") else value < high):
            return
    raise InputError(f"{name} must be a finite real number in {interval}, got {value!r}")
