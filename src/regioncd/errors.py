"""Exception types shared across the package, and the number and JSON checks of the input paths."""

import json
import math
from contextlib import suppress


class InputError(ValueError):
    """Invalid input: bad values, inconsistent shapes, unusable arguments."""


class ShapeError(InputError):
    """Array or grid dimensions inconsistent with the declared layout."""


class FormatError(InputError):
    """Malformed file content (PGM image, weight fixture, token mask, bbox JSON)."""


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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):  # json.loads alone would keep a repeated key's last value
        raise ValueError(f"an object gives a key twice: {[key for key, _ in pairs]}")
    return obj


def parse_json(text: str, what: str) -> object:
    """The one JSON parser of the input paths; ``NaN`` is a float, for later checks to reject.
    Text that is not JSON, a repeated key or too deep nesting is a FormatError naming ``what``."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (RecursionError, ValueError) as exc:  # ValueError: also an int past the digit limit
        raise FormatError(f"{what} is not valid JSON: {exc}") from None


def json_fields(obj: object, keys: tuple[str, ...] | list[str], what: str) -> list:
    """The values of exactly ``keys`` in the JSON object ``obj``: the one key check of the input
    paths. A non-object, an unknown key or a missing key is a FormatError naming ``what``."""
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if unknown := sorted(obj.keys() - set(keys)):
        raise FormatError(f"{what} has unknown fields {unknown}")
    if missing := [key for key in keys if key not in obj]:
        raise FormatError(f"{what} is missing fields {missing}")
    return [obj[key] for key in keys]
