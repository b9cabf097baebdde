"""Exception types shared across the package, and the number, 0/1 and JSON rules of the inputs."""

import json
import math

import numpy as np


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


# numpy's index range: every size (a grid side, crop count, model dimension, image size,
# topk or max_tokens) lies below it, so each number derived from sizes stays printable
SIZE_LIMIT = 2**63


def _show(value: object) -> str:
    """``repr(value)``, but an int too long for ``str`` (past 4,300 digits) by its bit length."""
    try:
        return repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits(), or a container of one
        return f"an int of {value.bit_length()} bits" if is_int(value) else "an unprintable value"


def require_int(name: str, value: object, low: int = 1, high: float = SIZE_LIMIT) -> None:
    """The one integer rule: InputError unless ``value`` passes :func:`is_int` and lies in
    ``[low, high)``; ``high`` may be ``math.inf``. A size keeps the defaults."""
    if is_int(value) and low <= value < high:
        return
    raise InputError(f"{name} must be an int in [{low}, {high}), got {_show(value)}")


# the range of each real input in interval notation: the four guidance strengths, then a
# sampling temperature and a bbox coordinate; require_real is their one check
REALS = {"alpha": "[0, 1]", "beta": "[1, inf)", "gamma": "[0, inf)", "tau": "[0, 1)",
         "temperature": "(0, inf)", "coordinate": "(-inf, inf)"}
# each range's ends and whether each is open, parsed once
_ENDS = {kind: (*map(float, interval[1:-1].split(",")), interval[0] == "(", interval[-1] == ")")
         for kind, interval in REALS.items()}


def require_real(name: str, value: object, kind: str | None = None) -> None:
    """The one real-number rule: InputError unless ``value`` passes :func:`is_real`, is finite
    as a float (an int too large for one is not) and lies in the range of ``kind`` in
    :data:`REALS`, by default the range named ``name``."""
    low, high, open_low, open_high = _ENDS[kind or name]
    try:
        if is_real(value) and math.isfinite(value) and (
                low < value if open_low else low <= value) and (
                value < high if open_high else value <= high):
            return
    except OverflowError:  # math.isfinite of an int too large for a float
        pass
    raise InputError(f"{name} must be a finite real number in {REALS[kind or name]}, "
                     f"got {_show(value)}")


def require_binary(what: str, values: object) -> np.ndarray:
    """The one 0/1 rule of a region array: ``values`` as a uint8 array, or an InputError naming
    ``what`` unless its dtype is bool, an int or a float and every entry is 0 or 1. A bool
    array is 0/1 by its type, so its uint8 view is returned, neither tested nor copied."""
    a = np.asarray(values)
    if a.dtype == bool:
        return a.view(np.uint8)
    # checked before the cast, which would wrap 256 to 0 and truncate 1.9 to 1
    if a.dtype.kind not in "iuf" or not ((a == 0) | (a == 1)).all():
        raise InputError(f"{what} must be 0 or 1 in a bool, int or float array (dtype {a.dtype})")
    return a.astype(np.uint8, copy=False)


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
