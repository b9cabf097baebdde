"""Exception types shared across the package, and the integer check of the dataclasses."""


class InputError(ValueError):
    """Invalid input: bad values, inconsistent shapes, unusable arguments."""


class ShapeError(InputError):
    """Array or grid dimensions inconsistent with the declared layout."""


class FormatError(InputError):
    """Malformed file content (PGM image, weight fixture, bbox JSON)."""


class NumericError(ArithmeticError):
    """Non-finite values where finite arithmetic is required."""


def require_ints(obj: object, names: tuple[str, ...]) -> None:
    """Raise :class:`InputError` unless each named field of ``obj`` is a Python ``int``.

    A float or a boolean (``2.5``, ``True``) is rejected, not truncated or
    read as 1.
    """
    for name in names:
        value = getattr(obj, name)
        if type(value) is not int:
            raise InputError(f"{type(obj).__name__} field {name} must be an int, got {value!r}")
