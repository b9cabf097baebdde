"""Exception types shared across the package, and the number checks of the input paths."""


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
