"""Minimal 8-bit PGM (maxval <= 255) support: P2 (ASCII) and P5 (binary) are
read into uint8 samples, and P5 with maxval 255 is written.

Comments starting with ``#`` are allowed anywhere in the header and, for
P2 files, between samples as well. Once comments are removed, a P2 body
holds exactly width*height samples. Every header field and every P2 sample
is an unsigned decimal: ASCII digits only, so a sign, an underscore or a
value beyond int64 is a :class:`FormatError`.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from regioncd.errors import FormatError, InputError, require_int

# a comment runs to the end of its line; header fields are separated by
# whitespace or comments, and a P2 body is its samples once comments are removed.
# A comment right after maxval ends the header; its line end is then the one
# whitespace byte before a P5 raster.
_COMMENT = rb"#[^\r\n]*"
_HEADER = re.compile(rb"P[25]" + (rb"(?:\s|" + _COMMENT + rb"[\r\n])+([^\s#]+)") * 3
                     + rb"(?:" + _COMMENT + rb")?")


def _unsigned(path: str | Path, what: str, tokens: list[bytes]) -> np.ndarray:
    """``tokens`` as an int64 array, each required to be ASCII digits that fit int64."""
    bad = next((t for t in tokens if not t.isdigit()), None)
    if bad is not None:
        raise FormatError(f"{path}: {what} {bad!r} is not an unsigned decimal")
    try:
        return np.array(tokens).astype(np.int64)
    except OverflowError:
        raise FormatError(f"{path}: {what} too large for int64") from None


def read_pgm(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a PGM file; returns (samples as a writable (height, width) uint8 array, maxval)."""
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"{path}: not a PGM file (magic {magic!r})")
    header = _HEADER.match(data)
    if header is None:
        raise FormatError(f"{path}: PGM header needs width, height and maxval")
    width, height, maxval = _unsigned(path, "header field", list(header.groups())).tolist()
    pos = header.end()
    try:
        require_int("width", width)
        require_int("height", height)
        require_int("maxval", maxval, 1, 256)
    except InputError as exc:
        raise FormatError(f"{path}: {exc}") from None

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        raster = data[pos + 1 : pos + 1 + count]
        if len(raster) != count:
            raise FormatError(f"{path}: raster truncated ({len(raster)} of {count} bytes)")
        values = np.frombuffer(raster, dtype=np.uint8).copy()
    else:
        tokens = re.sub(_COMMENT, b" ", data[pos:]).split()
        if len(tokens) != count:
            raise FormatError(f"{path}: {len(tokens)} samples where {width}x{height} "
                              f"declares {count}")
        values = _unsigned(path, "sample", tokens)
    if values.max(initial=0) > maxval:
        raise FormatError(f"{path}: sample exceeds declared maxval {maxval}")
    # P2 samples are int64 until the check above has bounded them by maxval <= 255
    return values.astype(np.uint8, copy=False).reshape(height, width), maxval


def write_pgm(path: str | Path, samples: np.ndarray) -> None:
    """Write (height, width) integers in [0, 255] as P5, maxval 255; others raise FormatError."""
    arr = np.asarray(samples)
    if arr.ndim != 2:
        raise FormatError("samples must be a 2-D array")
    if not ((arr >= 0) & (arr <= 255)).all():
        raise FormatError("sample values outside [0, 255]")
    raster = arr.astype(np.uint8)
    if (raster != arr).any():
        raise FormatError("samples must be integers")
    height, width = arr.shape
    header = f"P5\n{width} {height}\n255\n"
    Path(path).write_bytes(header.encode("ascii") + raster.tobytes())
