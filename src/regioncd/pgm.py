"""Minimal 8-bit PGM (maxval <= 255) support: P2 (ASCII) and P5 (binary) are
read, and P5 is written.

Comments starting with ``#`` are allowed anywhere in the header and, for
P2 files, between samples as well.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from regioncd.errors import FormatError

_WHITESPACE = b" \t\r\n\v\f"


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next header token and the index just past it."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        elif c in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError("unexpected end of PGM header")
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE and data[pos : pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def read_pgm(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a PGM file; returns (samples as (height, width) int array, maxval)."""
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"{path}: not a PGM file (magic {magic!r})")
    pos = 2
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise FormatError(f"{path}: non-numeric {name} field {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise FormatError(f"{path}: maxval {maxval} outside [1, 255]")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        raster = data[pos + 1 : pos + 1 + count]
        if len(raster) != count:
            raise FormatError(f"{path}: raster truncated ({len(raster)} of {count} bytes)")
        values = np.frombuffer(raster, dtype=np.uint8).astype(np.int64)
    else:
        values = np.empty(count, dtype=np.int64)
        for i in range(count):
            token, pos = _next_token(data, pos)
            try:
                values[i] = int(token)
            except ValueError:
                raise FormatError(f"{path}: non-numeric sample {token!r}") from None
    if values.max(initial=0) > maxval:
        raise FormatError(f"{path}: sample exceeds declared maxval {maxval}")
    return values.reshape(height, width), maxval


def write_pgm(path: str | Path, samples: np.ndarray, maxval: int = 255) -> None:
    """Write a (height, width) integer array as P5 (binary)."""
    arr = np.asarray(samples)
    if arr.ndim != 2:
        raise FormatError("samples must be a 2-D array")
    if not 1 <= maxval <= 255:
        raise FormatError(f"maxval {maxval} outside [1, 255]")
    if arr.min(initial=0) < 0 or arr.max(initial=0) > maxval:
        raise FormatError("sample values outside [0, maxval]")
    height, width = arr.shape
    header = f"P5\n{width} {height}\n{maxval}\n"
    Path(path).write_bytes(header.encode("ascii") + arr.astype(np.uint8).tobytes())
