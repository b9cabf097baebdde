"""Token-level attention mask construction from pixel-level region annotations.

A pixel mask (or bounding box) over the input image is reduced to binary
grids at two scales: a composite "local" grid covering a tiling of the image
into equal crops, and a "global" grid covering the whole image. :func:`assemble`
lays the two grids out in token order, with a zero-valued newline separator
after every row and one more separator between the grids. The encoder in
:mod:`regioncd.model` lays out its patch embeddings with the same function, so
mask positions line up one-to-one with the visual tokens.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from regioncd import pgm
from regioncd.errors import FormatError, InputError, ShapeError

# segment labels, in the order the segments appear
SEG_LOCAL = "local"
SEG_LOCAL_SEP = "local_sep"
SEG_MID_SEP = "mid_sep"
SEG_GLOBAL = "global"
SEG_GLOBAL_SEP = "global_sep"


@dataclass(frozen=True)
class GridSpec:
    """Token-grid geometry: feature-grid side length and the crop tiling.

    ``side`` is the number of tokens per row/column of one view; the local
    view tiles the image into ``crop_rows`` x ``crop_cols`` equal crops, each
    mapped to a ``side`` x ``side`` patch grid.
    """

    side: int
    crop_rows: int = 1
    crop_cols: int = 1

    def __post_init__(self) -> None:
        if self.side < 1 or self.crop_rows < 1 or self.crop_cols < 1:
            raise InputError(f"grid spec fields must be >= 1, got {self}")

    @property
    def local_rows(self) -> int:
        return self.crop_rows * self.side

    @property
    def local_cols(self) -> int:
        return self.crop_cols * self.side


def expected_length(spec: GridSpec) -> int:
    """Total token count: local grid with per-row separators, one mid
    separator, then the global grid with per-row separators."""
    local = spec.local_rows * (spec.local_cols + 1)
    global_ = spec.side * (spec.side + 1)
    return local + 1 + global_


def segment_labels(spec: GridSpec) -> list[str]:
    """Per-position segment label for the assembled mask layout."""
    local_row = [SEG_LOCAL] * spec.local_cols + [SEG_LOCAL_SEP]
    global_row = [SEG_GLOBAL] * spec.side + [SEG_GLOBAL_SEP]
    return local_row * spec.local_rows + [SEG_MID_SEP] + global_row * spec.side


@dataclass(frozen=True, eq=False)
class SegMask:
    """Binary pixel mask; 1 marks the region of interest; the size is the array's shape."""

    pixels: np.ndarray  # (height, width), stored as uint8 in {0, 1}

    def __post_init__(self) -> None:
        p = np.asarray(self.pixels)
        if p.ndim != 2:
            raise ShapeError(f"mask array must be 2-D, got shape {p.shape}")
        if p.size == 0:
            raise InputError(f"mask dimensions must be >= 1, got shape {p.shape}")
        # checked before the cast, which would wrap 256 to 0 and truncate 1.9 to 1
        if not ((p == 0) | (p == 1)).all():
            raise InputError("mask pixels must be 0 or 1")
        object.__setattr__(self, "pixels", p.astype(np.uint8, copy=False))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @classmethod
    def from_pgm(cls, path: str | Path) -> "SegMask":
        """Load from PGM; any nonzero sample counts as region-of-interest."""
        samples, _ = pgm.read_pgm(path)
        return cls(samples != 0)


def _json_number(value) -> float:
    """A JSON number as a float; strings, booleans and other types are a FormatError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"expected a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise FormatError(f"number {value} overflows a float") from None


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates; may be fractional."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.x_min, self.y_min, self.x_max, self.y_max))):
            raise InputError(f"bbox coordinates must be finite, got {self}")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise InputError(f"degenerate ordering in bbox {self}")

    @classmethod
    def from_json(cls, text: str) -> "BBox":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bbox is not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise FormatError("bbox JSON must be an object")
        try:
            return cls(*(_json_number(obj[k]) for k in ("x_min", "y_min", "x_max", "y_max")))
        except KeyError as exc:
            raise FormatError(f"bbox JSON is missing field {exc}") from None


@dataclass(frozen=True, eq=False)
class TokenMask:
    """Flattened composite mask aligned with the visual token layout."""

    values: np.ndarray  # (N,) uint8 in {0, 1}
    spec: GridSpec

    def __post_init__(self) -> None:
        spec = self.spec
        n = expected_length(spec)
        if self.values.shape != (n,):
            raise ShapeError(f"mask length {self.values.shape} != ({n},)")
        if not ((self.values == 0) | (self.values == 1)).all():
            raise InputError("mask values must be 0 or 1")
        local = np.zeros((spec.local_rows, spec.local_cols), dtype=bool)
        global_ = np.zeros((spec.side, spec.side), dtype=bool)
        if self.values[assemble(local, global_, spec, sep=True)].any():
            raise InputError("separator positions must carry mask value 0")

    def __len__(self) -> int:
        return len(self.values)

    def positive_count(self) -> int:
        return int(self.values.sum())

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.spec.side},{self.spec.crop_rows},{self.spec.crop_cols};".encode())
        h.update(self.values.astype(np.uint8).tobytes())
        return h.hexdigest()


def downsample(seg: SegMask, out_rows: int, out_cols: int, tau: float) -> np.ndarray:
    """Reduce a pixel mask to an ``(out_rows, out_cols)`` uint8 grid by coverage thresholding.

    Pixel (i, j) belongs to cell (floor(i*out_rows/height),
    floor(j*out_cols/width)); a cell is 1 iff the fraction of its pixels
    that are positive strictly exceeds ``tau``. With the default tau = 0
    any overlap at all marks the cell, so small regions survive coarse
    grids. Upsampling is rejected.
    """
    if out_rows < 1 or out_cols < 1:
        raise InputError(f"output grid must be at least 1x1, got {out_rows}x{out_cols}")
    if out_rows > seg.height or out_cols > seg.width:
        raise InputError(
            f"cannot downsample {seg.height}x{seg.width} mask to larger grid {out_rows}x{out_cols}"
        )
    if not 0.0 <= tau < 1.0:
        raise InputError(f"tau must lie in [0, 1), got {tau}")
    # one-hot pixel -> cell maps per axis; the counts are integers, exact in float64
    rows = ((np.arange(seg.height) * out_rows) // seg.height)[:, None] == np.arange(out_rows)
    cols = ((np.arange(seg.width) * out_cols) // seg.width)[:, None] == np.arange(out_cols)
    positive = rows.T @ seg.pixels.astype(np.float64) @ cols
    total = np.outer(rows.sum(0), cols.sum(0))
    return (positive / total > tau).astype(np.uint8)


def assemble(local: np.ndarray, global_: np.ndarray, spec: GridSpec, sep=0) -> np.ndarray:
    """Lay a local and a global grid out in token order, ``sep`` at every separator.

    The first two axes of each grid are its rows and columns, and any
    trailing axes are carried along. The result holds the local grid row by
    row with a separator after each row, one mid separator, then the global
    grid the same way: shape ``(expected_length(spec),) + trailing``.
    """
    local, global_ = np.asarray(local), np.asarray(global_)
    trailing = local.shape[2:]
    if local.shape != (spec.local_rows, spec.local_cols) + trailing:
        raise ShapeError(f"local grid shape {local.shape} does not match {spec}")
    if global_.shape != (spec.side, spec.side) + trailing:
        raise ShapeError(f"global grid shape {global_.shape} does not match {spec}")
    out = np.empty((expected_length(spec),) + trailing, dtype=np.result_type(local, global_, sep))
    out[...] = sep
    n_local = spec.local_rows * (spec.local_cols + 1)
    out[:n_local].reshape(spec.local_rows, spec.local_cols + 1, *trailing)[:, :-1] = local
    out[n_local + 1 :].reshape(spec.side, spec.side + 1, *trailing)[:, :-1] = global_
    return out


def mask_from_bbox(box: BBox, width: int, height: int) -> SegMask:
    """Fill a box into a pixel mask.

    A pixel is set iff its center lies strictly inside the box after
    clamping to the image bounds; a box with zero area therefore yields an
    all-zero mask.
    """
    if width < 1 or height < 1:
        raise InputError(f"image dimensions must be >= 1, got {width}x{height}")
    x_lo, x_hi = max(box.x_min, 0.0), min(box.x_max, float(width))
    y_lo, y_hi = max(box.y_min, 0.0), min(box.y_max, float(height))
    cx = np.arange(width) + 0.5
    cy = np.arange(height) + 0.5
    inside = ((cy > y_lo) & (cy < y_hi))[:, None] & ((cx > x_lo) & (cx < x_hi))[None, :]
    return SegMask(inside)


def generate_token_mask(seg: SegMask, spec: GridSpec, tau: float = 0.0) -> TokenMask:
    """Pixel mask -> composite token mask (local + separators + global)."""
    local = downsample(seg, spec.local_rows, spec.local_cols, tau)
    global_ = downsample(seg, spec.side, spec.side, tau)
    return TokenMask(values=assemble(local, global_, spec), spec=spec)


def token_mask_to_json(mask: TokenMask, tau: float) -> str:
    """Serialize a token mask; byte-deterministic for identical inputs."""
    obj = {
        "L": mask.spec.side,
        "G": [mask.spec.crop_rows, mask.spec.crop_cols],
        "tau": tau,
        "length": len(mask),
        "values": mask.values.tolist(),
        "segments": segment_labels(mask.spec),
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def token_mask_from_json(text: str) -> tuple[TokenMask, float]:
    """Parse what :func:`token_mask_to_json` writes; anything else is a FormatError.

    ``L`` and ``G`` must be integers, ``length`` and the number of values the
    layout length, every value the integer 0 or 1 (0 at every separator),
    ``segments`` equal to :func:`segment_labels` of the grid, and ``tau`` a
    number in [0, 1).
    """
    try:
        obj = json.loads(text)
        side, (rows, cols) = obj["L"], obj["G"]
        if {type(side), type(rows), type(cols)} != {int}:
            raise FormatError(f"L and G must be JSON integers, got {side!r} and {obj['G']!r}")
        spec = GridSpec(side=side, crop_rows=rows, crop_cols=cols)
        raw, length, segments = obj["values"], obj["length"], obj["segments"]
        tau = _json_number(obj["tau"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed token mask JSON: {exc}") from None
    if not isinstance(raw, list) or not set(map(type, raw)) <= {int} or not set(raw) <= {0, 1}:
        raise FormatError("token mask values must be a list of the integers 0 and 1")
    if not 0.0 <= tau < 1.0:
        raise FormatError(f"token mask tau must lie in [0, 1), got {tau}")
    if not length == len(raw) == expected_length(spec):
        raise FormatError(f"token mask length {length!r} and {len(raw)} values, "
                          f"{spec} needs {expected_length(spec)}")
    if segments != segment_labels(spec):
        raise FormatError(f"token mask segments do not match the token layout of {spec}")
    try:
        return TokenMask(values=np.array(raw, dtype=np.uint8), spec=spec), tau
    except InputError as exc:  # a 1 at a separator
        raise FormatError(f"malformed token mask JSON: {exc}") from None
