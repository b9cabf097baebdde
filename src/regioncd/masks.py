"""Token-level attention mask construction from pixel-level region annotations.

A pixel mask (or bounding box) over the input image is reduced to binary
grids at two scales: a composite "local" grid covering a tiling of the image
into equal crops, and a "global" grid covering the whole image. Each grid is
flattened with a zero-valued newline separator after every row; the two
flattened pieces are joined by one more separator into a single sequence
whose positions line up one-to-one with the visual tokens produced by the
encoder in :mod:`regioncd.model`.
"""

from __future__ import annotations

import hashlib
import json
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

_SEPARATORS = (SEG_LOCAL_SEP, SEG_MID_SEP, SEG_GLOBAL_SEP)


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
    labels: list[str] = []
    for _ in range(spec.local_rows):
        labels.extend([SEG_LOCAL] * spec.local_cols)
        labels.append(SEG_LOCAL_SEP)
    labels.append(SEG_MID_SEP)
    for _ in range(spec.side):
        labels.extend([SEG_GLOBAL] * spec.side)
        labels.append(SEG_GLOBAL_SEP)
    return labels


@dataclass(frozen=True, eq=False)
class SegMask:
    """Binary pixel mask; 1 marks the region of interest."""

    width: int
    height: int
    pixels: np.ndarray  # (height, width) uint8 in {0, 1}

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise InputError(f"mask dimensions must be >= 1, got {self.width}x{self.height}")
        if self.pixels.shape != (self.height, self.width):
            raise ShapeError(
                f"pixel array shape {self.pixels.shape} != ({self.height}, {self.width})"
            )
        if not np.isin(self.pixels, (0, 1)).all():
            raise InputError("mask pixels must be 0 or 1")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "SegMask":
        a = np.asarray(arr, dtype=np.uint8)
        if a.ndim != 2:
            raise ShapeError(f"mask array must be 2-D, got shape {a.shape}")
        return cls(width=a.shape[1], height=a.shape[0], pixels=a)

    @classmethod
    def from_pgm(cls, path: str | Path) -> "SegMask":
        """Load from PGM; any nonzero sample counts as region-of-interest."""
        samples, _ = pgm.read_pgm(path)
        return cls.from_array((samples != 0).astype(np.uint8))


@dataclass(frozen=True, eq=False)
class BinaryGrid:
    """Token-resolution binary grid, the intermediate of downsampling."""

    rows: int
    cols: int
    cells: np.ndarray  # (rows, cols) uint8 in {0, 1}

    def __post_init__(self) -> None:
        if self.cells.shape != (self.rows, self.cols):
            raise ShapeError(f"cell array shape {self.cells.shape} != ({self.rows}, {self.cols})")
        if not np.isin(self.cells, (0, 1)).all():
            raise InputError("grid cells must be 0 or 1")


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates; may be fractional."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
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
            return cls(
                x_min=float(obj["x_min"]),
                y_min=float(obj["y_min"]),
                x_max=float(obj["x_max"]),
                y_max=float(obj["y_max"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bbox JSON missing or non-numeric field: {exc}") from None


@dataclass(frozen=True, eq=False)
class TokenMask:
    """Flattened composite mask aligned with the visual token layout."""

    values: np.ndarray  # (N,) uint8 in {0, 1}
    spec: GridSpec
    segments: list[str]

    def __post_init__(self) -> None:
        n = expected_length(self.spec)
        if self.values.shape != (n,):
            raise ShapeError(f"mask length {self.values.shape} != ({n},)")
        if len(self.segments) != n:
            raise ShapeError(f"segment map length {len(self.segments)} != {n}")
        sep = np.array([s in _SEPARATORS for s in self.segments])
        if self.values[sep].any():
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


def downsample(seg: SegMask, out_rows: int, out_cols: int, tau: float) -> BinaryGrid:
    """Reduce a pixel mask to a token grid by coverage thresholding.

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
    row_of = (np.arange(seg.height) * out_rows) // seg.height
    col_of = (np.arange(seg.width) * out_cols) // seg.width
    cell_of = (row_of[:, None] * out_cols + col_of[None, :]).ravel()
    total = np.bincount(cell_of, minlength=out_rows * out_cols)
    positive = np.bincount(cell_of, weights=seg.pixels.ravel(), minlength=out_rows * out_cols)
    cells = (positive / total > tau).astype(np.uint8).reshape(out_rows, out_cols)
    return BinaryGrid(rows=out_rows, cols=out_cols, cells=cells)


def _flatten_with_row_separators(grid: BinaryGrid) -> np.ndarray:
    out = np.zeros((grid.rows, grid.cols + 1), dtype=np.uint8)
    out[:, : grid.cols] = grid.cells
    return out.ravel()


def build_global_mask(grid: BinaryGrid) -> np.ndarray:
    """Flatten an LxL grid row-major, appending a 0 separator per row."""
    if grid.rows != grid.cols:
        raise ShapeError(f"global grid must be square, got {grid.rows}x{grid.cols}")
    return _flatten_with_row_separators(grid)


def build_local_mask(grid: BinaryGrid, spec: GridSpec) -> np.ndarray:
    """Flatten the composite local grid row-major, one 0 separator per row."""
    if (grid.rows, grid.cols) != (spec.local_rows, spec.local_cols):
        raise ShapeError(
            f"local grid {grid.rows}x{grid.cols} does not match "
            f"{spec.local_rows}x{spec.local_cols} for {spec}"
        )
    return _flatten_with_row_separators(grid)


def assemble(local: np.ndarray, global_: np.ndarray, spec: GridSpec) -> TokenMask:
    """Concatenate [local; 0; global] and attach the segment map."""
    n_local = spec.local_rows * (spec.local_cols + 1)
    n_global = spec.side * (spec.side + 1)
    if local.shape != (n_local,):
        raise ShapeError(f"local sequence length {local.shape} != ({n_local},) for {spec}")
    if global_.shape != (n_global,):
        raise ShapeError(f"global sequence length {global_.shape} != ({n_global},) for {spec}")
    values = np.concatenate(
        [local.astype(np.uint8), np.zeros(1, dtype=np.uint8), global_.astype(np.uint8)]
    )
    return TokenMask(values=values, spec=spec, segments=segment_labels(spec))


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
    return SegMask(width=width, height=height, pixels=inside.astype(np.uint8))


def generate_token_mask(seg: SegMask, spec: GridSpec, tau: float = 0.0) -> TokenMask:
    """Pixel mask -> composite token mask (local + separators + global)."""
    local_grid = downsample(seg, spec.local_rows, spec.local_cols, tau)
    global_grid = downsample(seg, spec.side, spec.side, tau)
    return assemble(build_local_mask(local_grid, spec), build_global_mask(global_grid), spec)


def token_mask_to_json(mask: TokenMask, tau: float) -> str:
    """Serialize a token mask; byte-deterministic for identical inputs."""
    obj = {
        "L": mask.spec.side,
        "G": [mask.spec.crop_rows, mask.spec.crop_cols],
        "tau": tau,
        "length": len(mask),
        "values": [int(v) for v in mask.values],
        "segments": list(mask.segments),
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def token_mask_from_json(text: str) -> tuple[TokenMask, float]:
    try:
        obj = json.loads(text)
        spec = GridSpec(side=int(obj["L"]), crop_rows=int(obj["G"][0]), crop_cols=int(obj["G"][1]))
        values = np.asarray(obj["values"], dtype=np.uint8)
        segments = [str(s) for s in obj["segments"]]
        tau = float(obj["tau"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"malformed token mask JSON: {exc}") from None
    return TokenMask(values=values, spec=spec, segments=segments), tau
