"""Token-level attention mask construction from pixel-level region annotations.

A pixel mask (or bounding box) over the input image is reduced to binary
grids at two scales: a composite "local" grid covering a tiling of the image
into equal crops, and a "global" grid covering the whole image. :func:`assemble`
lays the two grids out in token order, with a zero-valued newline separator
after every row and one more separator between the grids. The encoder in
:mod:`regioncd.model` lays out its patch embeddings with the same function, so
mask positions line up one-to-one with the visual tokens.

Pixel (i, j) of an ``h x w`` mask falls in cell ``(floor(i*rows/h),
floor(j*cols/w))`` of a ``rows x cols`` grid, so cell k of an axis of ``n``
pixels starts at pixel ``ceil(k*n/cells)``. The global grid nests in the
local one: global cell k of a row axis starts where local cell
``k*crop_rows`` does, since ``ceil(k*h/side) == ceil(k*crop_rows*h/local_rows)``
(and likewise for columns), so each global cell is exactly a
``crop_rows x crop_cols`` block of local cells and its pixel counts are the
block's sums.

The cells of an axis are groups of whole rows: with ``s = n // cells``, each
group holds ``s`` or ``s + 1`` consecutive rows. The counts are taken by one
row-group rule applied twice: the first ``s`` rows of every group are summed
by whole-row adds over one gathered ``(cells, s, width)`` array, the last row
of each longer group is added to its sum, and the same rule then cuts the
transposed row sums into columns. The sums accumulate in the smallest unsigned
type that holds the largest cell's count, so they are exact. The geometry of
the groups depends only on ``(n, cells)``: the 256 most recently used pairs
are cached, each in at most ``8 * (n + 3 * cells)`` bytes of read-only arrays.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from regioncd import errors, pgm
from regioncd.errors import FormatError, InputError, is_real, require_int, require_real

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
    mapped to a ``side`` x ``side`` patch grid. Each field is a size.
    """

    side: int
    crop_rows: int = 1
    crop_cols: int = 1

    def __post_init__(self) -> None:
        for name in ("side", "crop_rows", "crop_cols"):
            require_int(name, getattr(self, name))

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


def _layout(flat: np.ndarray, spec: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of a token-ordered array of :func:`expected_length` positions: the local
    grid's ``(local_rows, local_cols + 1)`` rows, each ending in its separator, the mid
    separator, and the global grid's ``(side, side + 1)`` rows the same way."""
    n_local = spec.local_rows * (spec.local_cols + 1)
    trailing = flat.shape[1:]
    return (flat[:n_local].reshape(spec.local_rows, spec.local_cols + 1, *trailing),
            flat[n_local],
            flat[n_local + 1 :].reshape(spec.side, spec.side + 1, *trailing))


def _label_layout(spec: GridSpec, item):
    """The segment labels in token order, each as ``item(label)``: a one-label list, or a
    text fragment, so that the rows repeat and join by ``*`` and ``+``."""
    local_row = item(SEG_LOCAL) * spec.local_cols + item(SEG_LOCAL_SEP)
    global_row = item(SEG_GLOBAL) * spec.side + item(SEG_GLOBAL_SEP)
    return local_row * spec.local_rows + item(SEG_MID_SEP) + global_row * spec.side


def segment_labels(spec: GridSpec) -> list[str]:
    """Per-position segment label for the assembled mask layout."""
    return _label_layout(spec, lambda label: [label])


@dataclass(frozen=True, eq=False)
class SegMask:
    """Binary pixel mask; 1 marks the region of interest; the size is the array's shape."""

    pixels: np.ndarray  # (height, width), stored as a read-only uint8 copy by require_binary

    def __post_init__(self) -> None:
        object.__setattr__(self, "pixels",
                           errors.require_binary("region mask", self.pixels, (None, None)))

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
    if not is_real(value):
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
        for name in ("x_min", "y_min", "x_max", "y_max"):
            require_real(name, getattr(self, name), "coordinate")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise InputError(f"degenerate ordering in bbox {self}")

    @classmethod
    def from_json(cls, text: str) -> "BBox":
        """The box in ``text``, a JSON object of the four coordinates as JSON numbers, read
        by :func:`~regioncd.errors.parse_json` and :func:`~regioncd.errors.json_fields`."""
        fields = ("x_min", "y_min", "x_max", "y_max")
        values = errors.json_fields(errors.parse_json(text, "bbox"), fields, "bbox")
        return cls(*map(_json_number, values))


@dataclass(frozen=True, eq=False)
class TokenMask:
    """Flattened composite mask aligned with the visual token layout."""

    values: np.ndarray  # (N,), a read-only uint8 copy by require_binary; 0 at every separator
    spec: GridSpec

    def __post_init__(self) -> None:
        spec = self.spec
        values = errors.require_binary("token mask", self.values, (expected_length(spec),))
        local, mid, global_ = _layout(values, spec)
        if local[:, -1].any() or mid or global_[:, -1].any():
            raise InputError("separator positions must carry mask value 0")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.spec.side},{self.spec.crop_rows},{self.spec.crop_cols};".encode())
        h.update(self.values.tobytes())
        return h.hexdigest()


@functools.lru_cache(maxsize=256)
def _row_groups(n: int, cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The geometry of ``n`` rows cut into ``cells`` groups: the ``(cells, s)`` index of
    the first ``s = n // cells`` rows of every group, the groups of ``s + 1`` rows, their
    last rows, and every group's size, as read-only arrays."""
    # pixel i of n lies in cell floor(i*cells/n), so cell k starts at pixel ceil(k*n/cells)
    bounds = -(-np.arange(cells + 1) * n // cells)
    sizes = np.diff(bounds)
    longer = np.flatnonzero(sizes > n // cells)
    geometry = (bounds[:-1, None] + np.arange(n // cells), longer, bounds[longer + 1] - 1,
                sizes)
    for a in geometry:
        a.flags.writeable = False
    return geometry


def _group_sums(a: np.ndarray, cells: int, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``a`` summed in the groups of :func:`_row_groups`, and the group sizes.

    ``bound`` is at least every entry of ``a``, so no sum exceeds ``bound`` times the
    largest group, ``ceil(n / cells)`` rows; they accumulate in the smallest unsigned
    type that holds that product.
    """
    first, longer, last, sizes = _row_groups(len(a), cells)
    sums = a[first].sum(axis=1, dtype=np.min_scalar_type(bound * -(-len(a) // cells)))
    sums[longer] += a[last]
    return sums, sizes


def _cell_counts(seg: SegMask, out_rows: int, out_cols: int,
                 tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive pixels of each cell of an ``(out_rows, out_cols)`` grid, counted
    exactly, with the pixel rows and columns of each cell; upsampling and a bad
    grid or tau are an :class:`InputError`.

    One row-group rule (:func:`_group_sums`) cuts both axes: the pixel rows into
    ``out_rows`` groups, then the transposed row sums, each at most the tallest
    cell's ``ceil(height / out_rows)`` pixels, into ``out_cols`` groups. A count
    is at most its cell's area, so cells of up to 255 pixels count in uint8 and
    larger ones in the next type that holds their area.
    """
    require_int("grid rows", out_rows, 1, seg.height + 1)
    require_int("grid columns", out_cols, 1, seg.width + 1)
    require_real("tau", tau)
    row_sums, rows = _group_sums(seg.pixels, out_rows, 1)
    positive, cols = _group_sums(row_sums.T, out_cols, -(-seg.height // out_rows))
    return positive.T, rows, cols


def _threshold(positive: np.ndarray, rows: np.ndarray, cols: np.ndarray, tau: float) -> np.ndarray:
    """1 where a cell's positive share strictly exceeds ``tau``, as a uint8 grid."""
    return (positive / np.outer(rows, cols) > tau).view(np.uint8)


def downsample(seg: SegMask, out_rows: int, out_cols: int, tau: float) -> np.ndarray:
    """Reduce a pixel mask to an ``(out_rows, out_cols)`` uint8 grid by coverage thresholding.

    Pixel (i, j) belongs to cell (floor(i*out_rows/height),
    floor(j*out_cols/width)); a cell is 1 iff the fraction of its pixels
    that are positive strictly exceeds ``tau``. With the default tau = 0
    any overlap at all marks the cell, so small regions survive coarse
    grids. Upsampling is rejected.
    """
    return _threshold(*_cell_counts(seg, out_rows, out_cols, tau), tau)


def assemble(local: np.ndarray, global_: np.ndarray, spec: GridSpec, sep=0) -> np.ndarray:
    """Lay a local and a global grid out in token order, ``sep`` at every separator.

    The first two axes of each grid are its rows and columns, and any
    trailing axes are carried along. The result holds the local grid row by
    row with a separator after each row, one mid separator, then the global
    grid the same way: shape ``(expected_length(spec),) + trailing``. Each grid
    passes :func:`~regioncd.errors.require_array` with its shape.
    """
    local = errors.require_array("local grid", local)
    trailing = local.shape[2:]
    errors.require_array("local grid", local, (spec.local_rows, spec.local_cols) + trailing)
    global_ = errors.require_array("global grid", global_, (spec.side, spec.side) + trailing)
    out = np.empty((expected_length(spec),) + trailing, dtype=np.result_type(local, global_, sep))
    out[...] = sep
    local_rows, _, global_rows = _layout(out, spec)
    local_rows[:, :-1] = local
    global_rows[:, :-1] = global_
    return out


def mask_from_bbox(box: BBox, width: int, height: int) -> SegMask:
    """Fill a box into a pixel mask.

    A pixel is set iff its center lies strictly inside the box after
    clamping to the image bounds; a box with zero area therefore yields an
    all-zero mask.
    """
    require_int("image width", width)
    require_int("image height", height)
    x_lo, x_hi = max(box.x_min, 0.0), min(box.x_max, float(width))
    y_lo, y_hi = max(box.y_min, 0.0), min(box.y_max, float(height))
    cx = np.arange(width) + 0.5
    cy = np.arange(height) + 0.5
    inside = ((cy > y_lo) & (cy < y_hi))[:, None] & ((cx > x_lo) & (cx < x_hi))[None, :]
    return SegMask(inside)


def generate_token_mask(seg: SegMask, spec: GridSpec, tau: float = 0.0) -> TokenMask:
    """Pixel mask -> composite token mask (local + separators + global).

    Both grids follow :func:`downsample`'s rule. The pixels are counted once,
    on the local grid; each global cell's counts are the sums of its
    ``crop_rows x crop_cols`` block of local cells (see the module docstring).
    """
    positive, rows, cols = _cell_counts(seg, spec.local_rows, spec.local_cols, tau)
    side, crop_rows, crop_cols = spec.side, spec.crop_rows, spec.crop_cols
    global_ = _threshold(positive.reshape(side, crop_rows, side, crop_cols).sum(axis=(1, 3)),
                         rows.reshape(side, crop_rows).sum(1),
                         cols.reshape(side, crop_cols).sum(1), tau)
    local = _threshold(positive, rows, cols, tau)
    return TokenMask(values=assemble(local, global_, spec), spec=spec)


def token_mask_to_json(mask: TokenMask, tau: float) -> str:
    """Serialize a token mask; byte-deterministic for identical inputs.

    The text is ``json.dumps`` of the object with sorted keys and no spaces;
    the labels are written by repeating each grid row's text, and the 0/1
    values as text in one pass. A tau outside the strength rule is an
    :class:`InputError`; :func:`token_mask_from_json` applies this check.
    """
    require_real("tau", tau)
    spec = mask.spec
    digits = np.full(2 * len(mask) - 1, ord(","), dtype=np.uint8)
    digits[::2] = mask.values + ord("0")
    segments = _label_layout(spec, lambda label: f'"{label}",')[:-1]
    return (f'{{"G":[{spec.crop_rows},{spec.crop_cols}],"L":{spec.side},"length":{len(mask)}'
            f',"segments":[{segments}],"tau":{json.dumps(tau)}'
            f',"values":[{digits.tobytes().decode("ascii")}]}}\n')


def token_mask_from_json(text: str) -> tuple[TokenMask, float]:
    """Parse what :func:`token_mask_to_json` writes; anything else is a FormatError.

    ``L``, ``G`` and ``values`` make a :class:`TokenMask`, whose checks apply, and ``text``
    must be the writer's text for it and ``tau``: that one comparison checks the rest.
    """
    obj = errors.parse_json(text, "token mask JSON")
    side, grid, values, tau, _, _ = errors.json_fields(
        obj, ("L", "G", "values", "tau", "length", "segments"), "token mask JSON")
    try:
        # the mask's length check comes first: it bounds the writer's text by the file's size
        mask = TokenMask(values=values, spec=GridSpec(side, *grid))
        if text != token_mask_to_json(mask, tau):
            raise InputError("not the text token_mask_to_json writes for its mask and tau")
    except (TypeError, ValueError) as exc:  # an InputError, or a G that is not a list
        raise FormatError(f"token mask JSON: {exc}") from None
    return mask, float(tau)
