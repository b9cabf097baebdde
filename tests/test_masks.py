import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from regioncd import masks
from regioncd.errors import FormatError, InputError, ShapeError
from regioncd.masks import (
    BBox, GridSpec, SegMask, TokenMask, assemble, downsample, expected_length,
    generate_token_mask, mask_from_bbox, segment_labels, token_mask_from_json,
    token_mask_to_json,
)
from regioncd.model import GrayImage, region_bias
from regioncd.pgm import read_pgm, write_pgm
from regioncd.verification import half_seg


def brute_downsample(pixels: np.ndarray, out_rows: int, out_cols: int, tau: float) -> np.ndarray:
    """Independent cell-by-cell reference for the coverage rule."""
    h, w = pixels.shape
    cells = np.zeros((out_rows, out_cols), dtype=np.uint8)
    for r in range(out_rows):
        for c in range(out_cols):
            total = positive = 0
            for i in range(h):
                if i * out_rows // h != r:
                    continue
                for j in range(w):
                    if j * out_cols // w != c:
                        continue
                    total += 1
                    positive += int(pixels[i, j])
            cells[r, c] = 1 if positive / total > tau else 0
    return cells


def exact_grid(pixels: np.ndarray, out_rows: int, out_cols: int, tau: float) -> np.ndarray:
    """The coverage rule from each pixel's cell index, counted by ``np.bincount``: an
    exact reference for masks too large for :func:`brute_downsample`."""
    h, w = pixels.shape
    cell = (np.arange(h) * out_rows // h)[:, None] * out_cols + np.arange(w) * out_cols // w
    positive, total = (np.bincount(cell.ravel(), weights, out_rows * out_cols)
                       for weights in (pixels.ravel(), None))
    return (positive / total > tau).astype(np.uint8).reshape(out_rows, out_cols)


def with_pixel(value, dtype) -> np.ndarray:
    """A (3, 4) zero array of ``dtype`` holding ``value`` at one pixel."""
    pixels = np.zeros((3, 4), dtype=dtype)
    pixels[2, 1] = value
    return pixels


@st.composite
def spec_and_seg(draw):
    spec = GridSpec(
        side=draw(st.integers(1, 8)),
        crop_rows=draw(st.integers(1, 3)),
        crop_cols=draw(st.integers(1, 3)),
    )
    h = draw(st.integers(spec.local_rows, 32))
    w = draw(st.integers(spec.local_cols, 32))
    pixels = draw(hnp.arrays(np.uint8, (h, w), elements=st.integers(0, 1)))
    return spec, SegMask(pixels)


class TestExpectedLength:
    def test_reference_grids(self):
        # the paper's 313 and 757 are acceptance criterion 2
        assert expected_length(GridSpec(side=1)) == 5

    def test_spec_validation(self):
        with pytest.raises(InputError):
            GridSpec(side=0)
        with pytest.raises(InputError):
            GridSpec(side=2, crop_rows=0)
        # a float or a boolean is not read as an int
        for name, bad in [("side", 2.5), ("crop_rows", True), ("crop_cols", 2.0)]:
            with pytest.raises(InputError, match=name):
                GridSpec(**{"side": 2, name: bad})


class TestDownsample:
    def test_all_zero(self):
        seg = SegMask(np.zeros((24, 24), dtype=np.uint8))
        assert not downsample(seg, 12, 12, 0.0).any()

    def test_all_one(self):
        seg = SegMask(np.ones((24, 24), dtype=np.uint8))
        assert downsample(seg, 12, 12, 0.0).all()

    def test_single_pixel(self):
        pixels = np.zeros((4, 4), dtype=np.uint8)
        pixels[0, 0] = 1
        grid = downsample(SegMask(pixels), 2, 2, 0.0)
        expected = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        assert (grid == expected).all()

    def test_identity_at_same_resolution(self):
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 2, size=(7, 9), dtype=np.uint8)
        grid = downsample(SegMask(pixels), 7, 9, 0.0)
        assert (grid == pixels).all()

    def test_one_axis_at_full_resolution(self):
        rng = np.random.default_rng(4)
        pixels = rng.integers(0, 2, size=(5, 257), dtype=np.uint8)
        for out_rows, out_cols, grid_pixels in ((5, 2, pixels), (2, 5, pixels.T)):
            grid = downsample(SegMask(grid_pixels), out_rows, out_cols, 0.5)
            assert (grid == brute_downsample(grid_pixels, out_rows, out_cols, 0.5)).all()

    @pytest.mark.parametrize("shape, grid_shape", [
        ((600, 3), (1, 1)), ((600, 3), (2, 2)), ((3, 600), (1, 1)), ((3, 600), (2, 2)),
        ((511, 1), (2, 1)),  # groups of 255 and 256 rows
    ], ids=["600x3-1x1", "600x3-2x2", "3x600-1x1", "3x600-2x2", "511x1-2x1"])
    def test_cells_past_255_pixels_count_exactly(self, shape, grid_shape):
        # a count kept in uint8 would wrap past 255 and drop below tau
        pixels = np.ones(shape, dtype=np.uint8)
        grid = downsample(SegMask(pixels), *grid_shape, 0.99)
        assert grid.all()
        assert (grid == brute_downsample(pixels, *grid_shape, 0.99)).all()

    def test_cached_geometry_is_read_only(self):
        for array in masks._row_groups(10, 3):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_threshold_is_strict(self):
        # coverage exactly tau must not trigger
        seg = SegMask(np.array([[1, 0]], dtype=np.uint8))
        assert downsample(seg, 1, 1, 0.5)[0, 0] == 0
        assert downsample(seg, 1, 1, 0.49)[0, 0] == 1

    @pytest.mark.parametrize("pixels", [
        pytest.param(with_pixel(2, np.uint8), id="2"),
        pytest.param(with_pixel(255, np.uint8), id="255"),
        # a uint8 cast would read these four as 0, 1, 0 and 1
        pytest.param(with_pixel(256, np.int64), id="int-256"),
        pytest.param(with_pixel(-255, np.int64), id="int-minus-255"),
        pytest.param(with_pixel(0.5, np.float64), id="float-0.5"),
        pytest.param(with_pixel(1.9, np.float64), id="float-1.9"),
        pytest.param([[256]], id="list-256"),
    ])
    def test_seg_mask_rejects_non_binary_pixels(self, pixels):
        with pytest.raises(InputError):
            SegMask(pixels)

    def test_seg_mask_shape_checks(self):
        # (its ndim, empty, dtype and ragged cases are rows of test_array_rule)
        seg = SegMask(np.array([[True, False, False], [False, False, True]]))
        assert (seg.width, seg.height) == (3, 2)
        assert seg.pixels.dtype == np.uint8
        assert seg.pixels.tolist() == [[1, 0, 0], [0, 0, 1]]
        # a boolean array is stored as a uint8 copy, strided slices included
        p = np.random.default_rng(4).random((5, 9)) < 0.5
        for pixels in (p, p[:, ::2]):
            seg = SegMask(pixels)
            assert seg.pixels.dtype == np.uint8
            assert (seg.pixels == pixels.astype(np.uint8)).all()

    def test_rejects_upsampling_and_bad_args(self):
        # (the types and ranges of the grid size and of tau are rows of NUMBER_RULE)
        seg = SegMask(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(InputError):
            downsample(seg, 5, 4, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        pixels=hnp.arrays(
            np.uint8,
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=st.integers(0, 1),
        ),
        tau=st.sampled_from([0.0, 0.25, 0.5]),
        data=st.data(),
    )
    def test_matches_bruteforce(self, pixels, tau, data):
        h, w = pixels.shape
        # each axis is reduced on its own path, so draw the two sizes independently
        out_r = data.draw(st.integers(1, h), label="out_rows")
        out_c = data.draw(st.integers(1, w), label="out_cols")
        got = downsample(SegMask(pixels), out_r, out_c, tau)
        assert (got == brute_downsample(pixels, out_r, out_c, tau)).all()

    @settings(max_examples=40, deadline=None)
    @given(
        pixels=hnp.arrays(np.uint8, (8, 8), elements=st.integers(0, 1)),
        tau_lo=st.floats(0.0, 0.9),
        delta=st.floats(0.0, 0.09),
    )
    def test_monotone_in_tau(self, pixels, tau_lo, delta):
        seg = SegMask(pixels)
        lo = downsample(seg, 4, 4, tau_lo)
        hi = downsample(seg, 4, 4, tau_lo + delta)
        assert (hi <= lo).all()


def cells(*rows) -> np.ndarray:
    return np.array(rows, dtype=np.uint8)


class TestRowFlattening:
    def test_global_two_by_two(self):
        spec = GridSpec(side=2)
        out = assemble(np.zeros((2, 2), dtype=np.uint8), cells([1, 0], [0, 1]), spec)
        assert out[7:].tolist() == [1, 0, 0, 0, 1, 0]

    def test_global_zeros_and_single(self):
        zeros = np.zeros((2, 2), dtype=np.uint8)
        assert assemble(zeros, zeros, GridSpec(side=2))[7:].tolist() == [0] * 6
        assert assemble(cells([0]), cells([1]), GridSpec(side=1))[3:].tolist() == [1, 0]

    def test_local_row_layout(self):
        spec = GridSpec(side=1, crop_rows=1, crop_cols=2)
        assert assemble(cells([1, 1]), cells([0]), spec).tolist() == [1, 1, 0, 0, 0, 0]

    def test_local_coincides_with_global_for_single_crop(self):
        spec = GridSpec(side=2)
        grid = cells([1, 0], [1, 1])
        out = assemble(grid, grid, spec)
        assert (out[:6] == out[7:]).all()


class TestAssemble:
    def test_minimal_concatenation(self):
        out = assemble(cells([1]), cells([1]), GridSpec(side=1))
        assert out.tolist() == [1, 0, 0, 1, 0]
        assert out.dtype == np.uint8

    def test_all_zero(self):
        zeros = np.zeros((2, 2), dtype=np.uint8)
        assert not assemble(zeros, zeros, GridSpec(side=2)).any()

    def test_separator_positions_for_reference_grid(self):
        spec = GridSpec(side=12)
        ones = np.ones((12, 12), dtype=np.uint8)
        out = assemble(ones, ones, spec)
        sep_positions = [12 + 13 * r for r in range(12)] + [156] + [169 + 13 * r for r in range(12)]
        assert np.flatnonzero(out == 0).tolist() == sep_positions
        assert np.flatnonzero(assemble(ones, ones, spec, sep=7) == 7).tolist() == sep_positions
        assert int(out.sum()) == 313 - len(sep_positions)

    def test_segment_counts(self):
        spec = GridSpec(side=3, crop_rows=2, crop_cols=2)
        labels = segment_labels(spec)
        assert labels.count("local") == 6 * 6
        assert labels.count("global") == 9
        assert labels.count("local_sep") == 6
        assert labels.count("global_sep") == 3
        assert labels.count("mid_sep") == 1

    def test_length_mismatch(self):
        # (each grid's ndim, size, empty, dtype and ragged cases are rows of test_array_rule)
        with pytest.raises(ShapeError, match="global grid"):  # the trailing axes must agree
            assemble(np.zeros((2, 2, 3)), np.zeros((2, 2, 4)), GridSpec(side=2))

    def test_trailing_axis_and_separator_vector(self):
        spec = GridSpec(side=2, crop_cols=2)
        local = np.arange(2 * 4 * 3, dtype=np.float64).reshape(2, 4, 3)
        global_ = -np.arange(2 * 2 * 3, dtype=np.float64).reshape(2, 2, 3) - 1
        sep = np.array([0.5, 0.25, 0.125])
        out = assemble(local, global_, spec, sep=sep)
        assert out.shape == (expected_length(spec), 3)
        labels = segment_labels(spec)
        rows = iter(local.reshape(-1, 3).tolist() + global_.reshape(-1, 3).tolist())
        for label, row in zip(labels, out.tolist()):
            assert row == (sep.tolist() if label.endswith("_sep") else next(rows))

    def test_layout_matches_segment_labels(self):
        for spec in (GridSpec(side=1), GridSpec(side=3, crop_rows=2, crop_cols=1),
                     GridSpec(side=2, crop_rows=1, crop_cols=3)):
            local = np.ones((spec.local_rows, spec.local_cols), dtype=bool)
            global_ = np.ones((spec.side, spec.side), dtype=bool)
            is_sep = [label.endswith("_sep") for label in segment_labels(spec)]
            assert (~assemble(local, global_, spec, sep=False)).tolist() == is_sep


class TestMaskFromBBox:
    def test_full_image(self):
        seg = mask_from_bbox(BBox(0, 0, 4, 4), 4, 4)
        assert seg.pixels.all()

    def test_zero_area(self):
        seg = mask_from_bbox(BBox(0, 0, 0, 0), 4, 4)
        assert not seg.pixels.any()

    def test_quarter_box(self):
        seg = mask_from_bbox(BBox(0, 0, 2, 2), 4, 4)
        expected = np.zeros((4, 4), dtype=np.uint8)
        expected[:2, :2] = 1
        assert (seg.pixels == expected).all()

    def test_out_of_range_clamps(self):
        seg = mask_from_bbox(BBox(-10, -10, 100, 100), 3, 5)
        assert seg.pixels.all()

    def test_fractional_box_uses_centers(self):
        # centers at 0.5 and 2.5 sit on the boundary and are excluded
        seg = mask_from_bbox(BBox(0.5, 0.5, 2.5, 2.5), 4, 4)
        expected = np.zeros((4, 4), dtype=np.uint8)
        expected[1, 1] = 1
        assert (seg.pixels == expected).all()

    def test_bad_ordering(self):
        with pytest.raises(InputError):
            BBox(3, 0, 1, 4)

    @pytest.mark.parametrize("width, height", [(0, 4), (4, -1), (True, 1), (4, 4.0), ("4", 4)])
    def test_bad_dimensions(self, width, height):
        with pytest.raises(InputError):
            mask_from_bbox(BBox(0, 0, 2, 2), width, height)


class TestGenerateTokenMask:
    def test_all_zero_seg(self):
        seg = SegMask(np.zeros((24, 24), dtype=np.uint8))
        assert not generate_token_mask(seg, GridSpec(side=12)).values.any()

    def test_all_one_seg_fills_non_separators(self):
        spec = GridSpec(side=12)
        seg = SegMask(np.ones((24, 24), dtype=np.uint8))
        mask = generate_token_mask(seg, spec)
        sep = np.array([s.endswith("_sep") for s in segment_labels(spec)])
        assert mask.values[~sep].all()
        assert not mask.values[sep].any()

    def test_left_half_plane(self):
        spec = GridSpec(side=12)
        mask = generate_token_mask(half_seg(24, 24, "left"), spec)
        values = iter(mask.values.tolist())
        for label in segment_labels(spec):
            v = next(values)
            if label.endswith("_sep"):
                assert v == 0
        local = mask.values[: 12 * 13].reshape(12, 13)
        global_ = mask.values[12 * 13 + 1 :].reshape(12, 13)
        for block in (local, global_):
            assert (block[:, :6] == 1).all()
            assert (block[:, 6:] == 0).all()

    def test_undersized_seg_rejected(self):
        seg = SegMask(np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(InputError):
            generate_token_mask(seg, GridSpec(side=12))

    @settings(max_examples=60, deadline=None)
    @given(spec_and_seg())
    def test_length_law_and_separators(self, spec_seg):
        spec, seg = spec_seg
        mask = generate_token_mask(seg, spec, tau=0.0)
        assert len(mask) == expected_length(spec)
        sep = np.array([s.endswith("_sep") for s in segment_labels(spec)])
        assert not mask.values[sep].any()

    @settings(max_examples=40, deadline=None)
    @given(
        pixels=hnp.arrays(np.uint8, (16, 16), elements=st.integers(0, 1)),
        keep=hnp.arrays(np.uint8, (16, 16), elements=st.integers(0, 1)),
    )
    def test_set_monotonicity(self, pixels, keep):
        spec = GridSpec(side=4)
        sub = SegMask(pixels * keep)
        sup = SegMask(pixels)
        m_sub = generate_token_mask(sub, spec)
        m_sup = generate_token_mask(sup, spec)
        assert (m_sub.values <= m_sup.values).all()

    @settings(max_examples=60, deadline=None)
    @given(spec_and_seg(), st.sampled_from([0.0, 0.25, 1 / 3, 0.5]))
    def test_matches_bruteforce(self, spec_seg, tau):
        """Both grids follow the coverage rule, the global one from its own pixel cells."""
        spec, seg = spec_seg
        assume(seg.height % spec.local_rows or seg.width % spec.local_cols)
        local = brute_downsample(seg.pixels, spec.local_rows, spec.local_cols, tau)
        global_ = brute_downsample(seg.pixels, spec.side, spec.side, tau)
        got = generate_token_mask(seg, spec, tau)
        assert (got.values == assemble(local, global_, spec)).all()

    def test_ragged_1000_px_mask(self):
        # cells of 47 or 48 by 71 or 72 pixels locally and 142 or 143 square globally
        spec = GridSpec(side=7, crop_rows=3, crop_cols=2)
        pixels = np.random.default_rng(6).integers(0, 2, size=(1000, 1000), dtype=np.uint8)
        local = exact_grid(pixels, spec.local_rows, spec.local_cols, 0.5)
        global_ = exact_grid(pixels, spec.side, spec.side, 0.5)
        got = generate_token_mask(SegMask(pixels), spec, 0.5)
        assert local.any() and not local.all()
        assert (got.values == assemble(local, global_, spec)).all()

    def test_pure_and_deterministic(self):
        rng = np.random.default_rng(5)
        pixels = rng.integers(0, 2, size=(16, 16), dtype=np.uint8)
        seg = SegMask(pixels)
        spec = GridSpec(side=4)
        a = generate_token_mask(seg, spec)
        b = generate_token_mask(seg, spec)
        assert (a.values == b.values).all()
        assert (seg.pixels == pixels).all()
        assert a.digest() == b.digest()


class TestPgmAndJson:
    def test_p2_roundtrip_with_comments(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_text("P2\n# comment\n3 2\n# another\n255\n0 128 255\n1 0 7\n")
        samples, maxval = read_pgm(path)
        assert maxval == 255
        assert samples.dtype == np.uint8 and samples.flags.writeable
        assert samples.tolist() == [[0, 128, 255], [1, 0, 7]]
        seg = SegMask.from_pgm(path)
        assert seg.pixels.tolist() == [[0, 1, 1], [1, 0, 1]]

    def test_p5_roundtrip(self, tmp_path):
        path = tmp_path / "m.pgm"
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=(5, 7))
        write_pgm(path, data)
        samples, _ = read_pgm(path)
        assert samples.dtype == np.uint8 and samples.flags.writeable
        assert (samples == data).all()
        # a comment right after maxval ends at its line end, the byte before the raster
        path.write_bytes(b"P5\n2 2\n255# c\n\x01\x02\x03\x04")
        assert read_pgm(path)[0].tolist() == [[1, 2], [3, 4]]

    def test_malformed_pgm(self, tmp_path):
        bad_magic = tmp_path / "a.pgm"
        bad_magic.write_text("P6\n2 2\n255\n")
        with pytest.raises(FormatError):
            read_pgm(bad_magic)
        truncated = tmp_path / "b.pgm"
        truncated.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(FormatError):
            read_pgm(truncated)
        big_maxval = tmp_path / "c.pgm"
        big_maxval.write_text("P2\n1 1\n65535\n12\n")
        with pytest.raises(FormatError):
            read_pgm(big_maxval)
        # a header without maxval, an image with no columns or no rows, and a P5 sample above
        # maxval
        for data in (b"P2\n2 2\n", b"P2\n0 2\n255\n", b"P2\n2 0\n255\n",
                     b"P5\n2 1\n9\n\x01\x0a"):
            bad = tmp_path / "d.pgm"
            bad.write_bytes(data)
            with pytest.raises(FormatError):
                read_pgm(bad)

    @pytest.mark.parametrize("token", ["-1", "+5", "1_0", "99999999999999999999"])
    def test_p2_rejects_non_decimal_tokens(self, tmp_path, token):
        """A sign, an underscore or an int64 overflow is rejected as a sample and in the header."""
        path = tmp_path / "m.pgm"
        for text in (f"P2\n2 1\n255\n{token} 0\n", f"P2\n{token} 1\n255\n" + "1 " * 10,
                     f"P2\n2 1\n{token}\n1 0\n"):
            path.write_text(text)
            with pytest.raises(FormatError):
                read_pgm(path)

    def test_p2_body_comments_and_count(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_text("P2\n2 2\n9\n1 2\n# 3 4\n3\n")
        with pytest.raises(FormatError):
            read_pgm(path)
        path.write_text("P2\n2 2\n9\n1 2#c\n3 4\n")
        assert read_pgm(path)[0].tolist() == [[1, 2], [3, 4]]
        data = np.random.default_rng(3).integers(0, 256, size=(30, 40))
        rows = "".join(" ".join(map(str, r)) + f"\t# row {i}\r\n" for i, r in enumerate(data))
        path.write_text(f"P2 40 30 255\n{rows}", newline="")
        assert (read_pgm(path)[0] == data).all()

    def test_p2_rejects_extra_samples(self, tmp_path):
        """A body holding more samples than width*height is an error, not truncated."""
        path = tmp_path / "m.pgm"
        for text in ("P2\n2 2\n9\n1 2 3 4 5 junk\n", "P2\n2 2\n9\n1 2 3 4 5\n",
                     "P2\n2 2\n9\n1 2\n3 4\n# end\n9\n"):
            path.write_text(text)
            with pytest.raises(FormatError):
                read_pgm(path)
        path.write_text("P2\n2 2\n9\n1 2\n3 4\n# end 5\n\n")
        assert read_pgm(path)[0].tolist() == [[1, 2], [3, 4]]

    def test_write_pgm_rejects_non_integer_samples(self, tmp_path):
        for samples in ([[1.9, 0.5]], [[0.0, math.nan]], [[1.0, math.inf]]):
            with pytest.raises(FormatError):
                write_pgm(tmp_path / "m.pgm", np.array(samples))
        write_pgm(tmp_path / "ok.pgm", np.array([[1.0, 255.0]]))
        assert read_pgm(tmp_path / "ok.pgm")[0].tolist() == [[1, 255]]

    def test_token_mask_json_roundtrip(self):
        spec = GridSpec(side=2)
        mask = generate_token_mask(half_seg(4, 4, "left"), spec, tau=0.0)
        text = token_mask_to_json(mask, tau=0.0)
        obj = json.loads(text)
        assert obj["L"] == 2
        assert obj["G"] == [1, 1]
        assert obj["length"] == expected_length(spec)
        assert obj["values"] == mask.values.tolist()
        assert obj["segments"] == segment_labels(spec)
        back, tau = token_mask_from_json(text)
        assert tau == 0.0
        assert (back.values == mask.values).all()
        assert back.spec == mask.spec

    def test_token_mask_json_golden(self):
        # local 2x4 cells of 2x2 pixels, global 2x2 cells of 2x4; a cell at
        # exactly tau (1 of 4 pixels) stays 0
        pixels = np.zeros((4, 8), dtype=np.uint8)
        pixels[1:4, 0:3] = 1
        pixels[0, 7] = 1
        mask = generate_token_mask(SegMask(pixels), GridSpec(2, 1, 2), tau=0.25)
        assert token_mask_to_json(mask, tau=0.25) == (
            '{"G":[1,2],"L":2,"length":17,"segments":["local","local","local","local",'
            '"local_sep","local","local","local","local","local_sep","mid_sep","global",'
            '"global","global_sep","global","global","global_sep"],"tau":0.25,'
            '"values":[1,0,0,0,0,1,1,0,0,0,0,1,0,0,1,0,0]}\n'
        )

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.builds(GridSpec, st.integers(1, 24), st.integers(1, 4), st.integers(1, 4)),
        tau=st.sampled_from([0.1, 1e-07, 0.30000000000000004, 0.9999999999999999]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_token_mask_json_is_json_dumps(self, spec, tau, seed):
        """The writer's text is that of ``json.dumps`` with sorted keys and no spaces,
        and the reader takes it back."""
        rng = np.random.default_rng(seed)
        local = rng.integers(0, 2, (spec.local_rows, spec.local_cols), dtype=np.uint8)
        global_ = rng.integers(0, 2, (spec.side, spec.side), dtype=np.uint8)
        mask = TokenMask(values=assemble(local, global_, spec), spec=spec)
        obj = {"L": spec.side, "G": [spec.crop_rows, spec.crop_cols], "tau": tau,
               "length": len(mask), "values": mask.values.tolist(),
               "segments": segment_labels(spec)}
        text = token_mask_to_json(mask, tau)
        assert text == json.dumps(
            obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
        back, back_tau = token_mask_from_json(text)
        assert back_tau == tau and back.spec == spec and np.array_equal(back.values, mask.values)

    @pytest.mark.parametrize("tau", [True, 5, -1.0, 1.0, math.nan])
    def test_token_mask_to_json_rejects_a_tau_the_reader_rejects(self, tau):
        mask = generate_token_mask(half_seg(4, 4, "left"), GridSpec(side=2))
        text = token_mask_to_json(mask, 0.0).replace('"tau":0.0', '"tau":' + json.dumps(tau))
        with pytest.raises(FormatError, match="tau"):
            token_mask_from_json(text)
        with pytest.raises(InputError, match="tau"):
            token_mask_to_json(mask, tau)

    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.9999999999999999])
    def test_token_mask_to_json_writes_a_tau_the_reader_takes(self, tau):
        spec = GridSpec(side=2)
        mask = generate_token_mask(half_seg(4, 4, "left"), spec)
        obj = {"L": 2, "G": [1, 1], "tau": tau, "length": len(mask),
               "values": mask.values.tolist(), "segments": segment_labels(spec)}
        text = token_mask_to_json(mask, tau)
        assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        assert token_mask_from_json(text)[1] == tau

    @pytest.mark.parametrize(
        "field, value",
        [
            ("segments", "all-local"),  # with a 1 at a separator
            ("segments", "banana"),
            ("values", 2),
            ("values", 1.5),
            ("values", -1),
            ("values", 256),
            ("values", True),
            ("values", "separator"),  # a 1 at a separator under the right labels
            ("tau", math.nan),
            ("tau", 5),
            ("tau", -1),
            ("tau", "0"),
            ("length", 4),
            ("L", 2.5),
            ("G", ["1", 1]),
            ("G", [1, True]),
            ("G", [1]),
            ("extra", 1),
            ("values", 2**70),  # numpy makes an object array of it
            ("values", None),
            ("values", [0]),  # a nested list
            ("values", "empty"),  # with length 0
            ("values", "short"),  # one value short, with length one less
            ("length", 13.0),  # the count of values, but a float
            ("length", "13"),
            ("values", 1.0),
        ],
    )
    def test_token_mask_json_rejects(self, field, value):
        spec = GridSpec(side=2)
        obj = json.loads(token_mask_to_json(generate_token_mask(half_seg(4, 4, "left"), spec), 0.0))
        if field == "segments":
            obj["segments"] = [value if value == "banana" else "local"] * obj["length"]
            if value == "all-local":
                obj["values"][2] = 1
        elif value == "separator":
            obj["values"][2] = 1
        elif value in ("empty", "short"):
            obj["values"] = [] if value == "empty" else obj["values"][:-1]
            obj["length"] = len(obj["values"])
        elif field == "values":
            obj["values"][0] = value
        else:
            obj[field] = value
        # in the writer's layout, so that the edit alone is what the reader sees
        text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        with pytest.raises(FormatError):
            token_mask_from_json(text)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda t: t.replace(",", ", ").replace(":", ": "), id="spaces"),
        pytest.param(lambda t: json.dumps(dict(reversed(json.loads(t).items())),
                                          separators=(",", ":")) + "\n", id="key-order"),
        pytest.param(lambda t: t.replace('"tau":1e-07', '"tau":1E-7'), id="tau-1E-7"),
        pytest.param(lambda t: t.removesuffix("\n"), id="no-final-newline"),
    ])
    def test_token_mask_json_takes_only_the_writers_text(self, edit):
        """JSON equal to the writer's in value, but not in text, is a FormatError."""
        mask = generate_token_mask(half_seg(4, 4, "left"), GridSpec(side=2))
        text = token_mask_to_json(mask, 1e-07)
        assert token_mask_from_json(text)[1] == 1e-07
        assert json.loads(edit(text)) == json.loads(text) and edit(text) != text
        with pytest.raises(FormatError, match="not the text token_mask_to_json writes"):
            token_mask_from_json(edit(text))

    def test_token_mask_stores_uint8(self):
        spec = GridSpec(side=1)
        values = np.array([1, 0, 0, 1, 0])
        wide, narrow = TokenMask(values=values, spec=spec), TokenMask(values.astype(np.uint8), spec)
        assert wide.values.dtype == np.uint8
        assert wide.values.tolist() == values.tolist()
        assert wide.digest() == narrow.digest()

    def test_bbox_json(self):
        box = BBox.from_json('{"x_min": 1, "y_min": 2, "x_max": 3.5, "y_max": 4}')
        assert box == BBox(1.0, 2.0, 3.5, 4.0)
        with pytest.raises(FormatError):
            BBox.from_json("[1,2,3]")
        with pytest.raises(FormatError):
            BBox.from_json('{"x_min": 0}')
        with pytest.raises(FormatError, match="not valid JSON"):
            BBox.from_json('{"x_min": 0,')
        with pytest.raises(FormatError, match="overflows"):
            BBox.from_json('{"x_min": 0, "y_min": 0, "x_max": 1' + "0" * 400 + ', "y_max": 1}')
        with pytest.raises(FormatError, match=r"unknown fields \['units', 'y_maxx'\]"):
            BBox.from_json('{"x_min": 0, "y_min": 0, "x_max": 24, "y_max": 24, "y_maxx": 4, '
                           '"units": "mm"}')

    @pytest.mark.parametrize("value", ['"3"', "true", "null", "[1]"])
    def test_bbox_json_takes_only_numbers(self, value):
        with pytest.raises(FormatError):
            BBox.from_json(f'{{"x_min": {value}, "y_min": 0, "x_max": 24, "y_max": 24}}')
        # the constructor rejects them too, neither reading true as 1 nor raising TypeError
        with pytest.raises(InputError, match="x_min"):
            BBox(json.loads(value), 0, 24, 24)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_bbox_rejects_nonfinite(self, value):
        with pytest.raises(InputError) as info:
            BBox.from_json(f'{{"x_min": 0, "y_min": 0, "x_max": {value}, "y_max": 24}}')
        assert not isinstance(info.value, FormatError)
        with pytest.raises(InputError):
            BBox(0.0, math.nan, 1.0, 1.0)


# each caller of the one 0/1 rule (errors.require_binary), applied to five entries (the
# second, third and fifth are the separators of a GridSpec(1) mask), and the input it names
BINARY_CALLERS = {
    "SegMask": (lambda a: SegMask(a.reshape(1, 5)).pixels.ravel(), "region mask"),
    "TokenMask": (lambda a: TokenMask(a, GridSpec(side=1)).values, "token mask"),
    "region_bias": (lambda a: region_bias(a, 9.0) / math.log(9.0), "region mask"),
}


@pytest.mark.parametrize("caller", list(BINARY_CALLERS))
@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float64])
def test_binary_rule_accepts(caller, dtype):
    a = np.array([1, 0, 0, 1, 0], dtype=dtype)
    got = BINARY_CALLERS[caller][0](a)
    assert got.tolist() == [1, 0, 0, 1, 0]
    if caller != "region_bias":  # stored as a read-only uint8 copy, a bool array's too
        assert got.dtype == np.uint8 and not got.flags.writeable
        assert not np.shares_memory(got, a)


@pytest.mark.parametrize("caller", list(BINARY_CALLERS))
@pytest.mark.parametrize("value", [2, 255, -1, 0.5, math.nan, 256, "1", 1 + 1j], ids=repr)
def test_binary_rule_rejects(caller, value):
    call, what = BINARY_CALLERS[caller]
    with pytest.raises(InputError, match=what):
        call(np.array([value, 0, 0, 0, 0]))


def test_masks_and_images_own_their_arrays():
    """A mask or image keeps a read-only copy, so a later write to the caller's array
    changes neither it nor the token mask made from it."""
    b = np.zeros((4, 4), bool)
    seg = SegMask(b)
    digest = generate_token_mask(seg, GridSpec(2)).digest()
    b[0, 0] = True
    assert not seg.pixels.any() and generate_token_mask(seg, GridSpec(2)).digest() == digest
    pixels, intensities, values = np.zeros((4, 4), np.uint8), np.zeros((4, 4)), np.zeros(5)
    owners = [(SegMask(pixels).pixels, pixels), (GrayImage(intensities).intensities, intensities),
              (TokenMask(values, GridSpec(side=1)).values, values)]
    for stored, given in owners:
        given[0] = 1
        assert not stored.any() and not np.shares_memory(stored, given)
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 1
