import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from regioncd import (
    BBox,
    GridSpec,
    InputError,
    SegMask,
    ShapeError,
    TokenMask,
    assemble,
    downsample,
    expected_length,
    generate_token_mask,
    mask_from_bbox,
    token_mask_to_json,
)
from regioncd.masks import segment_labels, token_mask_from_json
from regioncd.pgm import read_pgm, write_pgm
from regioncd.errors import FormatError

from conftest import half_seg


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
        assert expected_length(GridSpec(side=12)) == 313
        assert expected_length(GridSpec(side=12, crop_rows=2, crop_cols=2)) == 757
        assert expected_length(GridSpec(side=1)) == 5

    def test_spec_validation(self):
        with pytest.raises(InputError):
            GridSpec(side=0)
        with pytest.raises(InputError):
            GridSpec(side=2, crop_rows=0)


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
        with pytest.raises(ShapeError):
            SegMask(np.zeros(3, dtype=np.uint8))
        with pytest.raises(InputError):
            SegMask(np.zeros((0, 3), dtype=np.uint8))
        seg = SegMask(np.array([[True, False, False], [False, False, True]]))
        assert (seg.width, seg.height) == (3, 2)
        assert seg.pixels.dtype == np.uint8
        assert seg.pixels.tolist() == [[1, 0, 0], [0, 0, 1]]

    def test_rejects_upsampling_and_bad_args(self):
        seg = SegMask(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(InputError):
            downsample(seg, 5, 4, 0.0)
        with pytest.raises(InputError):
            downsample(seg, 4, 0, 0.0)
        with pytest.raises(InputError):
            downsample(seg, 2, 2, 1.0)

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

    def test_global_requires_square(self):
        spec = GridSpec(side=1, crop_cols=2)
        with pytest.raises(ShapeError):
            assemble(cells([1, 1]), cells([1, 1]), spec)

    def test_local_row_layout(self):
        spec = GridSpec(side=1, crop_rows=1, crop_cols=2)
        assert assemble(cells([1, 1]), cells([0]), spec).tolist() == [1, 1, 0, 0, 0, 0]

    def test_local_coincides_with_global_for_single_crop(self):
        spec = GridSpec(side=2)
        grid = cells([1, 0], [1, 1])
        out = assemble(grid, grid, spec)
        assert (out[:6] == out[7:]).all()

    def test_local_shape_mismatch(self):
        spec = GridSpec(side=2, crop_rows=2)
        with pytest.raises(ShapeError):
            assemble(np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8), spec)


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
        spec = GridSpec(side=2)
        with pytest.raises(ShapeError):
            assemble(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8), spec)
        with pytest.raises(ShapeError):  # trailing axes of the two grids must agree
            assemble(np.zeros((2, 2, 3)), np.zeros((2, 2, 4)), spec)

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
        assert samples.tolist() == [[0, 128, 255], [1, 0, 7]]
        seg = SegMask.from_pgm(path)
        assert seg.pixels.tolist() == [[0, 1, 1], [1, 0, 1]]

    def test_p5_roundtrip(self, tmp_path):
        path = tmp_path / "m.pgm"
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=(5, 7))
        write_pgm(path, data)
        samples, _ = read_pgm(path)
        assert (samples == data).all()

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
        # a header without maxval, an empty image and a P5 sample above maxval
        for data in (b"P2\n2 2\n", b"P2\n0 2\n255\n", b"P5\n2 1\n9\n\x01\x0a"):
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
        ],
    )
    def test_token_mask_json_rejects(self, field, value):
        spec = GridSpec(side=2)
        obj = json.loads(token_mask_to_json(generate_token_mask(half_seg(4, 4, "left"), spec), 0.0))
        if field == "segments":
            obj["segments"] = [value if value == "banana" else "local"] * obj["length"]
            obj["values"][2] = 1
        elif value == "separator":
            obj["values"][2] = 1
        elif field == "values":
            obj["values"][0] = value
        else:
            obj[field] = value
        with pytest.raises(FormatError):
            token_mask_from_json(json.dumps(obj))

    @pytest.mark.parametrize("bad", [2, 255])
    def test_token_mask_rejects_non_binary_values(self, bad):
        spec = GridSpec(side=1)
        values = np.array([1, 0, 0, bad, 0], dtype=np.uint8)
        with pytest.raises(InputError):
            TokenMask(values=values, spec=spec)
        with pytest.raises(InputError):
            TokenMask(values=np.array([1, 1, 0, 0, 0], dtype=np.uint8), spec=spec)

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

    @pytest.mark.parametrize("value", ['"3"', "true", "null", "[1]"])
    def test_bbox_json_takes_only_numbers(self, value):
        with pytest.raises(FormatError):
            BBox.from_json(f'{{"x_min": {value}, "y_min": 0, "x_max": 24, "y_max": 24}}')

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_bbox_rejects_nonfinite(self, value):
        with pytest.raises(InputError) as info:
            BBox.from_json(f'{{"x_min": 0, "y_min": 0, "x_max": {value}, "y_max": 24}}')
        assert not isinstance(info.value, FormatError)
        with pytest.raises(InputError):
            BBox(0.0, math.nan, 1.0, 1.0)
