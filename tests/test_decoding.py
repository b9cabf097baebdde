import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from regioncd.config import GuidanceParams
from regioncd.decoding import (
    DEFAULT_TOPK, decode, fuse_logits, log_softmax, suppress_tokens, sweep, sweep_to_csv,
)
from regioncd.errors import FormatError, InputError, ShapeError
from regioncd.masks import (
    BBox, GridSpec, SegMask, TokenMask, assemble, downsample, generate_token_mask, mask_from_bbox,
    token_mask_from_json, token_mask_to_json,
)
from regioncd.model import DecoderSession, GrayImage, VisualSequence, encode_image, region_bias
from regioncd.pgm import write_pgm
from regioncd.verification import REDUCTION_PROMPT, _reweighted as reweight_attention, half_seg
from regioncd.weights import STEER_CONFIG, WeightSet, gen_fixture

from conftest import forward_logits, steer_logits_by_hand


def params_for(**kw) -> GuidanceParams:
    base = dict(max_tokens=8)
    base.update(kw)
    return GuidanceParams(**base)


class TestSuppressTokens:
    def test_alpha_one_is_identity(self, steer_cfg, steer_weights, steer_image, left_seg):
        visual = encode_image(steer_image, steer_weights)
        mask = generate_token_mask(left_seg, steer_cfg.grid())
        out = suppress_tokens(visual, mask, 1.0)
        assert (out.embeddings == visual.embeddings).all()

    def test_zero_mask_is_identity(self, steer_cfg, steer_weights, steer_image):
        visual = encode_image(steer_image, steer_weights)
        seg = SegMask(np.zeros((8, 8), dtype=np.uint8))
        mask = generate_token_mask(seg, steer_cfg.grid())
        out = suppress_tokens(visual, mask, 0.25)
        assert (out.embeddings == visual.embeddings).all()

    def test_scales_masked_rows(self, steer_cfg, steer_weights, steer_image, left_seg):
        visual = encode_image(steer_image, steer_weights)
        visual.embeddings[0, :2] = [2.0, -4.0]
        snapshot = visual.embeddings.copy()
        mask = generate_token_mask(left_seg, steer_cfg.grid())
        assert mask.values[0] == 1
        out = suppress_tokens(visual, mask, 0.01)
        assert out.embeddings[0, 0] == pytest.approx(0.02)
        assert out.embeddings[0, 1] == pytest.approx(-0.04)
        unmasked = mask.values == 0
        assert (out.embeddings[unmasked] == visual.embeddings[unmasked]).all()
        # purity: the input sequence is untouched
        assert (visual.embeddings == snapshot).all()

    def test_length_mismatch(self, steer_cfg, steer_weights, steer_image):
        visual = encode_image(steer_image, steer_weights)
        seg = SegMask(np.zeros((12, 12), dtype=np.uint8))
        mask = generate_token_mask(seg, GridSpec(side=3))
        with pytest.raises(ShapeError):
            suppress_tokens(visual, mask, 0.5)


class TestReweightAttention:
    def test_two_element_example(self):
        p = reweight_attention(np.array([0.0, 0.0]), np.array([1, 0]), 3.0)
        assert np.abs(p - np.array([0.75, 0.25])).max() < 1e-15


# each strength's values that every one of its entry points accepts, then those they reject
STRENGTH_VALUES = {
    "alpha": ([0.0, -0.0, 1, 1.0, np.float64(0.5)],
              [math.nextafter(1.0, 2.0), -5e-324, -0.1, 1.5, math.nan, math.inf, True, "0.5",
               np.float32(0.5), None]),
    "beta": ([1, 5.0, 1e308],
             [math.nextafter(1.0, 0.0), 0.5, math.inf, -math.inf, math.nan, True, "5",
              10**400]),
    "gamma": ([0.0, -0.0, 1.5, 3, np.float64(1.5)],
              [-5e-324, -1.0, math.nan, math.inf, True, "1.5", np.float32(1.5)]),
    "tau": ([0.0, -0.0, 0.9999999999999999],
            [1.0, -5e-324, -1.0, 5, math.nan, math.inf, True, "0.5", None]),
}
# ints outside every size, past a float or past the digits str() prints, each with what a
# rejection prints for it
HUGE = {
    "10**400": (10**400, "1" + "0" * 400),
    "10**5000": (10**5000, "an int of 16610 bits"),
    "-10**5000": (-(10**5000), "an int of 16610 bits"),
    "2**63": (2**63, "9223372036854775808"),
    "2**64": (2**64, "18446744073709551616"),
}
FLOATS = [2**63, 2**64]  # the ints of HUGE that a real input takes: each is a finite float
READER = "token_mask_from_json.tau"  # the one entry point whose rejection is a FormatError
# every entry point of an int or real input: its call of a value ``v`` on the inputs ``x`` of
# number_inputs, the name its rejection gives, the values of HUGE it accepts (it rejects the
# rest) and the other values it rejects; an entry point of a strength also meets that
# strength's STRENGTH_VALUES
NUMBER_RULE = {
    **{f"GridSpec.{name}": (lambda x, v, name=name: GridSpec(**{"side": 1, name: v}), name, [],
                            bad)
       for name, bad in (("side", [0, 2.5]), ("crop_rows", [0, True]), ("crop_cols", [2.0]))},
    "generate_token_mask.spec": (lambda x, v: generate_token_mask(x.seg, GridSpec(v)), "side",
                                 [], []),
    "TokenMask.spec": (lambda x, v: TokenMask(x.mask.values, GridSpec(v)), "side", [], []),
    "downsample.out_rows": (lambda x, v: downsample(x.seg, v, 1, 0.0), "grid rows", [], [True]),
    "downsample.out_cols": (lambda x, v: downsample(x.seg, 1, v, 0.0), "grid columns", [],
                            [0, 2.0]),
    "mask_from_bbox.width": (lambda x, v: mask_from_bbox(x.box, v, 1), "image width", [],
                             [0, True, "4"]),
    "mask_from_bbox.height": (lambda x, v: mask_from_bbox(x.box, 1, v), "image height", [],
                              [-1, 4.0]),
    "BBox.x_min": (lambda x, v: BBox(v, 0.0, 1.0, 1.0), "x_min", [], []),
    "BBox.x_max": (lambda x, v: BBox(0.0, 0.0, v, 1.0), "x_max", FLOATS, []),
    # a float equal to the config's value, or a boolean, is not read as an int
    **{f"ModelConfig.{name}": (lambda x, v, name=name: replace(x.cfg, **{name: v}), name, [],
                               [float(n), n == 1])
       for name, n in STEER_CONFIG.to_dict().items()},
    "ModelConfig.feature_side=image_side": (
        lambda x, v: replace(x.cfg, feature_side=v, image_side=v), "feature_side", [], []),
    **{f"GuidanceParams.{name}": (lambda x, v, name=name: GuidanceParams(**{name: v}), name,
                                  FLOATS if name in ("beta", "gamma") else [], bad)
       for name, bad in (("alpha", []), ("beta", []), ("gamma", []), ("tau", []),
                         ("max_tokens", [2.5, 8.0, True]), ("eos_id", [1.0, 2.0, True]))},
    "suppress_tokens.alpha": (lambda x, v: suppress_tokens(x.visual, x.mask, v), "alpha", [], []),
    "region_bias.beta": (lambda x, v: region_bias(np.array([1, 0]), v), "beta", FLOATS, []),
    "DecoderSession.beta": (lambda x, v: DecoderSession(
        x.cfg, x.w, x.visual, attn_policy=(x.mask.values, v)), "beta", FLOATS, []),
    "DecoderSession.rewind": (lambda x, v: DecoderSession(x.cfg, x.w, x.visual).rewind(v),
                              "rewind length", [], []),
    "fuse_logits.gamma": (lambda x, v: fuse_logits(np.array([-1.0, -2.0]),
                                                   np.array([-2.0, -1.0]), v), "gamma", FLOATS, []),
    "downsample.tau": (lambda x, v: downsample(x.seg, 2, 2, v), "tau", [], ["0", False]),
    "generate_token_mask.tau": (lambda x, v: generate_token_mask(x.seg, x.cfg.grid(), v), "tau",
                                [], []),
    "token_mask_to_json.tau": (lambda x, v: token_mask_to_json(x.mask, v), "tau", [], []),
    # json.dumps writes no int past the digits str() prints, so the reader meets no HUGE value
    READER: (lambda x, v: token_mask_from_json(
        x.text.replace('"tau":0.0', '"tau":' + json.dumps(v))), "tau", [], []),
    "decode.prompt": (lambda x, v: x.decode(prompt=[v]), "token ids", [], [1.9]),
    "decode.topk": (lambda x, v: x.decode(topk=v), "topk", [], [True, 2.5]),
    "decode.temperature": (lambda x, v: x.decode(temperature=v), "temperature", FLOATS,
                           [True, "1"]),
    # both seeds take [0, 2**64), and every fixture kind checks its seed
    "decode.seed": (lambda x, v: x.decode(temperature=1.0, seed=v), "seed", [2**63], [True, 1.5]),
    **{f"gen_fixture.seed{suffix}": (lambda x, v, kind=kind: gen_fixture(kind, v, x.cfg),
                                     "fixture seed", [2**63], [-1, True, 1.5])
       for kind, suffix in (("random-v1", ""), ("steer-v1", ".steer-v1"))},
}


def number_cases(strengths: bool) -> list:
    """The (entry, value, what a rejection prints for it, whether it is accepted) cases: each
    strength's entry points at its STRENGTH_VALUES, or every entry point at HUGE and at the
    other values its row rejects."""
    cases = []
    for entry, (_, name, takes, rejects) in NUMBER_RULE.items():
        if strengths:
            good, bad = STRENGTH_VALUES.get(name, ([], []))
            cases += [pytest.param(entry, value, repr(value), accepted,
                                   id=f"{name}-{entry.split('.')[0]}-{value!r:.20}")
                      for accepted, values in ((True, good), (False, bad)) for value in values]
            continue
        if entry != READER:
            cases += [pytest.param(entry, value, shown, value in takes, id=f"{entry}-{key}")
                      for key, (value, shown) in HUGE.items()]
        cases += [pytest.param(entry, value, repr(value), False, id=f"{entry}-{value!r:.20}")
                  for value in rejects]
    return cases


@pytest.fixture(scope="module")
def number_inputs(steer_cfg, steer_weights, steer_image, left_seg) -> SimpleNamespace:
    mask = generate_token_mask(left_seg, steer_cfg.grid())
    return SimpleNamespace(
        cfg=steer_cfg, w=steer_weights, seg=left_seg, mask=mask,
        visual=encode_image(steer_image, steer_weights), text=token_mask_to_json(mask, 0.0),
        box=BBox(0.0, 0.0, 1.0, 1.0),
        decode=lambda prompt=(0,), **options: decode(
            steer_image, left_seg, list(prompt), steer_cfg, steer_weights,
            GuidanceParams(max_tokens=1), **options))


def check_number_rule(x: SimpleNamespace, entry: str, value, shown: str, accepted: bool):
    """Every int and real input goes through the one integer or real-number rule: each value
    its row does not accept (a value out of range, a boolean, a float for an int, a string,
    ``None``, an ``np.float32``, an int past a size, a float or the 4,300 digits ``str``
    prints) is an InputError that names the input and shows the value (a FormatError from the
    token-mask reader), never a ValueError, TypeError or OverflowError."""
    call, name = NUMBER_RULE[entry][:2]
    if accepted:
        call(x, value)
        return
    with pytest.raises(InputError, match=name) as info:
        call(x, value)
    assert type(info.value) is (FormatError if entry == READER else InputError)
    assert shown in str(info.value), info.value


# one check under two names: test_strength_rule runs the strengths' STRENGTH_VALUES and
# test_number_rule every other case of NUMBER_RULE
@pytest.mark.parametrize("entry, value, shown, accepted", number_cases(strengths=True))
def test_strength_rule(number_inputs, entry, value, shown, accepted):
    check_number_rule(number_inputs, entry, value, shown, accepted)


@pytest.mark.parametrize("entry, value, shown, accepted", number_cases(strengths=False))
def test_number_rule(number_inputs, entry, value, shown, accepted):
    check_number_rule(number_inputs, entry, value, shown, accepted)


# each caller of the one array rule (errors.require_array): the input its errors name, and
# whether that input takes any size from 1, so that no size of it is a wrong one
ARRAY_CALLERS = {
    "GrayImage": ("image", True),
    "SegMask": ("region mask", True),
    "TokenMask": ("token mask", False),
    "VisualSequence": ("visual embeddings", True),
    "encode_image": ("image", False),
    "DecoderSession.visual": ("visual embeddings", False),
    "DecoderSession.policy": ("policy mask", False),
    "suppress_tokens": ("visual embeddings", False),
    "fuse_logits.guided": ("guided log-probs", True),
    "fuse_logits.unguided": ("unguided log-probs", False),
    "decode.seg": ("region mask", False),
    "assemble.local": ("local grid", False),
    "assemble.global": ("global grid", False),
    "WeightSet": ("tensor head.weight", False),
    "write_pgm": ("samples", True),
}
# each bad input made from a valid array ``a``: the first three are a ShapeError, the rest
# an InputError; "valid" is ``a`` itself, which every caller takes
ARRAY_CASES = {
    "valid": lambda a: a,
    "wrong-ndim": lambda a: a[0] if a.ndim > 1 else a[None],
    "wrong-size": lambda a: np.concatenate([a, a[:1]]),
    "empty": lambda a: a[:0],
    "ragged-list": lambda a: [a.tolist(), a[:-1].tolist()],
    "str": lambda a: a.astype("<U1"),
    "object": lambda a: a.astype(object),
    "complex": lambda a: a.astype(complex),
}


@pytest.mark.parametrize("caller, case", [
    pytest.param(caller, case, id=f"{caller}-{case}")
    for caller, (_, any_size) in ARRAY_CALLERS.items() for case in ARRAY_CASES
    if not (any_size and case == "wrong-size")
])
def test_array_rule(steer_cfg, steer_weights, steer_image, left_seg, tmp_path, caller, case):
    """Every array input goes through the one array rule: a wrong ndim, size or emptiness is
    a ShapeError, and a ragged list or a str, object or complex dtype an InputError, each
    naming the input, never a ValueError, TypeError or AttributeError."""
    cfg, w = steer_cfg, steer_weights
    visual = encode_image(steer_image, w)
    mask = generate_token_mask(left_seg, cfg.grid())
    spec = GridSpec(side=2, crop_cols=3)  # a 2x6 local and a 2x2 global grid
    local, global_ = np.ones((2, 6), dtype=np.uint8), np.ones((2, 2), dtype=np.uint8)
    logprobs = np.log(np.full(cfg.vocab_size, 1 / cfg.vocab_size))
    callers = {
        "GrayImage": (steer_image.intensities, GrayImage),
        "SegMask": (left_seg.pixels, SegMask),
        "TokenMask": (mask.values, lambda a: TokenMask(a, mask.spec)),
        "VisualSequence": (visual.embeddings, VisualSequence),
        "encode_image": (steer_image.intensities, lambda a: encode_image(GrayImage(a), w)),
        "DecoderSession.visual": (visual.embeddings,
                                  lambda a: DecoderSession(cfg, w, VisualSequence(a))),
        "DecoderSession.policy": (mask.values, lambda a: DecoderSession(
            cfg, w, visual, attn_policy=(a, 2.0))),
        "suppress_tokens": (visual.embeddings,
                            lambda a: suppress_tokens(VisualSequence(a), mask, 0.5)),
        "fuse_logits.guided": (logprobs, lambda a: fuse_logits(a, logprobs, 1.5)),
        "fuse_logits.unguided": (logprobs, lambda a: fuse_logits(logprobs, a, 1.5)),
        "decode.seg": (left_seg.pixels, lambda a: decode(
            steer_image, SegMask(a), [0], cfg, w, GuidanceParams(max_tokens=1))),
        "assemble.local": (local, lambda a: assemble(a, global_, spec)),
        "assemble.global": (global_, lambda a: assemble(local, a, spec)),
        "WeightSet": (w.tensors["head.weight"],
                      lambda a: WeightSet(cfg, {**w.tensors, "head.weight": a})),
        "write_pgm": (left_seg.pixels, lambda a: write_pgm(tmp_path / "m.pgm", a)),
    }
    valid, call = callers[caller]
    value = ARRAY_CASES[case](valid)
    if case == "valid":
        call(value)
        return
    with pytest.raises(InputError) as info:
        call(value)
    shape_case = case in ("wrong-ndim", "wrong-size", "empty")
    assert type(info.value) is (ShapeError if shape_case else InputError)
    assert str(info.value).startswith(ARRAY_CALLERS[caller][0] + " "), info.value


class TestFuseLogits:
    def test_gamma_one_returns_guided_bits(self):
        rng = np.random.default_rng(4)
        g = log_softmax(rng.uniform(-3, 3, size=12))
        u = log_softmax(rng.uniform(-3, 3, size=12))
        assert (fuse_logits(g, u, 1.0) == g).all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fuse_logits(np.zeros(3), np.zeros(4), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        scores=st.lists(st.floats(-10.0, 0.0, allow_nan=False), min_size=1, max_size=32),
        g1=st.floats(0.0, 3.0),
        g2=st.floats(0.0, 3.0),
    )
    def test_affine_in_gamma(self, scores, g1, g2):
        rng = np.random.default_rng(len(scores))
        a = np.array(scores)
        b = a + rng.uniform(-1, 1, size=len(scores))
        lhs = fuse_logits(a, b, g1) + fuse_logits(a, b, g2)
        rhs = 2.0 * fuse_logits(a, b, (g1 + g2) / 2.0)
        assert np.abs(lhs - rhs).max() < 1e-9


class TestLogSoftmax:
    def test_normalizes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(-30, 30, size=int(rng.integers(1, 40)))
            lp = log_softmax(x)
            assert abs(float(np.exp(lp).sum()) - 1.0) < 1e-12
            assert np.abs(lp - scipy.special.log_softmax(x)).max() < 1e-12
        # a 2-D input is normalized row by row, each row bit for bit the 1-D result
        rows = rng.uniform(-30, 30, size=(3, 257))
        assert all(np.array_equal(lp, log_softmax(x)) for lp, x in zip(log_softmax(rows), rows))


class TestDecode:
    def test_steer_fused_scores_match_hand_evaluation(
        self, steer_cfg, steer_weights, steer_image, left_seg
    ):
        alpha, beta, gamma = 0.01, 9.0, 1.5
        p = params_for(alpha=alpha, beta=beta, gamma=gamma, max_tokens=1)
        _, trace = decode(steer_image, left_seg, [0], steer_cfg, steer_weights, p,
                          topk=steer_cfg.vocab_size)
        guided = steer_logits_by_hand(beta, "left")
        unguided = steer_logits_by_hand(1.0, "left", alpha=alpha)
        lse_g = math.log(sum(math.exp(x) for x in guided))
        lse_u = math.log(sum(math.exp(x) for x in unguided))
        expected = [
            (1.0 - gamma) * (u - lse_u) + gamma * (g - lse_g)
            for g, u in zip(guided, unguided)
        ]
        fused = dict(trace.steps[0].fused_topk)
        for token, want in enumerate(expected):
            assert fused[token] == pytest.approx(want, abs=1e-9)

    def test_eos_terminates_and_is_kept(self, steer_cfg, steer_image, left_seg):
        cfg = replace(steer_cfg, eos_id=2)
        p = params_for(alpha=0.01, beta=9.0, gamma=1.5, max_tokens=5)
        ids, trace = decode(steer_image, left_seg, [0], cfg, gen_fixture("steer-v1", 0, cfg), p)
        assert ids == [2]
        assert len(trace.steps) == 1

    @pytest.mark.parametrize("eos_id, want", [(1, [2] * 5), (2, [2])])
    def test_grid_and_stop_token_come_from_the_config(self, steer_cfg, steer_image, left_seg,
                                                      eos_id, want):
        # the steering fixture emits 2 under a left mask, so only a model that stops at 2 stops
        cfg = replace(steer_cfg, eos_id=eos_id)
        w = gen_fixture("steer-v1", 0, cfg)
        p = GuidanceParams(beta=9.0, max_tokens=5)
        ids, trace = decode(steer_image, left_seg, [0], cfg, w, p)
        assert ids == want
        assert trace.mask_digest == generate_token_mask(left_seg, cfg.grid()).digest()
        assert decode(steer_image, None, [0], cfg, w, GuidanceParams(max_tokens=5))[0] == want
        assert decode(steer_image, left_seg, [0], cfg, w,
                      replace(p, spec=cfg.grid(), eos_id=eos_id))[0] == want
        for given in ({"eos_id": 3 - eos_id}, {"spec": GridSpec(side=1)}):
            with pytest.raises(InputError, match="model's"):
                decode(steer_image, left_seg, [0], cfg, w, replace(p, **given))

    def test_trace_structure(self, rand_cfg, rand_weights, rand_image):
        p = params_for(max_tokens=4)
        for seg in (half_seg(16, 16, "left"), None):
            ids, trace = decode(rand_image, seg, [1], rand_cfg, rand_weights, p, topk=3)
            header, *records = map(json.loads, trace.to_jsonl().splitlines())
            assert set(header) == {"mode", "params", "config", "fixture_digest", "mask_digest",
                                   "topk"}
            assert header["topk"] == 3
            assert len(header["fixture_digest"]) == 64
            if seg is None:  # the plain decode: one branch, no mask, no strengths
                assert header["mode"] == "baseline" and header["mask_digest"] is None
                assert header["params"] == {"max_tokens": 4}
                for step in trace.steps:
                    assert step.guided_topk == step.unguided_topk == step.fused_topk
            else:
                assert header["mode"] == "guided"
                assert header["params"]["alpha"] == 0.01
                assert header["params"]["beta"] == 5.0
                assert header["params"]["gamma"] == 1.5
                assert len(header["mask_digest"]) == 64
            assert len(trace.steps) <= 4
            for t, step in enumerate(trace.steps):
                assert step.t == t
                assert step.chosen == step.fused_topk[0][0]
                scores = [v for _, v in step.fused_topk]
                assert scores == sorted(scores, reverse=True)
            assert [s.chosen for s in trace.steps] == ids
            for step, record in zip(trace.steps, records, strict=True):
                assert record == {"t": step.t, "chosen": step.chosen,
                                  **{k: [list(e) for e in getattr(step, k)]
                                     for k in ("guided_topk", "unguided_topk", "fused_topk")}}

    def test_trace_bytes_deterministic(self, rand_cfg, rand_weights, rand_image):
        seg = half_seg(16, 16, "left")
        p = params_for(max_tokens=4)
        _, t1 = decode(rand_image, seg, [1], rand_cfg, rand_weights, p)
        _, t2 = decode(rand_image, seg, [1], rand_cfg, rand_weights, p)
        assert t1.to_jsonl().encode() == t2.to_jsonl().encode()

    def test_sampling_is_seed_reproducible(self, rand_cfg, rand_weights, rand_image):
        p = params_for(max_tokens=6)
        for seg in (half_seg(16, 16, "left"), None):
            a, trace = decode(rand_image, seg, [1], rand_cfg, rand_weights, p,
                              temperature=2.0, seed=123)
            b, _ = decode(rand_image, seg, [1], rand_cfg, rand_weights, p,
                          temperature=2.0, seed=123)
            assert a == b
            assert any(s.chosen != s.fused_topk[0][0] for s in trace.steps)  # not greedy
        assert trace.params == {"max_tokens": 6, "temperature": 2.0, "seed": 123}

    def test_validation_errors(self, rand_cfg, rand_weights, rand_image, steer_cfg, monkeypatch):
        seg = half_seg(16, 16, "left")
        with pytest.raises(InputError):
            decode(rand_image, seg, [], rand_cfg, rand_weights, params_for())
        with pytest.raises(InputError):
            decode(rand_image, seg, [1], rand_cfg, rand_weights, params_for(spec=steer_cfg.grid()))
        with pytest.raises(InputError):
            decode(rand_image, seg, [1], rand_cfg, rand_weights, params_for(max_tokens=100))
        # (the types and ranges of ids, topk, temperature, seed and the strengths are rows
        # of NUMBER_RULE)
        # a request with no region is one cell at the default strengths, checked before any
        # prefill (which here fails the test)
        monkeypatch.setattr(DecoderSession, "__init__", lambda *_, **__: pytest.fail("prefill"))
        for name, value in (("alpha", 1.0), ("beta", 1.0), ("gamma", 1.0), ("tau", 0.5)):
            with pytest.raises(InputError, match="without a region"):
                decode(rand_image, None, [1], rand_cfg, rand_weights, params_for(**{name: value}))
        # and so is each prompt id
        for prompt in ([rand_cfg.vocab_size], [1.5]):
            for region in (seg, None):
                with pytest.raises(InputError, match="token ids"):
                    decode(rand_image, region, prompt, rand_cfg, rand_weights, params_for())
        for betas, gammas in (([1.0, 3.0], [1.5]), ([5.0], [1.0]), ([5.0, 5.0], [1.5])):
            with pytest.raises(InputError, match="without a region"):
                sweep(rand_image, None, [1], rand_cfg, rand_weights, betas, gammas, params_for())
        # and so is a region of another size than the image, which is not rescaled onto it
        small = half_seg(8, 8, "left")
        with pytest.raises(ShapeError, match="region mask has shape 8x8, wants 16x16"):
            decode(rand_image, small, [1], rand_cfg, rand_weights, params_for())
        with pytest.raises(ShapeError, match="region mask has shape 8x8, wants 16x16"):
            sweep(rand_image, small, [1], rand_cfg, rand_weights, [1.0, 3.0], [1.5], params_for())


def reference_greedy(img, seg, prompt, cfg, w, params) -> tuple[list[int], list[np.ndarray]]:
    """Greedy guided decode with no KV cache: ids and each step's fused scores.

    Every step builds fresh guided and unguided sessions over ``prompt + ids``
    and fuses their log-probabilities by the paper's formula, so it shares no
    session, stacking or cell handling with the decode engine.
    """
    mask = generate_token_mask(seg, cfg.grid(), params.tau)
    visual = encode_image(img, w)
    suppressed = suppress_tokens(visual, mask, params.alpha)
    ids, scores = [], []
    for _ in range(params.max_tokens):
        text = prompt + ids
        g = scipy.special.log_softmax(
            forward_logits(visual, text, cfg, w, attn_policy=(mask.values, params.beta)))
        u = scipy.special.log_softmax(forward_logits(suppressed, text, cfg, w))
        scores.append((1.0 - params.gamma) * u + params.gamma * g)
        ids.append(int(np.argmax(scores[-1])))
        if ids[-1] == cfg.eos_id:
            break
    return ids, scores


class TestSweep:
    def test_neutral_grid_matches_baseline(self, steer_cfg, steer_weights, steer_image, left_seg):
        base, _ = decode(steer_image, None, [0], steer_cfg, steer_weights,
                         params_for(max_tokens=1))
        p = params_for(alpha=1.0, max_tokens=1)
        rows = sweep(steer_image, left_seg, [0], steer_cfg, steer_weights, [1.0], [1.0], p)
        assert len(rows) == 1
        assert rows[0].output_ids == base

    def test_beta_major_order_and_duplicates(self, steer_cfg, steer_weights, steer_image,
                                             left_seg):
        p = params_for(max_tokens=1)
        rows = sweep(steer_image, left_seg, [0], steer_cfg, steer_weights,
                     [1.0, 3.0, 3.0], [1.1, 1.3], p)
        assert [(r.beta, r.gamma) for r in rows] == [
            (1.0, 1.1), (1.0, 1.3), (3.0, 1.1), (3.0, 1.3), (3.0, 1.1), (3.0, 1.3)
        ]
        # duplicated beta value reproduces identical rows
        assert rows[2].output_ids == rows[4].output_ids
        assert rows[2].step1_margin == rows[4].step1_margin

    def test_csv_format(self, steer_cfg, steer_weights, steer_image, left_seg):
        p = params_for(max_tokens=1)
        rows = sweep(steer_image, left_seg, [0], steer_cfg, steer_weights, [1.0], [1.0], p)
        text = sweep_to_csv(rows)
        lines = text.split("\n")
        assert lines[0] == "beta,gamma,output_ids,step1_margin"
        assert lines[1].startswith("1.0,1.0,")
        assert text.endswith("\n")
        assert "\r" not in text

    def test_empty_lists_rejected(self, steer_cfg, steer_weights, steer_image, left_seg):
        p = params_for(max_tokens=1)
        with pytest.raises(InputError):
            sweep(steer_image, left_seg, [0], steer_cfg, steer_weights, [], [1.0], p)

    def test_rows_match_standalone_decodes(self, steer_cfg, steer_weights, steer_image,
                                           left_seg):
        betas, gammas = [1.0, 3.0, 3.0, 10.0], [0.0, 1.0, 1.5, 3.0]
        p = params_for(max_tokens=3)
        rows = sweep(steer_image, left_seg, [0], steer_cfg, steer_weights, betas, gammas, p)
        assert [(r.beta, r.gamma) for r in rows] == [(b, g) for b in betas for g in gammas]
        for row in rows:
            cell = params_for(max_tokens=3, beta=row.beta, gamma=row.gamma)
            ids, trace = decode(steer_image, left_seg, [0], steer_cfg, steer_weights, cell,
                                topk=DEFAULT_TOPK)
            fused = trace.steps[0].fused_topk
            assert row.output_ids == ids
            assert row.step1_margin == fused[0][1] - fused[1][1]
        # stacks of one prefilled pair must diverge for the check above to bite
        assert len({tuple(r.output_ids) for r in rows}) >= 2

    @staticmethod
    def worst_reference_gap(args, rows, max_tokens) -> float:
        """Check each row against a standalone decode and :func:`reference_greedy`.

        Ids must agree exactly, and the row's margin must equal the decode's;
        returns the largest gap of any fused score or margin to the reference.
        """
        worst = 0.0
        for row in rows:
            cell = params_for(max_tokens=max_tokens, beta=row.beta, gamma=row.gamma)
            ref_ids, ref_scores = reference_greedy(*args, cell)
            ids, trace = decode(*args, cell)
            assert ids == row.output_ids == ref_ids
            fused = trace.steps[0].fused_topk
            assert row.step1_margin == fused[0][1] - fused[1][1]
            for step, ref in zip(trace.steps, ref_scores, strict=True):
                worst = max([worst] + [abs(v - ref[i]) for i, v in step.fused_topk])
            top2 = np.sort(ref_scores[0])[-2:]
            worst = max(worst, abs(row.step1_margin - (top2[1] - top2[0])))
        return worst

    def test_engine_matches_cache_free_reference(self, rand_cfg, rand_weights, rand_image):
        betas, gammas = [1.0, 3.0, 10.0], [0.0, 1.5]
        seg = half_seg(rand_cfg.image_side, rand_cfg.image_side, "left")
        p = params_for(max_tokens=8)
        args = (rand_image, seg, REDUCTION_PROMPT, rand_cfg, rand_weights)
        rows = sweep(*args, betas, gammas, p)
        assert self.worst_reference_gap(args, rows, 8) < 1e-12
        # every beta moves the guided cells' scores, so a cell run at another
        # cell's beta would miss its reference by far more than the tolerance
        assert len({r.step1_margin for r in rows if r.gamma}) == len(betas)

    def test_divergent_cells_rewind_the_shared_session(self, monkeypatch, rand_cfg,
                                                       rand_weights, rand_image):
        # the gammas alternate between cells that agree and cells that diverge, so
        # a cell rewinds the session to a path an earlier cell left
        betas, gammas = [1.0, 3.0, 10.0], [0.0, 3.0, 0.5, 2.0, 1.0, 1.5]
        seg = half_seg(rand_cfg.image_side, rand_cfg.image_side, "left")
        args = (rand_image, seg, REDUCTION_PROMPT, rand_cfg, rand_weights)
        rewinds = []
        rewind = DecoderSession.rewind

        def recording_rewind(session, length):
            rewinds.append(length - session.cfg.n_visual - len(REDUCTION_PROMPT))
            rewind(session, length)

        monkeypatch.setattr(DecoderSession, "rewind", recording_rewind)
        rows = sweep(*args, betas, gammas, params_for(max_tokens=12))
        monkeypatch.undo()
        by_beta = [{tuple(r.output_ids) for r in rows if r.beta == beta} for beta in betas]
        diverging = [ids for ids in by_beta if len(ids) > 1]
        # cells of one beta that agree on step 0 and differ later
        assert diverging and all(len({i[0] for i in ids}) == 1 for ids in diverging)
        assert len(rewinds) > len(diverging) and min(rewinds) > 0
        assert self.worst_reference_gap(args, rows, 12) < 1e-12

    def test_agreeing_cells_share_every_step(self, monkeypatch, rand_cfg, rand_weights,
                                             rand_image):
        betas, gammas, max_tokens = [1.0, 3.0], [0.0, 0.5, 1.0], 8
        seg = half_seg(rand_cfg.image_side, rand_cfg.image_side, "left")
        calls = {"step": 0, "stack": 0, "rewind": 0}
        prompt_rows = []  # the row count of each session that reads the prompt
        extend, stack, rewind = (DecoderSession.extend_with_tokens, DecoderSession.stack,
                                 DecoderSession.rewind)

        def counting_extend(session, ids):
            calls["step"] += len(ids) == 1
            if len(ids) > 1:
                prompt_rows.append(session.rows)
            return extend(session, ids)

        def counting_stack(sessions):
            calls["stack"] += 1
            return stack(sessions)

        def counting_rewind(session, length):
            calls["rewind"] += 1
            rewind(session, length)

        monkeypatch.setattr(DecoderSession, "extend_with_tokens", counting_extend)
        monkeypatch.setattr(DecoderSession, "stack", staticmethod(counting_stack))
        monkeypatch.setattr(DecoderSession, "rewind", counting_rewind)
        rows = sweep(rand_image, seg, REDUCTION_PROMPT, rand_cfg, rand_weights, betas, gammas,
                     params_for(max_tokens=max_tokens))
        assert len({tuple(r.output_ids) for r in rows}) == 1
        assert len(rows[0].output_ids) == max_tokens
        assert calls == {"step": (max_tokens - 1) * len(betas), "stack": len(betas),
                         "rewind": 0}
        # both branches of a beta read the prompt in one two-row forward
        assert prompt_rows == [2] * len(betas)

    @staticmethod
    def count_prefills(monkeypatch) -> list:
        calls = []
        init = DecoderSession.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DecoderSession, "__init__", counting_init)
        return calls

    def test_one_prefill_per_distinct_branch_input(self, monkeypatch, steer_cfg, steer_weights,
                                                   steer_image, left_seg):
        calls = self.count_prefills(monkeypatch)
        betas = [1.0, 3.0, 3.0, 10.0]
        p = params_for(max_tokens=3)
        rows = sweep(steer_image, left_seg, [0], steer_cfg, steer_weights, betas,
                     [0.0, 1.0, 1.5, 3.0], p)
        assert len(rows) == 16
        assert len(calls) == 1 + len(set(betas))

    def test_cells_validated_before_any_prefill(self, monkeypatch, steer_cfg, steer_weights,
                                                steer_image, left_seg):
        calls = self.count_prefills(monkeypatch)
        p = params_for(max_tokens=1)
        for betas, gammas in (([3.0, math.nan], [1.0]), ([3.0], [1.0, math.inf]),
                              ([3.0, 0.5], [1.0])):
            with pytest.raises(InputError):
                sweep(steer_image, left_seg, [0], steer_cfg, steer_weights, betas, gammas, p)
        for prompt in ([steer_cfg.vocab_size], [1.5]):
            with pytest.raises(InputError, match="token ids"):
                sweep(steer_image, left_seg, prompt, steer_cfg, steer_weights, [3.0], [1.0], p)
        assert calls == []


def with_prior(steer_weights: WeightSet, p: float) -> WeightSet:
    """steer-v1 with ``token_embed[0, 1] = p``: prompt token 0 carries a prior of strength p
    toward channel 1, which is token 3, while dark pixels are the evidence for token 2."""
    tensors = {name: t.copy() for name, t in steer_weights.tensors.items()}
    tensors["token_embed"][0, 1] = p
    return WeightSet(config=steer_weights.config, tensors=tensors)


def probe_images(side: int) -> tuple[np.ndarray, np.ndarray, SegMask, SegMask]:
    """The all-dark image, the image dark in its top-left quarter, and the masks of the
    whole image and of that quarter."""
    dark, quarter = np.zeros((side, side)), np.ones((side, side))
    quarter[: side // 2, : side // 2] = 0.0
    return dark, quarter, SegMask(np.ones((side, side), dtype=bool)), SegMask(quarter == 0.0)


def test_paper_claims_in_miniature(steer_cfg, steer_weights):
    """A text prior against the image's evidence (:func:`with_prior`).

    Where the evidence covers the image, contrast removes the prior-driven
    answer, VCD's claim (Leng et al., arXiv 2311.16922); where it covers a
    quarter, only the correction targeted at that quarter recovers it, the
    claim of region-guided decoding.
    """
    def emitted(p: float, image: np.ndarray, seg: SegMask | None, **strengths) -> int:
        if seg is not None:
            strengths = {"alpha": 0.01, "beta": 9.0, "gamma": 1.5, **strengths}
        params = GuidanceParams(max_tokens=1, **strengths)
        return decode(GrayImage(image), seg, [0], steer_cfg, with_prior(steer_weights, p),
                      params)[0][0]

    dark, quarter, whole, corner = probe_images(steer_cfg.image_side)
    # p, image, region: the id emitted with no region, the whole image and the region
    table = [
        (0, dark, whole, [2, 2, 2]), (0.5, dark, whole, [2, 2, 2]),
        (1, dark, whole, [3, 2, 2]), (2, dark, whole, [3, 2, 2]),
        (0, quarter, corner, [3, 3, 2]), (0.5, quarter, corner, [3, 3, 2]),
        (1, quarter, corner, [3, 3, 2]), (2, quarter, corner, [3, 3, 3]),
    ]
    for p, image, region, ids in table:
        assert [emitted(p, image, seg) for seg in (None, whole, region)] == ids, (p, ids)
    # the ablation: with no attention reweighting (beta 1) the quarter's evidence is
    # never recovered, attention alone (gamma 1) recovers it up to p = 0.5, and all
    # three levels (the table's region column) up to p = 1
    for p in (0, 0.5, 1, 2):
        assert emitted(p, quarter, corner, beta=1.0) == 3, p
        assert emitted(p, quarter, corner, gamma=1.0) == (2 if p <= 0.5 else 3), p
    # on the all-dark image at p = 2 only the three levels together recover token 2
    assert [emitted(2, dark, whole, beta=1.0), emitted(2, dark, whole, gamma=1.0)] == [3, 3]
    # the token level: cases where alpha decides, each the id emitted at alpha 1, 0.01 and
    # 0. The norm divides most of alpha's scale out of steer-v1's rows (rms 0.5) unless alpha
    # is near 0, and the last case, with no attention reweighting, recovers it only at alpha 0
    for p, image, region, strengths, ids in [
        (1.5, quarter, corner, {}, [3, 3, 2]),
        (3, quarter, corner, {"gamma": 3.0}, [3, 2, 2]),
        (2.5, dark, whole, {}, [3, 3, 2]),
        (0, quarter, corner, {"beta": 1.0, "gamma": 3.0}, [3, 3, 2]),
    ]:
        got = [emitted(p, image, region, alpha=alpha, **strengths) for alpha in (1.0, 0.01, 0.0)]
        assert got == ids, (p, strengths)


# the id emitted on the quarter-dark image with its quarter's mask at the default alpha and
# tau, by prior strength p: rows beta 1, 3, 9, 27, 81, columns gamma 1, 1.5, 2, 3, 5, 10
FRONTIER = {
    1: ["333333", "333322", "322222", "222222", "222222"],
    2: ["333333", "333332", "333222", "322222", "322222"],
    3: ["333333", "333332", "333222", "332222", "332222"],
    4: ["333333", "333333", "333322", "333222", "333222"],
}


def test_guidance_frontier(steer_cfg, steer_weights):
    """Where the guidance recovers the evidence (id 2) against a prior of strength p, mapped
    by one sweep per p: the recovering cells form an up-set in (beta, gamma), so raising
    either strength never loses the evidence, and beta 1 never recovers it."""
    _, quarter, _, corner = probe_images(steer_cfg.image_side)
    betas, gammas = [1.0, 3.0, 9.0, 27.0, 81.0], [1.0, 1.5, 2.0, 3.0, 5.0, 10.0]
    for p, pinned in FRONTIER.items():
        rows = sweep(GrayImage(quarter), corner, [0], steer_cfg, with_prior(steer_weights, p),
                     betas, gammas, GuidanceParams(max_tokens=1))
        ids = [row.output_ids for row in rows]
        grid = ["".join(str(i) for (i,) in ids[k : k + len(gammas)])
                for k in range(0, len(ids), len(gammas))]
        assert grid == pinned, p
        recovered = np.array([[c == "2" for c in line] for line in grid])
        assert not recovered[0].any(), p
        # an up-set: a cell that recovers it still does at a larger beta or gamma
        assert (recovered[:-1] <= recovered[1:]).all(), p
        assert (recovered[:, :-1] <= recovered[:, 1:]).all(), p
