import json
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from regioncd import (
    DecoderSession,
    GridSpec,
    GuidanceParams,
    InputError,
    SegMask,
    ShapeError,
    baseline_decode,
    decode,
    encode_image,
    fuse_logits,
    generate_token_mask,
    log_softmax,
    suppress_tokens,
    sweep,
    sweep_to_csv,
)

from regioncd.decoding import DEFAULT_TOPK
from regioncd.model import attention, region_bias

from conftest import half_seg
from test_model import steer_logits_by_hand

finite_scores = st.lists(
    st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=64
)


def params_for(cfg, **kw) -> GuidanceParams:
    base = dict(spec=cfg.grid(), max_tokens=8, eos_id=cfg.eos_id)
    base.update(kw)
    return GuidanceParams(**base)


class TestSuppressTokens:
    def test_alpha_one_is_identity(self, steer_cfg, steer_weights, steer_image, left_seg):
        visual = encode_image(steer_image, steer_cfg, steer_weights)
        mask = generate_token_mask(left_seg, steer_cfg.grid())
        out = suppress_tokens(visual, mask, 1.0)
        assert (out.embeddings == visual.embeddings).all()

    def test_zero_mask_is_identity(self, steer_cfg, steer_weights, steer_image):
        visual = encode_image(steer_image, steer_cfg, steer_weights)
        seg = SegMask(np.zeros((8, 8), dtype=np.uint8))
        mask = generate_token_mask(seg, steer_cfg.grid())
        out = suppress_tokens(visual, mask, 0.25)
        assert (out.embeddings == visual.embeddings).all()

    def test_scales_masked_rows(self, steer_cfg, steer_weights, steer_image, left_seg):
        visual = encode_image(steer_image, steer_cfg, steer_weights)
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
        visual = encode_image(steer_image, steer_cfg, steer_weights)
        seg = SegMask(np.zeros((12, 12), dtype=np.uint8))
        mask = generate_token_mask(seg, GridSpec(side=3))
        with pytest.raises(ShapeError):
            suppress_tokens(visual, mask, 0.5)


def reweight_attention(scores, mask, beta) -> np.ndarray:
    """One attention row through the model's kernel and region bias."""
    return attention(scores, region_bias(mask, beta))


class TestReweightAttention:
    def test_two_element_example(self):
        p = reweight_attention(np.array([0.0, 0.0]), np.array([1, 0]), 3.0)
        assert np.abs(p - np.array([0.75, 0.25])).max() < 1e-15

    def test_beta_one_equals_softmax(self):
        rng = np.random.default_rng(8)
        e = rng.uniform(-20, 20, size=33)
        m = rng.integers(0, 2, size=33)
        p = reweight_attention(e, m, 1.0)
        assert np.abs(p - scipy.special.softmax(e)).max() < 1e-7

    def test_full_mask_equals_softmax(self):
        rng = np.random.default_rng(9)
        e = rng.uniform(-20, 20, size=17)
        p = reweight_attention(e, np.ones(17), 6.0)
        assert np.abs(p - scipy.special.softmax(e)).max() < 1e-7

    def test_rejects_bad_beta(self):
        for beta in (0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(InputError):
                region_bias(np.array([1, 0]), beta)

    @settings(max_examples=80, deadline=None)
    @given(scores=finite_scores, beta=st.sampled_from([1.0, 2.0, 3.0, 5.0, 10.0]),
           seed=st.integers(0, 2**31))
    def test_matches_longdouble_oracle(self, scores, beta, seed):
        e = np.array(scores)
        m = np.random.default_rng(seed).integers(0, 2, size=len(scores))
        p = reweight_attention(e, m, beta)
        ld = np.longdouble
        w = np.where(m != 0, ld(beta), ld(1.0)) * np.exp(e.astype(ld))
        oracle = (w / w.sum()).astype(np.float64)
        assert np.abs(p - oracle).max() < 1e-6
        assert abs(float(p.sum()) - 1.0) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        scores=st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=2, max_size=48),
        mask_seed=st.integers(0, 2**31),
    )
    def test_masked_mass_increases_with_beta(self, scores, mask_seed):
        e = np.array(scores)
        rng = np.random.default_rng(mask_seed)
        m = np.zeros(len(e), dtype=np.int64)
        m[rng.choice(len(e), size=int(rng.integers(1, len(e))), replace=False)] = 1
        masses = [
            float(reweight_attention(e, m, beta)[m != 0].sum())
            for beta in (1.0, 2.0, 3.0, 5.0, 10.0)
        ]
        assert all(b > a for a, b in zip(masses, masses[1:]))


class TestFuseLogits:
    def test_gamma_one_returns_guided_bits(self):
        rng = np.random.default_rng(4)
        g = log_softmax(rng.uniform(-3, 3, size=12))
        u = log_softmax(rng.uniform(-3, 3, size=12))
        assert (fuse_logits(g, u, 1.0) == g).all()

    def test_identical_branches_fixpoint(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-9, 0, size=16)
            gamma = float(rng.uniform(0, 3))
            assert np.abs(fuse_logits(x, x, gamma) - x).max() < 1e-9

    def test_spot_value(self):
        assert fuse_logits(np.array([-1.0]), np.array([-2.0]), 1.5)[0] == pytest.approx(-0.5)

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


class TestDecode:
    def test_reduces_to_baseline(self, rand_cfg, rand_weights, rand_image):
        base, _ = baseline_decode(rand_image, [1, 2, 3], rand_cfg, rand_weights, max_tokens=8)
        seg = half_seg(rand_cfg.image_side, rand_cfg.image_side, "left")
        for gamma in (0.0, 0.5, 1.0, 1.5):
            p = params_for(rand_cfg, alpha=1.0, beta=1.0, gamma=gamma)
            ids, trace = decode(rand_image, seg, [1, 2, 3], rand_cfg, rand_weights, p,
                                topk=rand_cfg.vocab_size)
            assert ids == base
            for step in trace.steps:
                fused = dict(step.fused_topk)
                for branch in (step.guided_topk, step.unguided_topk):
                    assert max(abs(fused[i] - v) for i, v in branch) < 1e-6

    def test_neutral_mask_reduces_to_baseline(self, rand_cfg, rand_weights, rand_image):
        base, _ = baseline_decode(rand_image, [1, 2, 3], rand_cfg, rand_weights, max_tokens=8)
        seg = SegMask(np.zeros((16, 16), dtype=np.uint8))
        p = params_for(rand_cfg, alpha=0.01, beta=5.0, gamma=1.5)
        ids, _ = decode(rand_image, seg, [1, 2, 3], rand_cfg, rand_weights, p)
        assert ids == base

    def test_steer_fixture_left_right(self, steer_cfg, steer_weights, steer_image,
                                      left_seg, right_seg):
        p = params_for(steer_cfg, alpha=0.01, beta=9.0, gamma=1.5, max_tokens=1)
        ids, _ = decode(steer_image, left_seg, [0], steer_cfg, steer_weights, p)
        assert ids == [2]
        ids, _ = decode(steer_image, right_seg, [0], steer_cfg, steer_weights, p)
        assert ids == [3]

    def test_steer_tie_breaks_to_lowest_id(self, steer_cfg, steer_weights, steer_image, left_seg):
        p = params_for(steer_cfg, alpha=1.0, beta=1.0, gamma=1.0, max_tokens=1)
        ids, trace = decode(steer_image, left_seg, [0], steer_cfg, steer_weights, p,
                            topk=steer_cfg.vocab_size)
        fused = dict(trace.steps[0].fused_topk)
        assert fused[2] == fused[3]
        assert fused[2] > fused[0]
        assert ids == [2]

    def test_steer_fused_scores_match_hand_evaluation(
        self, steer_cfg, steer_weights, steer_image, left_seg
    ):
        alpha, beta, gamma = 0.01, 9.0, 1.5
        p = params_for(steer_cfg, alpha=alpha, beta=beta, gamma=gamma, max_tokens=1)
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

    def test_eos_terminates_and_is_kept(self, steer_cfg, steer_weights, steer_image, left_seg):
        p = params_for(steer_cfg, alpha=0.01, beta=9.0, gamma=1.5, max_tokens=5, eos_id=2)
        ids, trace = decode(steer_image, left_seg, [0], steer_cfg, steer_weights, p)
        assert ids == [2]
        assert len(trace.steps) == 1

    def test_trace_structure(self, rand_cfg, rand_weights, rand_image):
        seg = half_seg(16, 16, "left")
        p = params_for(rand_cfg, max_tokens=4)
        ids, trace = decode(rand_image, seg, [1], rand_cfg, rand_weights, p, topk=3)
        header, *records = map(json.loads, trace.to_jsonl().splitlines())
        assert set(header) == {"mode", "params", "config", "fixture_digest", "mask_digest",
                               "topk"}
        assert header["mode"] == "guided" and header["topk"] == 3
        assert header["params"]["alpha"] == 0.01
        assert header["params"]["beta"] == 5.0
        assert header["params"]["gamma"] == 1.5
        assert len(header["fixture_digest"]) == 64
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
        p = params_for(rand_cfg, max_tokens=4)
        _, t1 = decode(rand_image, seg, [1], rand_cfg, rand_weights, p)
        _, t2 = decode(rand_image, seg, [1], rand_cfg, rand_weights, p)
        assert t1.to_jsonl().encode() == t2.to_jsonl().encode()

    def test_sampling_is_seed_reproducible(self, rand_cfg, rand_weights, rand_image):
        seg = half_seg(16, 16, "left")
        p = params_for(rand_cfg, max_tokens=6)
        a, _ = decode(rand_image, seg, [1], rand_cfg, rand_weights, p, sample=True,
                      temperature=2.0, seed=123)
        b, _ = decode(rand_image, seg, [1], rand_cfg, rand_weights, p, sample=True,
                      temperature=2.0, seed=123)
        assert a == b

    def test_validation_errors(self, rand_cfg, rand_weights, rand_image, steer_cfg):
        seg = half_seg(16, 16, "left")
        with pytest.raises(InputError):
            decode(rand_image, seg, [], rand_cfg, rand_weights, params_for(rand_cfg))
        with pytest.raises(InputError):
            decode(rand_image, seg, [1], rand_cfg, rand_weights,
                   params_for(rand_cfg, spec=steer_cfg.grid()))
        with pytest.raises(InputError):
            decode(rand_image, seg, [1], rand_cfg, rand_weights,
                   params_for(rand_cfg, max_tokens=100))


class TestSweep:
    def test_neutral_grid_matches_baseline(self, steer_cfg, steer_weights, steer_image, left_seg):
        base, _ = baseline_decode(steer_image, [0], steer_cfg, steer_weights, max_tokens=1)
        p = params_for(steer_cfg, alpha=1.0, max_tokens=1)
        rows = sweep(steer_image, left_seg, [0], steer_cfg, steer_weights, [1.0], [1.0], p)
        assert len(rows) == 1
        assert rows[0].output_ids == base

    def test_beta_major_order_and_duplicates(self, steer_cfg, steer_weights, steer_image,
                                             left_seg):
        p = params_for(steer_cfg, max_tokens=1)
        rows = sweep(steer_image, left_seg, [0], steer_cfg, steer_weights,
                     [1.0, 3.0, 3.0], [1.1, 1.3], p)
        assert [(r.beta, r.gamma) for r in rows] == [
            (1.0, 1.1), (1.0, 1.3), (3.0, 1.1), (3.0, 1.3), (3.0, 1.1), (3.0, 1.3)
        ]
        # duplicated beta value reproduces identical rows
        assert rows[2].output_ids == rows[4].output_ids
        assert rows[2].step1_margin == rows[4].step1_margin

    def test_margin_monotone_in_beta(self, steer_cfg, steer_weights, steer_image, left_seg):
        p = params_for(steer_cfg, max_tokens=1)
        rows = sweep(steer_image, left_seg, [0], steer_cfg, steer_weights,
                     [1.0, 3.0, 5.0, 10.0], [1.3], p)
        margins = [r.step1_margin for r in rows]
        assert all(b >= a for a, b in zip(margins, margins[1:]))

    def test_csv_format(self, steer_cfg, steer_weights, steer_image, left_seg):
        p = params_for(steer_cfg, max_tokens=1)
        rows = sweep(steer_image, left_seg, [0], steer_cfg, steer_weights, [1.0], [1.0], p)
        text = sweep_to_csv(rows)
        lines = text.split("\n")
        assert lines[0] == "beta,gamma,output_ids,step1_margin"
        assert lines[1].startswith("1.0,1.0,")
        assert text.endswith("\n")
        assert "\r" not in text

    def test_empty_lists_rejected(self, steer_cfg, steer_weights, steer_image, left_seg):
        p = params_for(steer_cfg, max_tokens=1)
        with pytest.raises(InputError):
            sweep(steer_image, left_seg, [0], steer_cfg, steer_weights, [], [1.0], p)

    def test_rows_match_standalone_decodes(self, steer_cfg, steer_weights, steer_image,
                                           left_seg):
        betas, gammas = [1.0, 3.0, 3.0, 10.0], [0.0, 1.0, 1.5, 3.0]
        p = params_for(steer_cfg, max_tokens=3)
        rows = sweep(steer_image, left_seg, [0], steer_cfg, steer_weights, betas, gammas, p)
        assert [(r.beta, r.gamma) for r in rows] == [(b, g) for b in betas for g in gammas]
        for row in rows:
            cell = params_for(steer_cfg, max_tokens=3, beta=row.beta, gamma=row.gamma)
            ids, trace = decode(steer_image, left_seg, [0], steer_cfg, steer_weights, cell,
                                topk=DEFAULT_TOPK)
            fused = trace.steps[0].fused_topk
            assert row.output_ids == ids
            assert row.step1_margin == fused[0][1] - fused[1][1]
        # stacks of one prompt-extended pair must diverge for the check above to bite
        assert len({tuple(r.output_ids) for r in rows}) >= 2

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
        p = params_for(steer_cfg, max_tokens=3)
        rows = sweep(steer_image, left_seg, [0], steer_cfg, steer_weights, betas,
                     [0.0, 1.0, 1.5, 3.0], p)
        assert len(rows) == 16
        assert len(calls) == 1 + len(set(betas))

    def test_cells_validated_before_any_prefill(self, monkeypatch, steer_cfg, steer_weights,
                                                steer_image, left_seg):
        calls = self.count_prefills(monkeypatch)
        p = params_for(steer_cfg, max_tokens=1)
        for betas, gammas in (([3.0, math.nan], [1.0]), ([3.0], [1.0, math.inf]),
                              ([3.0, 0.5], [1.0])):
            with pytest.raises(InputError):
                sweep(steer_image, left_seg, [0], steer_cfg, steer_weights, betas, gammas, p)
        assert calls == []
