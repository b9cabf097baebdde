import json
import math
from dataclasses import replace

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
    gen_fixture,
    generate_token_mask,
    log_softmax,
    suppress_tokens,
    sweep,
    sweep_to_csv,
)

from regioncd.decoding import DEFAULT_TOPK
from regioncd.model import region_bias
from regioncd.verification import REDUCTION_PROMPT, _reweighted as reweight_attention

from conftest import forward_logits, half_seg
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

    def test_eos_terminates_and_is_kept(self, steer_cfg, steer_image, left_seg):
        cfg = replace(steer_cfg, eos_id=2)
        p = params_for(cfg, alpha=0.01, beta=9.0, gamma=1.5, max_tokens=5)
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
        assert baseline_decode(steer_image, [0], cfg, w, 5)[0] == want
        assert decode(steer_image, left_seg, [0], cfg, w,
                      replace(p, spec=cfg.grid(), eos_id=eos_id))[0] == want
        for given in ({"eos_id": 3 - eos_id}, {"spec": GridSpec(side=1)}):
            with pytest.raises(InputError, match="model's"):
                decode(steer_image, left_seg, [0], cfg, w, replace(p, **given))

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


def reference_greedy(img, seg, prompt, cfg, w, params) -> tuple[list[int], list[np.ndarray]]:
    """Greedy guided decode with no KV cache: ids and each step's fused scores.

    Every step builds fresh guided and unguided sessions over ``prompt + ids``
    and fuses their log-probabilities by the paper's formula, so it shares no
    session, stacking or cell handling with the decode engine.
    """
    mask = generate_token_mask(seg, params.spec, params.tau)
    visual = encode_image(img, cfg, w)
    suppressed = suppress_tokens(visual, mask, params.alpha)
    ids, scores = [], []
    for _ in range(params.max_tokens):
        text = prompt + ids
        g = scipy.special.log_softmax(
            forward_logits(visual, text, cfg, w, attn_policy=(mask.values, params.beta)))
        u = scipy.special.log_softmax(forward_logits(suppressed, text, cfg, w))
        scores.append((1.0 - params.gamma) * u + params.gamma * g)
        ids.append(int(np.argmax(scores[-1])))
        if ids[-1] == params.eos_id:
            break
    return ids, scores


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
    def worst_reference_gap(args, rows, max_tokens) -> float:
        """Check each row against a standalone decode and :func:`reference_greedy`.

        Ids must agree exactly, and the row's margin must equal the decode's;
        returns the largest gap of any fused score or margin to the reference.
        """
        worst = 0.0
        for row in rows:
            cell = params_for(args[3], max_tokens=max_tokens, beta=row.beta, gamma=row.gamma)
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
        p = params_for(rand_cfg, max_tokens=8)
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
        rows = sweep(*args, betas, gammas, params_for(rand_cfg, max_tokens=12))
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
        extend, stack, rewind = (DecoderSession.extend_with_tokens, DecoderSession.stack,
                                 DecoderSession.rewind)

        def counting_extend(session, ids):
            calls["step"] += len(ids) == 1
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
                     params_for(rand_cfg, max_tokens=max_tokens))
        assert len({tuple(r.output_ids) for r in rows}) == 1
        assert len(rows[0].output_ids) == max_tokens
        assert calls == {"step": (max_tokens - 1) * len(betas), "stack": len(betas),
                         "rewind": 0}

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
