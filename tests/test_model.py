import json
import math
from dataclasses import replace

import numpy as np
import pytest

from regioncd import model
from regioncd.config import GuidanceParams, ModelConfig
from regioncd.decoding import decode, suppress_tokens
from regioncd.errors import FormatError, InputError, NumericError
from regioncd.masks import (
    BBox, GridSpec, SegMask, expected_length, generate_token_mask, segment_labels,
    token_mask_from_json, token_mask_to_json,
)
from regioncd.model import (
    NORM_EPS, DecoderSession, GrayImage, VisualSequence, _gelu, _rms_norm, attention,
    encode_image,
)
from regioncd.verification import half_seg
from regioncd.weights import (
    _GAMMA64, _MASK64, _MIX1, _MIX2, RANDOM_INIT_HI, RANDOM_INIT_LO, STEER_CONFIG, WeightSet,
    gen_fixture, load_weights, save_weights, tensor_spec,
)

from conftest import forward_logits, recorded_attention, steer_logits_by_hand


def splitmix64(seed: int):
    """Yield the splitmix64 sequence for ``seed``, one step at a time in pure integer math.

    The reference for ``regioncd.weights._splitmix64_outputs``, which computes
    the same values for a whole range of steps at once.
    """
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA64) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        yield z ^ (z >> 31)


def with_tensors(w: WeightSet, **replacements) -> WeightSet:
    tensors = {name: t.copy() for name, t in w.tensors.items()}
    for name, value in replacements.items():
        tensors[name.replace("__", ".")] = value.astype(np.float32)
    return WeightSet(config=w.config, tensors=tensors)


class TestSteerClosedForm:
    @pytest.mark.parametrize("beta", [1.0, 3.0, 9.0])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_guided_logits_match_hand_evaluation(
        self, beta, side, steer_cfg, steer_weights, steer_image
    ):
        seg = half_seg(steer_cfg.image_side, steer_cfg.image_side, side)
        mask = generate_token_mask(seg, steer_cfg.grid())
        visual = encode_image(steer_image, steer_weights)
        logits = forward_logits(
            visual, [0], steer_cfg, steer_weights, attn_policy=(mask.values, beta)
        )
        expected = steer_logits_by_hand(beta, side)
        assert np.abs(logits - np.array(expected)).max() < 1e-9

    def test_suppressed_unguided_logits_match_hand_evaluation(
        self, steer_cfg, steer_weights, steer_image, left_seg
    ):
        mask = generate_token_mask(left_seg, steer_cfg.grid())
        visual = suppress_tokens(encode_image(steer_image, steer_weights), mask, 0.01)
        logits = forward_logits(visual, [0], steer_cfg, steer_weights)
        expected = steer_logits_by_hand(1.0, "left", alpha=0.01)
        assert np.abs(logits - np.array(expected)).max() < 1e-9

    def test_answer_row_attention_weights(self, steer_cfg, steer_weights, steer_image, left_seg):
        # k masked keys at weight beta/(beta*k + u) each, u unmasked at 1/(beta*k + u)
        beta = 9.0
        mask = generate_token_mask(left_seg, steer_cfg.grid())
        visual = encode_image(steer_image, steer_weights)
        with recorded_attention() as recorded:
            session = DecoderSession(
                steer_cfg, steer_weights, visual, attn_policy=(mask.values, beta),
            )
            session.extend_with_tokens([0])
        assert len(recorded) == 1  # the answer row's: a 1-layer prefill runs no attention
        assert recorded[0].shape == (1, 1, 1, len(visual) + 1)
        probs = recorded[0][0, 0, 0]
        k = int(mask.values.sum())
        u = len(visual) + 1 - k
        expect = np.where(np.append(mask.values, 0) != 0, beta, 1.0) / (beta * k + u)
        assert np.abs(probs - expect).max() < 1e-12


    def test_huge_beta_keeps_attention_rows_finite(
        self, steer_cfg, steer_weights, steer_image, left_seg
    ):
        # beta * exp(e) overflows at beta = 1e308; e + log(beta) does not
        mask = generate_token_mask(left_seg, steer_cfg.grid())
        visual = encode_image(steer_image, steer_weights)
        with recorded_attention() as recorded:
            session = DecoderSession(steer_cfg, steer_weights, visual,
                                     attn_policy=(mask.values, 1e308))
            session.extend_with_tokens([0])
        for probs in recorded:
            assert np.isfinite(probs).all()
            assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-12
        params = GuidanceParams(beta=1e308, max_tokens=1)
        ids, _ = decode(steer_image, left_seg, [0], steer_cfg, steer_weights, params)
        assert ids == [2]


class TestEncoder:
    def test_output_length_and_layout(self, rand_cfg, rand_weights, rand_image):
        visual = encode_image(rand_image, rand_weights)
        assert len(visual) == expected_length(rand_cfg.grid())
        assert visual.embeddings.shape == (len(visual), rand_cfg.embed_dim)
        # an int array or a list is cast to float64; a float64 array is kept as it is
        assert VisualSequence([[1, 2]]).embeddings.dtype == np.float64
        assert VisualSequence(visual.embeddings).embeddings is visual.embeddings

    @pytest.mark.parametrize(
        "cfg",
        [
            ModelConfig(vocab_size=4, embed_dim=8, n_heads=2, n_layers=1, feature_side=2,
                        image_side=8, max_seq=32),
            ModelConfig(vocab_size=4, embed_dim=8, n_heads=1, n_layers=1, feature_side=3,
                        crop_rows=2, crop_cols=2, image_side=12, max_seq=64),
        ],
    )
    def test_length_for_other_grids(self, cfg):
        w = gen_fixture("random-v1", 1, cfg)
        img = GrayImage(np.zeros((cfg.image_side, cfg.image_side)))
        assert len(encode_image(img, w)) == expected_length(cfg.grid())

    def test_zero_projection_leaves_positional_only(self, rand_cfg, rand_weights):
        w = with_tensors(
            rand_weights,
            patch_proj__weight=np.zeros((rand_cfg.embed_dim, 1)),
            patch_proj__bias=np.zeros(rand_cfg.embed_dim),
        )
        img = GrayImage(np.zeros((rand_cfg.image_side, rand_cfg.image_side)))
        visual = encode_image(img, w)
        pos = w.tensors["pos_embed"].astype(np.float64)
        for i, label in enumerate(segment_labels(rand_cfg.grid())):
            if not label.endswith("_sep"):
                assert (visual.embeddings[i] == pos[i]).all()

    def test_single_patch_locality(self, rand_cfg, rand_weights):
        side = rand_cfg.image_side
        base = np.zeros((side, side))
        changed = base.copy()
        changed[0:4, 0:4] = 1.0  # exactly the first 4x4 patch block
        va = encode_image(GrayImage(base), rand_weights)
        vb = encode_image(GrayImage(changed), rand_weights)
        diff = np.where(np.any(va.embeddings != vb.embeddings, axis=1))[0].tolist()
        local_len = rand_cfg.feature_side * (rand_cfg.feature_side + 1)
        assert diff == [0, local_len + 1]  # local cell (0,0) and global cell (0,0)

    @pytest.mark.parametrize("crops", [(1, 1), (2, 4)])
    def test_matches_label_walk_reference(self, rand_image, crops):
        # the encoder's earlier position-by-position walk over the segment labels
        cfg = ModelConfig(vocab_size=4, embed_dim=8, n_heads=2, n_layers=1, feature_side=2,
                          crop_rows=crops[0], crop_cols=crops[1], image_side=16, max_seq=96)
        w = gen_fixture("random-v1", 5, cfg)
        t, spec, px = w.tensors64, cfg.grid(), rand_image.intensities
        local = iter(px.reshape(spec.local_rows, -1, spec.local_cols, px.shape[1] // spec.local_cols)
                     .mean(axis=(1, 3)).ravel())
        global_ = iter(px.reshape(spec.side, -1, spec.side, px.shape[1] // spec.side)
                       .mean(axis=(1, 3)).ravel())
        proj, bias = t["patch_proj.weight"][:, 0], t["patch_proj.bias"]
        want = []
        for i, label in enumerate(segment_labels(spec)):
            if label in ("local", "global"):
                mean = next(local if label == "local" else global_)
                want.append(mean * proj + bias + t["pos_embed"][i])
            else:
                want.append(t["sep_embed"] + t["pos_embed"][i])
        assert (encode_image(rand_image, w).embeddings == np.array(want)).all()

    @pytest.mark.parametrize("side, crops", [(3, (2, 2)), (2, (2, 3))])
    def test_block_change_moves_exactly_the_masked_rows(self, side, crops):
        # the encoder and the token mask share one layout: brightening one local
        # pixel block moves exactly the rows where a region over that block is 1
        cfg = ModelConfig(vocab_size=4, embed_dim=8, n_heads=1, n_layers=1, feature_side=side,
                          crop_rows=crops[0], crop_cols=crops[1], image_side=12, max_seq=64)
        spec = cfg.grid()
        w = gen_fixture("random-v1", 2, cfg)
        base = np.zeros((cfg.image_side, cfg.image_side))
        va = encode_image(GrayImage(base), w)
        bh, bw = cfg.image_side // spec.local_rows, cfg.image_side // spec.local_cols
        for r in range(spec.local_rows):
            for c in range(spec.local_cols):
                block = base.copy()
                block[r * bh : (r + 1) * bh, c * bw : (c + 1) * bw] = 1.0
                vb = encode_image(GrayImage(block), w)
                moved = np.any(va.embeddings != vb.embeddings, axis=1)
                mask = generate_token_mask(SegMask(block), spec)
                assert mask.values.sum() == 2
                assert (moved == (mask.values == 1)).all()

    def test_image_checks(self):
        img = GrayImage(np.array([[0, 1, 0], [1, 1, 0]], dtype=np.uint8))
        assert (img.width, img.height) == (3, 2)
        assert img.intensities.dtype == np.float64
        # (its ndim, empty, dtype and ragged cases are rows of test_array_rule)
        for bad in ([[1.5]], [[-0.1]], [[0.5, np.nan]], np.full((1, 1), 255, dtype=np.uint8)):
            with pytest.raises(InputError, match=r"\[0, 1\]"):
                GrayImage(bad)


class TestForwardPass:
    def test_deterministic_bits(self, rand_cfg, rand_weights, rand_image):
        visual = encode_image(rand_image, rand_weights)
        a = forward_logits(visual, [1, 2, 3], rand_cfg, rand_weights)
        b = forward_logits(visual, [1, 2, 3], rand_cfg, rand_weights)
        assert (a == b).all()

    def test_incremental_matches_one_shot(self, rand_cfg, rand_weights, rand_image):
        visual = encode_image(rand_image, rand_weights)
        one_shot = forward_logits(visual, [1, 2, 3, 4], rand_cfg, rand_weights)
        session = DecoderSession(rand_cfg, rand_weights, visual)
        for t in [1, 2, 3]:
            session.extend_with_tokens([t])
        incremental = session.extend_with_tokens([4])
        # block vs row-at-a-time matmuls reassociate sums; agreement is
        # to the last few ulps, not bitwise
        assert np.abs(one_shot - incremental).max() < 1e-12

    def test_neutral_policy_is_bit_identical(self, rand_cfg, rand_weights, rand_image):
        visual = encode_image(rand_image, rand_weights)
        n = len(visual)
        plain = forward_logits(visual, [5, 6], rand_cfg, rand_weights)
        rng = np.random.default_rng(1)
        any_mask = rng.integers(0, 2, size=n).astype(np.uint8)
        beta_one = forward_logits(
            visual, [5, 6], rand_cfg, rand_weights, attn_policy=(any_mask, 1.0)
        )
        zero_mask = forward_logits(
            visual, [5, 6], rand_cfg, rand_weights,
            attn_policy=(np.zeros(n, dtype=np.uint8), 7.0),
        )
        assert (plain == beta_one).all()
        assert (plain == zero_mask).all()

    def test_uniform_rows_under_zero_projections(self, steer_cfg, steer_weights, steer_image):
        # query/key projections are zero in the steering fixture
        beta = 4.0
        n = steer_cfg.n_visual
        mask = np.zeros(n, dtype=np.uint8)
        mask[:5] = 1
        visual = encode_image(steer_image, steer_weights)
        with recorded_attention() as recorded:
            session = DecoderSession(steer_cfg, steer_weights, visual, attn_policy=(mask, beta))
            session.extend_with_tokens([0, 2])
        factors = np.append(np.where(mask != 0, beta, 1.0), [1.0, 1.0])
        for probs in recorded:
            _, heads, b, total = probs.shape
            for i in range(b):
                # the prefill's keys are the visual prefix, which every visual query sees
                visible = total if total == n else total - b + i + 1
                expect = factors[:visible] / factors[:visible].sum()
                for h in range(heads):
                    assert np.abs(probs[0, h, i, :visible] - expect).max() < 1e-12
                    assert probs[0, h, i, visible:].sum() == 0.0

    def test_rows_sum_to_one(self, rand_cfg, rand_weights, rand_image):
        visual = encode_image(rand_image, rand_weights)
        mask = np.zeros(len(visual), dtype=np.uint8)
        mask[::3] = 1
        with recorded_attention() as recorded:
            session = DecoderSession(rand_cfg, rand_weights, visual, attn_policy=(mask, 5.0))
            session.extend_with_tokens([1, 2, 3])
        for probs in recorded:
            sums = probs.sum(axis=-1)
            assert np.abs(sums - 1.0).max() < 1e-6

    def test_text_perturbation_preserves_earlier_rows(self, rand_cfg, rand_weights, rand_image):
        visual = encode_image(rand_image, rand_weights)

        def attention_rows(tokens):
            with recorded_attention() as recorded:
                DecoderSession(rand_cfg, rand_weights, visual).extend_with_tokens(tokens)
            return recorded

        rows_a = attention_rows([1, 2, 3, 4])
        rows_b = attention_rows([1, 2, 3, 9])
        changed_at = len(visual) + 3
        for pa, pb in zip(rows_a, rows_b):
            assert pa.shape == pb.shape
            _, _, b, total = pa.shape
            for i in range(b):
                if total - b + i < changed_at:
                    assert (pa[:, :, i] == pb[:, :, i]).all()

    def test_length_overflow(self, rand_cfg, rand_weights, rand_image):
        visual = encode_image(rand_image, rand_weights)
        room = rand_cfg.max_seq - len(visual)
        with pytest.raises(InputError):
            forward_logits(visual, [1] * (room + 1), rand_cfg, rand_weights)

    def test_bad_token_id(self, rand_cfg, rand_weights, rand_image):
        visual = encode_image(rand_image, rand_weights)
        # a float or a boolean id is rejected, not truncated or read as id 1
        for bad in (rand_cfg.vocab_size, 1.7, True, np.float64(1.2)):
            with pytest.raises(InputError):
                forward_logits(visual, [bad], rand_cfg, rand_weights)

    def test_config_mismatch(self, rand_cfg, rand_weights, steer_cfg, rand_image):
        visual = encode_image(rand_image, rand_weights)
        with pytest.raises(InputError):
            DecoderSession(steer_cfg, rand_weights, visual)

    def test_rejects_misshapen_inputs(self, rand_cfg, rand_weights, rand_image):
        # (the shapes of the embeddings and of the policy mask are rows of test_array_rule)
        visual = encode_image(rand_image, rand_weights)
        session = DecoderSession(rand_cfg, rand_weights, visual)
        with pytest.raises(InputError):
            session.extend_with_tokens([])

    def test_nonfinite_cache_is_numeric_error(self, rand_cfg, rand_weights, rand_image):
        # the prefill computes no logits, so the first extend is where a NaN it wrote shows
        session = DecoderSession(rand_cfg, rand_weights, encode_image(rand_image, rand_weights))
        session._kv[0, 1, ..., 0, :] = np.nan
        with pytest.raises(NumericError):
            session.extend_with_tokens([1])

    @pytest.mark.parametrize("beta", [0.5, math.nan, math.inf])
    def test_policy_rejects_bad_beta(self, rand_cfg, rand_weights, rand_image, beta):
        visual = encode_image(rand_image, rand_weights)
        mask = np.ones(len(visual), dtype=np.uint8)
        with pytest.raises(InputError):
            DecoderSession(rand_cfg, rand_weights, visual, attn_policy=(mask, beta))

    def test_sessions_share_one_float64_cast(self, rand_cfg, rand_image):
        w = gen_fixture("random-v1", 3, rand_cfg)
        visual = encode_image(rand_image, w)
        a = DecoderSession(rand_cfg, w, visual)
        b = DecoderSession(rand_cfg, w, visual, attn_policy=(np.ones(len(visual)), 2.0))
        stacked = DecoderSession.stack([a, b])
        for name, t in w.tensors.items():
            shared = w.tensors64[name]
            assert shared.dtype == np.float64 and not shared.flags.writeable
            assert (shared == t).all()
            assert a._t[name] is shared and b._t[name] is shared and stacked._t[name] is shared


def rms_norm_expr(x, gain, bias):
    """RMSNorm written out as one expression, the reference for ``model._rms_norm``."""
    return x / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + NORM_EPS) * gain + bias


def gelu_expr(x):
    """The tanh GELU written out as one expression, the reference for ``model._gelu``."""
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))


class TokenMajorReference:
    """The forward pass in its earlier token-major formulation, as a reference.

    Keys and values are ``(tokens, heads, head_dim)`` arrays grown by
    ``np.concatenate`` on every block, and the scores and the context are
    ``np.einsum`` contractions. The softmax, the norms and the feed-forward
    are written out as expressions, out of place, so nothing here runs the
    model's in-place kernels.
    """

    def __init__(self, cfg, w, visual, attn_policy=None):
        self.cfg, self.t = cfg, w.tensors64
        self.bias = np.zeros(cfg.max_seq)
        if attn_policy is not None:
            mask, beta = attn_policy
            self.bias[: len(visual)] = np.where(np.asarray(mask) != 0, math.log(beta), 0.0)
        self.kv = [None] * cfg.n_layers
        self.length = 0
        self.attention_rows = []
        self._block(visual.embeddings, bidirectional=True)

    def extend_with_tokens(self, ids):
        pos = self.t["pos_embed"][self.length : self.length + len(ids)]
        return self._block(self.t["token_embed"][ids] + pos, bidirectional=False)

    def _block(self, emb, bidirectional):
        cfg, t = self.cfg, self.t
        b, start = emb.shape[0], self.length
        total = start + b
        if bidirectional:
            visible = np.ones((b, total), dtype=bool)
        else:
            visible = np.arange(total)[None, :] <= (start + np.arange(b))[:, None]
        bias = np.where(visible, self.bias[:total], -np.inf)[:, None, :]
        h = emb
        for li in range(cfg.n_layers):
            p = f"layers.{li}."
            xn = rms_norm_expr(h, t[p + "attn_norm.gain"], t[p + "attn_norm.bias"])
            q, k, v = ((xn @ t[p + f"attn.w{c}"]).reshape(b, cfg.n_heads, cfg.head_dim)
                       for c in "qkv")
            if self.kv[li] is not None:
                k = np.concatenate([self.kv[li][0], k], axis=0)
                v = np.concatenate([self.kv[li][1], v], axis=0)
            self.kv[li] = (k, v)
            s = np.einsum("bhd,thd->bht", q, k) * (1.0 / math.sqrt(cfg.head_dim)) + bias
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            probs = e / e.sum(axis=-1, keepdims=True)
            self.attention_rows.append((li, start, probs))
            ctx = np.einsum("bht,thd->bhd", probs, v).reshape(b, cfg.embed_dim)
            h = h + ctx @ t[p + "attn.wo"]
            xn = rms_norm_expr(h, t[p + "ffn_norm.gain"], t[p + "ffn_norm.bias"])
            h = h + gelu_expr(xn @ t[p + "ffn.w1"] + t[p + "ffn.b1"]) @ t[p + "ffn.w2"] + t[
                p + "ffn.b2"]
        self.length = total
        return rms_norm_expr(h[-1], t["final_norm.gain"], t["final_norm.bias"]) @ t["head.weight"]


def tiled_inputs():
    """Config, weights and image of a 199-token visual prefix: three full query tiles and 7 rows."""
    cfg = ModelConfig(vocab_size=16, embed_dim=32, n_heads=4, n_layers=2, feature_side=6,
                      crop_rows=2, crop_cols=2, image_side=12, max_seq=256)
    img = GrayImage(np.random.default_rng(3).random((12, 12)))
    return cfg, gen_fixture("random-v1", 11, cfg), img


def long_prompt_inputs():
    """Config, weights and image of a 13-token visual prefix with room for a 100-token prompt."""
    cfg = ModelConfig(vocab_size=16, embed_dim=32, n_heads=4, n_layers=2, feature_side=2,
                      image_side=8, max_seq=128)
    img = GrayImage(np.random.default_rng(5).random((8, 8)))
    return cfg, gen_fixture("random-v1", 13, cfg), img


class TestHeadMajorCache:
    @pytest.mark.parametrize("beta, layout", [
        pytest.param(None, None, id="None"),
        pytest.param(5.0, None, id="5.0"),
        pytest.param(None, "tiled", id="tiled-None"),
        pytest.param(5.0, "tiled", id="tiled-5.0"),
        pytest.param(None, "long-prompt", id="long-prompt-None"),
        pytest.param(5.0, "long-prompt", id="long-prompt-5.0"),
    ])
    def test_matches_token_major_reference(self, rand_cfg, rand_weights, rand_image, beta,
                                           layout):
        # BLAS GEMMs sum in another order than einsum: agreement to ulps, not bits
        cfg, w, img = (rand_cfg, rand_weights, rand_image)
        prompt = [1, 2, 3]
        if layout == "tiled":  # a visual prefix of several query tiles
            cfg, w, img = tiled_inputs()
        elif layout == "long-prompt":  # a text block of several query tiles, under a causal mask
            cfg, w, img = long_prompt_inputs()
            prompt = [t % cfg.vocab_size for t in range(100)]
            assert len(prompt) > model.QUERY_TILE
        visual = encode_image(img, w)
        if layout == "tiled":
            assert len(visual) == 199 and len(visual) % model.QUERY_TILE
        mask = np.zeros(len(visual), dtype=np.uint8)
        mask[::3] = 1
        policy = None if beta is None else (mask, beta)
        with recorded_attention() as recorded:
            session = DecoderSession(cfg, w, visual, attn_policy=policy)
            ref = TokenMajorReference(cfg, w, visual, attn_policy=policy)
            blocks = [prompt] + [[t % cfg.vocab_size] for t in range(5, 15)]
            for ids in blocks:
                got, want = session.extend_with_tokens(ids), ref.extend_with_tokens(ids)
                assert np.abs(got - want).max() < 1e-12
        assert len(ref.attention_rows) == 12 * cfg.n_layers
        tiles = []
        for li, start, pr in ref.attention_rows:
            assert pr.shape == (len(pr), cfg.n_heads, start + len(pr))
            if start == 0 and li == cfg.n_layers - 1:
                continue  # the prefill stops at its last layer's key/value write
            tiles += [pr[q0 : q0 + model.QUERY_TILE] for q0 in range(0, len(pr), model.QUERY_TILE)]
        for pg, pr in zip(recorded, tiles, strict=True):
            assert pg.shape == (1, cfg.n_heads, len(pr), pr.shape[-1])
            assert np.abs(pg[0].transpose(1, 0, 2) - pr).max() < 1e-12

    @pytest.mark.parametrize("layout", ["tiled", "steer"])
    def test_prefill_stops_at_its_last_key_value_write(self, steer_cfg, steer_weights,
                                                       steer_image, layout):
        # every layer but the last runs its query tiles; the last stops after its cache write
        cfg, w, img = (tiled_inputs() if layout == "tiled"
                       else (steer_cfg, steer_weights, steer_image))
        visual = encode_image(img, w)
        with recorded_attention() as recorded:
            DecoderSession(cfg, w, visual)
        assert len(recorded) == (cfg.n_layers - 1) * math.ceil(len(visual) / model.QUERY_TILE)
        assert len(recorded) == {"tiled": 4, "steer": 0}[layout]

    @staticmethod
    def prompted(cfg, w, visual, beta):
        s = DecoderSession(cfg, w, visual, attn_policy=(np.ones(len(visual)), beta))
        s.extend_with_tokens([1, 2])
        return s

    def test_stacked_rows_match_standalone_sessions(self, rand_cfg, rand_weights, rand_image):
        # a two-row step rounds differently from a one-row one: agreement to ulps
        visual = encode_image(rand_image, rand_weights)
        betas = [3.0, 1.0, 3.0]
        sources = [self.prompted(rand_cfg, rand_weights, visual, beta) for beta in betas[:2]]
        stacked = DecoderSession.stack(sources + sources[:1])
        assert stacked.rows == 3 and stacked.text_ids == [1, 2]
        alone = [self.prompted(rand_cfg, rand_weights, visual, beta) for beta in betas]
        for block in ([3], [4, 5], [6]):
            got = stacked.extend_with_tokens(block)
            assert got.shape == (3, rand_cfg.vocab_size)
            for row, session in enumerate(alone):
                assert np.abs(got[row] - session.extend_with_tokens(block)[0]).max() < 1e-12
        assert stacked.text_ids == alone[0].text_ids == [1, 2, 3, 4, 5, 6]
        assert [s.text_ids for s in sources] == [[1, 2], [1, 2]]

    def test_stacks_write_separate_buffers(self, rand_cfg, rand_weights, rand_image):
        # two stacks of one parent write the same positions, so only interleaved
        # extends can show a shared buffer
        visual = encode_image(rand_image, rand_weights)
        parent = self.prompted(rand_cfg, rand_weights, visual, 3.0)
        stacks = [DecoderSession.stack([parent]), DecoderSession.stack([parent])]
        tokens = [[3, 4, 5], [6, 7, 8]]
        got = [[], []]
        for step in range(3):
            for i, stacked in enumerate(stacks):
                got[i].append(stacked.extend_with_tokens([tokens[i][step]]))
        got_parent = parent.extend_with_tokens([9])
        for i in range(2):
            alone = self.prompted(rand_cfg, rand_weights, visual, 3.0)
            for logits, t in zip(got[i], tokens[i]):
                assert (logits == alone.extend_with_tokens([t])).all()
        assert (got_parent == self.prompted(rand_cfg, rand_weights, visual, 3.0)
                .extend_with_tokens([9])).all()
        assert parent.text_ids == [1, 2, 9] and stacks[0].text_ids == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("betas", [[3.0], [3.0, 1.0]], ids=["one-row", "stacked"])
    def test_rewound_session_matches_fresh(self, rand_cfg, rand_weights, rand_image, betas):
        visual = encode_image(rand_image, rand_weights)

        def fresh():
            return DecoderSession.stack(
                [self.prompted(rand_cfg, rand_weights, visual, beta) for beta in betas])

        session = fresh()
        session.extend_with_tokens([3])
        mid = session.length
        session.extend_with_tokens([4, 5])
        session.extend_with_tokens([6])
        session.rewind(mid)
        assert session.length == mid and session.text_ids == [1, 2, 3]
        alone = fresh()
        alone.extend_with_tokens([3])
        # other ids than the ones rewound, one at a time and as a block
        for block in ([7], [8, 9], [10]):
            assert (session.extend_with_tokens(block) == alone.extend_with_tokens(block)).all()
        assert session.text_ids == alone.text_ids == [1, 2, 3, 7, 8, 9, 10]

    def test_rewind_bounds(self, rand_cfg, rand_weights, rand_image):
        visual = encode_image(rand_image, rand_weights)
        session = self.prompted(rand_cfg, rand_weights, visual, 3.0)
        for length in (len(visual) - 1, session.length + 1):
            with pytest.raises(InputError):
                session.rewind(length)
        assert session.length == len(visual) + 2 and session.text_ids == [1, 2]
        session.rewind(session.length)
        assert session.text_ids == [1, 2]
        session.rewind(len(visual))
        assert session.length == len(visual) and session.text_ids == []
        alone = DecoderSession(rand_cfg, rand_weights, visual,
                               attn_policy=(np.ones(len(visual)), 3.0))
        assert (session.extend_with_tokens([4]) == alone.extend_with_tokens([4])).all()

    def test_stack_of_rewound_session_copies_live_positions(self, rand_cfg, rand_weights,
                                                           rand_image):
        visual = encode_image(rand_image, rand_weights)
        session = self.prompted(rand_cfg, rand_weights, visual, 3.0)
        live = session.length
        session.extend_with_tokens([3, 4, 5])
        session.rewind(live)
        session._kv[..., live:, :] = -7.25  # mark the stale positions
        stacked = DecoderSession.stack([session, session])
        assert stacked.length == live and stacked.text_ids == [1, 2]
        assert (stacked._kv[..., :live, :] == session._kv[..., :live, :]).all()
        assert not (stacked._kv[..., live:, :] == -7.25).any()
        alone = self.prompted(rand_cfg, rand_weights, visual, 3.0)
        want = DecoderSession.stack([alone, alone]).extend_with_tokens([6])
        assert (stacked.extend_with_tokens([6]) == want).all()

    def test_fills_exactly_max_seq(self, rand_cfg, rand_weights, rand_image):
        visual = encode_image(rand_image, rand_weights)
        session = DecoderSession(rand_cfg, rand_weights, visual)
        room = rand_cfg.max_seq - len(visual)
        session.extend_with_tokens([1] * (room - 1))
        stacked = DecoderSession.stack([session])
        assert np.isfinite(session.extend_with_tokens([2])).all()
        assert session.length == rand_cfg.max_seq
        with pytest.raises(InputError):
            session.extend_with_tokens([3])
        assert session.length == rand_cfg.max_seq
        with pytest.raises(InputError):
            stacked.extend_with_tokens([2, 3])
        assert np.isfinite(stacked.extend_with_tokens([2])).all()

    def test_stack_rejects_sessions_that_disagree(self, rand_cfg, rand_weights, rand_image):
        visual = encode_image(rand_image, rand_weights)
        a, b = (DecoderSession(rand_cfg, rand_weights, visual) for _ in range(2))
        other_weights = DecoderSession(rand_cfg, gen_fixture("random-v1", 3, rand_cfg), visual)
        a.extend_with_tokens([1])
        with pytest.raises(InputError):
            DecoderSession.stack([a, b])  # lengths differ
        b.extend_with_tokens([2])
        with pytest.raises(InputError):
            DecoderSession.stack([a, b])  # same length, other tokens
        other_weights.extend_with_tokens([1])
        with pytest.raises(InputError):
            DecoderSession.stack([a, other_weights])
        with pytest.raises(InputError):
            DecoderSession.stack([])

    def test_attention_overwrites_its_scores_and_leaves_its_bias(self):
        # the kernel owns the scores tile it is given and turns it into the
        # unnormalized weights; the bias, which every tile of a block shares, is
        # only read. weights / sums is the written-out softmax, bit for bit, and
        # no bias is a zero bias, bit for bit
        rng = np.random.default_rng(4)
        scores = rng.standard_normal((3, 5, 7))
        bias = np.where(rng.random((5, 7)) < 0.3, -np.inf, rng.random((5, 7)))
        bias[:, 0] = 0.0
        scores_before, bias_before = scores.copy(), bias.copy()
        weights, sums = attention(scores, bias)
        assert weights is scores
        assert np.array_equal(bias, bias_before)
        s = scores_before + bias_before
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        assert np.array_equal(weights, e)
        assert np.array_equal(sums, e.sum(axis=-1, keepdims=True))
        assert np.array_equal(weights / sums, e / e.sum(axis=-1, keepdims=True))
        unbiased = attention(scores_before.copy(), None)
        zero_bias = attention(scores_before.copy(), np.zeros((5, 7)))
        for got, want in zip(unbiased, zero_bias):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(1, 4), (3 * 7, 32), (2 * 64, 64), (757, 256)])
    def test_norm_and_gelu_equal_their_expressions(self, shape):
        # both run in place, step by step in the expression's order: the same floats
        rng = np.random.default_rng(shape[0])
        x = rng.standard_normal(shape) * 3.0
        gain, bias = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
        x_before = x.copy()
        assert np.array_equal(_rms_norm(x, gain, bias), rms_norm_expr(x, gain, bias))
        assert np.array_equal(x, x_before)
        assert np.array_equal(_gelu(x.copy()), gelu_expr(x))

    def test_stacked_guided_and_unguided_rows_equal_one_row_sessions(
        self, steer_cfg, steer_weights, steer_image, rand_cfg, rand_weights, rand_image
    ):
        # a block skips the bias only where every row's bias is zero, so the
        # unguided row of a (beta 5, no policy) stack adds zeros where its one-row
        # session adds nothing: the same floats, in the prompt and in every step.
        # The steer model's GEMMs are small enough to round alike at one row and
        # at two; at larger sizes a two-row GEMM rounds like a two-row GEMM only,
        # so there the rows are checked against stacks of one policy
        def sessions(cfg, w, img, beta):
            visual = encode_image(img, w)
            mask = np.arange(len(visual)) % 3 == 0
            return (DecoderSession(cfg, w, visual, attn_policy=(mask, beta)),
                    DecoderSession(cfg, w, visual))

        blocks = ([1, 2, 3], [2], [1], [3, 1], [2])
        guided, unguided = sessions(steer_cfg, steer_weights, steer_image, 5.0)
        stacked = DecoderSession.stack([guided, unguided])
        for block in blocks:
            got = stacked.extend_with_tokens(block)
            for row, alone in enumerate((guided, unguided)):
                assert np.array_equal(got[row], alone.extend_with_tokens(block)[0])
        n = stacked.length
        for row, alone in enumerate((guided, unguided)):
            assert np.array_equal(stacked._kv[:, :, row, :, :n], alone._kv[:, :, 0, :, :n])

        guided, unguided = sessions(rand_cfg, rand_weights, rand_image, 5.0)
        mixed = DecoderSession.stack([guided, unguided])
        only_guided = DecoderSession.stack([guided, guided])
        only_unguided = DecoderSession.stack([unguided, unguided])
        for block in blocks:
            got = mixed.extend_with_tokens(block)
            assert np.array_equal(got[0], only_guided.extend_with_tokens(block)[1])
            assert np.array_equal(got[1], only_unguided.extend_with_tokens(block)[0])


class TestFixtures:
    def test_splitmix64_reference_vectors(self):
        stream = splitmix64(0)
        assert [next(stream) for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    @pytest.mark.parametrize("seed", [42, 2**64 - 5])
    def test_random_fill_matches_the_stream(self, rand_cfg, seed):
        # the vectorised fill against the generator, one value at a time, in
        # canonical tensor order; the second seed wraps the state past 2^64
        stream = splitmix64(seed)
        for name, t in gen_fixture("random-v1", seed, rand_cfg).tensors.items():
            u = np.array([(next(stream) >> 11) * 2.0**-53 for _ in range(t.size)])
            want = (RANDOM_INIT_LO + u * (RANDOM_INIT_HI - RANDOM_INIT_LO)).astype(np.float32)
            assert np.array_equal(t.ravel(), want), name

    def test_random_fixture_range_and_determinism(self, rand_cfg):
        a = gen_fixture("random-v1", 42, rand_cfg)
        b = gen_fixture("random-v1", 42, rand_cfg)
        c = gen_fixture("random-v1", 43, rand_cfg)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        for t in a.tensors.values():
            assert t.dtype == np.float32
            assert float(t.min()) >= RANDOM_INIT_LO
            assert float(t.max()) <= RANDOM_INIT_HI

    def test_steer_fixture_ignores_seed(self, steer_cfg):
        assert gen_fixture("steer-v1", 1, steer_cfg).digest() == gen_fixture(
            "steer-v1", 999, steer_cfg
        ).digest()

    def test_unknown_kind(self, rand_cfg):
        with pytest.raises(InputError):
            gen_fixture("mystery-v2", 0, rand_cfg)

    @pytest.mark.parametrize("kind", ["random-v1", "steer-v1"])
    @pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5])
    def test_seed_outside_the_stream_state_is_rejected(self, steer_cfg, kind, seed):
        with pytest.raises(InputError):
            gen_fixture(kind, seed, steer_cfg)

    def test_steer_requires_single_layer(self, rand_cfg, steer_cfg):
        with pytest.raises(InputError):
            gen_fixture("steer-v1", 0, rand_cfg)
        with pytest.raises(InputError):  # and two channels for its one-hot intensity code
            gen_fixture("steer-v1", 0, replace(steer_cfg, embed_dim=1))

    def test_tensor_spec_covers_config(self, rand_cfg):
        names = [name for name, _ in tensor_spec(rand_cfg)]
        assert names[0] == "patch_proj.weight"
        assert "layers.1.ffn.w2" in names
        assert names[-1] == "head.weight"


class TestWeightFile:
    def test_roundtrip_preserves_bits(self, tmp_path, rand_cfg):
        w = gen_fixture("random-v1", 5, rand_cfg)
        path = tmp_path / "w.json"
        save_weights(w, path)
        back = load_weights(path)
        assert back.digest() == w.digest()
        assert back.config == rand_cfg
        for name in w.tensors:
            assert (back.tensors[name] == w.tensors[name]).all()

    def test_truncated_file(self, tmp_path, rand_cfg):
        path = tmp_path / "w.json"
        save_weights(gen_fixture("random-v1", 5, rand_cfg), path)
        path.write_text(path.read_text()[: 200])
        with pytest.raises(FormatError):
            load_weights(path)

    def test_nan_payload_rejected(self, tmp_path, steer_cfg):
        import base64
        import struct

        path = tmp_path / "w.json"
        save_weights(gen_fixture("steer-v1", 0, steer_cfg), path)
        obj = json.loads(path.read_text())
        raw = bytearray(base64.b64decode(obj["tensors"][0]["data"]))
        raw[0:4] = struct.pack("<f", float("nan"))
        obj["tensors"][0]["data"] = base64.b64encode(bytes(raw)).decode("ascii")
        path.write_text(json.dumps(obj))
        with pytest.raises(InputError, match="non-finite"):
            load_weights(path)

    def test_shape_mismatch_rejected(self, tmp_path, steer_cfg):
        path = tmp_path / "w.json"
        save_weights(gen_fixture("steer-v1", 0, steer_cfg), path)
        obj = json.loads(path.read_text())
        obj["tensors"][0]["shape"] = [1, 1]
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError):
            load_weights(path)

    def test_digest_tamper_rejected(self, tmp_path, steer_cfg):
        path = tmp_path / "w.json"
        save_weights(gen_fixture("steer-v1", 0, steer_cfg), path)
        obj = json.loads(path.read_text())
        obj["digest"] = "0" * 64
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError):
            load_weights(path)


class TestConfigValidation:
    def test_rejects_bad_configs(self):
        base = dict(vocab_size=8, embed_dim=8, n_heads=2, n_layers=1, feature_side=2,
                    image_side=8, max_seq=32)
        ModelConfig(**base)
        # an image side of 0 or -16 passes the divisibility check but fits no image
        for bad in ({"vocab_size": 3}, {"embed_dim": 7}, {"feature_side": 3, "max_seq": 64},
                    {"max_seq": 14}, {"n_layers": 0}, {"eos_id": 8}, {"image_side": 0},
                    {"image_side": -16}):
            with pytest.raises(InputError):
                ModelConfig(**{**base, **bad})
        # (a float or a boolean for each field is a row of NUMBER_RULE)

    def test_weight_set_checks_names_shapes_and_dtypes(self, rand_cfg, rand_weights):
        t = rand_weights.tensors
        head = t["head.weight"]
        renamed = {("embed" if name == "token_embed" else name): v for name, v in t.items()}
        for bad in (renamed, {**t, "head.weight": head.T},
                    {**t, "head.weight": head.astype(np.float64)}):
            with pytest.raises(InputError):
                WeightSet(config=rand_cfg, tensors=bad)

    def test_nonfinite_weights_rejected(self, rand_cfg):
        w = gen_fixture("random-v1", 5, rand_cfg)
        bad = {k: v.copy() for k, v in w.tensors.items()}
        bad["head.weight"][0, 0] = np.inf
        with pytest.raises(InputError, match="non-finite"):
            WeightSet(config=rand_cfg, tensors=bad)


JSON_READERS = ("bbox", "token-mask", "weight-file", "weight-config", "tensor-entry")
JSON_DEFECTS = {  # each defect of an object, and what its FormatError says
    "not-an-object": "must be a JSON object",
    "missing-key": "is missing fields",
    "unknown-key": r"has unknown fields \['extra'\]",
    "repeated-key": "gives a key twice",
    "deep-nesting": "not valid JSON",
    "repeated-name": "tensor patch_proj.weight is given twice",
}


@pytest.mark.parametrize("reader, defect", [
    *((reader, defect) for reader in JSON_READERS for defect in list(JSON_DEFECTS)[:-1]),
    ("weight-file", "repeated-name"),
], ids=lambda value: value)
def test_json_rule(tmp_path, reader, defect):
    """Every JSON object a reader reads is held to one rule: exact keys, none given twice,
    and each defect a FormatError, which names the key where one is at fault."""
    path = tmp_path / "w.json"
    save_weights(gen_fixture("steer-v1", 0, STEER_CONFIG), path)

    def read_weights(text: str):
        path.write_text(text)
        return load_weights(path)

    mask = generate_token_mask(half_seg(4, 4, "left"), GridSpec(side=2))
    doc, at, read = {  # a valid document, the keys that lead to the object, and its reader
        "bbox": ('{"x_min": 0, "y_min": 0, "x_max": 1, "y_max": 1}', [], BBox.from_json),
        "token-mask": (token_mask_to_json(mask, 0.0), [], token_mask_from_json),
        "weight-file": (path.read_text(), [], read_weights),
        "weight-config": (path.read_text(), ["config"], read_weights),
        "tensor-entry": (path.read_text(), ["tensors", 0], read_weights),
    }[reader]
    root = json.loads(doc)
    parent, obj = None, root
    for step in at:
        parent, obj = obj, obj[step]
    key = list(obj)[-1]  # the key that is dropped or repeated
    if defect == "repeated-name":  # the first entry again, with the same payload
        obj["tensors"].append(obj["tensors"][0])
    raw = {
        "not-an-object": json.dumps(list(obj.values())),
        "missing-key": json.dumps({k: v for k, v in obj.items() if k != key}),
        "unknown-key": json.dumps({**obj, "extra": 1}),
        "repeated-key": json.dumps(obj)[:-1] + f", {json.dumps(key)}: {json.dumps(obj[key])}}}",
        "deep-nesting": "[" * 100_000 + "]" * 100_000,
        "repeated-name": json.dumps(obj),
    }[defect]
    if parent is not None:  # the defect stands in for the object inside the document
        parent[at[-1]] = "@"
        raw = json.dumps(root).replace('"@"', raw)
    with pytest.raises(FormatError, match=JSON_DEFECTS[defect]) as info:
        read(raw)
    if defect in ("missing-key", "repeated-key"):
        assert repr(key) in str(info.value)
