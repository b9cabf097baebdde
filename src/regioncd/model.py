"""Miniature vision-language decoder.

The encoder mean-pools pixel blocks into patch tokens and lays them out with
:func:`regioncd.masks.assemble`, the function that lays out the token mask:
the local crop tiling row by row with a separator embedding after each
composite row, one mid separator, then the global view with per-row
separators. On top sits a pre-norm transformer (RMSNorm, multi-head
attention, GELU feed-forward) in which the visual prefix is fully mutually
visible and text positions attend causally.

Attention is head-major: each layer caches its keys and values in
preallocated ``(n_heads, max_seq, head_dim)`` buffers that a block writes in
place, and the scores and the context are batched matrix products over the
heads.

Weights are stored as float32; all forward-pass arithmetic runs in float64,
which keeps results reproducible to well below 1e-6 across platforms.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from regioncd import pgm
from regioncd.config import ModelConfig
from regioncd.errors import InputError, NumericError, ShapeError
from regioncd.masks import assemble, segment_labels
from regioncd.weights import WeightSet

NORM_EPS = 1e-6
_SQRT_2_OVER_PI = 0.7978845608028654


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Grayscale image with intensities in [0, 1]."""

    width: int
    height: int
    intensities: np.ndarray  # (height, width) float64

    def __post_init__(self) -> None:
        if self.intensities.shape != (self.height, self.width):
            raise ShapeError(
                f"intensity array shape {self.intensities.shape} != ({self.height}, {self.width})"
            )
        if not np.isfinite(self.intensities).all():
            raise NumericError("image intensities must be finite")
        if self.intensities.min(initial=0.0) < 0.0 or self.intensities.max(initial=0.0) > 1.0:
            raise InputError("image intensities must lie in [0, 1]")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "GrayImage":
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim != 2:
            raise ShapeError(f"image array must be 2-D, got shape {a.shape}")
        return cls(width=a.shape[1], height=a.shape[0], intensities=a)

    @classmethod
    def from_pgm(cls, path: str | Path) -> "GrayImage":
        samples, maxval = pgm.read_pgm(path)
        return cls.from_array(samples.astype(np.float64) / float(maxval))


@dataclass(frozen=True, eq=False)
class VisualSequence:
    """Visual token embeddings plus the segment label of each position."""

    embeddings: np.ndarray  # (N, embed_dim) float64
    layout: list[str]

    def __post_init__(self) -> None:
        if self.embeddings.ndim != 2 or len(self.layout) != self.embeddings.shape[0]:
            raise ShapeError("embeddings and layout lengths disagree")

    def __len__(self) -> int:
        return self.embeddings.shape[0]


def _pool_means(intensities: np.ndarray, rows: int, cols: int) -> np.ndarray:
    h, w = intensities.shape
    return intensities.reshape(rows, h // rows, cols, w // cols).mean(axis=(1, 3))


def encode_image(img: GrayImage, cfg: ModelConfig, w: WeightSet) -> VisualSequence:
    """Patchify both views and emit embeddings in token-mask order.

    A patch embedding is the mean intensity of its pixel block pushed
    through the affine patch projection, plus the positional term; separator
    positions hold the learned separator embedding plus their positional
    term. Tiling the image into equal crops and patchifying each crop is
    equivalent to patchifying the whole image at composite resolution, so
    one pooling pass serves the local view.
    """
    if (img.width, img.height) != (cfg.image_side, cfg.image_side):
        raise ShapeError(
            f"image is {img.width}x{img.height}, config wants "
            f"{cfg.image_side}x{cfg.image_side}"
        )
    spec = cfg.grid()
    t = w.tensors64
    proj, bias = t["patch_proj.weight"][:, 0], t["patch_proj.bias"]
    local = _pool_means(img.intensities, spec.local_rows, spec.local_cols)[..., None] * proj + bias
    global_ = _pool_means(img.intensities, spec.side, spec.side)[..., None] * proj + bias
    emb = assemble(local, global_, spec, sep=t["sep_embed"][cfg.sep_embed_id])
    emb += t["pos_embed"][: len(emb)]
    return VisualSequence(embeddings=emb, layout=segment_labels(spec))


def _rms_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    return x / np.sqrt(ms + NORM_EPS) * gain + bias


def _gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation
    return 0.5 * x * (1.0 + np.tanh(_SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)))


def region_bias(mask: np.ndarray, beta: float) -> np.ndarray:
    """Additive attention bias ``m * log(beta)`` for a 0/1 region mask.

    Adding it to the scores multiplies the pre-normalized weight of every
    masked key by beta, since ``beta^m * exp(e) = exp(e + m*log(beta))``;
    unmasked keys get exactly 0. The one place beta is checked.
    """
    if not math.isfinite(beta) or beta < 1.0:
        raise InputError(f"beta must be finite and >= 1, got {beta}")
    return np.where(np.asarray(mask) != 0, math.log(beta), 0.0)


def attention(scores: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``softmax(scores + bias)`` over the last axis.

    The bias carries both the visibility mask (-inf on hidden keys) and the
    region reweighting (:func:`region_bias`); with a zero bias this is a
    plain softmax.
    """
    s = scores + bias  # the one temporary; the steps below work in place on it
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


class DecoderSession:
    """One growing decode branch over a fixed visual prefix.

    Keys and values are cached per layer in head-major buffers of shape
    ``(n_heads, max_seq, head_dim)``, allocated once per session; a block
    writes its keys and values into positions ``[start, total)``, so each
    appended token costs a single attention row and no reallocation. An
    optional ``attn_policy`` (mask over visual positions, beta) adds
    :func:`region_bias` to the scores of every attention softmax in this
    branch; text positions always carry mask value 0.
    """

    def __init__(
        self,
        cfg: ModelConfig,
        weights: WeightSet,
        visual: VisualSequence,
        attn_policy: tuple[np.ndarray, float] | None = None,
    ):
        if weights.config != cfg:
            raise InputError("weight set was built for a different config")
        if len(visual) != cfg.n_visual:
            raise ShapeError(
                f"visual sequence length {len(visual)} != {cfg.n_visual} for this config"
            )
        self.cfg = cfg
        self._t = weights.tensors64
        self._n_visual = len(visual)
        bias = np.zeros(cfg.max_seq, dtype=np.float64)
        if attn_policy is not None:
            mask, beta = attn_policy
            mask = np.asarray(mask)
            if mask.shape != (self._n_visual,):
                raise ShapeError(
                    f"policy mask length {mask.shape} != visual length {self._n_visual}"
                )
            bias[: self._n_visual] = region_bias(mask, beta)
        self._bias = bias
        # [layer, 0 = keys / 1 = values, head, position, channel]; only the first
        # self._len positions are ever written or read
        self._kv = np.empty((cfg.n_layers, 2, cfg.n_heads, cfg.max_seq, cfg.head_dim))
        self._len = 0
        self.text_ids: list[int] = []
        self._process_block(visual.embeddings)

    @property
    def length(self) -> int:
        return self._len

    def fork(self) -> "DecoderSession":
        """An independent branch that continues from this session's current state.

        Runs no prefill: the filled part of every layer's key and value
        buffers is copied into fresh buffers, and the text ids are copied.
        The buffers cannot be shared, because the parent and each fork write
        their next tokens into the same positions.
        """
        n = self._len
        other = copy.copy(self)  # copy.copy skips __init__, so no prefill runs
        other._kv = np.empty_like(self._kv)
        other._kv[..., :n, :] = self._kv[..., :n, :]
        other.text_ids = list(self.text_ids)
        return other

    def extend_with_tokens(self, ids: Sequence[int]) -> np.ndarray:
        """Append token ids causally; returns next-token logits."""
        ids = [int(i) for i in ids]
        if not ids:
            raise InputError("token block must be non-empty")
        if any(i < 0 or i >= self.cfg.vocab_size for i in ids):
            raise InputError(f"token id outside vocab of size {self.cfg.vocab_size}")
        start = self._len
        if start + len(ids) > self.cfg.max_seq:
            raise InputError(
                f"sequence length {start + len(ids)} overflows max_seq {self.cfg.max_seq}"
            )
        emb = self._t["token_embed"][ids] + self._t["pos_embed"][start : start + len(ids)]
        logits = self._process_block(emb)
        self.text_ids.extend(ids)
        return logits

    def _process_block(self, emb: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        b = emb.shape[0]
        start = self._len
        total = start + b
        # query position p sees the whole visual prefix and every key at a position <= p
        keys = np.arange(total)
        visible = (keys < self._n_visual) | (keys <= np.arange(start, total)[:, None])
        bias = np.where(visible, self._bias[:total], -np.inf)  # broadcasts over heads
        h = np.array(emb, dtype=np.float64)
        scale = 1.0 / math.sqrt(cfg.head_dim)
        split = (b, cfg.n_heads, cfg.head_dim)
        for li in range(cfg.n_layers):
            p = f"layers.{li}."
            k, v = self._kv[li]
            xn = _rms_norm(h, self._t[p + "attn_norm.gain"], self._t[p + "attn_norm.bias"])
            q = (xn @ self._t[p + "attn.wq"]).reshape(split).transpose(1, 0, 2)
            k[:, start:total] = (xn @ self._t[p + "attn.wk"]).reshape(split).transpose(1, 0, 2)
            v[:, start:total] = (xn @ self._t[p + "attn.wv"]).reshape(split).transpose(1, 0, 2)
            scores = q @ k[:, :total].transpose(0, 2, 1)  # (heads, b, total)
            scores *= scale
            probs = attention(scores, bias)
            ctx = (probs @ v[:, :total]).transpose(1, 0, 2).reshape(b, cfg.embed_dim)
            h = h + ctx @ self._t[p + "attn.wo"]
            xn = _rms_norm(h, self._t[p + "ffn_norm.gain"], self._t[p + "ffn_norm.bias"])
            h = h + _gelu(xn @ self._t[p + "ffn.w1"] + self._t[p + "ffn.b1"]) @ self._t[
                p + "ffn.w2"
            ] + self._t[p + "ffn.b2"]
        self._len = total
        z = _rms_norm(h[-1], self._t["final_norm.gain"], self._t["final_norm.bias"])
        logits = z @ self._t["head.weight"]
        if not np.isfinite(logits).all():
            raise NumericError("non-finite logits in forward pass")
        return logits
