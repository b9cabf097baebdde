"""Miniature vision-language decoder.

The encoder mean-pools pixel blocks into patch tokens and lays them out with
:func:`regioncd.masks.assemble`, the function that lays out the token mask:
the local crop tiling row by row with a separator embedding after each
composite row, one mid separator, then the global view with per-row
separators. On top sits a pre-norm transformer (RMSNorm, multi-head
attention, GELU feed-forward) in which the visual prefix is fully mutually
visible and text positions attend causally.

A :class:`DecoderSession` holds one or more rows (decode branches) that
read the same tokens. Attention is head-major: each layer caches its keys
and values in preallocated ``(rows, n_heads, max_seq, head_dim)`` buffers
that a block writes in place, and the scores and the context are batched
matrix products over the rows and heads, one tile of query rows at a time.
The one kernel, :func:`attention`, turns a tile's scores into unnormalized
weights in place; the context is normalized after the product with the
values, so no pass divides the key-wide weights. Every step that is not a
matrix product runs in place, so a block allocates few arrays the size of
its activations and none the size of its scores beyond one buffer.

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
# segment_labels is unused here, but perfbench/spans.py wraps model.segment_labels
from regioncd.masks import assemble, segment_labels  # noqa: F401
from regioncd.weights import WeightSet

NORM_EPS = 1e-6
_SQRT_2_OVER_PI = 0.7978845608028654
# query rows per attention tile: the scores of a 64-row tile over 757 keys and
# 4 heads take ~1.5 MB in float64, inside a 2 MB L2 cache, where those of a
# whole 757-token prefill take 18 MB
QUERY_TILE = 64


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Grayscale image with intensities in [0, 1]; the size is the array's shape."""

    intensities: np.ndarray  # (height, width), stored as float64

    def __post_init__(self) -> None:
        a = np.asarray(self.intensities)
        if a.ndim != 2:
            raise ShapeError(f"image array must be 2-D, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise NumericError("image intensities must be finite")
        if a.min(initial=0.0) < 0.0 or a.max(initial=0.0) > 1.0:
            raise InputError("image intensities must lie in [0, 1]")
        object.__setattr__(self, "intensities", a.astype(np.float64, copy=False))

    @property
    def width(self) -> int:
        return self.intensities.shape[1]

    @property
    def height(self) -> int:
        return self.intensities.shape[0]

    @classmethod
    def from_pgm(cls, path: str | Path) -> "GrayImage":
        samples, maxval = pgm.read_pgm(path)
        return cls(samples / float(maxval))


@dataclass(frozen=True, eq=False)
class VisualSequence:
    """Visual token embeddings, one row per position of the token layout."""

    embeddings: np.ndarray  # (N, embed_dim) float64

    def __post_init__(self) -> None:
        if self.embeddings.ndim != 2:
            raise ShapeError(f"embeddings must be 2-D, got shape {self.embeddings.shape}")

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
    emb = assemble(local, global_, spec, sep=t["sep_embed"])
    emb += t["pos_embed"][: len(emb)]
    return VisualSequence(embeddings=emb)


def _rms_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``x / sqrt(mean(x**2) + eps) * gain + bias`` in one fresh array; ``x`` is only read.

    The steps run in place in the order of that expression, so the result
    equals it bit for bit. ``np.add.reduce`` and a division are ``np.mean``,
    bit for bit, at less call overhead.
    """
    out = np.square(x)
    ms = np.add.reduce(out, axis=-1, keepdims=True)
    ms /= x.shape[-1]
    ms += NORM_EPS
    np.sqrt(ms, out=ms)
    np.divide(x, ms, out=out)
    out *= gain
    out += bias
    return out


def _gelu(x: np.ndarray) -> np.ndarray:
    """The tanh approximation ``0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))``, in place on ``x``.

    Each step runs in the order of that expression; a product or sum with its
    operands swapped is the same float, so the result equals it bit for bit.
    """
    u = x * 0.044715
    u *= x
    u *= x
    u += x
    u *= _SQRT_2_OVER_PI
    np.tanh(u, out=u)
    u += 1.0
    x *= 0.5
    x *= u
    return x


def region_bias(mask: np.ndarray, beta: float) -> np.ndarray:
    """Additive attention bias ``m * log(beta)`` for a 0/1 region mask.

    Adding it to the scores multiplies the pre-normalized weight of every
    masked key by beta, since ``beta^m * exp(e) = exp(e + m*log(beta))``;
    unmasked keys get exactly 0. Its beta check is the one every attention
    policy passes, including one given to ``DecoderSession(attn_policy=...)``
    directly, which never builds a :class:`~regioncd.config.GuidanceParams`
    (that class checks beta as well).
    """
    if not math.isfinite(beta) or beta < 1.0:
        raise InputError(f"beta must be finite and >= 1, got {beta}")
    return np.where(np.asarray(mask) != 0, math.log(beta), 0.0)


def attention(scores: np.ndarray, bias: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized softmax weights of ``scores + bias`` over the last axis, in place.

    Overwrites ``scores`` with ``exp(scores + bias - max)`` and returns it with
    its row sums (last axis kept), so ``weights / sums`` is
    ``softmax(scores + bias)``. A caller that only needs ``weights @ values``
    divides that small product by the sums instead of dividing every weight.
    The bias carries both the visibility mask (-inf on hidden keys) and the
    region reweighting (:func:`region_bias`); ``None`` stands for a zero bias
    and skips its pass. The bias itself is never written.
    """
    if bias is not None:
        scores += bias
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    return scores, scores.sum(axis=-1, keepdims=True)


class DecoderSession:
    """Decode rows that grow one shared token sequence over a fixed visual prefix.

    ``DecoderSession(...)`` prefills one row: one visual prefix under an
    optional ``attn_policy`` (mask over visual positions, beta), which adds
    :func:`region_bias` to the scores of every attention softmax of that row;
    text positions always carry mask value 0. :meth:`stack` gathers
    prefilled sessions into one session with a row per source row, so the
    guided and the unguided branch of a decode run one forward per step.
    Every row consumes the same ``text_ids``; :meth:`rewind` drops a tail of
    them.

    Keys and values are cached in one preallocated array of shape
    ``(n_layers, 2, rows, n_heads, max_seq, head_dim)``; a block writes its
    keys and values into positions ``[start, total)``, so each appended token
    costs a single attention row per head and no reallocation. The scores,
    the softmax and the context then run over tiles of at most
    :data:`QUERY_TILE` query rows, each written into the front of one
    buffer, so a prefill's score tile stays in cache; a prompt or a step is
    a single tile. A block whose bias is zero in every row (an unguided or
    beta = 1 prefill, any step of such rows) skips the bias pass.
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
        bias = np.zeros((1, cfg.max_seq), dtype=np.float64)
        if attn_policy is not None:
            mask, beta = attn_policy
            mask = np.asarray(mask)
            if mask.shape != (self._n_visual,):
                raise ShapeError(
                    f"policy mask length {mask.shape} != visual length {self._n_visual}"
                )
            bias[0, : self._n_visual] = region_bias(mask, beta)
        self._bias = bias  # (rows, max_seq)
        # [layer, 0 = keys / 1 = values, row, head, position, channel]; only the
        # first self._len positions are ever written or read
        self._kv = np.empty((cfg.n_layers, 2, 1, cfg.n_heads, cfg.max_seq, cfg.head_dim))
        self._len = 0
        self.text_ids: list[int] = []
        self._process_block(visual.embeddings[None])

    @property
    def length(self) -> int:
        return self._len

    @property
    def rows(self) -> int:
        return self._bias.shape[0]

    @classmethod
    def stack(cls, sessions: Sequence["DecoderSession"]) -> "DecoderSession":
        """One session whose rows are the rows of ``sessions``, in order.

        Runs no prefill. The sessions must share a weight set, a length and
        their text ids; a session may be listed more than once.
        The filled part of their key and value caches is gathered into fresh
        buffers in one copy, so the new session and its sources never write
        each other's buffers.
        """
        if not sessions:
            raise InputError("stack needs at least one session")
        first = sessions[0]
        for s in sessions[1:]:
            if s._t is not first._t:  # one weight set, so one config
                raise InputError("stacked sessions must share a weight set")
            if s._len != first._len or s.text_ids != first.text_ids:
                raise InputError("stacked sessions must hold the same tokens")
        n = first._len
        out = copy.copy(first)  # copy.copy skips __init__, so no prefill runs
        out.text_ids = list(first.text_ids)
        out._bias = np.concatenate([s._bias for s in sessions])
        shape = list(first._kv.shape)
        shape[2] = out.rows
        out._kv = np.empty(shape)
        np.concatenate([s._kv[..., :n, :] for s in sessions], axis=2, out=out._kv[..., :n, :])
        return out

    def rewind(self, length: int) -> None:
        """Forget every position from ``length`` on, keeping the visual prefix.

        The cache entries past ``length`` stay in the buffers but are never
        read: every read stops at the session's length, and the next block
        writes its positions before it reads them. So a rewound session then
        extended is, bit for bit, a fresh session fed the same ids.
        """
        if not self._n_visual <= length <= self._len:
            raise InputError(
                f"rewind length {length} outside [{self._n_visual}, {self._len}]"
            )
        del self.text_ids[length - self._n_visual :]
        self._len = length

    def extend_with_tokens(self, ids: Sequence[int]) -> np.ndarray:
        """Append token ids causally to every row; returns next-token logits ``(rows, vocab)``."""
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
        logits = self._process_block(np.broadcast_to(emb, (self.rows, *emb.shape)))
        self.text_ids.extend(ids)
        return logits

    def _process_block(self, emb: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        rows, b, d = emb.shape
        start = self._len
        total = start + b
        # query position p sees the whole visual prefix and every key at a position
        # <= p, so when the block's last key is one of those for its first query
        # (a one-token block, the visual prefill) the bias is the policy row as is,
        # and none at all where every row's policy is zero
        if total <= max(self._n_visual, start + 1):
            bias = None
            if self._bias[:, :total].any():
                bias = np.broadcast_to(self._bias[:, None, None, :total], (rows, 1, b, total))
        else:
            keys = np.arange(total)
            visible = (keys < self._n_visual) | (keys <= np.arange(start, total)[:, None])
            bias = np.where(visible, self._bias[:, None, None, :total], -np.inf)
        # bias is (rows, 1, b, total) and broadcasts over the heads
        h = emb.reshape(rows * b, d)  # the caller's array: read, never written
        scale = 1.0 / math.sqrt(cfg.head_dim)
        split = (rows, b, cfg.n_heads, cfg.head_dim)
        to_heads = (0, 2, 1, 3)  # (rows, b, heads, channel) <-> (rows, heads, b, channel)
        ctx = np.empty(split)
        # every tile's scores are written into the front of one buffer
        scores_buf = np.empty(rows * cfg.n_heads * min(b, QUERY_TILE) * total)
        for li in range(cfg.n_layers):
            p = f"layers.{li}."
            k, v = self._kv[li]
            xn = _rms_norm(h, self._t[p + "attn_norm.gain"], self._t[p + "attn_norm.bias"])
            q = xn @ self._t[p + "attn.wq"]
            q *= scale  # scaling q, not the scores: the same floats when scale is a power of 2
            q = q.reshape(split).transpose(to_heads)
            k[:, :, start:total] = (xn @ self._t[p + "attn.wk"]).reshape(split).transpose(to_heads)
            v[:, :, start:total] = (xn @ self._t[p + "attn.wv"]).reshape(split).transpose(to_heads)
            keys_t, values = k[:, :, :total].transpose(0, 1, 3, 2), v[:, :, :total]
            for q0 in range(0, b, QUERY_TILE):
                n = min(QUERY_TILE, b - q0)
                tile = slice(q0, q0 + n)
                scores = scores_buf[: rows * cfg.n_heads * n * total].reshape(
                    rows, cfg.n_heads, n, total)
                np.matmul(q[:, :, tile], keys_t, out=scores)
                weights, sums = attention(scores, None if bias is None else bias[:, :, tile])
                np.divide(weights @ values, sums, out=ctx[:, tile].transpose(to_heads))
            a = ctx.reshape(rows * b, d) @ self._t[p + "attn.wo"]
            a += h  # h + a, bit for bit, into a fresh array
            h = a
            xn = _rms_norm(h, self._t[p + "ffn_norm.gain"], self._t[p + "ffn_norm.bias"])
            f = xn @ self._t[p + "ffn.w1"]
            f += self._t[p + "ffn.b1"]
            h += _gelu(f) @ self._t[p + "ffn.w2"]
            h += self._t[p + "ffn.b2"]
        self._len = total
        last = h.reshape(rows, b, d)[:, -1]
        z = _rms_norm(last, self._t["final_norm.gain"], self._t["final_norm.bias"])
        logits = z @ self._t["head.weight"]
        if not np.isfinite(logits).all():
            raise NumericError("non-finite logits in forward pass")
        return logits
