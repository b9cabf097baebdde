import math
from contextlib import contextmanager
from typing import Sequence

import numpy as np
import pytest

from regioncd import model, verification
from regioncd.config import ModelConfig
from regioncd.masks import SegMask
from regioncd.model import NORM_EPS, DecoderSession, GrayImage
from regioncd.weights import STEER_CONFIG, gen_fixture


def forward_logits(visual, text: Sequence[int], cfg, w, attn_policy=None) -> np.ndarray:
    """One-shot forward over [visual; text]; logits at the final position."""
    session = DecoderSession(cfg, w, visual, attn_policy=attn_policy)
    return session.extend_with_tokens(text)[0]


def steer_logits_by_hand(beta: float, masked_half: str, alpha: float = 1.0) -> list[float]:
    """Forward pass of the one-layer steering fixture, done with scalar math.

    The 8x8 test image is dark on the left, light on the right; the token
    mask marks one half. Channel codes are (1,0,..) for dark and (0,1,..)
    for light patches, optionally alpha-scaled on the masked side before
    normalization. Attention is uniform up to the beta factor on masked
    positions; the head reads channels 0/1 into logits of tokens 2/3.
    """
    d = STEER_CONFIG.embed_dim
    n_masked, n_other_patches, n_rest = 4, 4, 6  # 5 separators + 1 prompt token

    def normed_magnitude(scale: float) -> float:
        # first component of rms-norm applied to (scale, 0, ..., 0)
        return scale / math.sqrt(scale * scale / d + NORM_EPS)

    masked_value = normed_magnitude(alpha)
    other_value = normed_magnitude(1.0)
    total = beta * n_masked + n_other_patches + n_rest
    p_masked = beta * n_masked / total
    p_other = n_other_patches / total

    masked_channel = p_masked * masked_value
    other_channel = p_other * other_value
    dark_channel, light_channel = (
        (masked_channel, other_channel) if masked_half == "left"
        else (other_channel, masked_channel)
    )
    denom = math.sqrt((dark_channel**2 + light_channel**2) / d + NORM_EPS)
    logit_2 = dark_channel / denom
    logit_3 = light_channel / denom
    return [0.0, 0.0, logit_2, logit_3]


@contextmanager
def recorded_attention():
    """Record the probabilities ``weights / sums`` of every attention kernel call.

    Yields a list that fills with one ``(rows, heads, tile, total)`` array per
    call, in call order: one query tile of one layer over the ``total`` keys
    the block sees. A text block of at most ``model.QUERY_TILE`` tokens is a
    single tile, so its row ``i`` is the query at position ``total - b + i``
    for a block of ``b`` tokens.
    """
    records = []
    kernel = model.attention

    def recording(scores, bias):
        weights, sums = kernel(scores, bias)
        records.append(weights / sums)
        return weights, sums

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "attention", recording)
        yield records


@pytest.fixture(scope="session")
def steer_cfg() -> ModelConfig:
    return STEER_CONFIG


@pytest.fixture(scope="session")
def steer_weights(steer_cfg):
    return gen_fixture("steer-v1", 0, steer_cfg)


@pytest.fixture(scope="session")
def steer_image() -> GrayImage:
    return verification.steer_image()


@pytest.fixture(scope="session")
def left_seg(steer_cfg) -> SegMask:
    return verification.half_seg(steer_cfg.image_side, steer_cfg.image_side, "left")


@pytest.fixture(scope="session")
def rand_cfg() -> ModelConfig:
    return verification.reduction_config()


@pytest.fixture(scope="session")
def rand_weights(rand_cfg):
    return gen_fixture("random-v1", verification.REDUCTION_SEED, rand_cfg)


@pytest.fixture(scope="session")
def rand_image() -> GrayImage:
    return verification.reduction_image()
