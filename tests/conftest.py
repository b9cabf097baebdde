from contextlib import contextmanager
from typing import Sequence

import numpy as np
import pytest

from regioncd import DecoderSession, GrayImage, ModelConfig, SegMask, STEER_CONFIG, gen_fixture
from regioncd import model, verification
from regioncd.verification import half_seg


def forward_logits(visual, text: Sequence[int], cfg, w, attn_policy=None) -> np.ndarray:
    """One-shot forward over [visual; text]; logits at the final position."""
    session = DecoderSession(cfg, w, visual, attn_policy=attn_policy)
    return session.extend_with_tokens(text)[0]


@contextmanager
def recorded_attention():
    """Record the probabilities ``weights / sums`` of every attention kernel call.

    Yields a list that fills with one ``(rows, heads, tile, total)`` array per
    call, in call order: one query tile of one layer over the ``total`` keys
    the block sees. A text block is a single tile, so its row ``i`` is the
    query at position ``total - b + i`` for a block of ``b`` tokens.
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
    return half_seg(steer_cfg.image_side, steer_cfg.image_side, "left")


@pytest.fixture(scope="session")
def rand_cfg() -> ModelConfig:
    return verification.reduction_config()


@pytest.fixture(scope="session")
def rand_weights(rand_cfg):
    return gen_fixture("random-v1", verification.REDUCTION_SEED, rand_cfg)


@pytest.fixture(scope="session")
def rand_image() -> GrayImage:
    return verification.reduction_image()
