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

    Yields a list that fills with ``(layer, start, probs)`` per layer of every
    block a session processes, where ``probs`` is ``(rows, block, heads,
    total)`` and ``start`` the block's first position. The kernel runs once
    per query tile of a layer; the tiles are joined back into one array per
    layer, in call order within the block.
    """
    records = []
    kernel, process = model.attention, DecoderSession._process_block
    block = {}

    def processing(session, emb):
        n_tiles = -(-emb.shape[1] // model.QUERY_TILE)
        block.update(start=session.length, n_tiles=n_tiles, layer=0, tiles=[])
        return process(session, emb)

    def recording(scores, bias):
        weights, sums = kernel(scores, bias)
        block["tiles"].append(weights / sums)
        if len(block["tiles"]) == block["n_tiles"]:
            joined = np.concatenate(block["tiles"], axis=2).transpose(0, 2, 1, 3)
            records.append((block["layer"], block["start"], joined))
            block.update(layer=block["layer"] + 1, tiles=[])
        return weights, sums

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DecoderSession, "_process_block", processing)
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
def right_seg(steer_cfg) -> SegMask:
    return half_seg(steer_cfg.image_side, steer_cfg.image_side, "right")


@pytest.fixture(scope="session")
def rand_cfg() -> ModelConfig:
    return verification.reduction_config()


@pytest.fixture(scope="session")
def rand_weights(rand_cfg):
    return gen_fixture("random-v1", verification.REDUCTION_SEED, rand_cfg)


@pytest.fixture(scope="session")
def rand_image() -> GrayImage:
    return verification.reduction_image()
