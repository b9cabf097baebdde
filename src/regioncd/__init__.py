"""Region-guided contrastive decoding over a miniature vision-language decoder."""

from regioncd.config import GuidanceParams, ModelConfig
from regioncd.decoding import (
    DecodeTrace,
    SweepRow,
    baseline_decode,
    decode,
    fuse_logits,
    log_softmax,
    suppress_tokens,
    sweep,
    sweep_to_csv,
)
from regioncd.errors import FormatError, InputError, NumericError, ShapeError
from regioncd.masks import (
    BBox,
    GridSpec,
    SegMask,
    TokenMask,
    assemble,
    downsample,
    expected_length,
    generate_token_mask,
    mask_from_bbox,
    token_mask_to_json,
)
from regioncd.model import DecoderSession, GrayImage, VisualSequence, encode_image
from regioncd.weights import (
    STEER_CONFIG,
    WeightSet,
    gen_fixture,
    load_weights,
    save_weights,
    splitmix64,
)

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "DecodeTrace",
    "DecoderSession",
    "FormatError",
    "GrayImage",
    "GridSpec",
    "GuidanceParams",
    "InputError",
    "ModelConfig",
    "NumericError",
    "STEER_CONFIG",
    "SegMask",
    "ShapeError",
    "SweepRow",
    "TokenMask",
    "VisualSequence",
    "WeightSet",
    "assemble",
    "baseline_decode",
    "decode",
    "downsample",
    "encode_image",
    "expected_length",
    "fuse_logits",
    "gen_fixture",
    "generate_token_mask",
    "load_weights",
    "log_softmax",
    "mask_from_bbox",
    "save_weights",
    "splitmix64",
    "suppress_tokens",
    "sweep",
    "sweep_to_csv",
    "token_mask_to_json",
]
