"""Weight fixtures for the miniature decoder: generation, digests, file I/O.

Tensors are stored as 32-bit floats. The file format is a single JSON
document: ``{"config": ..., "tensors": [{"name", "shape", "data"}...],
"digest": ...}`` where ``data`` is base64 of the little-endian float32
payload. Loading validates shapes against the embedded config, rejects
non-finite values, and re-checks the digest, which covers the config and
every tensor, so a fixture file is a self-verifying artifact.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from regioncd.config import ModelConfig
from regioncd.errors import FormatError, InputError, NumericError

_MASK64 = (1 << 64) - 1
_GAMMA64 = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

RANDOM_INIT_LO = -0.05
RANDOM_INIT_HI = 0.05

FIXTURE_KINDS = ("random-v1", "steer-v1")

# canonical config for the handcrafted steering fixture: one layer, one head,
# a 2x2 feature grid over an 8x8 image, and a 4-token vocabulary
STEER_CONFIG = ModelConfig(
    vocab_size=4,
    embed_dim=4,
    n_heads=1,
    n_layers=1,
    feature_side=2,
    crop_rows=1,
    crop_cols=1,
    image_side=8,
    max_seq=32,
    eos_id=1,
)


def _splitmix64_outputs(seed: int, first: int, n: int) -> np.ndarray:
    """Outputs ``first`` to ``first + n - 1`` (from 0) of splitmix64 for ``seed``.

    The state after step i is ``seed + i * GAMMA`` mod 2^64, so every output
    is computed independently; uint64 arithmetic wraps mod 2^64 like the
    masked integer math of ``splitmix64`` in ``tests/test_model.py``, the
    one-step-at-a-time reference this is tested against.
    """
    z = np.arange(first + 1, first + n + 1, dtype=np.uint64) * np.uint64(_GAMMA64)
    z += np.uint64(seed & _MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _uniform_fill(seed: int, first: int, shape: tuple[int, ...], lo: float,
                  hi: float) -> np.ndarray:
    # top 53 bits -> [0, 1) with full double mantissa, identical on any platform
    n = int(np.prod(shape)) if shape else 1
    u = (_splitmix64_outputs(seed, first, n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return (lo + u * (hi - lo)).astype(np.float32).reshape(shape)


def tensor_spec(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Names and shapes of every tensor, in canonical (= fill) order."""
    d, f = cfg.embed_dim, cfg.ffn_dim
    spec: list[tuple[str, tuple[int, ...]]] = [
        ("patch_proj.weight", (d, 1)),
        ("patch_proj.bias", (d,)),
        ("pos_embed", (cfg.max_seq, d)),
        ("sep_embed", (d,)),
        ("token_embed", (cfg.vocab_size, d)),
    ]
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        spec += [
            (p + "attn_norm.gain", (d,)),
            (p + "attn_norm.bias", (d,)),
            (p + "attn.wq", (d, d)),
            (p + "attn.wk", (d, d)),
            (p + "attn.wv", (d, d)),
            (p + "attn.wo", (d, d)),
            (p + "ffn_norm.gain", (d,)),
            (p + "ffn_norm.bias", (d,)),
            (p + "ffn.w1", (d, f)),
            (p + "ffn.b1", (f,)),
            (p + "ffn.w2", (f, d)),
            (p + "ffn.b2", (d,)),
        ]
    spec += [
        ("final_norm.gain", (d,)),
        ("final_norm.bias", (d,)),
        ("head.weight", (d, cfg.vocab_size)),
    ]
    return spec


@dataclass(frozen=True, eq=False)
class WeightSet:
    """Named float32 tensors plus the config they were built for."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        expected = tensor_spec(self.config)
        names = [name for name, _ in expected]
        if set(self.tensors) != set(names):
            raise InputError(
                f"tensor names {sorted(self.tensors)} do not match the expected set"
            )
        # canonical order keeps the digest independent of insertion order
        object.__setattr__(self, "tensors", {name: self.tensors[name] for name in names})
        for name, shape in expected:
            t = self.tensors[name]
            if t.shape != shape:
                raise InputError(f"tensor {name} has shape {t.shape}, expected {shape}")
            if t.dtype != np.float32:
                raise InputError(f"tensor {name} must be float32, got {t.dtype}")
            if not np.isfinite(t).all():
                raise NumericError(f"tensor {name} contains non-finite values")

    @cached_property
    def tensors64(self) -> dict[str, np.ndarray]:
        """The tensors cast to float64 once, for the forward pass.

        Every session and encode built on this weight set shares these
        arrays, so they are read-only.
        """
        out = {name: t.astype(np.float64) for name, t in self.tensors.items()}
        for t in out.values():
            t.flags.writeable = False
        return out

    def digest(self) -> str:
        """SHA-256 over the canonical config JSON and every tensor's name, shape and bytes."""
        h = hashlib.sha256()
        h.update(json.dumps(self.config.to_dict(), sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\x00")
        for name, t in self.tensors.items():
            h.update(name.encode())
            h.update(b"\x00")
            h.update(",".join(str(s) for s in t.shape).encode())
            h.update(b"\x00")
            h.update(t.astype("<f4").tobytes())
        return h.hexdigest()


def _steer_weights(cfg: ModelConfig) -> WeightSet:
    """Handcrafted steering construction (seed-independent).

    The patch projection encodes mean patch intensity x as (1-x, x, 0, ...)
    so a binary image yields exact one-hot channel codes; attention is
    uniform (zero query/key), values pass the two channels through, and the
    output head routes channel 0 to token 2 and channel 1 to token 3. With a
    half-dark/half-light test image, whichever half the guidance mask
    amplifies decides the argmax between tokens 2 and 3.
    """
    if cfg.n_layers != 1 or cfg.n_heads != 1:
        raise InputError("steer-v1 requires exactly one layer and one head")
    if cfg.embed_dim < 2:
        raise InputError("steer-v1 requires embed_dim >= 2")
    d = cfg.embed_dim
    t: dict[str, np.ndarray] = {
        name: np.zeros(shape, dtype=np.float32) for name, shape in tensor_spec(cfg)
    }
    t["patch_proj.weight"][0, 0] = -1.0
    t["patch_proj.weight"][1, 0] = 1.0
    t["patch_proj.bias"][0] = 1.0
    t["layers.0.attn_norm.gain"][:] = 1.0
    t["layers.0.attn.wv"][0, 0] = 1.0
    t["layers.0.attn.wv"][1, 1] = 1.0
    t["layers.0.attn.wo"][:] = np.eye(d, dtype=np.float32)
    t["layers.0.ffn_norm.gain"][:] = 1.0
    t["final_norm.gain"][:] = 1.0
    t["head.weight"][0, 2] = 1.0
    t["head.weight"][1, 3] = 1.0
    return WeightSet(config=cfg, tensors=t)


def gen_fixture(kind: str, seed: int, cfg: ModelConfig) -> WeightSet:
    """Build a weight fixture; random-v1 is seed-reproducible bit for bit.

    The seed is the 64-bit state of the random stream, so one outside
    [0, 2^64) is rejected rather than reduced onto the seed it wraps to.
    """
    if not 0 <= seed < 2**64:
        raise InputError(f"fixture seed must lie in [0, 2^64), got {seed}")
    if kind == "random-v1":
        # the tensors take consecutive runs of one stream, in canonical order
        tensors, first = {}, 0
        for name, shape in tensor_spec(cfg):
            tensors[name] = _uniform_fill(seed, first, shape, RANDOM_INIT_LO, RANDOM_INIT_HI)
            first += tensors[name].size
        return WeightSet(config=cfg, tensors=tensors)
    if kind == "steer-v1":
        return _steer_weights(cfg)
    raise InputError(f"unknown fixture kind {kind!r} (expected one of {FIXTURE_KINDS})")


def save_weights(w: WeightSet, path: str | Path) -> None:
    obj = {
        "config": w.config.to_dict(),
        "tensors": [
            {
                "name": name,
                "shape": list(t.shape),
                "data": base64.b64encode(t.astype("<f4").tobytes()).decode("ascii"),
            }
            for name, t in w.tensors.items()
        ],
        "digest": w.digest(),
    }
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    Path(path).write_text(text + "\n")


def load_weights(path: str | Path) -> WeightSet:
    try:
        obj = json.loads(Path(path).read_text())
        cfg = ModelConfig.from_dict(obj["config"])
        tensors: dict[str, np.ndarray] = {}
        for entry in obj["tensors"]:
            shape, data = entry["shape"], entry["data"]
            if not isinstance(shape, list) or {type(s) for s in shape} - {int}:
                raise FormatError(f"tensor {entry['name']}: shape must be a list of JSON "
                                  f"integers, got {shape!r}")
            if not isinstance(data, str):
                raise FormatError(f"tensor {entry['name']}: data must be a base64 string")
            raw = base64.b64decode(data.encode("ascii"), validate=True)
            n = math.prod(shape)
            if len(raw) != 4 * n:
                raise FormatError(
                    f"tensor {entry['name']}: payload holds {len(raw)} bytes, expected {4 * n}"
                )
            arr = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(shape)
            tensors[str(entry["name"])] = arr
        stored_digest = str(obj["digest"])
    except FormatError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read weight file {path}: {exc}") from None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed weight file {path}: {exc}") from None
    try:
        w = WeightSet(config=cfg, tensors=tensors)
    except NumericError:
        raise
    except InputError as exc:
        raise FormatError(f"weight file {path} inconsistent with its config: {exc}") from None
    if w.digest() != stored_digest:
        raise FormatError(f"weight file {path} failed its digest check")
    return w
