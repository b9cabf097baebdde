"""Dataclass configs for the miniature decoder and the guidance parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from regioncd.errors import FormatError, InputError
from regioncd.masks import GridSpec, expected_length


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the miniature vision-language decoder.

    ``feature_side`` is the patch-grid side of one view and ``crop_rows`` x
    ``crop_cols`` the tiling of the image into local crops; together they fix
    the visual token layout, :meth:`grid`. A decode stops at ``eos_id``.
    """

    vocab_size: int
    embed_dim: int
    n_heads: int
    n_layers: int
    feature_side: int
    crop_rows: int = 1
    crop_cols: int = 1
    image_side: int = 336
    max_seq: int = 512
    eos_id: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < 4:
            raise InputError(f"vocab_size must be >= 4, got {self.vocab_size}")
        if self.embed_dim < 1 or self.n_heads < 1 or self.embed_dim % self.n_heads:
            raise InputError(
                f"embed_dim {self.embed_dim} must be a positive multiple of n_heads {self.n_heads}"
            )
        if self.n_layers < 1:
            raise InputError("n_layers must be >= 1")
        if self.image_side < 1:
            raise InputError(f"image_side must be >= 1, got {self.image_side}")
        spec = self.grid()
        for side in (self.feature_side, spec.local_rows, spec.local_cols):
            if self.image_side % side:
                raise InputError(
                    f"image_side {self.image_side} not divisible by token-grid side {side}"
                )
        if self.max_seq < expected_length(spec) + 2:
            raise InputError(
                f"max_seq {self.max_seq} leaves no room after the "
                f"{expected_length(spec)}-token visual prefix"
            )
        if not 0 <= self.eos_id < self.vocab_size:
            raise InputError(f"eos_id {self.eos_id} outside vocab")

    def grid(self) -> GridSpec:
        return GridSpec(side=self.feature_side, crop_rows=self.crop_rows, crop_cols=self.crop_cols)

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.n_heads

    @property
    def ffn_dim(self) -> int:
        return 4 * self.embed_dim

    @property
    def n_visual(self) -> int:
        return expected_length(self.grid())

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelConfig":
        """The config in ``obj``, whose every field must be a JSON integer.

        A float, boolean or string field (``1.9``, ``true``, ``"1"``) is a
        :class:`FormatError`, not truncated or parsed.
        """
        try:
            kwargs = {f.name: obj[f.name] for f in fields(cls)}
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad model config: {exc}") from None
        for name, value in kwargs.items():
            if type(value) is not int:
                raise FormatError(f"model config field {name} must be an integer, got {value!r}")
        return cls(**kwargs)


@dataclass(frozen=True)
class GuidanceParams:
    """Contrastive-guidance knobs for a dual-branch decode.

    ``alpha`` scales masked visual embeddings down in the unguided branch,
    ``beta`` enters the guided branch's attention as ``log(beta)`` added to
    the scores of masked key positions (their pre-normalized weight times
    beta), and ``gamma`` sets the mixing intensity of the two branches'
    log-probabilities at each step.

    The token grid and the stop token are the model's: a decode reads them
    from its :class:`ModelConfig`. ``spec`` and ``eos_id``, when given, must
    equal ``cfg.grid()`` and ``cfg.eos_id`` or the decode raises
    :class:`InputError`.
    """

    spec: GridSpec | None = None
    alpha: float = 0.01
    beta: float = 5.0
    gamma: float = 1.5
    tau: float = 0.0
    max_tokens: int = 16
    eos_id: int | None = None

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.alpha <= 1.0:
            raise InputError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.beta < 1.0:
            raise InputError(f"beta must be >= 1, got {self.beta}")
        if self.gamma < 0.0:
            raise InputError(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 <= self.tau < 1.0:
            raise InputError(f"tau must lie in [0, 1), got {self.tau}")
        if self.max_tokens < 1:
            raise InputError("max_tokens must be >= 1")

    def to_dict(self) -> dict:
        """The guidance fields: every field but ``spec`` and ``eos_id``."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("spec", "eos_id")}
