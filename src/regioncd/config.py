"""Dataclass configs for the miniature decoder and the guidance parameters."""

from __future__ import annotations

from dataclasses import dataclass, fields

from regioncd.errors import InputError, require_int, require_real
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
        require_int("vocab_size", self.vocab_size, 4)
        for name in ("embed_dim", "n_heads", "n_layers", "feature_side", "crop_rows", "crop_cols",
                     "image_side"):
            require_int(name, getattr(self, name))
        require_int("eos_id", self.eos_id, 0, self.vocab_size)
        if self.embed_dim % self.n_heads:
            raise InputError(
                f"embed_dim {self.embed_dim} must be a multiple of n_heads {self.n_heads}"
            )
        spec = self.grid()
        for side in (self.feature_side, spec.local_rows, spec.local_cols):
            if self.image_side % side:
                raise InputError(
                    f"image_side {self.image_side} not divisible by token-grid side {side}"
                )
        n_visual = expected_length(spec)
        require_int(f"max_seq, after a {n_visual}-token visual prefix,", self.max_seq, n_visual + 2)

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


@dataclass(frozen=True)
class GuidanceParams:
    """Contrastive-guidance knobs for a dual-branch decode.

    ``alpha`` scales masked visual embeddings down in the unguided branch,
    ``beta`` enters the guided branch's attention as ``log(beta)`` added to
    the scores of masked key positions (their pre-normalized weight times
    beta), and ``gamma`` sets the mixing intensity of the two branches'
    log-probabilities at each step. Each strength, ``tau`` included, passes
    ``require_real``, ``max_tokens`` is a size (``require_int``), and ``eos_id``,
    when given, an int from 0 (``require_int``), so ``1.0`` or ``True`` is no token id.

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
            require_real(name, getattr(self, name))
        require_int("max_tokens", self.max_tokens)
        if self.eos_id is not None:
            require_int("eos_id", self.eos_id, 0)

    def to_dict(self) -> dict:
        """The guidance fields: every field but ``spec`` and ``eos_id``."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("spec", "eos_id")}
