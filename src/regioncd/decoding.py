"""Dual-branch contrastive decoding guided by a region token mask.

The guidance acts at three levels. Token level: the unguided branch sees
masked visual embeddings scaled down by ``alpha``. Attention level: the
guided branch adds ``log(beta)`` to the attention scores of masked key
positions inside every softmax, which multiplies their pre-normalized
weight by ``beta``. Logits level: the two branches' per-step
log-probabilities are combined as ``(1 - gamma) * unguided + gamma * guided``
and the argmax token (lowest id on ties) is emitted, so gamma > 1 actively
pushes away from the unguided distribution.

The two branches are the two rows of one :class:`DecoderSession`, stacked
after each has been prefilled and has read the prompt, so every step is one
forward pass for both. A session holds one ``text_ids`` list for all its
rows: both branches always consume the same generated prefix.

:func:`decode` and :func:`sweep` run one engine over a list of (beta, gamma)
cells: one unguided prefill serves every cell, and one guided prefill and
one stacked session serve all cells of a beta. Gamma acts on the logits
only, so cells of a beta that emit the same ids share each step's forward;
the session is rewound only where a cell emits an id the others did not.
``decode`` is the one-cell case.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from regioncd.config import GuidanceParams, ModelConfig
from regioncd.errors import InputError, NumericError, ShapeError
from regioncd.masks import SegMask, TokenMask, generate_token_mask
from regioncd.model import DecoderSession, GrayImage, VisualSequence, encode_image
from regioncd.weights import WeightSet

DEFAULT_TOPK = 5


def suppress_tokens(visual: VisualSequence, mask: TokenMask, alpha: float) -> VisualSequence:
    """Scale the embeddings at masked positions by ``alpha`` (pure)."""
    if len(visual) != len(mask.values):
        raise ShapeError(f"visual length {len(visual)} != mask length {len(mask.values)}")
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must lie in [0, 1], got {alpha}")
    emb = visual.embeddings.copy()
    rows = mask.values != 0
    emb[rows] *= alpha
    return VisualSequence(embeddings=emb)


def fuse_logits(
    logprob_guided: np.ndarray, logprob_unguided: np.ndarray, gamma: float
) -> np.ndarray:
    """Combine branch log-probabilities: (1-gamma)*unguided + gamma*guided.

    The result is an unnormalized score vector; it is argmax-valid as is and
    only needs a log-softmax if renormalized for sampling.
    """
    g = np.asarray(logprob_guided, dtype=np.float64)
    u = np.asarray(logprob_unguided, dtype=np.float64)
    if g.shape != u.shape:
        raise ShapeError(f"branch vectors disagree in shape: {g.shape} vs {u.shape}")
    return (1.0 - gamma) * u + gamma * g


def log_softmax(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max()
    return shifted - np.log(np.exp(shifted).sum())


def _topk(scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    # stable sort on negated scores: ties keep ascending token id
    order = np.argsort(-scores, kind="stable")[:k]
    return [(int(i), float(scores[i])) for i in order]


@dataclass
class StepRecord:
    t: int
    guided_topk: list[tuple[int, float]]
    unguided_topk: list[tuple[int, float]]
    fused_topk: list[tuple[int, float]]
    chosen: int


@dataclass
class DecodeTrace:
    """Per-step record of both branches, for auditing a decode."""

    params: dict
    config: dict
    fixture_digest: str
    mask_digest: str | None
    topk: int
    mode: str = "guided"
    steps: list[StepRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        """A header line of every field but ``steps``, then one line per step.

        Each line is a record's fields as a JSON object with sorted keys; the
        ``(id, logp)`` pairs are written as two-element lists.
        """
        header = {k: v for k, v in vars(self).items() if k != "steps"}
        objs = [header] + [vars(step) for step in self.steps]
        lines = [
            json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
            for obj in objs
        ]
        return "\n".join(lines) + "\n"


def _greedy_pick(scores: np.ndarray) -> int:
    # np.argmax returns the first maximum, i.e. the lowest token id on ties
    return int(np.argmax(scores))


def _check_request(
    prompt: list[int], cfg: ModelConfig, params: GuidanceParams, topk: int
) -> None:
    if not prompt:
        raise InputError("prompt must be non-empty")
    if topk < 1:
        raise InputError(f"topk must be >= 1, got {topk}")
    if params.spec not in (None, cfg.grid()) or params.eos_id not in (None, cfg.eos_id):
        raise InputError(
            f"guidance grid {params.spec} and stop token {params.eos_id} must be left out "
            f"or equal the model's, {cfg.grid()} and {cfg.eos_id}"
        )
    if cfg.n_visual + len(prompt) + params.max_tokens > cfg.max_seq:
        raise InputError(
            f"visual prefix + prompt + max_tokens exceeds max_seq {cfg.max_seq}"
        )


# the rows' log-probs after one prefix, and each row's top-k list of them
_Read = tuple[list[np.ndarray], list[list[tuple[int, float]]]]


class _SharedSession:
    """A session and what its rows read after each prefix it has read.

    ``ids`` are the generated ids the session holds past the prompt, and
    ``after_prefix[k]`` the rows' log-probabilities and their top-``topk``
    lists after the first ``k`` of them (``after_prefix[0]`` after the
    prompt). Cells that emit the same ids read one another's forwards and
    top-k lists from it; a cell that emits a different id rewinds the session
    to that position and extends it from there.
    """

    def __init__(self, session: DecoderSession, logits: np.ndarray, topk: int):
        self.session = session
        self.prompt_end = session.length
        self.topk = topk
        self.ids: list[int] = []
        self.after_prefix = [self._read(logits)]

    def _read(self, logits: np.ndarray) -> _Read:
        lps = [log_softmax(x) for x in logits]
        return lps, [_topk(lp, self.topk) for lp in lps]

    def after(self, t: int, token: int, keep: bool) -> _Read:
        """The rows' log-probs and top-k lists after ``ids[:t]`` and ``token``.

        The caller's first ``t`` ids must be ``ids[:t]``. ``keep`` stores them
        for a later cell; without it only the ids are recorded.
        """
        if t + 1 < len(self.after_prefix) and self.ids[t] == token:
            return self.after_prefix[t + 1]
        if t < len(self.ids):
            self.session.rewind(self.prompt_end + t)
            del self.ids[t:], self.after_prefix[t + 1 :]
        read = self._read(self.session.extend_with_tokens([token]))
        self.ids.append(token)
        if keep:
            self.after_prefix.append(read)
        return read


def _run_steps(
    shared: _SharedSession,
    params: GuidanceParams,
    pick: Callable[[np.ndarray], int],
    keep: bool = False,
) -> list[StepRecord]:
    """The step loop of one cell over ``shared``, from its prompt log-probs.

    Two rows are (guided, unguided), whose fused scores are
    :func:`fuse_logits` of the two log-probabilities at ``params.gamma``; one
    row's fused scores are its own log-probs. ``pick`` chooses the next token
    from the fused scores; every chosen token except the last is read through
    ``shared``, which stores the log-probs for later cells if ``keep``. The
    loop stops after the model's ``eos_id`` or ``params.max_tokens`` tokens. The
    branch top-k lists of a record are ``shared``'s, so the records of cells
    that read one prefix hold the same lists.
    """
    steps: list[StepRecord] = []
    eos_id = shared.session.cfg.eos_id
    lps, tops = shared.after_prefix[0]
    for t in range(params.max_tokens):
        with np.errstate(over="ignore", invalid="ignore"):  # the check below raises
            fused = fuse_logits(lps[0], lps[1], params.gamma) if len(lps) == 2 else lps[0]
        if not np.isfinite(fused).all():
            raise NumericError(f"non-finite fused scores at step {t}")
        chosen = pick(fused)
        steps.append(
            StepRecord(
                t=t,
                guided_topk=tops[0],
                unguided_topk=tops[-1],
                fused_topk=_topk(fused, shared.topk),
                chosen=chosen,
            )
        )
        if chosen == eos_id or t + 1 == params.max_tokens:
            break
        lps, tops = shared.after(t, chosen, keep)
    return steps


def _run_cells(
    img: GrayImage,
    seg: SegMask,
    prompt: list[int],
    cfg: ModelConfig,
    w: WeightSet,
    cells: list[GuidanceParams],
    topk: int,
    pick: Callable[[np.ndarray], int],
) -> tuple[TokenMask, list[list[StepRecord]]]:
    """The guided decode of every cell; returns (token mask, each cell's steps).

    The cells differ in beta and gamma only, and gamma changes no forward
    pass, so all cells of a beta run over one two-row session stacked from
    the two prompt-extended sessions. A cell reads the forwards of earlier
    cells while its ids match theirs and rewinds the session where they
    differ, so each row equals a standalone decode of its cell. Log-probs are
    stored only while another cell of the beta is still to run. The stacked
    session is freed before the next guided prefill, so no more than two
    prefilled sessions and one stack are alive at once.
    """
    base = cells[0]
    _check_request(prompt, cfg, base, topk)
    mask = generate_token_mask(seg, cfg.grid(), base.tau)
    visual = encode_image(img, cfg, w)
    unguided = DecoderSession(cfg, w, suppress_tokens(visual, mask, base.alpha))
    logits_u = unguided.extend_with_tokens(prompt)
    steps: dict[int, list[StepRecord]] = {}
    for beta in dict.fromkeys(cell.beta for cell in cells):
        guided = DecoderSession(cfg, w, visual, attn_policy=(mask.values, beta))
        logits = np.concatenate([guided.extend_with_tokens(prompt), logits_u])
        shared = _SharedSession(DecoderSession.stack([guided, unguided]), logits, topk)
        del guided
        of_beta = [i for i, cell in enumerate(cells) if cell.beta == beta]
        for n, i in enumerate(of_beta, 1):
            steps[i] = _run_steps(shared, cells[i], pick, keep=n < len(of_beta))
        del shared
    return mask, [steps[i] for i in range(len(cells))]


def decode(
    img: GrayImage,
    seg: SegMask,
    prompt: list[int],
    cfg: ModelConfig,
    w: WeightSet,
    params: GuidanceParams,
    topk: int = DEFAULT_TOPK,
    sample: bool = False,
    temperature: float = 1.0,
    seed: int = 0,
) -> tuple[list[int], DecodeTrace]:
    """Run the dual-branch guided decode; returns (generated ids, trace).

    Greedy by default; with ``sample=True`` the fused scores are
    renormalized by log-softmax and the next token drawn at the given
    temperature (seeded, reproducible).
    """
    if not math.isfinite(temperature) or (sample and temperature <= 0.0):
        raise InputError(f"temperature must be finite, and positive when sampling, "
                         f"got {temperature}")
    if sample and seed < 0:
        raise InputError(f"sampling seed must be >= 0, got {seed}")
    pick = _greedy_pick
    if sample:
        rng = np.random.default_rng(seed)

        def pick(fused: np.ndarray) -> int:
            with np.errstate(over="ignore"):
                scaled = fused / temperature
            if not np.isfinite(scaled).all():
                raise NumericError(f"sampling scores overflow at temperature {temperature}")
            probs = np.exp(log_softmax(scaled))
            return int(rng.choice(cfg.vocab_size, p=probs / probs.sum()))

    mask, (steps,) = _run_cells(img, seg, prompt, cfg, w, [params], topk, pick)
    trace = DecodeTrace(
        params=params.to_dict(),
        config=cfg.to_dict(),
        fixture_digest=w.digest(),
        mask_digest=mask.digest(),
        topk=topk,
        steps=steps,
    )
    return [s.chosen for s in steps], trace


def baseline_decode(
    img: GrayImage,
    prompt: list[int],
    cfg: ModelConfig,
    w: WeightSet,
    max_tokens: int,
    topk: int = DEFAULT_TOPK,
) -> tuple[list[int], DecodeTrace]:
    """Plain single-branch greedy decoding, the unguided reference.

    The one-branch case of the guided decode: every trace record's three
    top-k lists are the branch's own log-probs. It stops at ``cfg.eos_id``.
    """
    params = GuidanceParams(max_tokens=max_tokens)
    _check_request(prompt, cfg, params, topk)
    session = DecoderSession(cfg, w, encode_image(img, cfg, w))
    shared = _SharedSession(session, session.extend_with_tokens(prompt), topk)
    steps = _run_steps(shared, params, _greedy_pick)
    trace = DecodeTrace(
        params={"max_tokens": max_tokens},
        config=cfg.to_dict(),
        fixture_digest=w.digest(),
        mask_digest=None,
        topk=topk,
        mode="baseline",
        steps=steps,
    )
    return [s.chosen for s in steps], trace


@dataclass
class SweepRow:
    beta: float
    gamma: float
    output_ids: list[int]
    step1_margin: float


def sweep(
    img: GrayImage,
    seg: SegMask,
    prompt: list[int],
    cfg: ModelConfig,
    w: WeightSet,
    beta_list: list[float],
    gamma_list: list[float],
    params: GuidanceParams,
) -> list[SweepRow]:
    """One greedy decode per (beta, gamma) pair, beta-major row order.

    Each cell is ``params`` with its beta and gamma replaced, and its row is
    what :func:`decode` returns for that cell.

    ``step1_margin`` is the gap between the best and second-best fused
    scores at the first step, a scalar view of how decisively the guidance
    separates the top candidates.
    """
    if not beta_list or not gamma_list:
        raise InputError("beta and gamma lists must be non-empty")
    cells = [replace(params, beta=b, gamma=g) for b in beta_list for g in gamma_list]
    _, records = _run_cells(img, seg, prompt, cfg, w, cells, DEFAULT_TOPK, _greedy_pick)
    return [
        SweepRow(beta=float(cell.beta), gamma=float(cell.gamma),
                 output_ids=[s.chosen for s in steps],
                 step1_margin=steps[0].fused_topk[0][1] - steps[0].fused_topk[1][1])
        for cell, steps in zip(cells, records)
    ]


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """CSV with '.' decimals and LF endings; byte-deterministic."""
    lines = ["beta,gamma,output_ids,step1_margin"]
    for r in rows:
        ids = " ".join(str(i) for i in r.output_ids)
        lines.append(f"{r.beta!r},{r.gamma!r},{ids},{r.step1_margin!r}")
    return "\n".join(lines) + "\n"
