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
    if params.spec != cfg.grid():
        raise InputError(
            f"guidance grid {params.spec} does not match the model grid {cfg.grid()}"
        )
    if cfg.n_visual + len(prompt) + params.max_tokens > cfg.max_seq:
        raise InputError(
            f"visual prefix + prompt + max_tokens exceeds max_seq {cfg.max_seq}"
        )


def _run_steps(
    session: DecoderSession,
    logits: np.ndarray,
    params: GuidanceParams,
    topk: int,
    pick: Callable[[np.ndarray], int],
) -> tuple[list[int], list[StepRecord]]:
    """The step loop from the prompt logits ``(rows, vocab)`` of ``session``.

    Two rows are (guided, unguided), whose fused scores are
    :func:`fuse_logits` of the two log-probabilities at ``params.gamma``; one
    row's fused scores are its own log-probs. ``pick`` chooses the next token
    from the fused scores; the session is extended with every chosen token
    except the last.
    """
    out: list[int] = []
    steps: list[StepRecord] = []
    for t in range(params.max_tokens):
        lps = [log_softmax(x) for x in logits]
        with np.errstate(over="ignore", invalid="ignore"):  # the check below raises
            fused = fuse_logits(lps[0], lps[1], params.gamma) if len(lps) == 2 else lps[0]
        if not np.isfinite(fused).all():
            raise NumericError(f"non-finite fused scores at step {t}")
        chosen = pick(fused)
        steps.append(
            StepRecord(
                t=t,
                guided_topk=_topk(lps[0], topk),
                unguided_topk=_topk(lps[-1], topk),
                fused_topk=_topk(fused, topk),
                chosen=chosen,
            )
        )
        out.append(chosen)
        if chosen == params.eos_id or t + 1 == params.max_tokens:
            break
        logits = session.extend_with_tokens([chosen])
    return out, steps


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
    _check_request(prompt, cfg, params, topk)
    if not math.isfinite(temperature) or (sample and temperature <= 0.0):
        raise InputError(f"temperature must be finite, and positive when sampling, "
                         f"got {temperature}")
    if sample and seed < 0:
        raise InputError(f"sampling seed must be >= 0, got {seed}")
    mask = generate_token_mask(seg, params.spec, params.tau)
    visual = encode_image(img, cfg, w)
    guided = DecoderSession(cfg, w, visual, attn_policy=(mask.values, params.beta))
    unguided = DecoderSession(cfg, w, suppress_tokens(visual, mask, params.alpha))

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

    logits = np.concatenate([s.extend_with_tokens(prompt) for s in (guided, unguided)])
    out, steps = _run_steps(DecoderSession.stack([guided, unguided]), logits, params, topk, pick)
    trace = DecodeTrace(
        params=params.to_dict(),
        config=cfg.to_dict(),
        fixture_digest=w.digest(),
        mask_digest=mask.digest(),
        topk=topk,
        steps=steps,
    )
    return out, trace


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
    params = GuidanceParams(spec=cfg.grid(), max_tokens=max_tokens, eos_id=cfg.eos_id)
    _check_request(prompt, cfg, params, topk)
    session = DecoderSession(cfg, w, encode_image(img, cfg, w))
    out, steps = _run_steps(session, session.extend_with_tokens(prompt), params, topk,
                            _greedy_pick)
    trace = DecodeTrace(
        params={"max_tokens": max_tokens, "eos_id": cfg.eos_id},
        config=cfg.to_dict(),
        fixture_digest=w.digest(),
        mask_digest=None,
        topk=topk,
        mode="baseline",
        steps=steps,
    )
    return out, trace


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

    Each cell is ``params`` with its beta and gamma replaced. The prefills
    are shared per distinct branch input: the unguided branch depends on
    neither beta nor gamma and the guided branch only on beta, so a sweep
    runs one unguided prefill and one guided prefill per distinct beta. Every
    cell stacks those two prompt-extended sessions into a two-row session of
    its own, whose one ``text_ids`` list both branches extend. The rows are
    identical to running :func:`decode` on each cell.

    ``step1_margin`` is the gap between the best and second-best fused
    scores at the first step, a scalar view of how decisively the guidance
    separates the top candidates.
    """
    if not beta_list or not gamma_list:
        raise InputError("beta and gamma lists must be non-empty")
    cells = [replace(params, beta=b, gamma=g) for b in beta_list for g in gamma_list]
    topk = max(2, DEFAULT_TOPK)
    _check_request(prompt, cfg, params, topk)
    mask = generate_token_mask(seg, params.spec, params.tau)
    visual = encode_image(img, cfg, w)
    unguided = DecoderSession(cfg, w, suppress_tokens(visual, mask, params.alpha))
    logits_u = unguided.extend_with_tokens(prompt)

    rows: list[SweepRow | None] = [None] * len(cells)
    # All cells of one beta run, and its session is freed, before the next guided
    # prefill, so no more than two prefilled sessions are alive at once, as in decode.
    for beta in dict.fromkeys(run.beta for run in cells):
        guided = DecoderSession(cfg, w, visual, attn_policy=(mask.values, beta))
        logits = np.concatenate([guided.extend_with_tokens(prompt), logits_u])
        for i, run in enumerate(cells):
            if run.beta != beta:
                continue
            ids, steps = _run_steps(DecoderSession.stack([guided, unguided]), logits, run, topk,
                                    _greedy_pick)
            fused = steps[0].fused_topk
            rows[i] = SweepRow(beta=float(run.beta), gamma=float(run.gamma), output_ids=ids,
                               step1_margin=fused[0][1] - fused[1][1])
        del guided
    return rows


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """CSV with '.' decimals and LF endings; byte-deterministic."""
    lines = ["beta,gamma,output_ids,step1_margin"]
    for r in rows:
        ids = " ".join(str(i) for i in r.output_ids)
        lines.append(f"{r.beta!r},{r.gamma!r},{ids},{r.step1_margin!r}")
    return "\n".join(lines) + "\n"
