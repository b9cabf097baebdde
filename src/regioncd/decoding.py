"""Dual-branch contrastive decoding guided by a region token mask.

The guidance acts at three levels. Token level: the unguided branch sees
masked visual embeddings scaled down by ``alpha``. Attention level: the
guided branch adds ``log(beta)`` to the attention scores of masked key
positions inside every softmax, which multiplies their pre-normalized
weight by ``beta``. Logits level: the two branches' per-step
log-probabilities are combined as ``(1 - gamma) * unguided + gamma * guided``
and the argmax, the first id of a stable top-k sort (lowest id on ties), is
emitted, so gamma > 1 actively pushes away from the unguided distribution.

The two branches are the two rows of one :class:`DecoderSession`, stacked
after each has been prefilled and before the prompt, so the prompt and every
step are one forward pass for both. A session holds one ``text_ids`` list for
all its rows: both branches always consume the same generated prefix.

:func:`decode` and :func:`sweep` run one engine over a list of (beta, gamma)
cells: one unguided prefill serves every cell, and one guided prefill and
one stacked session serve all cells of a beta. Gamma acts on the logits
only, so cells of a beta that emit the same ids share each step's forward;
the session is rewound only where a cell emits an id the others did not.
``decode`` is the one-cell case, and with no region the one-row case: the
plain decode of one unstacked session, the reference the guidance is
judged against.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from regioncd.config import GuidanceParams, ModelConfig
from regioncd.errors import InputError, NumericError, require_array, require_int, require_real
from regioncd.masks import SegMask, TokenMask, generate_token_mask
from regioncd.model import DecoderSession, GrayImage, VisualSequence, check_token_ids, encode_image
from regioncd.weights import WeightSet

DEFAULT_TOPK = 5


def suppress_tokens(visual: VisualSequence, mask: TokenMask, alpha: float) -> VisualSequence:
    """Scale the masked positions' embeddings by ``alpha`` (pure; see ``require_real``). The
    layer-0 RMSNorm divides this scale out unless alpha * rms(row) is near sqrt(``NORM_EPS``)
    = 1e-3; in a deeper model alpha also acts through the residual stream."""
    require_array("visual embeddings", visual.embeddings, (len(mask), None))
    require_real("alpha", alpha)
    emb = visual.embeddings.copy()
    rows = mask.values != 0
    emb[rows] *= alpha
    return VisualSequence(embeddings=emb)


def fuse_logits(
    logprob_guided: np.ndarray, logprob_unguided: np.ndarray, gamma: float
) -> np.ndarray:
    """Combine branch log-probabilities: (1-gamma)*unguided + gamma*guided.

    The unnormalized scores are argmax-valid as is; sampling renormalizes them.
    ``gamma`` passes ``require_real``: a negative one reverses the contrast.
    """
    require_real("gamma", gamma)
    g = require_array("guided log-probs", logprob_guided, (None,))
    u = require_array("unguided log-probs", logprob_unguided, g.shape)
    g, u = (x.astype(np.float64, copy=False) for x in (g, u))
    return (1.0 - gamma) * u + gamma * g


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, so each row of a 2-D array is normalized on its own."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _topk(scores: np.ndarray, k: int) -> list[list[tuple[int, float]]]:
    """Each row's ``k`` best ``(id, score)`` pairs, best first; a stable sort puts ties by id."""
    order = np.argsort(-scores, axis=-1, kind="stable")[:, :k]
    top = np.take_along_axis(scores, order, axis=-1)
    return [list(zip(ids, vals)) for ids, vals in zip(order.tolist(), top.tolist())]


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
    mode: str
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


def _check_request(
    prompt: list[int], cfg: ModelConfig, params: GuidanceParams, topk: int
) -> None:
    check_token_ids(prompt, cfg.vocab_size)
    require_int("topk", topk)
    if params.spec not in (None, cfg.grid()) or params.eos_id not in (None, cfg.eos_id):
        raise InputError(
            "a guidance grid and stop token must be left out or equal the model's, "
            f"{cfg.grid()} and {cfg.eos_id}"
        )
    if cfg.n_visual + len(prompt) + params.max_tokens > cfg.max_seq:
        raise InputError(
            f"visual prefix + prompt + max_tokens exceeds max_seq {cfg.max_seq}"
        )


# the rows' log-probs (rows, vocab) after one prefix, and each row's top-k list of them
_Read = tuple[np.ndarray, list[list[tuple[int, float]]]]


class _SharedSession:
    """A prefilled session, which reads the prompt itself, and every read of its rows.

    ``reads[k]`` holds all rows' log-probabilities and top-``topk`` lists,
    each from one pass, after the prompt and the session's first ``k``
    generated ids. Cells that emit the same ids share these reads; a cell that
    emits a different id rewinds the session to that position and extends it
    from there.
    """

    def __init__(self, session: DecoderSession, prompt: list[int], topk: int):
        self.session = session
        self.topk = topk
        self.reads = [self._read(session.extend_with_tokens(prompt))]

    def _read(self, logits: np.ndarray) -> _Read:
        lps = log_softmax(logits)
        return lps, _topk(lps, self.topk)

    def after(self, t: int, token: int) -> _Read:
        """The reads after the session's first ``t`` generated ids and ``token``."""
        held = len(self.reads) - 1 - t  # the session's generated ids from index t on
        if held:
            if self.session.text_ids[-held] == token:
                return self.reads[t + 1]
            self.session.rewind(self.session.length - held)
            del self.reads[t + 1 :]
        self.reads.append(self._read(self.session.extend_with_tokens([token])))
        return self.reads[-1]


def _run_steps(
    shared: _SharedSession, params: GuidanceParams, pick: Callable[[np.ndarray], int] | None = None
) -> list[StepRecord]:
    """The step loop of one cell over ``shared``, from its prompt log-probs.

    Two rows are (guided, unguided), whose fused scores are
    :func:`fuse_logits` of the two log-probabilities at ``params.gamma``; one
    row's fused scores are its own log-probs. The next token is the first of
    the fused top-k list unless ``pick`` draws it from the fused scores; each
    but the last is read through ``shared``. The loop stops after the model's
    ``eos_id`` or ``params.max_tokens`` tokens. A record's branch top-k lists
    are ``shared``'s, so cells that read one prefix hold the same lists.
    """
    steps: list[StepRecord] = []
    eos_id = shared.session.cfg.eos_id
    lps, tops = shared.reads[0]
    for t in range(params.max_tokens):
        with np.errstate(over="ignore", invalid="ignore"):  # the check below raises
            fused = fuse_logits(lps[0], lps[1], params.gamma) if len(lps) == 2 else lps[0]
        if not np.isfinite(fused).all():
            raise NumericError(f"non-finite fused scores at step {t}")
        fused_topk = _topk(fused[None], shared.topk)[0]
        chosen = fused_topk[0][0] if pick is None else pick(fused)
        steps.append(
            StepRecord(
                t=t,
                guided_topk=tops[0],
                unguided_topk=tops[-1],
                fused_topk=fused_topk,
                chosen=chosen,
            )
        )
        if chosen == eos_id or t + 1 == params.max_tokens:
            break
        lps, tops = shared.after(t, chosen)
    return steps


def _run_cells(
    img: GrayImage,
    seg: SegMask | None,
    prompt: list[int],
    cfg: ModelConfig,
    w: WeightSet,
    cells: list[GuidanceParams],
    topk: int,
    pick: Callable[[np.ndarray], int] | None = None,
) -> tuple[TokenMask | None, list[list[StepRecord]]]:
    """The decode of every cell; returns (token mask, each cell's steps).

    The cells differ in beta and gamma only, so all cells of a beta share one
    :class:`_SharedSession` over the guided and the unguided prefill, stacked
    before the prompt so that the unguided prefill stacks again for the next
    beta. Each row equals a standalone decode of its cell. The stacked
    session is freed before the next guided prefill, so no more than two
    prefilled sessions and one stack are alive at once.

    With no region (``seg`` None) there is no mask: the one cell, whose
    strengths must be the defaults, decodes one unstacked session. A region
    must have the image's size in pixels, or the decode raises
    :class:`ShapeError` before any prefill.
    """
    base = cells[0]
    _check_request(prompt, cfg, base, topk)
    if seg is None:
        plain = GuidanceParams(max_tokens=base.max_tokens).to_dict()
        if len(cells) > 1 or base.to_dict() != plain:
            raise InputError(f"a decode without a region is one cell at the default strengths "
                             f"{plain}; got {len(cells)} cell(s), the first {base.to_dict()}")
        session = DecoderSession(cfg, w, encode_image(img, w))
        return None, [_run_steps(_SharedSession(session, prompt, topk), base, pick)]
    require_array("region mask", seg.pixels, img.intensities.shape)
    mask = generate_token_mask(seg, cfg.grid(), base.tau)
    visual = encode_image(img, w)
    unguided = DecoderSession(cfg, w, suppress_tokens(visual, mask, base.alpha))
    steps: dict[int, list[StepRecord]] = {}
    for beta in dict.fromkeys(cell.beta for cell in cells):
        guided = DecoderSession(cfg, w, visual, attn_policy=(mask.values, beta))
        shared = _SharedSession(DecoderSession.stack([guided, unguided]), prompt, topk)
        del guided
        for i, cell in enumerate(cells):
            if cell.beta == beta:
                steps[i] = _run_steps(shared, cell, pick)
        del shared
    return mask, [steps[i] for i in range(len(cells))]


def decode(
    img: GrayImage,
    seg: SegMask | None,
    prompt: list[int],
    cfg: ModelConfig,
    w: WeightSet,
    params: GuidanceParams,
    topk: int = DEFAULT_TOPK,
    temperature: float | None = None,
    seed: int | None = None,
) -> tuple[list[int], DecodeTrace]:
    """Run the dual-branch guided decode; returns (generated ids, trace).

    With ``seg`` None it is the plain one-branch decode: every trace record's
    three top-k lists are the branch's own log-probs, and the header has mode
    ``"baseline"``, no mask digest and ``max_tokens`` as its only guidance
    field. ``params`` must then leave alpha, beta, gamma and tau at their
    defaults, or the decode raises :class:`InputError` before any prefill.

    Greedy when ``temperature`` is None. Otherwise the next token is drawn
    from the log-softmax of the fused scores at that temperature, with
    ``default_rng(seed)`` (seed 0 when not given), and the trace header's
    ``params`` records both. The seed is an int in ``[0, 2**64)``, the fixture
    seed's range; a seed without a temperature is an InputError.
    """
    pick, sampling = None, {}
    if temperature is None:
        if seed is not None:
            raise InputError("a seed needs a temperature; greedy decoding draws nothing")
    else:
        seed = 0 if seed is None else seed
        require_real("temperature", temperature)
        require_int("seed", seed, 0, 2**64)
        sampling = {"temperature": temperature, "seed": seed}
        rng = np.random.default_rng(seed)

        def pick(fused: np.ndarray) -> int:
            with np.errstate(over="ignore"):
                scaled = fused / temperature
            if not np.isfinite(scaled).all():
                raise NumericError(f"sampling scores overflow at temperature {temperature}")
            probs = np.exp(log_softmax(scaled))
            return int(rng.choice(cfg.vocab_size, p=probs / probs.sum()))

    mask, (steps,) = _run_cells(img, seg, prompt, cfg, w, [params], topk, pick)
    guided = mask is not None
    trace = DecodeTrace(
        params=(params.to_dict() if guided else {"max_tokens": params.max_tokens}) | sampling,
        config=cfg.to_dict(),
        fixture_digest=w.digest(),
        mask_digest=mask.digest() if guided else None,
        topk=topk,
        mode="guided" if guided else "baseline",
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
    _, records = _run_cells(img, seg, prompt, cfg, w, cells, DEFAULT_TOPK)
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
