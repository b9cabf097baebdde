"""Built-in acceptance suite: every criterion checkable from a clean build.

Each criterion is a zero-argument callable returning (passed, detail). The
CLI ``verify`` command and the pytest acceptance module both run this exact
list, so there is one source of truth for what "working" means.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from regioncd import decoding, masks, model, pgm, weights
from regioncd.config import GuidanceParams, ModelConfig
from regioncd.errors import InputError
from regioncd.masks import GridSpec, SegMask, expected_length, generate_token_mask
from regioncd.model import GrayImage

# ---------------------------------------------------------------------------
# shared fixtures for the model-level criteria


REDUCTION_SEED = 7
REDUCTION_PROMPT = [1, 2, 3]
REDUCTION_STEPS = 12


def reduction_config() -> ModelConfig:
    return ModelConfig(
        vocab_size=16,
        embed_dim=32,
        n_heads=4,
        n_layers=2,
        feature_side=4,
        crop_rows=1,
        crop_cols=1,
        image_side=16,
        max_seq=64,
        eos_id=0,
    )


def reduction_image() -> GrayImage:
    side = reduction_config().image_side
    ramp = (np.arange(side)[:, None] * side + np.arange(side)[None, :]) / (side * side - 1)
    return GrayImage(ramp)


def half_seg(width: int, height: int, side: str) -> SegMask:
    """A region covering the ``"left"`` or ``"right"`` half of the image."""
    if side not in ("left", "right"):
        raise InputError(f"side must be 'left' or 'right', got {side!r}")
    pixels = np.zeros((height, width), dtype=np.uint8)
    pixels[:, : width // 2] = 1
    return SegMask(pixels if side == "left" else 1 - pixels)


def steer_image() -> GrayImage:
    side = weights.STEER_CONFIG.image_side
    arr = np.zeros((side, side), dtype=np.float64)
    arr[:, side // 2 :] = 1.0
    return GrayImage(arr)


def _steer_params(**overrides) -> GuidanceParams:
    base = dict(alpha=0.01, beta=9.0, gamma=1.5, tau=0.0, max_tokens=1)
    base.update(overrides)
    return GuidanceParams(**base)


def _write_steer_artifacts(root: Path) -> dict[str, Path]:
    cfg = weights.STEER_CONFIG
    paths = {
        "weights": root / "steer.weights.json",
        "image": root / "img.pgm",
        "seg_left": root / "left.pgm",
    }
    weights.save_weights(weights.gen_fixture("steer-v1", 0, cfg), paths["weights"])
    img = steer_image()
    pgm.write_pgm(paths["image"], np.rint(img.intensities * 255).astype(np.uint8))
    seg = half_seg(cfg.image_side, cfg.image_side, "left")
    pgm.write_pgm(paths["seg_left"], seg.pixels * 255)
    return paths


# ---------------------------------------------------------------------------
# criteria


def check_mask_length_law() -> tuple[bool, str]:
    """Generated mask length obeys the layout formula; separators stay 0."""
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    checked = 0
    for side in range(1, 17):
        for crop_rows in range(1, 5):
            for crop_cols in range(1, 5):
                spec = GridSpec(side=side, crop_rows=crop_rows, crop_cols=crop_cols)
                want = expected_length(spec)
                sep = np.array([s.endswith("_sep") for s in masks.segment_labels(spec)])
                for _ in range(50):
                    seg = SegMask(rng.integers(0, 2, size=(64, 64), dtype=np.uint8))
                    mask = generate_token_mask(seg, spec, tau=0.0)
                    if len(mask) != want:
                        return False, f"length {len(mask)} != {want} for {spec}"
                    if mask.values[sep].any():
                        return False, f"nonzero separator for {spec}"
                    checked += 1
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        return False, f"{checked} masks took {elapsed:.1f}s (budget 10s)"
    return True, f"{checked} masks verified in {elapsed:.2f}s"


def check_canonical_lengths() -> tuple[bool, str]:
    """Reference grids produce the frozen canonical lengths."""
    cases = [
        (GridSpec(side=12, crop_rows=1, crop_cols=1), 313),
        (GridSpec(side=12, crop_rows=2, crop_cols=2), 757),
    ]
    for spec, want in cases:
        got = expected_length(spec)
        if got != want:
            return False, f"expected_length({spec}) = {got}, want {want}"
        seg = half_seg(96, 96, "left")
        if len(generate_token_mask(seg, spec)) != want:
            return False, f"generated mask length mismatch for {spec}"
    return True, "lengths 313 and 757 confirmed"


def _reweighted(scores: np.ndarray, mask: np.ndarray, beta: float) -> np.ndarray:
    """One attention row through the kernel and region bias the decode runs.

    The kernel overwrites the scores it is given, so it gets a copy; the row is
    its ``weights / sums``.
    """
    weights, sums = model.attention(np.array(scores, dtype=np.float64),
                                    model.region_bias(mask, beta))
    return weights / sums


def check_reweight_oracle() -> tuple[bool, str]:
    """Attention reweighting matches an extended-precision brute force."""
    rng = np.random.default_rng(99)
    betas = [1.0, 2.0, 3.0, 5.0, 10.0]
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 65))
        e = rng.uniform(-20.0, 20.0, size=n)
        m = rng.integers(0, 2, size=n)
        beta = betas[i % len(betas)]
        p = _reweighted(e, m, beta)
        ld = np.longdouble
        w = np.where(m != 0, ld(beta), ld(1.0)) * np.exp(e.astype(ld))
        oracle = (w / w.sum()).astype(np.float64)
        worst = max(worst, float(np.abs(p - oracle).max()))
        if worst > 1e-6:
            return False, f"row {i}: max deviation {worst:.3e} from the oracle"
        if abs(float(p.sum()) - 1.0) > 1e-6:
            return False, f"row {i}: probabilities sum to {p.sum()}"
        plain = np.exp(e) / np.exp(e).sum()
        for p_ref in (_reweighted(e, np.zeros(n), 1.0), _reweighted(e, np.ones(n), beta)):
            if np.abs(p_ref - plain).max() > 1e-7:
                return False, f"row {i}: beta-neutral case deviates from plain softmax"
    return True, f"1000 rows within {worst:.2e} of the oracle"


def check_mass_monotonicity() -> tuple[bool, str]:
    """Total probability on masked positions strictly grows with beta.

    Scores are drawn from [-10, 10]: the increase is strict for any finite
    scores, but a wider range can push the masked mass within one float64
    ulp of 1.0, where consecutive beta values become indistinguishable.
    """
    rng = np.random.default_rng(41)
    for i in range(100):
        n = int(rng.integers(2, 65))
        e = rng.uniform(-10.0, 10.0, size=n)
        m = np.zeros(n, dtype=np.int64)
        m[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
        masses = [
            float(_reweighted(e, m, beta)[m != 0].sum()) for beta in (1.0, 2.0, 3.0, 5.0, 10.0)
        ]
        if not all(b > a for a, b in zip(masses, masses[1:])):
            return False, f"case {i}: masses {masses} not strictly increasing"
    return True, "100 cases strictly increasing over beta in {1,2,3,5,10}"


def check_reduction_to_baseline() -> tuple[bool, str]:
    """alpha=1, beta=1 collapses the dual branch onto plain greedy decoding."""
    started = time.perf_counter()
    cfg = reduction_config()
    w = weights.gen_fixture("random-v1", REDUCTION_SEED, cfg)
    img = reduction_image()
    seg = half_seg(cfg.image_side, cfg.image_side, "left")
    base_ids, _ = decoding.baseline_decode(img, REDUCTION_PROMPT, cfg, w, REDUCTION_STEPS)
    if len(base_ids) != REDUCTION_STEPS:
        return False, f"baseline stopped after {len(base_ids)} steps, wanted {REDUCTION_STEPS}"
    for gamma in (0.0, 0.5, 1.0, 1.5):
        params = GuidanceParams(alpha=1.0, beta=1.0, gamma=gamma, tau=0.0,
                                max_tokens=REDUCTION_STEPS)
        ids, trace = decoding.decode(
            img, seg, REDUCTION_PROMPT, cfg, w, params, topk=cfg.vocab_size
        )
        if ids != base_ids:
            return False, f"gamma={gamma}: ids {ids} != baseline {base_ids}"
        for step in trace.steps:
            fused = dict(step.fused_topk)
            for branch in (step.guided_topk, step.unguided_topk):
                dev = max(abs(fused[i] - v) for i, v in branch)
                if dev > 1e-6:
                    return False, f"gamma={gamma} t={step.t}: fused deviates by {dev:.2e}"
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        return False, f"reduction check took {elapsed:.1f}s (budget 5s)"
    return True, f"4 gamma values match baseline over {REDUCTION_STEPS} steps ({elapsed:.2f}s)"


def check_neutral_mask() -> tuple[bool, str]:
    """An all-zero region mask leaves guided decoding at the baseline."""
    cfg = reduction_config()
    w = weights.gen_fixture("random-v1", REDUCTION_SEED, cfg)
    img = reduction_image()
    seg = SegMask(np.zeros((cfg.image_side, cfg.image_side), dtype=np.uint8))
    base_ids, _ = decoding.baseline_decode(img, REDUCTION_PROMPT, cfg, w, REDUCTION_STEPS)
    params = GuidanceParams(alpha=0.01, beta=5.0, gamma=1.5, tau=0.0,
                            max_tokens=REDUCTION_STEPS)
    ids, _ = decoding.decode(img, seg, REDUCTION_PROMPT, cfg, w, params)
    if ids != base_ids:
        return False, f"neutral-mask ids {ids} != baseline {base_ids}"
    return True, "all-zero mask reproduces plain greedy output"


def check_steerability() -> tuple[bool, str]:
    """The handcrafted fixture's one-step output follows the mask side."""
    cfg = weights.STEER_CONFIG
    w = weights.gen_fixture("steer-v1", 0, cfg)
    img = steer_image()
    left = half_seg(cfg.image_side, cfg.image_side, "left")
    right = half_seg(cfg.image_side, cfg.image_side, "right")
    ids_left, _ = decoding.decode(img, left, [0], cfg, w, _steer_params())
    if ids_left != [2]:
        return False, f"left-half mask emitted {ids_left}, want [2]"
    ids_right, _ = decoding.decode(img, right, [0], cfg, w, _steer_params())
    if ids_right != [3]:
        return False, f"right-half mask emitted {ids_right}, want [3]"
    neutral = _steer_params(alpha=1.0, beta=1.0, gamma=1.0)
    ids_tie, trace = decoding.decode(img, left, [0], cfg, w, neutral, topk=cfg.vocab_size)
    fused = dict(trace.steps[0].fused_topk)
    if abs(fused[2] - fused[3]) > 1e-12:
        return False, f"neutral params: tokens 2/3 did not tie ({fused[2]} vs {fused[3]})"
    if ids_tie != [2]:
        return False, f"tie case emitted {ids_tie}, want [2] by lowest-id rule"
    return True, "left->2, right->3, neutral tie resolves to 2"


def check_sweep_monotonicity() -> tuple[bool, str]:
    """cmd_sweep's step1_margin grows with beta on the steering fixture."""
    from regioncd import cli  # deferred: cli imports this module

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = _write_steer_artifacts(root)
        out = root / "sweep.csv"
        code = cli.main([
            "sweep", "--image", str(paths["image"]), "--seg", str(paths["seg_left"]),
            "--weights", str(paths["weights"]), "--beta", "1,3,5,10", "--gamma", "1.3",
            "--prompt", "0", "--max-tokens", "1", "--out", str(out),
        ])
        if code != 0:
            return False, f"cmd_sweep exited with {code}"
        lines = out.read_text().splitlines()
    if lines[0] != "beta,gamma,output_ids,step1_margin":
        return False, f"unexpected CSV header {lines[0]!r}"
    margins = [float(line.split(",")[3]) for line in lines[1:]]
    if len(margins) != 4:
        return False, f"expected 4 rows, got {len(margins)}"
    if not all(b >= a for a, b in zip(margins, margins[1:])):
        return False, f"margins {margins} not non-decreasing"
    return True, f"margins {['%.4f' % m for m in margins]} non-decreasing over beta"


def check_determinism() -> tuple[bool, str]:
    """Identical runs write identical bytes; fixtures reproduce by digest."""
    from regioncd import cli  # deferred: cli imports this module

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = _write_steer_artifacts(root)
        traces = []
        for name in ("a.jsonl", "b.jsonl"):
            out = root / name
            code = cli.main([
                "decode", "--image", str(paths["image"]), "--seg", str(paths["seg_left"]),
                "--weights", str(paths["weights"]), "--prompt", "0",
                "--max-tokens", "1", "--out", str(out),
            ])
            if code != 0:
                return False, f"cmd_decode exited with {code}"
            traces.append(out.read_bytes())
    if traces[0] != traces[1]:
        return False, "consecutive decode runs wrote different trace bytes"
    cfg = reduction_config()
    d1 = weights.gen_fixture("random-v1", 7, cfg).digest()
    d2 = weights.gen_fixture("random-v1", 7, cfg).digest()
    d3 = weights.gen_fixture("random-v1", 8, cfg).digest()
    if d1 != d2:
        return False, "same seed produced different fixture digests"
    if d1 == d3:
        return False, "different seeds produced identical fixture digests"
    return True, "byte-identical traces; fixture digests reproduce by seed"


def check_fusion_arithmetic() -> tuple[bool, str]:
    """Fused-score formula: spot value and identical-branch fixpoint."""
    got = float(decoding.fuse_logits(np.array([-1.0]), np.array([-2.0]), 1.5)[0])
    if abs(got - (-0.5)) > 1e-12:
        return False, f"fuse_logits(-1, -2, 1.5) = {got}, want -0.5"
    rng = np.random.default_rng(17)
    for i in range(100):
        x = rng.uniform(-10.0, 0.0, size=int(rng.integers(1, 33)))
        gamma = float(rng.uniform(0.0, 3.0))
        dev = float(np.abs(decoding.fuse_logits(x, x, gamma) - x).max())
        if dev > 1e-9:
            return False, f"case {i}: fixpoint deviates by {dev:.2e}"
    return True, "spot value -0.5 exact; 100 fixpoint cases within 1e-9"


@dataclass(frozen=True)
class Criterion:
    cid: int
    name: str
    fn: Callable[[], tuple[bool, str]]


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "mask-length-law", check_mask_length_law),
    Criterion(2, "canonical-lengths", check_canonical_lengths),
    Criterion(3, "attention-reweight-oracle", check_reweight_oracle),
    Criterion(4, "mass-monotonicity", check_mass_monotonicity),
    Criterion(5, "reduction-to-baseline", check_reduction_to_baseline),
    Criterion(6, "neutral-mask-reduction", check_neutral_mask),
    Criterion(7, "steerability", check_steerability),
    Criterion(8, "sweep-monotonicity", check_sweep_monotonicity),
    Criterion(9, "determinism", check_determinism),
    Criterion(10, "fusion-arithmetic", check_fusion_arithmetic),
)


def run_all() -> dict:
    """Run every criterion; never raises, failures are recorded."""
    results = []
    for c in CRITERIA:
        try:
            passed, detail = c.fn()
        except Exception as exc:  # a crashing criterion is a failing criterion
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append({"id": c.cid, "name": c.name, "passed": passed, "detail": detail})
    return {
        "count": len(results),
        "all_passed": all(r["passed"] for r in results),
        "criteria": results,
    }
