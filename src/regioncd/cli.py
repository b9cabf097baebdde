"""Command-line surface: mask / decode / sweep / fixture / verify.

Exit codes: 0 success, 1 verification failure, 2 input or validation error,
3 numeric error. Output files are byte-identical across reruns with the
same inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from regioncd import verification, weights
from regioncd.config import GuidanceParams
from regioncd.decoding import DEFAULT_TOPK, baseline_decode, decode, sweep, sweep_to_csv
from regioncd.errors import InputError, NumericError
from regioncd.masks import (
    BBox,
    GridSpec,
    SegMask,
    generate_token_mask,
    mask_from_bbox,
    token_mask_to_json,
)
from regioncd.model import GrayImage
from regioncd.pgm import read_pgm


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise InputError(f"--G expects HxW (e.g. 2x2), got {text!r}") from None


def _parse_ids(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}") from None


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise InputError(f"expected comma-separated numbers, got {text!r}") from None


def _load_seg(args, image_dims: tuple[int, int] | None) -> SegMask:
    if args.seg is not None:
        return SegMask.from_pgm(args.seg)
    if image_dims is None:
        raise InputError("--bbox needs --image to establish pixel dimensions")
    width, height = image_dims
    return mask_from_bbox(BBox.from_json(args.bbox), width, height)


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, newline="")


def _cmd_mask(args) -> int:
    spec = GridSpec(side=args.L, crop_rows=args.G[0], crop_cols=args.G[1])
    dims = None
    if args.image is not None:
        samples, _ = read_pgm(args.image)
        dims = (samples.shape[1], samples.shape[0])
    seg = _load_seg(args, dims)
    mask = generate_token_mask(seg, spec, args.tau)
    _write_text(args.out, token_mask_to_json(mask, args.tau))
    print(f"length={len(mask)} positives={mask.positive_count()}")
    return 0


# decode options that only the guided decode reads; they default to None, so that
# --baseline can reject them and the guided path falls back to the library defaults
_GUIDED_ONLY = ("seg", "bbox", "alpha", "beta", "gamma", "tau", "sample", "temperature", "seed")


def _given(args, *names: str) -> dict:
    """The named options that were given on the command line."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _guidance(args, **strengths: float) -> GuidanceParams:
    return GuidanceParams(max_tokens=args.max_tokens, **_given(args, "alpha", "tau"), **strengths)


def _cmd_decode(args) -> int:
    if args.baseline:
        ignored = [f"--{name}" for name in _given(args, *_GUIDED_ONLY)]
        if ignored:
            raise InputError(f"--baseline decodes without guidance and takes no "
                             f"{', '.join(ignored)}")
    w = weights.load_weights(args.weights)
    cfg = w.config
    img = GrayImage.from_pgm(args.image)
    prompt = _parse_ids(args.prompt)
    if args.baseline:
        ids, trace = baseline_decode(img, prompt, cfg, w, args.max_tokens, topk=args.topk)
    else:
        if args.seg is None and args.bbox is None:
            raise InputError("decode needs --seg or --bbox unless --baseline is given")
        seg = _load_seg(args, (img.width, img.height))
        params = _guidance(args, **_given(args, "beta", "gamma"))
        ids, trace = decode(img, seg, prompt, cfg, w, params, topk=args.topk,
                            **_given(args, "sample", "temperature", "seed"))
    if args.out is not None:
        _write_text(args.out, trace.to_jsonl())
    print("tokens: " + " ".join(str(i) for i in ids))
    return 0


def _cmd_sweep(args) -> int:
    w = weights.load_weights(args.weights)
    cfg = w.config
    img = GrayImage.from_pgm(args.image)
    prompt = _parse_ids(args.prompt)
    seg = _load_seg(args, (img.width, img.height))
    betas = _parse_floats(args.beta)
    gammas = _parse_floats(args.gamma)
    rows = sweep(img, seg, prompt, cfg, w, betas, gammas, _guidance(args))
    _write_text(args.out, sweep_to_csv(rows))
    print(f"rows={len(rows)}")
    return 0


# fixture options that seed or shape a random-v1 fixture; they default to None on the
# command line, so that steer-v1, one fixed model, can reject them. random-v1 takes seed
# 0 and the reduction config's value of each field not given; --L sets feature_side and
# --G crop_rows x crop_cols.
_FIXTURE_OPTIONS = ("seed", "vocab_size", "embed_dim", "n_heads", "n_layers", "L", "G",
                    "image_side", "max_seq", "eos_id")


def _cmd_fixture(args) -> int:
    given = _given(args, *_FIXTURE_OPTIONS)
    if args.kind == "steer-v1":
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise InputError(f"--kind steer-v1 is one fixed model and takes no {flags}")
        w = weights.gen_fixture(args.kind, 0, weights.STEER_CONFIG)
    else:
        seed = given.pop("seed", 0)
        if "L" in given:
            given["feature_side"] = given.pop("L")
        if "G" in given:
            given["crop_rows"], given["crop_cols"] = given.pop("G")
        cfg = replace(verification.reduction_config(), **given)
        w = weights.gen_fixture(args.kind, seed, cfg)
    weights.save_weights(w, args.out)
    print(f"digest: {w.digest()}")
    return 0


def _cmd_verify(args) -> int:
    report = verification.run_all()
    for r in report["criteria"]:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] {r['id']:2d} {r['name']}: {r['detail']}")
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out is not None:
        _write_text(args.out, text)
    else:
        print(text, end="")
    return 0 if report["all_passed"] else 1


def _add_region_source(p: argparse.ArgumentParser, required: bool) -> None:
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--seg", help="segmentation mask as PGM (nonzero = region)")
    group.add_argument("--bbox", help='bounding box as JSON, e.g. \'{"x_min":0,...}\'')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="regioncd")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", help="convert a region annotation to a token-mask JSON file")
    _add_region_source(p, required=True)
    p.add_argument("--image", help="PGM image, used for --bbox pixel dimensions")
    p.add_argument("--L", type=int, default=12, help="feature-grid side length")
    p.add_argument("--G", type=_parse_grid, default=(1, 1), help="local crop grid HxW")
    p.add_argument("--tau", type=float, default=0.0, help="downsample coverage threshold")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(handler=_cmd_mask)

    for name, handler in (("decode", _cmd_decode), ("sweep", _cmd_sweep)):
        p = sub.add_parser(name, help=f"run a guided {name}")
        _add_region_source(p, required=name == "sweep")
        p.add_argument("--image", required=True, help="input image (PGM)")
        p.add_argument("--weights", required=True, help="weight fixture file")
        p.add_argument("--prompt", required=True, help="prompt token ids, e.g. 5,9,9")
        p.add_argument("--tau", type=float, help="downsample coverage threshold (0)")
        p.add_argument("--alpha", type=float, help="token suppression weight (0.01)")
        p.add_argument("--max-tokens", type=int, default=16)
        if name == "decode":
            p.add_argument("--topk", type=int, default=DEFAULT_TOPK,
                           help="entries per trace record")
            p.add_argument("--beta", type=float, help="attention amplification (5)")
            p.add_argument("--gamma", type=float, help="logits guidance intensity (1.5)")
            p.add_argument("--out", help="trace output path (JSON lines)")
            p.add_argument("--baseline", action="store_true",
                           help="plain greedy decoding, guidance disabled")
            p.add_argument("--sample", action="store_true", default=None,
                           help="sample from renormalized fused scores instead of argmax")
            p.add_argument("--temperature", type=float, help="sampling temperature (1)")
            p.add_argument("--seed", type=int, help="sampling seed (0)")
        else:
            p.add_argument("--beta", default="1,3,5,10", help="comma-separated beta values")
            p.add_argument("--gamma", default="1.0,1.1,1.3,1.5",
                           help="comma-separated gamma values")
            p.add_argument("--out", required=True, help="CSV output path")
        p.set_defaults(handler=handler)

    p = sub.add_parser("fixture", help="generate a weight fixture file")
    p.add_argument("--kind", required=True, choices=list(weights.FIXTURE_KINDS))
    p.add_argument("--out", required=True)
    base = verification.reduction_config()
    defaults = {"seed": 0, **base.to_dict(), "L": base.feature_side,
                "G": f"{base.crop_rows}x{base.crop_cols}"}
    for name in _FIXTURE_OPTIONS:
        p.add_argument("--" + name.replace("_", "-"), type=_parse_grid if name == "G" else int,
                       help=f"random-v1 only ({defaults[name]})")
    p.set_defaults(handler=_cmd_fixture)

    p = sub.add_parser("verify", help="run the built-in acceptance suite")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the exit-code contract reserves 1 for verify failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
