"""Command-line surface: mask / decode / sweep / fixture / verify.

Exit codes: 0 success, 1 verification failure, 2 input or validation error,
3 numeric error. Every exit 2, a bad command line included, prints one
``error: ...`` line on stderr. Output files are byte-identical across reruns
with the same inputs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

from regioncd import verification, weights
from regioncd.config import GuidanceParams
from regioncd.decoding import DEFAULT_TOPK, decode, sweep, sweep_to_csv
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


def _number_reader(kind: type, syntax: str):
    """A reader of one ``kind`` from text that matches ``syntax`` in full.

    ``int()`` and ``float()`` alone also take digit-group underscores (``1_0``),
    surrounding spaces and non-ASCII digits, which the PGM and JSON readers
    reject; every number on the command line goes through one of these
    readers, so each of those is an :class:`InputError` here.
    """
    pattern = re.compile(syntax, re.IGNORECASE | re.ASCII)

    def read(text: str):
        if not pattern.fullmatch(text):
            raise InputError(f"not a plain {kind.__name__}: {text!r}")
        return kind(text)

    read.__name__ = kind.__name__  # argparse names the type in its error message
    return read


_int = _number_reader(int, r"[+-]?[0-9]+")
# nan and inf are read, for the range checks behind the CLI to reject with their own message
_float = _number_reader(
    float, r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?|[+-]?(inf|infinity|nan)")


def _grid(text: str) -> tuple[int, int]:
    rows, cols = text.lower().split("x")
    return _int(rows), _int(cols)


_grid.__name__ = "HxW grid"


def _list_reader(kind):
    """A reader of a comma list, each entry read by ``kind``; an empty entry is an error."""
    def read(text: str) -> list:
        return [kind(p) for p in text.split(",")]

    read.__name__ = f"comma-separated {kind.__name__} list"
    return read


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
    print(f"length={len(mask)} positives={int(mask.values.sum())}")
    return 0


# decode options that only the guided decode takes; they default to None, so that
# --baseline (decode with no region, which reads no strength and here does not sample)
# can reject them and the guided path falls back to the library defaults
# (argparse rejects --seg and --bbox with --baseline: the three form one region group)
_GUIDED_ONLY = ("alpha", "beta", "gamma", "tau", "temperature", "seed")


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
    seg = None if args.baseline else _load_seg(args, (img.width, img.height))
    params = _guidance(args, **_given(args, "beta", "gamma"))
    ids, trace = decode(img, seg, args.prompt, cfg, w, params, topk=args.topk,
                        **_given(args, "temperature", "seed"))
    if args.out is not None:
        _write_text(args.out, trace.to_jsonl())
    print("tokens: " + " ".join(str(i) for i in ids))
    return 0


def _cmd_sweep(args) -> int:
    w = weights.load_weights(args.weights)
    cfg = w.config
    img = GrayImage.from_pgm(args.image)
    seg = _load_seg(args, (img.width, img.height))
    rows = sweep(img, seg, args.prompt, cfg, w, args.beta, args.gamma, _guidance(args))
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


def _add_region_source(p: argparse.ArgumentParser):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--seg", help="segmentation mask as PGM (nonzero = region)")
    group.add_argument("--bbox", help='bounding box as JSON, e.g. \'{"x_min":0,...}\'')
    return group


class _Parser(argparse.ArgumentParser):
    """Raises :class:`InputError` where argparse would print its usage and exit 2."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="regioncd")
    guidance = GuidanceParams()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", help="convert a region annotation to a token-mask JSON file")
    _add_region_source(p)
    p.add_argument("--image", help="PGM image, used for --bbox pixel dimensions")
    p.add_argument("--L", type=_int, default=12, help="feature-grid side length")
    p.add_argument("--G", type=_grid, default=(1, 1), help="local crop grid HxW")
    p.add_argument("--tau", type=_float, default=0.0, help="downsample coverage threshold")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(handler=_cmd_mask)

    for name, handler in (("decode", _cmd_decode), ("sweep", _cmd_sweep)):
        p = sub.add_parser(name, help=f"run a guided {name}")
        region = _add_region_source(p)
        if name == "decode":
            region.add_argument("--baseline", action="store_true",
                                help="plain greedy decoding, guidance disabled")
        p.add_argument("--image", required=True, help="input image (PGM)")
        p.add_argument("--weights", required=True, help="weight fixture file")
        p.add_argument("--prompt", type=_list_reader(_int), required=True,
                       help="prompt token ids, e.g. 5,9,9")
        p.add_argument("--tau", type=_float,
                       help=f"downsample coverage threshold ({guidance.tau:g})")
        p.add_argument("--alpha", type=_float,
                       help=f"token suppression weight ({guidance.alpha:g})")
        p.add_argument("--max-tokens", type=_int, default=guidance.max_tokens)
        if name == "decode":
            p.add_argument("--topk", type=_int, default=DEFAULT_TOPK,
                           help="entries per trace record")
            p.add_argument("--beta", type=_float,
                           help=f"attention amplification ({guidance.beta:g})")
            p.add_argument("--gamma", type=_float,
                           help=f"logits guidance intensity ({guidance.gamma:g})")
            p.add_argument("--out", help="trace output path (JSON lines)")
            p.add_argument("--temperature", type=_float, help="sample at this temperature")
            p.add_argument("--seed", type=_int, help="sampling seed (0); needs --temperature")
        else:
            p.add_argument("--beta", type=_list_reader(_float), default="1,3,5,10",
                           help="comma-separated beta values")
            p.add_argument("--gamma", type=_list_reader(_float), default="1.0,1.1,1.3,1.5",
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
        p.add_argument("--" + name.replace("_", "-"), type=_grid if name == "G" else _int,
                       help=f"random-v1 only ({defaults[name]})")
    p.set_defaults(handler=_cmd_fixture)

    p = sub.add_parser("verify", help="run the built-in acceptance suite")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 2
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


if __name__ == "__main__":
    run()
