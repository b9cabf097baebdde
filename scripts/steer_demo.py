#!/usr/bin/env python3
"""Steerability demo on the handcrafted fixture.

Builds the half-dark/half-light test image, then decodes one step under a
left-half mask, a right-half mask, and neutral guidance parameters. The
emitted token flips between 2 and 3 with the mask side; the neutral run
ties and falls back to the lowest id. Artifacts land in out/.
"""

from pathlib import Path

from regioncd import GuidanceParams, STEER_CONFIG, decode, gen_fixture, save_weights
from regioncd.verification import half_seg, steer_image


def main() -> None:
    out = Path(__file__).resolve().parent.parent / "out"
    out.mkdir(exist_ok=True)
    cfg = STEER_CONFIG
    w = gen_fixture("steer-v1", 0, cfg)
    save_weights(w, out / "steer.weights.json")
    print(f"fixture digest {w.digest()[:16]}... -> {out / 'steer.weights.json'}")

    img = steer_image()

    runs = [
        ("left mask, beta=9", half_seg(cfg.image_side, cfg.image_side, "left"),
         dict(alpha=0.01, beta=9.0, gamma=1.5)),
        ("right mask, beta=9", half_seg(cfg.image_side, cfg.image_side, "right"),
         dict(alpha=0.01, beta=9.0, gamma=1.5)),
        ("left mask, neutral", half_seg(cfg.image_side, cfg.image_side, "left"),
         dict(alpha=1.0, beta=1.0, gamma=1.0)),
    ]
    for name, seg, knobs in runs:
        params = GuidanceParams(spec=cfg.grid(), max_tokens=1, eos_id=cfg.eos_id, **knobs)
        ids, trace = decode(img, seg, [0], cfg, w, params, topk=cfg.vocab_size)
        fused = ", ".join(f"{i}:{v:+.4f}" for i, v in trace.steps[0].fused_topk)
        print(f"{name:22s} -> token {ids[0]}   fused scores: {fused}")


if __name__ == "__main__":
    main()
