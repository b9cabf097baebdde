#!/usr/bin/env python3
"""Beta/gamma grid sweep on the steering fixture.

Runs one guided decode per (beta, gamma) pair with alpha fixed at 0.01 and
prints the first-step fused margin for each cell: the margin grows with
beta, flat in the neutral column. Writes the full table to out/sweep.csv.
"""

from pathlib import Path

from regioncd import GuidanceParams, STEER_CONFIG, sweep, sweep_to_csv, gen_fixture
from regioncd.verification import half_seg, steer_image

BETAS = [1.0, 3.0, 5.0, 10.0]
GAMMAS = [1.0, 1.1, 1.3, 1.5]


def main() -> None:
    out = Path(__file__).resolve().parent.parent / "out"
    out.mkdir(exist_ok=True)
    cfg = STEER_CONFIG
    w = gen_fixture("steer-v1", 0, cfg)

    img = steer_image()
    seg = half_seg(cfg.image_side, cfg.image_side, "left")

    params = GuidanceParams(spec=cfg.grid(), alpha=0.01, max_tokens=1, eos_id=cfg.eos_id)
    rows = sweep(img, seg, [0], cfg, w, BETAS, GAMMAS, params)
    (out / "sweep.csv").write_text(sweep_to_csv(rows), newline="")
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")

    print("\nstep-1 fused margin (rows: beta, cols: gamma)")
    print("beta\\gamma " + " ".join(f"{g:>8.2f}" for g in GAMMAS))
    for bi, beta in enumerate(BETAS):
        cells = rows[bi * len(GAMMAS) : (bi + 1) * len(GAMMAS)]
        print(f"{beta:>9.1f} " + " ".join(f"{r.step1_margin:8.4f}" for r in cells))


if __name__ == "__main__":
    main()
