"""The benchmark's workloads: seeded inputs, set-up, one request, output checks.

Every call into ``regioncd`` goes through a module attribute
(``decoding.decode``, ``masks.generate_token_mask``, ...) so that the traced
run sees it. A workload's ``make_input`` runs outside the timed region and
writes the request's input files; ``run`` is the timed request; ``check``
validates the outputs against rules the benchmark derives on its own and
raises :class:`CheckError` on the first violation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from regioncd import decoding, masks, model, pgm, weights
from regioncd.config import GuidanceParams, ModelConfig

FIXTURE_KIND = "random-v1"
FIXTURE_SEED = 7


class CheckError(Exception):
    """An output broke one of the benchmark's correctness rules."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _reject_constant(name: str):
    raise CheckError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None


@dataclass
class Outcome:
    tokens: int  # output tokens: generated ids, or token-mask positions
    ints: np.ndarray  # integer outputs, for the run digest


def paper_config(crops: int, max_seq: int) -> ModelConfig:
    """The paper's layout: L=12 with a crops x crops local tiling of a 336 px image."""
    return ModelConfig(vocab_size=256, embed_dim=64, n_heads=4, n_layers=4, feature_side=12,
                       crop_rows=crops, crop_cols=crops, image_side=336, max_seq=max_seq,
                       eos_id=255)


def blob_pixels(rng: np.random.Generator, side: int) -> np.ndarray:
    """A 0/255 segmentation: the union of one to three ellipses."""
    y, x = np.ogrid[0:side, 0:side]
    region = np.zeros((side, side), dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        cy, cx = rng.uniform(0, side, 2)
        ry, rx = rng.uniform(side / 16, side / 3, 2)
        region |= ((y - cy) / ry) ** 2 + ((x - cx) / rx) ** 2 <= 1.0
    return region.astype(np.uint8) * 255


def image_pixels(rng: np.random.Generator, side: int) -> np.ndarray:
    """An 8-bit image: a linear ramp with three to six flat rectangles on it."""
    y, x = np.mgrid[0:side, 0:side] / side
    a, b = rng.uniform(-1.0, 1.0, 2)
    img = 0.5 + 0.25 * (a * x + b * y)
    for _ in range(int(rng.integers(3, 7))):
        x0, x1 = np.sort(rng.integers(0, side, 2))
        y0, y1 = np.sort(rng.integers(0, side, 2))
        img[y0 : y1 + 1, x0 : x1 + 1] = rng.uniform()
    return np.round(img * 255).astype(np.uint8)


def bbox_json(rng: np.random.Generator, side: int) -> str:
    x_min, x_max = np.sort(rng.uniform(0, side, 2))
    y_min, y_max = np.sort(rng.uniform(0, side, 2))
    return json.dumps({"x_min": x_min, "y_min": y_min, "x_max": x_max, "y_max": y_max})


def check_ids(ids: list[int], cfg: ModelConfig, max_tokens: int) -> None:
    """Ids lie in the vocab; the count is max_tokens unless the last id is eos."""
    _require(all(isinstance(i, int) and 0 <= i < cfg.vocab_size for i in ids),
             "token id outside the vocab")
    _require(1 <= len(ids) <= max_tokens, f"{len(ids)} tokens for max_tokens {max_tokens}")
    _require(cfg.eos_id not in ids[:-1], "tokens emitted after eos")
    _require(len(ids) == max_tokens or ids[-1] == cfg.eos_id,
             f"stopped at {len(ids)} of {max_tokens} tokens without eos")


@dataclass
class RegionInput:
    image: Path
    seg: Path | None
    bbox: str | None
    prompt: list[int]


def _region_input(rng, i: int, work: Path, side: int, prompt_len: int, eos: int) -> RegionInput:
    """An image file plus a region: a PGM segmentation on even requests, a bbox on odd."""
    image = work / "image.pgm"
    pgm.write_pgm(image, image_pixels(rng, side))
    seg = bbox = None
    if i % 2 == 0:
        seg = work / "seg.pgm"
        pgm.write_pgm(seg, blob_pixels(rng, side))
    else:
        bbox = bbox_json(rng, side)
    prompt = [int(t) for t in rng.integers(0, eos, prompt_len)]
    return RegionInput(image, seg, bbox, prompt)


def _load_region(inp: RegionInput):
    img = model.GrayImage.from_pgm(inp.image)
    if inp.seg is not None:
        return img, masks.SegMask.from_pgm(inp.seg)
    return img, masks.mask_from_bbox(masks.BBox.from_json(inp.bbox), img.width, img.height)


class _FixtureWorkload:
    """Set-up shared by the model workloads: build, save and reload the fixture."""

    cfg: ModelConfig
    fixture = f"{FIXTURE_KIND} seed {FIXTURE_SEED}"
    setup_rounds = 3
    min_requests = 3  # every run completes these, so their digest compares across commits

    def setup(self, work: Path, rng):
        w = weights.gen_fixture(FIXTURE_KIND, FIXTURE_SEED, self.cfg)
        path = work / "fixture.json"
        weights.save_weights(w, path)
        loaded = weights.load_weights(path)
        _require(loaded.digest() == w.digest(), "fixture changed across save and load")
        return loaded

    def make_input(self, rng, i: int, work: Path, w) -> RegionInput:
        return _region_input(rng, i, work, self.cfg.image_side, self.prompt_len, self.cfg.eos_id)


class Decode757(_FixtureWorkload):
    """One guided decode per request at the paper layout (757 visual tokens)."""

    name = "decode-757"
    cfg = paper_config(crops=2, max_seq=1024)
    prompt_len = 8
    max_tokens = 256
    unit_rate = None  # one request is one cell

    def run(self, w, inp: RegionInput):
        img, seg = _load_region(inp)
        params = GuidanceParams(spec=self.cfg.grid(), max_tokens=self.max_tokens,
                                eos_id=self.cfg.eos_id)
        ids, trace = decoding.decode(img, seg, inp.prompt, self.cfg, w, params)
        return ids, trace.to_jsonl()

    def check(self, inp: RegionInput, out) -> Outcome:
        ids, text = out
        check_ids(ids, self.cfg, self.max_tokens)
        lines = text.split("\n")
        _require(lines[-1] == "", "trace does not end with a newline")
        records = [strict_json(line) for line in lines[:-1]]
        _require(len(records) == 1 + len(ids), "trace holds one record per step after a header")
        _require(records[0]["mode"] == "guided", "trace header is not a guided decode")
        _require([r["chosen"] for r in records[1:]] == ids, "trace disagrees with the ids")
        _require([r["t"] for r in records[1:]] == list(range(len(ids))), "trace steps out of order")
        return Outcome(tokens=len(ids), ints=np.asarray(ids))


class Sweep313(_FixtureWorkload):
    """One (beta, gamma) sweep per request over the CLI default grid, 313 visual tokens."""

    name = "sweep-313"
    cfg = paper_config(crops=1, max_seq=512)
    prompt_len = 3
    max_tokens = 4
    betas = [1.0, 3.0, 5.0, 10.0]
    gammas = [1.0, 1.1, 1.3, 1.5]
    unit_rate = ("cells_per_s", len(betas) * len(gammas))

    def run(self, w, inp: RegionInput):
        img, seg = _load_region(inp)
        base = GuidanceParams(spec=self.cfg.grid(), beta=self.betas[0], gamma=1.0,
                              max_tokens=self.max_tokens, eos_id=self.cfg.eos_id)
        rows = decoding.sweep(img, seg, inp.prompt, self.cfg, w, self.betas, self.gammas, base)
        return rows, decoding.sweep_to_csv(rows)

    def check(self, inp: RegionInput, out) -> Outcome:
        rows, csv = out
        grid = [(b, g) for b in self.betas for g in self.gammas]
        _require(len(rows) == len(grid), f"{len(rows)} sweep rows for a {len(grid)}-cell grid")
        _require([(r.beta, r.gamma) for r in rows] == grid, "sweep rows not in beta-major order")
        lines = csv.split("\n")
        _require(lines[0] == "beta,gamma,output_ids,step1_margin" and lines[-1] == "",
                 "sweep CSV header or final newline missing")
        _require(len(lines) == len(rows) + 2, "sweep CSV holds one line per row")
        for row, line in zip(rows, lines[1:]):
            check_ids(row.output_ids, self.cfg, self.max_tokens)
            _require(math.isfinite(row.step1_margin) and row.step1_margin >= 0.0,
                     "step-1 margin is negative or not finite")
            beta, gamma, ids, margin = line.split(",")
            _require((float(beta), float(gamma), float(margin))
                     == (row.beta, row.gamma, row.step1_margin)
                     and [int(t) for t in ids.split(" ")] == row.output_ids,
                     "sweep CSV line disagrees with its row")
        ids = [t for r in rows for t in r.output_ids]
        return Outcome(tokens=len(ids), ints=np.asarray(ids))


@dataclass
class MaskInput:
    path: Path
    bbox: str | None
    spec: masks.GridSpec
    tau: float
    out: Path
    read_back: bool


class MaskStream:
    """The ``mask`` command's path as library calls, one region per request."""

    name = "mask-stream"
    cfg = fixture = None
    unit_rate = ("masks_per_s", 1)
    # one set-up takes tens of milliseconds, so the median needs more rounds
    setup_rounds = 9
    min_requests = 100
    sides = (96, 192, 336)
    files_per_side = 16
    out_slots = 64
    read_back_every = 4

    def setup(self, work: Path, rng):
        """Write the pool of segmentation files the requests read."""
        pool = []
        for side in self.sides:
            for k in range(self.files_per_side):
                path = work / f"seg-{side}-{k}.pgm"
                pgm.write_pgm(path, blob_pixels(rng, side))
                pool.append((path, side))
        return pool

    def make_input(self, rng, i: int, work: Path, pool) -> MaskInput:
        path, side = pool[int(rng.integers(len(pool)))]
        bbox = bbox_json(rng, side) if rng.random() < 0.5 else None
        if i % 2 == 0:
            crops = (2, 2) if rng.random() < 0.5 else (1, 1)
            spec, tau = masks.GridSpec(12, *crops), 0.0
        else:
            side_, rows, cols = rng.integers(1, 25), rng.integers(1, 5), rng.integers(1, 5)
            spec = masks.GridSpec(int(side_), int(rows), int(cols))
            tau = float(rng.choice([0.0, 0.25, 0.5]))
        return MaskInput(path, bbox, spec, tau, work / f"mask-{i % self.out_slots}.json",
                         i % self.read_back_every == 0)

    def run(self, pool, inp: MaskInput):
        if inp.bbox is None:
            seg = masks.SegMask.from_pgm(inp.path)
        else:
            samples, _ = pgm.read_pgm(inp.path)
            seg = masks.mask_from_bbox(masks.BBox.from_json(inp.bbox),
                                       samples.shape[1], samples.shape[0])
        mask = masks.generate_token_mask(seg, inp.spec, inp.tau)
        text = masks.token_mask_to_json(mask, inp.tau)
        inp.out.write_text(text, newline="")
        back = masks.token_mask_from_json(inp.out.read_text()) if inp.read_back else None
        return bool(seg.pixels.any()), mask, text, back

    def check(self, inp: MaskInput, out) -> Outcome:
        region, mask, text, back = out
        spec = inp.spec
        local_rows, local_cols = spec.side * spec.crop_rows, spec.side * spec.crop_cols
        n_local = local_rows * (local_cols + 1)
        length = n_local + 1 + spec.side * (spec.side + 1)
        values = mask.values
        _require(values.shape == (length,), f"mask length {values.shape} != {length}")
        _require(bool(np.isin(values, (0, 1)).all()), "mask values outside {0, 1}")
        sep = np.zeros(length, dtype=bool)
        sep[local_cols:n_local:local_cols + 1] = True
        sep[n_local] = True
        sep[n_local + 1 + spec.side :: spec.side + 1] = True
        _require(not values[sep].any(), "a separator position carries a nonzero value")
        if inp.tau == 0.0:
            _require(bool(values.any()) == region, "tau=0 mask disagrees with region presence")
        obj = strict_json(text)
        _require(obj["length"] == length and obj["values"] == values.tolist(),
                 "mask JSON disagrees with the mask")
        if back is not None:
            back_mask, back_tau = back
            _require(back_mask.spec == spec and back_tau == inp.tau
                     and np.array_equal(back_mask.values, values),
                     "mask read back from JSON differs")
        return Outcome(tokens=length, ints=values)
