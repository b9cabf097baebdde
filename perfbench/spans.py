"""In-memory span tracer for the traced benchmark run, and the per-layer metrics.

The tracer replaces public names of the ``regioncd`` modules with timing
wrappers for the length of a traced run. Module attributes are looked up at
call time, so wrapping ``masks.downsample`` also times the calls that
``masks.generate_token_mask`` makes. Names that one module imports from
another (``decoding.generate_token_mask``, ``decoding.encode_image``,
``model.segment_labels``) are separate attributes and are wrapped on their
own. Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, request, extra]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``request`` the id of the request
or set-up round it belongs to, and ``extra`` a small value taken from the
call's arguments or result after the span has closed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

REQUEST = "bench.request"
SETUP = "bench.setup"
LAYERS = ("pgm", "masks", "model", "decoding")  # weights runs only in set-up


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _raster_bytes(args, kwargs, result):
    return int(result[0].size)  # 8-bit samples: one byte each


def _spec(args, kwargs, result):
    spec = _arg(args, kwargs, 1, "spec")
    return (spec.side, spec.crop_rows, spec.crop_cols)


def _prefill_key(args, kwargs, result):
    """Content key of one prefill: visual embeddings plus the attention policy."""
    h = hashlib.blake2b(digest_size=16)
    h.update(_arg(args, kwargs, 3, "visual").embeddings.tobytes())
    policy = _arg(args, kwargs, 4, "attn_policy")
    if policy is not None:
        mask, beta = policy
        h.update(bytes(mask.astype("u1")))
        h.update(repr(float(beta)).encode())
    return h.hexdigest()


def _decode_stop(args, kwargs, result):
    ids = result[0]
    return len(ids), len(ids) < _arg(args, kwargs, 5, "params").max_tokens


def _sweep_cells(args, kwargs, result):
    first = result[0].output_ids
    return len(result), sum(row.output_ids != first for row in result)


def _extend_name(args):
    session = args[0]
    return "model.prompt" if session.length == session.cfg.n_visual else "model.step"


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: str | None = None
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, extra=None):
        def traced(*args, **kwargs):
            rec = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                   self._open[-1] if self._open else -1, self.request, None]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._open.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def root(self, name: str, request: str):
        """Open a root span for one request or set-up round."""
        self.request = request
        rec = [name, perf_counter(), 0.0, -1, request, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._open.pop()
            self.request = None

    def install(self) -> None:
        from regioncd import decoding, masks, model, pgm, weights

        targets = [
            (pgm, "read_pgm", "pgm.read_pgm", _raster_bytes),
            (masks, "generate_token_mask", "masks.generate_token_mask", _spec),
            (decoding, "generate_token_mask", "masks.generate_token_mask", _spec),
            (masks, "downsample", "masks.downsample", None),
            (masks, "assemble", "masks.assemble", None),
            (masks, "segment_labels", "masks.segment_labels", None),
            (model, "segment_labels", "masks.segment_labels", None),
            (masks, "mask_from_bbox", "masks.mask_from_bbox", None),
            (masks, "token_mask_to_json", "masks.token_mask_to_json", None),
            (masks, "token_mask_from_json", "masks.token_mask_from_json", None),
            (weights, "gen_fixture", "weights.gen_fixture", None),
            (weights, "save_weights", "weights.save_weights", None),
            (weights, "load_weights", "weights.load_weights", None),
            (model, "encode_image", "model.encode_image", None),
            (decoding, "encode_image", "model.encode_image", None),
            (model.DecoderSession, "__init__", "model.prefill", _prefill_key),
            (model.DecoderSession, "extend_with_tokens", _extend_name, None),
            (decoding, "decode", "decoding.decode", _decode_stop),
            (decoding, "sweep", "decoding.sweep", _sweep_cells),
            (decoding, "suppress_tokens", "decoding.suppress_tokens", None),
            (decoding, "sweep_to_csv", "decoding.sweep_to_csv", None),
            (decoding.DecodeTrace, "to_jsonl", "decoding.to_jsonl", None),
        ]
        for owner, attr, name, extra in targets:
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, extra))
        for cls, name in ((model.GrayImage, "model.image_from_pgm"),
                          (masks.SegMask, "masks.seg_from_pgm")):
            original = cls.__dict__["from_pgm"]
            self._undo.append((cls, "from_pgm", original))
            cls.from_pgm = classmethod(self.wrap(original.__func__, name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent, request, extra in self.spans:
                f.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                    "parent": parent, "request": request,
                                    "extra": extra}) + "\n")


def _p(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(".calls"):
        return "calls/request"
    if metric.endswith("share"):
        return "ratio"
    if metric.endswith(".mb_per_s"):
        return "MB/s"
    if metric.endswith(".s"):
        return "s"
    return "ms"


def layer_metrics(spans: list[list], requests: set[str], overhead_share: float) -> dict:
    """Per-layer metrics of the measured requests, and of the set-up rounds for weights."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s[4] in requests:
            by_name.setdefault(s[0], []).append(i)

    def dur_ms(name):
        return [1e3 * (spans[i][2] - spans[i][1]) for i in by_name.get(name, [])]

    def total_s(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, []))

    def self_s(i):
        return spans[i][2] - spans[i][1] - child[i]

    n_req = max(len(by_name.get(REQUEST, [])), 1)
    busy = total_s(REQUEST) or 1.0
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for name, idx in by_name.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += sum(self_s(i) for i in idx)

    decodes = [spans[i][5] for i in by_name.get("decoding.decode", [])]
    tokens = sum(n for n, _ in decodes)
    sweeps = by_name.get("decoding.sweep", [])
    cells = sum(spans[i][5][0] for i in sweeps)
    divergent = sum(spans[i][5][1] for i in sweeps)
    prefills = 0
    sweep_of: dict[int, set] = {i: set() for i in sweeps}
    for i in by_name.get("model.prefill", []):
        j = spans[i][3]
        while j >= 0 and j not in sweep_of:
            j = spans[j][3]
        if j >= 0:
            sweep_of[j].add(spans[i][5])
            prefills += 1
    distinct = sum(len(keys) for keys in sweep_of.values())
    specs = [spans[i][5] for i in by_name.get("masks.generate_token_mask", [])]
    seen: set = set()
    reused = 0
    for spec in specs:
        reused += spec in seen
        seen.add(spec)
    reads = by_name.get("pgm.read_pgm", [])
    read_s = total_s("pgm.read_pgm")

    def setup_s(name):  # the weights layer runs only in set-up rounds
        return statistics.median([s[2] - s[1] for s in spans if s[0] == name] or [0.0])

    m = {
        "model.prefill.calls": len(by_name.get("model.prefill", [])) / n_req,
        "model.prefill.ms_p50": _p(dur_ms("model.prefill"), 50),
        "model.prefill.share": total_s("model.prefill") / busy,
        "model.prompt.ms_p50": _p(dur_ms("model.prompt"), 50),
        "model.step.calls": len(by_name.get("model.step", [])) / n_req,
        "model.step.ms_p50": _p(dur_ms("model.step"), 50),
        "model.step.ms_p90": _p(dur_ms("model.step"), 90),
        "model.step.share": total_s("model.step") / busy,
        "model.encode_image.ms_p50": _p(dur_ms("model.encode_image"), 50),
        "decoding.decode.self_ms_per_token":
            1e3 * sum(self_s(i) for i in by_name.get("decoding.decode", [])) / max(tokens, 1),
        "decoding.sweep.self_ms": _p([1e3 * self_s(i) for i in sweeps], 50),
        "decoding.sweep.distinct_prefill_share": distinct / prefills if prefills else 0.0,
        "decoding.sweep.divergent_cell_share": divergent / cells if cells else 0.0,
        "decoding.early_stop_share":
            sum(early for _, early in decodes) / len(decodes) if decodes else 0.0,
        "decoding.suppress_tokens.ms_p50": _p(dur_ms("decoding.suppress_tokens"), 50),
        "decoding.to_jsonl.ms_p50": _p(dur_ms("decoding.to_jsonl"), 50),
        "decoding.sweep_to_csv.ms_p50": _p(dur_ms("decoding.sweep_to_csv"), 50),
        "masks.generate_token_mask.ms_p50": _p(dur_ms("masks.generate_token_mask"), 50),
        "masks.segment_labels.calls": len(by_name.get("masks.segment_labels", [])) / n_req,
        "masks.token_mask_to_json.ms_p50": _p(dur_ms("masks.token_mask_to_json"), 50),
        "masks.spec_reuse_share": reused / len(specs) if specs else 0.0,
        "pgm.read_pgm.ms_p50": _p(dur_ms("pgm.read_pgm"), 50),
        "pgm.read_pgm.mb_per_s":
            sum(spans[i][5] for i in reads) / read_s / 1e6 if read_s else 0.0,
        "weights.gen_fixture.s": setup_s("weights.gen_fixture"),
        "weights.save_weights.s": setup_s("weights.save_weights"),
        "weights.load_weights.s": setup_s("weights.load_weights"),
        "trace.overhead_share": overhead_share,
    }
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_share"] = seconds / busy
    return m
