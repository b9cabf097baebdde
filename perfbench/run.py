#!/usr/bin/env python3
"""regioncd benchmark: one closed-loop client issuing one workload's requests.

    python3 perfbench/run.py --workload decode-757 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from a checkout of the repository; the package is imported from ``src/``.
Each run sets up ``setup_rounds`` times (fixture build, save and load, or the
input pool, plus one warm-up request), then sends requests one after another
until ``--seconds`` have passed and at least ``min_requests`` have completed
(both are attributes of the workload, see ``workloads.py``).
Every output is checked. The last stdout line is the result object; with
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run (see ``spans.py``). ``--workload all`` runs each
workload in a child process of its own, one after another, so that peak RSS
stays per workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("decode-757", "sweep-313", "mask-stream")
# BLAS runs single-threaded: at these shapes a second BLAS thread was slower
# and noisier on a 2-core machine, and it leaves a core for the program's own
# threads (branch prefills in parallel are a ROADMAP item).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {"latency_ms.p50": "ms", "tokens_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
# a percentile is reported only when at least ten samples lie beyond it
P90_MIN_SAMPLES = 100


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_all(args) -> int:
    """Run every workload, each in its own child process, and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged, allow_nan=False))
    return 0


def environment(np, wl, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, 1 client",
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "model_config": wl.cfg.to_dict() if wl.cfg else None,
        "fixture": wl.fixture,
    }


def _ints_digest(np, ints) -> bytes:
    ints = np.ascontiguousarray(ints, dtype="<i4")
    return len(ints).to_bytes(8, "little") + ints.tobytes()


def measure(wl, args, work: Path, tracer, np, spans, workloads):
    """Set up ``wl.setup_rounds`` times, then run the closed loop; returns raw measurements."""
    setup_times = []
    for k in range(wl.setup_rounds):
        root = tracer.root(spans.SETUP, f"setup{k}") if tracer else nullcontext()
        t0 = perf_counter()
        with root:
            state = wl.setup(work, np.random.default_rng([args.seed, 2]))
            warm = wl.make_input(np.random.default_rng([args.seed, 1]), 0, work, state)
            wl.check(warm, wl.run(state, warm))
        setup_times.append(perf_counter() - t0)

    latency: dict[int, float] = {}
    outputs: dict[int, bytes] = {}
    tokens = failed = 0
    digest = hashlib.sha256()
    i = 0
    start = perf_counter()
    while i < wl.min_requests or perf_counter() - start < args.seconds:
        inp = wl.make_input(np.random.default_rng([args.seed, 0, i]), i, work, state)
        root = tracer.root(spans.REQUEST, str(i)) if tracer else nullcontext()
        try:
            t0 = perf_counter()
            with root:
                out = wl.run(state, inp)
            elapsed = perf_counter() - t0
            outcome = wl.check(inp, out)
        except Exception as exc:  # a failed request is counted, and the loop goes on
            failed += 1
            print(f"perfbench: request {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            latency[i] = elapsed
            tokens += outcome.tokens
            ints = _ints_digest(np, outcome.ints)
            if i < wl.min_requests:
                digest.update(ints)
            if tracer:
                outputs[i] = hashlib.sha256(ints).digest()
        i += 1

    overhead = 0.0
    if tracer:
        # replay the traced requests untraced, which also shows that tracing
        # leaves the outputs unchanged
        tracer.uninstall()
        traced = untraced = 0.0
        replay_start = perf_counter()
        for j in sorted(latency):
            inp = wl.make_input(np.random.default_rng([args.seed, 0, j]), j, work, state)
            t0 = perf_counter()
            out = wl.run(state, inp)
            untraced += perf_counter() - t0
            traced += latency[j]
            try:
                same = hashlib.sha256(_ints_digest(np, wl.check(inp, out).ints)).digest()
                same = same == outputs[j]
            except workloads.CheckError:
                same = False
            if not same:
                failed += 1
                print(f"perfbench: request {j} differs when replayed untraced", file=sys.stderr)
            if perf_counter() - replay_start >= args.seconds / 2:
                break
        overhead = traced / untraced
    return setup_times, latency, tokens, failed, i, digest.hexdigest(), overhead


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # read when numpy loads BLAS, so set before the import
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "regioncd" / "__init__.py").is_file():
        print(f"perfbench: no regioncd package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np

    import spans
    import workloads

    wl = {w.name: w for w in (workloads.Decode757(), workloads.Sweep313(),
                              workloads.MaskStream())}[args.workload]
    units = declared_units(args.trace)
    work = OUT / f"work-{wl.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        setup_times, latency, tokens, failed, attempted, digest, overhead = measure(
            wl, args, work, tracer, np, spans, workloads)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    lat_ms = sorted(1e3 * t for t in latency.values())
    busy = sum(latency.values())
    info = environment(np, wl, args)
    print("info " + json.dumps(info, sort_keys=True))
    print(f"requests = {attempted} attempted, {failed} failed "
          f"(error_rate = {failed / attempted:.6g})")
    print(f"digest of the first {wl.min_requests} requests' integer outputs = {digest}")
    if args.trace:
        measured = {str(j) for j in range(attempted)}
        metrics = spans.layer_metrics(tracer.spans, measured, overhead)
        metric_units = {name: spans.unit(name) for name in metrics}
        path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "latency_ms.p50": statistics.median(lat_ms),
            "tokens_per_s": tokens / busy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
        metric_units = E2E_UNITS
        if len(lat_ms) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
            print(f"latency_ms.p90 = {p90:.6g} ms (n={len(lat_ms)})")
        if wl.unit_rate:
            name, per_request = wl.unit_rate
            print(f"{name} = {per_request * len(lat_ms) / busy:.6g} 1/s")
    if metric_units != units:
        print("perfbench: metrics disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        note = f" (n={len(lat_ms)})" if name.startswith("latency_ms") else ""
        print(f"{name} = {value:.6g} {metric_units[name]}{note}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": metric_units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
