"""Smoke tests of the benchmark's traced runs against the package in this checkout.

The traced run wraps every name in ``perfbench/spans.py`` (among them
``DecoderSession.__init__`` and ``decoding.decode``), so renaming one of them
in ``src/`` fails here rather than only when the benchmark is run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload: str, tmp_path: Path) -> dict:
    """Result object of a one-second traced run, after checking it exited 0.

    ``run.py`` writes its work files and spans under its own directory, so it
    runs from a copy of the benchmark in ``tmp_path`` over this checkout's
    ``src``. Its spans must land there, and the checkout's ``perfbench/out``
    must gain, lose and rewrite no file.
    """
    (tmp_path / "perfbench").mkdir()
    for script in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(script, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    out = ROOT / "perfbench" / "out"
    before = {path: path.stat().st_mtime_ns for path in out.rglob("*")}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert {path: path.stat().st_mtime_ns for path in out.rglob("*")} == before
    assert (tmp_path / "perfbench" / "out" / f"spans-{workload}-seed1.jsonl").is_file()
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_mask_stream_run(tmp_path):
    assert traced_run("mask-stream", tmp_path)["correct"] is True


def test_traced_decode_run(tmp_path):
    # both branch prefills, the stacked two-row steps and the trace checks
    result = traced_run("decode-757", tmp_path)
    assert result["correct"] is True
    # stacking the prefilled branches runs no further prefill
    assert result["metrics"]["model.prefill.calls"]["value"] == 2


def test_traced_sweep_run(tmp_path):
    # prefill, stack and the step loop under the benchmark's own output checks
    result = traced_run("sweep-313", tmp_path)
    assert result["correct"] is True
    # one unguided prefill plus one guided prefill per distinct beta (1, 3, 5, 10)
    assert result["metrics"]["model.prefill.calls"]["value"] == 5
    # 16 cells x 3 steps if every cell ran its own steps; cells that emit the
    # same ids share one forward per step
    assert result["metrics"]["model.step.calls"]["value"] < 48
