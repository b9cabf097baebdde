"""Smoke test of the benchmark's traced run against the package in this checkout.

The traced run wraps every name in ``perfbench/spans.py`` (among them
``DecoderSession.__init__`` and ``decoding.decode``), so renaming one of them
in ``src/`` fails here rather than only when the benchmark is run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_mask_stream_run():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mask-stream", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
