"""The benchmark's span tracer finds every package function it names.

`bench/tracing.py` reports a target it cannot resolve as `absent` and
leaves that layer's metrics out without failing, so a rename in the
package, or a module that the benchmark's imports no longer load, would
silently empty a per-layer figure of a traced run.  This test builds the
tracer as the benchmark does, in a fresh interpreter that has imported
only the workloads, and fails on such a target instead.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_trace_target_resolves():
    path = os.pathsep.join(str(ROOT / part) for part in ("src", "bench"))
    out = subprocess.run(
        [sys.executable, "-c",
         "import workloads, tracing; print(tracing.Tracer().absent)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, check=True).stdout
    assert out.strip() == "[]"
