"""The benchmark's span tracer finds every package function it names.

`bench/tracing.py` reports a target it cannot resolve as `absent` and
leaves that layer's metrics out without failing, so a rename in the
package would silently empty a per-layer figure of a traced run. This
test fails on such a rename instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    for _, module, _ in tracing.TARGETS:
        importlib.import_module(module)  # the tracer looks in sys.modules
    assert tracing.Tracer().absent == []
