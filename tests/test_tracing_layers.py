"""Every function the benchmark's tracer wraps must exist in quandlekit.

bench/tracing.py looks each LAYERS entry up with getattr and no default, so
a renamed or deleted function breaks traced benchmark runs.  The file is
loaded by path and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, funcs in tracing.LAYERS.items():
        module = importlib.import_module(f"quandlekit.{layer}")
        missing += [f"{layer}.{name}" for name in funcs
                    if not callable(getattr(module, name, None))]
    assert tracing.LAYERS and not missing
