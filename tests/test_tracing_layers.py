"""Every function the benchmark's tracer wraps must exist in quandlekit.

bench/tracing.py looks each LAYERS entry up with getattr and no default, so
a renamed or deleted function breaks traced benchmark runs.  The file is
loaded by path and left unchanged.
"""

import importlib
import importlib.util
import operator
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_resolves():
    tracing = _tracing()
    missing = []
    for layer, funcs in tracing.LAYERS.items():
        module = importlib.import_module(f"quandlekit.{layer}")
        missing += [f"{layer}.{name}" for name in funcs
                    if not callable(getattr(module, name, None))]
    assert tracing.LAYERS and not missing


def test_a_traced_round_reuses_the_built_shorthands():
    """The tracer rebinds the constructors it wraps, `io.make_alexander_rep`
    among them, yet the shorthand quandles and reps built before it was
    installed come back as the same objects, with no new build."""
    from quandlekit import io
    specs = [("dihedral:5", "alexander-rep:5:2"), ("dihedral:3", "conj-rep:perm3"),
             ("dihedral:3", "trivial-action:3")]

    def load():
        out = []
        for quandle, rep in specs:
            q = io.load_quandle(quandle)
            out += [q, io.load_rep(rep, quandle=q)]
        return out

    io._built.cache_clear()
    built = load()
    entries = len(io._kept)
    with _tracing().Tracer().installed():
        traced = load()
    assert all(map(operator.is_, traced, built))
    assert len(io._kept) == entries
