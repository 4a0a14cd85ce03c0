"""Per-layer spans and counters for the traced run, installed from outside.

The layers are quandlekit's modules.  `Tracer.installed()` replaces each
function named in LAYERS by a wrapper that records a span (job, name,
start, end, parent) and, for some functions, counts work from the call's
arguments and return value.  The wrapper is bound in the defining module
and in every loaded quandlekit module that imported the name, so that
`invariants.cokernel_mod` and `cli.alexander_polynomial` are traced too.
Only layer-boundary functions are wrapped, never inner-loop helpers such as
`mat_mul` or `FiniteQuandle.op`: their cost stays in the caller's self time.

A span's self time is its duration minus the durations of its child spans
(calls nest, so children never overlap).  Counting code runs after the
span's clock stops and is recorded as a child span of the caller in the
`trace` layer, so it inflates no program layer.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import os
import sys
import time
from array import array
from collections import Counter


def _cells(mat) -> int:
    return len(mat) * (len(mat[0]) if mat else 0)


def _max_bits(counts, args, result) -> None:
    bits = max((abs(x).bit_length() for row in result for x in row), default=0)
    counts["linalg.max_bits"] = max(counts["linalg.max_bits"], bits)


def _colorings(counts, args, result) -> None:
    q, w = args[0], args[1]
    counts["braids.coloring_candidates"] += q.size ** w.strands
    counts["braids.colorings_found"] += len(result)


def _snf(counts, args, result) -> None:
    counts["linalg.snf_cells"] += _cells(args[0])


def _coboundary(counts, args, result) -> None:
    counts["homology.coboundary_cells"] += _cells(result)
    counts["homology.coboundary_nonzero"] += sum(1 for row in result for x in row if x)


def _lp_det(counts, args, result) -> None:
    counts["laurent.det_terms"] += math.factorial(len(args[0]))


def _fox_matrix(counts, args, result) -> None:
    counts["fox.fox_matrix_cells"] += _cells(result)


def _relations(counts, args, result) -> None:
    counts["algebra.relation_checks"] += args[0].quandle.size ** 3


def _axioms(counts, args, result) -> None:
    counts["quandles.axiom_checks"] += len(args[0]) ** 3


# module -> {function: counting hook or None}
LAYERS = {
    "cli": {"main": None},
    "io": dict.fromkeys(["_load_json", "load_quandle", "load_rep", "load_cochain",
                         "quandle_from_doc", "rep_from_doc", "cochain_from_doc",
                         "cochain_to_doc", "dumps_document"]),
    "quandles": {"verify_axioms": _axioms, "quandle_from_table": None,
                 "make_dihedral": None, "make_alexander": None, "make_trivial": None},
    "algebra": {"verify_relations": _relations, "make_rep": None,
                "make_alexander_rep": None, "make_conj_rep": None,
                "permutation_rep_r3": None, "bar": None},
    "braids": {"braid_or_knot": None, "colorings_of_closure": _colorings,
               "colored_matrix": None, "crossing_data": None,
               "diagram_two_chain": None},
    "invariants": {"cocycle_invariant": None, "module_invariant": None,
                   "dynamical_extension": None, "multiset_contained": None},
    "homology": {"cocycle_space": None, "cohomology": None, "is_cocycle_2": None,
                 "is_cocycle_3": None, "coboundary_matrix": _coboundary,
                 "boundary_matrix": _coboundary},
    "linalg": {"smith_normal_form": _snf, "cokernel_mod": None, "kernel_mod_p": None,
               "int_kernel": _max_bits, "lattice_basis": _max_bits,
               "solve_exact": _max_bits, "quotient_invariant_factors": None,
               "int_det": None, "mat_inv_mod": None, "is_invertible_mod": None,
               "mat_frac_inverse": None},
    "laurent": {"laurent_gcd_of_minors": None, "lp_det": _lp_det, "lp_gcd": None,
                "lp_normalize": None},
    "fox": {"alexander_polynomial": None, "wirtinger_from_braid": None,
            "twisted_matrix": _fox_matrix},
}
HOOK_SPAN = "trace.hook"


class Tracer:
    """Spans kept in flat arrays in memory; written out by dump()."""

    def __init__(self):
        self.names: list[str] = [HOOK_SPAN]
        self.job = array("i")
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_job = 0
        self.counts: Counter = Counter()

    def _span(self, name_id: int, parent: int, start: float, end: float) -> int:
        self.job.append(self.current_job)
        self.name.append(name_id)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def wrap(self, qualname: str, fn, hook):
        name_id = len(self.names)
        self.names.append(qualname)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._span(name_id, self.stack[-1], 0.0, 0.0)
            self.stack.append(idx)
            self.start[idx] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                self.stack.pop()
            if hook is not None:
                h0 = perf()
                hook(self.counts, args, result)
                self._span(0, self.stack[-1], h0, perf())
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "quandlekit" or n.startswith("quandlekit.")]
        undo = []
        for layer, funcs in LAYERS.items():
            home = importlib.import_module(f"quandlekit.{layer}")
            for fname, hook in funcs.items():
                orig = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", orig, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, orig))
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(undo):
                setattr(mod, attr, orig)

    def self_times(self):
        """Self seconds and calls per layer, and calls per function."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        names: Counter = Counter()
        for i in range(n):
            qual = self.names[self.name[i]]
            layer = qual.split(".")[0]
            self_s[layer] += self.end[i] - self.start[i] - child[i]
            if qual != HOOK_SPAN:
                calls[layer] += 1
                names[qual] += 1
        return self_s, calls, names

    def report(self, traced_wall: float, untraced_wall: float) -> dict:
        """Every per-layer metric: name -> (value, unit)."""
        self_s, calls, names = self.self_times()
        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            out[f"{layer}.calls"] = (calls[layer], "count")
        cand, found = c["braids.coloring_candidates"], c["braids.colorings_found"]
        cells = c["homology.coboundary_cells"]
        out.update({
            "braids.coloring_candidates": (cand, "count"),
            "braids.colorings_found": (found, "count"),
            "braids.coloring_hit_ratio": (found / cand if cand else 0.0, "ratio"),
            "braids.colored_matrix_calls": (names["braids.colored_matrix"], "count"),
            "linalg.snf_calls": (names["linalg.smith_normal_form"], "count"),
            "linalg.snf_cells": (c["linalg.snf_cells"], "count"),
            "linalg.det_calls": (names["linalg.int_det"], "count"),
            "linalg.max_bits": (c["linalg.max_bits"], "bits"),
            "homology.coboundary_cells": (cells, "count"),
            "homology.coboundary_nonzero_frac":
                (c["homology.coboundary_nonzero"] / cells if cells else 0.0, "ratio"),
            "laurent.minors": (names["laurent.lp_det"], "count"),
            "laurent.det_terms": (c["laurent.det_terms"], "count"),
            "fox.fox_matrix_cells": (c["fox.fox_matrix_cells"], "count"),
            "algebra.relation_checks": (c["algebra.relation_checks"], "count"),
            "quandles.axiom_checks": (c["quandles.axiom_checks"], "count"),
            "trace.spans": (len(self.start), "count"),
            "trace.hook_s": (self_s["trace"], "s"),
            "trace.wall_s": (traced_wall, "s"),
            # traced wall time not covered by any span: the worker's own loop
            "trace.remainder_s": (traced_wall - sum(self_s.values()), "s"),
            "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        })
        return out

    def dump(self, path: str) -> str:
        """Write the spans as JSON: name table plus one row per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["job", "name", "start", "end", "parent"], ')
            fh.write(f'"names": {json.dumps(self.names)}, "spans": [\n')
            for i in range(len(self.start)):
                sep = "," if i else ""
                fh.write(f"{sep}[{self.job[i]},{self.name[i]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]}]\n")
            fh.write("]}\n")
        return path
