"""Output checks, run after the timed loop.

Each check reads one job's stdout document and compares it with what the
bench computes itself (oracle.py) or with structural facts that hold for
any correct answer.  `check(job, text)` returns None or a failure message.
"""

from __future__ import annotations

import json

import oracle


def _colorings(job, doc):
    p, k, letters = job["p"], job["strands"], job["letters"]
    cols = [tuple(c) for c in doc["colorings"]]
    if doc["count"] != len(cols):
        return f"count {doc['count']} but {len(cols)} colorings listed"
    if cols != sorted(set(cols)):
        return "colorings are not sorted and unique"
    for c in cols:
        if len(c) != k or not all(0 <= x < p for x in c):
            return f"malformed coloring {c}"
        if oracle.propagate(letters, p, c) != c:
            return f"coloring {c} is not fixed by the braid"
    missing = [x for x in range(p) if (x,) * k not in set(cols)]
    if missing:
        return f"diagonal colorings {missing} missing"
    if job["components"] == 1 and not _is_power(len(cols), p):
        return f"knot has {len(cols)} colorings, not a power of {p}"
    if len(cols) != job["count"]:
        return f"{len(cols)} colorings, the linear count mod {p} gives {job['count']}"
    return None


def _is_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _multiset(job, doc):
    if doc["colorings"] != job["count"]:
        return f"'colorings' is {doc['colorings']}, R_{job['p']} count is {job['count']}"
    if len(doc["multiset"]) != doc["colorings"]:
        return "multiset size differs from 'colorings'"
    return None


def _alexander(job, doc):
    poly = {int(e): c for e, c in doc["polynomial"].items()}
    coeffs = [poly.get(e, 0) for e in range(max(poly) + 1)] if poly else []
    if sum(coeffs) not in (1, -1):
        return f"Delta(1) = {sum(coeffs)}"
    if coeffs != coeffs[::-1]:
        return f"Delta {coeffs} is not symmetric"
    at_minus_one = oracle.poly_eval(coeffs, -1)
    for p, count in job["counts"].items():
        if (at_minus_one % p == 0) != (count > p):
            return f"Delta(-1) = {at_minus_one} disagrees with {count} R_{p} colorings"
    if coeffs != job["delta"]:
        return f"Delta {coeffs}, the Burau minor gives {job['delta']}"
    return None


def _burau(job, doc):
    if doc["colorings"] != 1 or len(doc["multiset"]) != 1:
        return "trivial:1 must have exactly one coloring"
    entry, n, t, k = doc["multiset"][0], job["N"], job["t"], job["strands"]
    if sum(pow(t, i, n) for i in range(k)) % n:
        vanishes = oracle.poly_eval(job["delta"], t, n) == 0
        if (len(entry) >= 2) != vanishes:
            return (f"Burau cokernel {entry} but Delta({t}) mod {n} is "
                    f"{oracle.poly_eval(job['delta'], t, n)}")
    return None


def _quandle_op(spec: str):
    parts = spec.split(":")
    n = int(parts[1])
    if parts[0] == "dihedral":
        return n, lambda a, b: (2 * b - a) % n
    s = int(parts[2])
    return n, lambda a, b: (s * a + (1 - s) * b) % n


def _search(job, doc):
    basis, p = doc["basis"], job["prime"]
    if doc["dimension"] != len(basis):
        return "dimension differs from the basis length"
    for b in basis:
        if b["degree"] != job["degree"] or b["modulus"] != p:
            return "basis element has the wrong degree or modulus"
    keys = sorted({key for b in basis for key in b["values"]})
    rows = [[(b["values"].get(key) or [0] * b["dim"])[i] for key in keys
             for i in range(b["dim"])] for b in basis]
    if rows and oracle.rank_mod_p(rows, p) != len(basis):
        return "basis is not linearly independent"
    if job["degree"] == 2 and job["rep"].startswith("alexander-rep:"):
        # scalar rep eta = t, tau = 1 - t: check the 2-cocycle identity
        _, _, t = job["rep"].split(":")
        t = int(t)
        n, op = _quandle_op(job["quandle"])
        for b in basis:
            k = {tuple(map(int, key.split(","))): v[0] for key, v in b["values"].items()}
            kv = lambda x, y: k.get((x, y), 0)  # noqa: E731
            for x in range(n):
                if kv(x, x):
                    return "cocycle is nonzero on a degenerate pair"
                for y in range(n):
                    for z in range(n):
                        lhs = t * kv(x, y) + kv(op(x, y), z)
                        rhs = (t * kv(x, z) + (1 - t) * kv(y, z)
                               + kv(op(x, z), op(y, z)))
                        if (lhs - rhs) % p:
                            return f"2-cocycle identity fails at {(x, y, z)}"
    return None


def _homology(job, doc):
    factors, n = doc["invariant_factors"], job["modulus"]
    for i, f in enumerate(factors):
        if f <= 1 or n % f:
            return f"invariant factor {f} does not divide the modulus {n}"
        if i and f % factors[i - 1]:
            return f"invariant factors {factors} are not a divisor chain"
    return None


def _extend(job, doc):
    table, n = doc["table"], job["size"]
    if not doc["passed"] or doc["size"] != n or len(table) != n:
        return f"extension of size {doc['size']} (expected {n}) did not pass"
    for a in range(n):
        if table[a][a] != a:
            return f"extension table is not idempotent at {a}"
    for b in range(n):
        if len({table[a][b] for a in range(n)}) != n:
            return f"column {b} of the extension table is not a permutation"
    for a in range(n):
        ta = table[a]
        for b in range(n):
            tab = table[ta[b]]
            tb = table[b]
            for c in range(n):
                if tab[c] != table[ta[c]][tb[c]]:
                    return f"extension table is not self-distributive at {(a, b, c)}"
    return None


CHECKS = {"colorings": _colorings, "module": _multiset, "cocycle": _multiset,
          "alexander": _alexander, "burau": _burau,
          "check_rep": lambda job, doc: None if doc["passed"] else "rep check failed",
          "search": _search, "homology": _homology, "extend": _extend}


def check(job: dict, text: str) -> str | None:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return "output is not one JSON document"
    try:
        return CHECKS[job["kind"]](job, doc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"
