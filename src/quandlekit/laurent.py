"""Laurent polynomials as exponent -> coefficient dictionaries.

Coefficients are exact (int or Fraction). Zero coefficients are never
stored, so the zero polynomial is the empty dict.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

Laurent = dict  # {exponent: coefficient}


def lp(*pairs) -> Laurent:
    """Build a Laurent polynomial from (exponent, coefficient) pairs."""
    out: Laurent = {}
    for e, c in pairs:
        if c:
            out[e] = out.get(e, 0) + c
            if not out[e]:
                del out[e]
    return out


def lp_const(c) -> Laurent:
    return {0: c} if c else {}


def lp_add(a: Laurent, b: Laurent) -> Laurent:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def lp_mul(a: Laurent, b: Laurent) -> Laurent:
    out: Laurent = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def lp_eval(a: Laurent, t0, mod: int | None = None):
    """Evaluate at an integer t0; with a modulus, t0 must be a unit mod N."""
    if mod is None:
        return sum(c * t0 ** e if e >= 0 else Fraction(c, t0 ** (-e))
                   for e, c in a.items())
    tinv = pow(t0 % mod, -1, mod)
    total = 0
    for e, c in a.items():
        p = pow(t0 % mod, e, mod) if e >= 0 else pow(tinv, -e, mod)
        total = (total + c * p) % mod
    return total


def lp_normalize(a: Laurent) -> Laurent:
    """Canonical form up to units +-t^k: lowest exponent 0, integer primitive
    coefficients, positive leading coefficient."""
    if not a:
        return {}
    v = min(a)
    shifted = {e - v: Fraction(c) for e, c in a.items()}
    denom = math.lcm(*(c.denominator for c in shifted.values()))
    ints = {e: int(c * denom) for e, c in shifted.items()}
    g = math.gcd(*(abs(c) for c in ints.values()))
    ints = {e: c // g for e, c in ints.items()}
    if ints[max(ints)] < 0:
        ints = {e: -c for e, c in ints.items()}
    return ints


# ---------------------------------------------------------------------------
# gcd machinery over the rational Laurent ring


def _to_poly(a: Laurent) -> list[Fraction]:
    """Dense coefficient list lowest-first, after shifting valuation to 0."""
    if not a:
        return []
    v = min(a)
    d = max(a)
    return [Fraction(a.get(e, 0)) for e in range(v, d + 1)]


def _poly_mod(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    num = list(num)
    while num and not num[-1]:
        num.pop()
    dn = len(den) - 1
    lead = den[-1]
    while len(num) - 1 >= dn and num:
        f = num[-1] / lead
        shift = len(num) - 1 - dn
        for i, c in enumerate(den):
            num[shift + i] -= f * c
        while num and not num[-1]:
            num.pop()
    return num


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def lp_gcd(a: Laurent, b: Laurent) -> Laurent:
    pa, pb = _to_poly(a), _to_poly(b)
    g = _poly_gcd(pa, pb)
    return lp_normalize({e: c for e, c in enumerate(g) if c})


def lp_det(mat: list[list[Laurent]]) -> Laurent:
    """Determinant of a square matrix of Laurent polynomials (permanent-style
    expansion; fine at the sizes this package needs)."""
    n = len(mat)
    if n == 0:
        return lp_const(1)
    total: Laurent = {}
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the permutation sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        term = lp_const(sign)
        for i in range(n):
            term = lp_mul(term, mat[i][perm[i]])
            if not term:
                break
        total = lp_add(total, term)
    return total


def laurent_gcd_of_minors(mat: list[list[Laurent]], k: int) -> Laurent:
    """gcd (over the rational Laurent ring) of all k x k minors, normalized.

    Returns the zero polynomial when every minor vanishes.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if k > min(rows, cols):
        from .errors import InputError
        raise InputError(f"minor size {k} exceeds matrix dimensions {rows}x{cols}")
    g: Laurent = {}
    for rsel in itertools.combinations(range(rows), k):
        for csel in itertools.combinations(range(cols), k):
            sub = [[mat[i][j] for j in csel] for i in rsel]
            d = lp_det(sub)
            if not d:
                continue
            g = lp_normalize(d) if not g else lp_gcd(g, d)
            if g == {0: 1}:
                return g
    return g
