"""Laurent polynomials as exponent -> coefficient dictionaries.

Coefficients are exact (int or Fraction). Zero coefficients are never
stored, so the zero polynomial is the empty dict.  `lp_det` takes integer
coefficients and is Bareiss elimination, with no permutation expansion.

The rational gcd of all k x k minors (`laurent_gcd_of_minors`, `lp_gcd`)
has no caller in the package, since `fox.alexander_polynomial` takes one
first minor, of the Burau matrix minus I: it is kept as a test reference
until the benchmark's tracer stops naming it.
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


def _lp_div(a: Laurent, b: Laurent) -> Laurent:
    """a / b by long division from the top term.  An exact quotient has no
    term below min(a) - min(b); ArithmeticError when b does not divide a."""
    top, floor, q = max(b), min(a, default=0) - min(b), {}
    while a:
        d = max(a) - top
        c, r = divmod(a[max(a)], b[top])
        if r or d < floor:
            raise ArithmeticError("Laurent division is not exact")
        q[d], a = c, lp_add(a, lp_mul({d: -c}, b))
    return q


def lp_det(mat: list[list[Laurent]]) -> Laurent:
    """Determinant of a square matrix of integer Laurent polynomials by Bareiss
    elimination: row i becomes (x p - m[i][k] y) / prev, an exact division."""
    m = list(mat)  # rows are replaced, never changed in place
    sign, prev = 1, lp_const(1)
    for k in range(len(m)):
        piv = next((r for r in range(k, len(m)) if m[r][k]), None)
        if piv is None:
            return {}
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        p, minus_y = m[k][k], [lp_mul(y, lp_const(-1)) for y in m[k][k + 1:]]
        for i in range(k + 1, len(m)):
            m[i] = m[i][:k + 1] + [_lp_div(lp_add(lp_mul(x, p), lp_mul(m[i][k], y)), prev)
                                   for x, y in zip(m[i][k + 1:], minus_y)]
        prev = p
    return lp_mul(prev, lp_const(sign))


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
