"""Laurent polynomials as exponent -> coefficient dictionaries.

Coefficients are exact (int or Fraction). Zero coefficients are never
stored, so the zero polynomial is the empty dict.

Determinants are taken in packed integers (Kronecker substitution).  A
polynomial p in Z[t] is kept as the integer p(2^W), and while every
coefficient has size below 2^(W - 1) the balanced base-2^W digits of p(2^W)
are its coefficients, since balanced digits are unique (`_digits`).  The
package has one determinant loop, the integer Bareiss elimination
`_bareiss`: `linalg.int_det` calls it on plain ints, `lp_det` on its rows
packed at t = 2^W, each shifted down to its lowest exponent, and
`fox.alexander_polynomial` on its packed Burau minor.  Evaluation at 2^W is
a ring map Z[t] -> Z, so the determinant of the packed ints is det(2^W);
integer Bareiss is exact on any integer matrix, so no pivot needs a bound.

The bound.  Write |f| for the sum of the sizes of the coefficients of f;
then |f g| <= |f| |g| and |f + g| <= |f| + |g|.  The determinant is the
sum over permutations s of +-prod_i a[i][s(i)], so its |.| is at most the
sum over s of prod_i |a[i][s(i)]|, which is at most prod_i sum_j
|a[i][j]|: that product, expanded, is a sum of nonnegative terms over
every map i -> j, the permutations among them.  No coefficient exceeds
|det|, so once 2^(W - 1) exceeds the product of the rows' L1 norms, the
digits of det(2^W) are the determinant's coefficients.

The rational gcd of all k x k minors has no caller in the package, since
`fox.alexander_polynomial` takes one first minor of the Burau matrix minus
I.  Kept only while `bench/tracing.py` names them in LAYERS, as the tests'
references: `laurent_gcd_of_minors`, `lp_gcd`, `lp_det`, `lp_normalize`,
`_to_poly`, `_poly_mod` and `_poly_gcd`.  The two of them that make a
Fraction import `fractions` when they run, so no command loads it.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

Laurent = dict  # {exponent: coefficient}


def lp_normalize(a: Laurent) -> Laurent:
    """Canonical form up to units +-t^k: lowest exponent 0, integer primitive
    coefficients, positive leading coefficient."""
    from fractions import Fraction
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
    from fractions import Fraction
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


def _digits(x: int, width: int) -> list[int]:
    """The balanced base-2^width digits of x, lowest first, for a width that
    is a multiple of 8 and digits of size below 2^(width - 1).  Then x has
    size over 2^(width (n - 1) - 1) when its top digit is in slot n - 1, so
    x.bit_length() // width + 1 slots hold every digit.  x plus the bias
    has the unsigned digits d + 2^(width - 1), and xor with the bias flips
    their top bits, which leaves each d as a signed width-bit slot: one
    to_bytes, then one from_bytes per slot, or one cast at width 64."""
    slots, size = x.bit_length() // width + 1, width // 8
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")
    raw = ((x + bias) ^ bias).to_bytes(slots * size, "little")
    if width == 64:
        return memoryview(raw).cast("q").tolist()
    return [int.from_bytes(raw[i:i + size], "little", signed=True)
            for i in range(0, len(raw), size)]


def _width(bound: int) -> int:
    """The least multiple of 64 with 2^(width - 1) > bound: balanced digits
    that wide hold every integer of size at most bound."""
    return (bound.bit_length() // 64 + 1) * 64


def _bareiss(mat: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.  Each
    step drops the pivot's row and column, and every other row becomes
    (x p - row[0] y) // prev over the columns left, an exact division
    (Sylvester's identity) whatever nonzero pivots are taken."""
    m, sign, prev = mat, 1, 1
    while m:
        if not m[0][0]:
            piv = next((r for r, row in enumerate(m) if row[0]), None)
            if piv is None:
                return 0
            m = list(m)
            m[0], m[piv] = m[piv], m[0]
            sign = -sign
        p, *tail = m[0]
        m = [[(x * p - row[0] * y) // prev for x, y in zip(row[1:], tail)]
             for row in m[1:]]
        prev = p
    return sign * prev


def lp_det(mat: list[list[Laurent]]) -> Laurent:
    """Determinant of a square matrix of integer Laurent polynomials.  Each
    row is shifted down to its lowest exponent and packed at t = 2^W, one
    `_bareiss` gives det(2^W), and its balanced base-2^W digits are the
    coefficients.  W is the `_width` of the product of the rows' L1 norms,
    which bounds every coefficient of the determinant."""
    lows, bound = [], 1
    for row in mat:
        exponents = [e for x in row for e in x]
        if not exponents:
            return {}
        lows.append(min(exponents))
        bound *= sum(abs(c) for x in row for c in x.values())
    width = _width(bound)
    packed = [[sum(c << width * (e - low) for e, c in x.items()) for x in row]
              for row, low in zip(mat, lows)]
    low = sum(lows)
    return {e + low: c for e, c in enumerate(_digits(_bareiss(packed), width)) if c}


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
