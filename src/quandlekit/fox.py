"""Alexander matrices of closed braids, from their Wirtinger presentations.

A presentation has one generator x_a per arc of the closed-braid diagram and
one relator x_o x_s x_o^-1 x_t^-1 per crossing, kept as the crossing's
(over, src, tgt) triple (o, s, t) from `braids.closure_arcs`.  Once r = 1
the Fox derivatives of that relator are 1 - x_t, x_o and -1 at o, s and t.
twisted_matrix writes its rows in this closed form, so rho must respect
every relator and be invertible on every over and target arc; it checks
both.  With trivial rho the matrix is the Alexander matrix, one row per
crossing and one column per arc, and its first minors give Delta; the
tests keep that route as the oracle.  `alexander_polynomial` takes a
smaller matrix: the k x k Burau matrix of the braid over Z[t^+-1], read in
one walk of `braids._burau_rows`, minus I presents the same module on the
k bottom arcs, so it eliminates a (k - 1)-minor instead of an arcs-sized
one.

That route runs in packed integers, as `laurent` describes.  A strand's
color is a form [low, bound, ints]: entry j is t^low p_j(t), p_j in Z[t],
kept as the int p_j(2^W), and no coefficient has size over bound.  A
letter makes v + t^+-1 (u - v) by shifts, adds and subtracts of the k ints,
and each coefficient of the result is one of u plus two of v, so its bound
is bound_u + 2 bound_v.  Bounds stay below 2^(W - 1) - 1, which keeps
every form's digits, and M - I's, decodable.  W starts at 64.

Renormalization.  A letter whose bound would reach 2^(W - 1) - 1 first
decodes its two input forms in place: each bound becomes its form's
largest coefficient and each low its lowest exponent, so the ints drop
their zero low slots.  When the sum still reaches 2^(W - 1) - 1, the walk
restarts at 2W.  A coefficient after i letters has size at most 3^i, so the
restarts stop once 2^(W - 1) > 3^n + 1, and as a walk's cost grows with W,
all the walks together cost at most about twice the last one.  Adjacent
sigma_i sigma_i^-1 pairs are cancelled before the walk.

The minor.  Row i of M - I, shifted down to its lowest exponent, has L1
norm at most 1 + bound_i times its digit count, and by `laurent`'s bound
the product of these bounds every coefficient of Delta's minor.  When the
product reaches 2^(W - 1), the rows' exact L1 norms replace it, and when
those still reach it the word is walked again with slots as wide as the
least multiple of 64 that holds it.  One `laurent._bareiss` then gives the
minor at 2^W, and one balanced decode and an integer gcd give Delta.  The
bench's knots of 5-8 crossings need no renormalization and no second walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _deferred
from .braids import BraidWord, _burau_rows, closure_arcs
from .errors import InputError, charge
from .laurent import Laurent, _bareiss, _digits, _width
from .linalg import identity, int_det, is_invertible_mod, mat_mul

# twisted_matrix's one use of `algebra`, imported by its first call
_freeze = _deferred(globals(), "algebra", "_freeze")


@dataclass(frozen=True)
class WirtingerPresentation:
    generators: int
    crossings: tuple  # (o, s, t) in letter order: relator x_o x_s x_o^-1 x_t^-1


def wirtinger_from_braid(w: BraidWord) -> WirtingerPresentation:
    """One generator per arc of the closed-braid diagram, one conjugation
    relator per crossing, with the closure identifying bottom and top arcs."""
    count, crossings, _ = closure_arcs(w)
    return WirtingerPresentation(generators=count, crossings=tuple(crossings))


def twisted_matrix(pres: WirtingerPresentation, rho, modulus=None):
    """Presentation matrix [chi(dr_i/dx_j)] with chi = rho (x) abelianization.

    `rho` maps each generator index to a dim x dim matrix, dim >= 1 (over Z,
    or over Z_N when a modulus is given).  For the relator x_o x_s x_o^-1
    x_t^-1 the row is the closed form  I - t rho(t)  at o,  t rho(o)  at s
    and  -I  at t, summed where arcs coincide.  It equals chi of the Fox
    derivatives only when rho(o) rho(s) = rho(t) rho(o) and rho(o), rho(t)
    are invertible, so both are checked, as are the shape of rho and a
    modulus, by `algebra._freeze` (InputError otherwise).  Entries are dim
    x dim blocks of Laurent polynomials, reduced mod N when N is given.
    """
    dim, rho = _freeze(rho, modulus, pres.generators, "rho, one per generator,")
    for a in sorted({a for o, _, t in pres.crossings for a in (o, t)}):
        unit = (abs(int_det(rho[a])) == 1 if modulus is None
                else is_invertible_mod(rho[a], modulus))
        if not unit:
            raise InputError(f"rho({a}) is not invertible"
                             + ("" if modulus is None else f" mod {modulus}"))
    ident = identity(dim)
    rows = []
    for o, s, t in pres.crossings:
        if mat_mul(rho[o], rho[s], modulus) != mat_mul(rho[t], rho[o], modulus):
            raise InputError(f"rho does not respect the relator "
                             f"x{o} x{s} x{o}^-1 x{t}^-1")
        row = [[[{} for _ in range(dim)] for _ in range(dim)]
               for _ in range(pres.generators)]
        for arc, deg, sign, mat in ((o, 0, 1, ident), (o, 1, -1, rho[t]),
                                    (s, 1, 1, rho[o]), (t, 0, -1, ident)):
            for i in range(dim):
                for j in range(dim):
                    cell = row[arc][i][j]
                    cell[deg] = cell.get(deg, 0) + sign * mat[i][j]
        rows.append([[[_settle(cell, modulus) for cell in line] for line in block]
                     for block in row])
    return rows


def _settle(cell: Laurent, modulus) -> Laurent:
    """Reduce the coefficients mod N, when one is given, and drop zeros."""
    if modulus is not None:
        cell = {e: c % modulus for e, c in cell.items()}
    return {e: c for e, c in cell.items() if c}


def _free_reduce(letters: tuple) -> tuple:
    """The letters with every adjacent sigma_i sigma_i^-1 pair cancelled,
    also the pairs that meet once a pair between them is gone."""
    out = []
    for e in letters:
        if out and out[-1] == -e:
            out.pop()
        else:
            out.append(e)
    return tuple(out)


class _Narrow(Exception):
    """A letter whose forms hold coefficients too large for the width."""


def _renormalize(a: list, b: list, width: int, limit: int) -> int:
    """Decode both forms [low, bound, ints] in place: each bound becomes its
    form's largest coefficient and each low its lowest exponent.  Returns
    bound_a + 2 bound_b, the letter's new bound, or raises _Narrow when it
    is still not below `limit`."""
    for form in (a, b):
        low, _, ints = form
        bound = max(max(max(d), -min(d)) for d in (_digits(x, width) for x in ints))
        shift = min(((x & -x).bit_length() - 1 for x in ints if x), default=0) // width
        form[:] = [low + shift, bound, tuple([x >> width * shift for x in ints])]
    c = a[1] + 2 * b[1]
    if c >= limit:
        raise _Narrow
    return c


def _walk(w: BraidWord, width: int) -> list:
    """The Burau rows of the word at t = 2^width, walked by `_burau_rows`.
    A form is [low, bound, ints]: entry j is t^low p_j(t) with ints[j] =
    p_j(2^width), p_j in Z[t], and bound is at least every coefficient's
    size, kept below 2^(width - 1) - 1 so that the digits decode."""
    limit = (1 << width - 1) - 1

    def op(u, v):               # v + t (u - v) = (1 - t) v + t u
        (lu, cu, us), (lv, cv, vs) = u, v
        c = cu + 2 * cv
        if c >= limit:
            c = _renormalize(u, v, width, limit)
            (lu, _, us), (lv, _, vs) = u, v
        if lu >= lv:
            s = width * (lu + 1 - lv)
            return [lv, c, tuple([y - (y << width) + (x << s) for x, y in zip(us, vs)])]
        s = width * (lv - lu - 1)
        return [lu + 1, c, tuple([x + ((y - (y << width)) << s) for x, y in zip(us, vs)])]

    def inv_op(a, b):           # b + t^-1 (a - b) = t^-1 (a + (t - 1) b)
        (la, ca, xs), (lb, cb, ys) = a, b
        c = ca + 2 * cb
        if c >= limit:
            c = _renormalize(a, b, width, limit)
            (la, _, xs), (lb, _, ys) = a, b
        if la <= lb:
            s = width * (lb - la)
            return [la - 1, c, tuple([x + (((y << width) - y) << s) for x, y in zip(xs, ys)])]
        s = width * (la - lb)
        return [lb - 1, c, tuple([(x << s) + (y << width) - y for x, y in zip(xs, ys)])]

    zeros = (0,) * w.strands
    units = [[0, 1, zeros[:i] + (1,) + zeros[i + 1:]] for i in range(w.strands)]
    return _burau_rows(w, op, inv_op, units)


def _minor(rows: list, width: int) -> tuple[list, int]:
    """The (k - 1)-minor of M - I from the walk's rows, each row shifted
    down to its lowest exponent, and a bound on every coefficient of its
    determinant: the product of the rows' L1 bounds, from the forms' bounds
    and digit counts, or from the rows' exact L1 norms when that product
    reaches 2^(width - 1)."""
    minor, bound = [], 1
    for i, (low, c, ints) in enumerate(rows[:-1]):
        row = list(ints[:-1])   # at most bit_length // width + 1 digits each
        bound *= 1 + c * (sum(map(int.bit_length, row)) // width + len(row))
        if low > 0:
            row = [x << width * low for x in row]
        row[i] -= 1 << width * -min(low, 0)
        minor.append(row)
    if bound >> width - 1:
        bound = math.prod(sum(sum(map(abs, _digits(x, width))) for x in row)
                          for row in minor)
    return minor, bound


def alexander_polynomial(w: BraidWord) -> Laurent:
    """Classical Alexander polynomial of a knot given as a closed braid,
    normalized to integer coefficients, lowest exponent 0, positive lead.

    The closed braid on k strands has a presentation with one generator per
    bottom arc and the relators x_i = beta(x_i), one of which follows from
    the others; its Alexander matrix is M - I, M the unreduced Burau matrix
    over Z[t^+-1], so for a knot every first minor is +-t^j Delta (Burau;
    Birman, "Braids, Links, and Mapping Class Groups", ch. 3).  M comes
    from one walk of `braids._burau_rows` over packed forms (`_walk`), and
    one integer Bareiss eliminates its leading (k - 1) x (k - 1) minor.

    The guard is charged, on the word as given, the coefficient steps of
    the same walk and elimination over dict Laurent forms (the tests keep
    that route as an oracle).  Each letter widens an entry by one exponent,
    so the walk takes at most letters * k * (letters + 1) coefficient
    steps, and on packed forms that many W-bit slot updates; every Bareiss
    entry is a minor of M - I, whose exponents span at most letters + 1
    (Cauchy-Binet over the letters' matrices), so over dicts the (k - 1)^3
    products take at most (letters + 1)^2 steps each.  Their sum must not
    exceed the guard.  Each letter joins at most two strands, so more than
    letters + 1 strands close to a link; that is refused before the strand
    permutation is built.  The Wirtinger minor (`twisted_matrix` with
    rho = 1 on every arc) gives the same polynomial, from a matrix as large
    as the diagram's arcs."""
    k, n = w.strands, len(w.letters)
    if k > n + 1 or w.closure_components() != 1:
        raise InputError("closure is a link with more than one component")
    charge(n * k * (n + 1) + (k - 1) ** 3 * (n + 1) ** 2,
           f"Laurent coefficient steps of the {k}-strand Burau matrix and its "
           "first minor")
    letters, width = _free_reduce(w.letters), 64
    reduced = w if len(letters) == n else BraidWord(k, letters)
    while True:
        try:
            rows = _walk(reduced, width)
        except _Narrow:
            width *= 2
            continue
        minor, bound = _minor(rows, width)
        if not bound >> width - 1:
            break
        width = _width(bound)   # Delta's digits need wider slots: walk again
    digits = _digits(_bareiss(minor), width)
    g = math.gcd(*digits)
    if not g:
        return {}
    while not digits[-1]:
        digits.pop()
    g = -g if digits[-1] < 0 else g
    low = next(e for e, c in enumerate(digits) if c)
    return {e - low: c // g for e, c in enumerate(digits) if c}
