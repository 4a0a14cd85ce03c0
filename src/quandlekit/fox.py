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
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import _freeze
from .braids import BraidWord, _burau_rows, closure_arcs
from .errors import InputError, charge
from .laurent import Laurent, lp_add, lp_det, lp_normalize
from .linalg import identity, int_det, is_invertible_mod, mat_mul


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


def trivial_rho(pres: WirtingerPresentation):
    return [[[1]] for _ in range(pres.generators)]


def _slide(d: int):
    """The map u, v -> v + t^d (u - v) on Laurent linear forms, entrywise:
    the Burau walk's t u + (1 - t) v at d = 1, and at d = -1 its inverse
    u bar* v = t^-1 (u - (1 - t) v)."""
    def step(u, v):
        out = []
        for a, b in zip(u, v):
            c = dict(b)
            for e, x in a.items():
                c[e + d] = c.get(e + d, 0) + x
            for e, x in b.items():
                c[e + d] = c.get(e + d, 0) - x
            out.append({e: x for e, x in c.items() if x})
        return tuple(out)
    return step


def alexander_polynomial(w: BraidWord) -> Laurent:
    """Classical Alexander polynomial of a knot given as a closed braid,
    normalized to integer coefficients, lowest exponent 0, positive lead.

    The closed braid on k strands has a presentation with one generator per
    bottom arc and the relators x_i = beta(x_i), one of which follows from
    the others; its Alexander matrix is M - I, M the unreduced Burau matrix
    over Z[t^+-1], so for a knot every first minor is +-t^j Delta (Burau;
    Birman, "Braids, Links, and Mapping Class Groups", ch. 3).  M comes
    from one walk of `braids._burau_rows` over Laurent linear forms, and
    Bareiss eliminates its leading (k - 1) x (k - 1) minor.  Each letter
    widens an entry by one exponent, so the walk takes at most
    letters * k * (letters + 1) coefficient steps; every Bareiss entry is a
    minor of M - I, whose exponents span at most letters + 1 (Cauchy-Binet
    over the letters' matrices), so the (k - 1)^3 products take at most
    (letters + 1)^2 steps each.  Their sum must not exceed the guard.  Each
    letter joins at most two strands, so more than letters + 1 strands
    close to a link; that is refused before the strand permutation is
    built.  The Wirtinger minor (`twisted_matrix` with `trivial_rho`) gives
    the same polynomial, from a matrix as large as the diagram's arcs."""
    k, n = w.strands, len(w.letters)
    if k > n + 1 or w.closure_components() != 1:
        raise InputError("closure is a link with more than one component")
    charge(n * k * (n + 1) + (k - 1) ** 3 * (n + 1) ** 2,
           f"Laurent coefficient steps of the {k}-strand Burau matrix and its "
           "first minor")
    units = [tuple([{0: 1} if i == j else {} for j in range(k)]) for i in range(k)]
    rows = _burau_rows(w, _slide(1), _slide(-1), units)
    minor = [[lp_add(x, {0: -1}) if i == j else x for j, x in enumerate(row[:-1])]
             for i, row in enumerate(rows[:-1])]
    return lp_normalize(lp_det(minor))
