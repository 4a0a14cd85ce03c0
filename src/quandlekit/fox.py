"""Free differential calculus on Wirtinger presentations of closed braids.

Free words are freely reduced tuples of (generator, +-1); group-ring
elements map free words to integer coefficients.  The derivative rules are
  d(x_i)/d(x_i) = 1,   d(x_j)/d(x_i) = 0  (j != i),
  d(uv) = d(u) + u d(v),   d(w^-1) = -w^-1 d(w).

For a Wirtinger relator r = x_o x_s x_o^-1 x_t^-1 these are 1 - x_t, x_o and
-1 at o, s and t once r = 1.  twisted_matrix writes its rows in this closed
form, so rho must respect every relator and be invertible on every over and
target arc; it checks both.  With trivial rho the matrix is the Alexander
matrix, and `alexander_polynomial` is the determinant of one first minor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braids import BraidWord, closure_arcs
from .errors import GUARD, GuardExceeded, InputError
from .laurent import Laurent, lp_det, lp_normalize
from .linalg import identity, int_det, is_invertible_mod, mat_mul

FreeWord = tuple  # of (generator index, +1 | -1)


def reduce_word(word) -> FreeWord:
    out: list = []
    for g, e in word:
        if e not in (1, -1):
            raise InputError(f"exponent {e} must be +-1 (expand powers)")
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def word_mul(u, v) -> FreeWord:
    return reduce_word(tuple(u) + tuple(v))


def word_inv(u) -> FreeWord:
    return tuple((g, -e) for g, e in reversed(u))


def ring_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, 0) + c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def ring_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = word_mul(wa, wb)
            s = out.get(w, 0) + ca * cb
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def fox_derivative(word, gen: int) -> dict:
    """d(word)/d(x_gen) as a group-ring element."""
    word = reduce_word(word)
    out: dict = {}
    prefix: FreeWord = ()
    for g, e in word:
        if e == 1:
            if g == gen:
                out = ring_add(out, {prefix: 1})
            prefix = word_mul(prefix, ((g, 1),))
        else:
            prefix = word_mul(prefix, ((g, -1),))
            if g == gen:
                out = ring_add(out, {prefix: -1})
    return out


@dataclass(frozen=True)
class WirtingerPresentation:
    generators: int
    relators: tuple  # FreeWords of shape x_over x_src x_over^-1 x_tgt^-1

    def __post_init__(self):
        for r in self.relators:
            if len(r) != 4 or [e for _, e in r] != [1, 1, -1, -1] or r[0][0] != r[2][0]:
                raise InputError(f"relator {r} does not have conjugation shape")


def wirtinger_from_braid(w: BraidWord) -> WirtingerPresentation:
    """One generator per arc of the closed-braid diagram, one conjugation
    relator per crossing, with the closure identifying bottom and top arcs."""
    count, crossings, _ = closure_arcs(w)
    return WirtingerPresentation(
        generators=count,
        relators=tuple(((o, 1), (s, 1), (o, -1), (t, -1)) for o, s, t in crossings))


def twisted_matrix(pres: WirtingerPresentation, rho, modulus=None):
    """Presentation matrix [chi(dr_i/dx_j)] with chi = rho (x) abelianization.

    `rho` maps each generator index to a matrix (over Z, or over Z_N when a
    modulus is given).  For the relator x_o x_s x_o^-1 x_t^-1 the row is the
    closed form  I - t rho(t)  at o,  t rho(o)  at s  and  -I  at t, summed
    where arcs coincide.  It equals chi of the Fox derivatives only when
    rho(o) rho(s) = rho(t) rho(o) and rho(o), rho(t) are invertible, so both
    are checked (InputError otherwise).  Entries are dim x dim blocks of
    Laurent polynomials, with coefficients reduced mod N when one is given.
    """
    dim = len(rho[0])
    arcs = [(r[0][0], r[1][0], r[3][0]) for r in pres.relators]
    for a in sorted({a for o, _, t in arcs for a in (o, t)}):
        unit = (abs(int_det(rho[a])) == 1 if modulus is None
                else is_invertible_mod(rho[a], modulus))
        if not unit:
            raise InputError(f"rho({a}) is not invertible"
                             + ("" if modulus is None else f" mod {modulus}"))
    ident = identity(dim)
    rows = []
    for (o, s, t), r in zip(arcs, pres.relators):
        if mat_mul(rho[o], rho[s], modulus) != mat_mul(rho[t], rho[o], modulus):
            raise InputError(f"rho does not respect relator {r}")
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


def alexander_polynomial(w: BraidWord, guard: int = GUARD) -> Laurent:
    """Classical Alexander polynomial of a knot given as a closed braid,
    normalized to integer coefficients, lowest exponent 0, positive lead.

    One Wirtinger relator follows from the others, so every first minor of
    the Alexander matrix of a knot is +-t^j Delta (Crowell and Fox, ch. VIII).
    This one drops the last relator and the last arc.  Bareiss eliminates it
    with entries of degree up to n on n arcs, about n^4 Laurent products,
    which must not exceed `guard`.  Each letter joins at most two strands,
    so more than letters + 1 strands close to a link; that is refused before
    the strand permutation is built."""
    if w.strands > len(w.letters) + 1 or w.closure_components() != 1:
        raise InputError("closure is a link with more than one component")
    pres = wirtinger_from_braid(w)
    if pres.generators ** 4 > guard:
        raise GuardExceeded(f"{pres.generators ** 4} Laurent products of the "
                            f"{pres.generators}-arc Alexander minors exceed the "
                            f"guard of {guard}")
    mat = twisted_matrix(pres, trivial_rho(pres))
    minor = [[cell[0][0] for cell in row[:-1]] for row in mat[:-1]]
    return lp_normalize(lp_det(minor))
