"""Free differential calculus on Wirtinger presentations of closed braids.

Free words are freely reduced tuples of (generator, +-1); group-ring
elements map free words to integer coefficients.  The derivative rules are
  d(x_i)/d(x_i) = 1,   d(x_j)/d(x_i) = 0  (j != i),
  d(uv) = d(u) + u d(v),   d(w^-1) = -w^-1 d(w).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .braids import BraidWord
from .errors import InputError
from .laurent import (Laurent, laurent_gcd_of_minors, lp_add, lp_const,
                      lp_normalize)
from .linalg import identity, mat_frac_inverse, mat_inv_mod, mat_mul

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
    k = w.strands
    arcs = list(range(k))           # arc id currently on each strand position
    next_arc = k
    raw_relators = []               # (over, src, tgt) arc ids
    for e in w.letters:
        p = abs(e) - 1
        if e > 0:
            over, src = arcs[p + 1], arcs[p]
            tgt = next_arc
            next_arc += 1
            arcs[p], arcs[p + 1] = over, tgt
        else:
            over, tgt = arcs[p], arcs[p + 1]
            src = next_arc
            next_arc += 1
            arcs[p], arcs[p + 1] = src, over
        raw_relators.append((over, src, tgt))
    # closure: identify the top arc on each position with the bottom arc
    parent = list(range(next_arc))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for pos in range(k):
        ra, rb = find(pos), find(arcs[pos])
        if ra != rb:
            parent[rb] = ra
    classes: dict = {}
    for a in range(next_arc):
        r = find(a)
        if r not in classes:
            classes[r] = len(classes)
    relators = []
    for over, src, tgt in raw_relators:
        o, s, t = classes[find(over)], classes[find(src)], classes[find(tgt)]
        relators.append(((o, 1), (s, 1), (o, -1), (t, -1)))
    return WirtingerPresentation(generators=len(classes), relators=tuple(relators))


def _chi_word(word, rho, dim: int, modulus):
    """chi(word) = t^(exponent sum) * product of rho matrices, as a dict
    exponent -> matrix."""
    deg = sum(e for _, e in word)
    mat = identity(dim)
    for g, e in word:
        m = rho[g]
        if e == -1:
            if modulus is None:
                inv = mat_frac_inverse(m)
                m = [[_as_int(x) for x in row] for row in inv]
            else:
                m = mat_inv_mod(m, modulus)
        mat = mat_mul(mat, m, modulus)
    return deg, mat


def _as_int(x):
    f = Fraction(x)
    if f.denominator != 1:
        raise InputError("rho matrix is not invertible over the integers")
    return int(f)


def _chi(element: dict, rho, dim: int, modulus):
    """chi of a group-ring element: a dim x dim matrix of Laurent polynomials."""
    out = [[{} for _ in range(dim)] for _ in range(dim)]
    for word, coef in element.items():
        deg, mat = _chi_word(word, rho, dim, modulus)
        for i in range(dim):
            for j in range(dim):
                c = coef * mat[i][j]
                if modulus is not None:
                    c %= modulus
                if c:
                    out[i][j] = lp_add(out[i][j], {deg: c})
    return out


def twisted_matrix(pres: WirtingerPresentation, rho, modulus=None,
                   check: bool = True):
    """Presentation matrix [chi(dr_i/dx_j)] with chi = rho (x) abelianization.

    `rho` maps each generator index to an invertible matrix (over Z, or over
    Z_N when a modulus is given); every relator must be respected.  Entries
    are dim x dim blocks of Laurent polynomials.
    """
    rho = [[list(r) for r in m] for m in rho]
    dim = len(rho[0])
    if check:
        for r in pres.relators:
            _, mat = _chi_word(r, rho, dim, modulus)
            ident = identity(dim)
            if modulus is not None:
                ident = [[x % modulus for x in row] for row in ident]
            if mat != ident:
                raise InputError(f"rho does not respect relator {r}")
    rows = []
    for r in pres.relators:
        row = []
        for j in range(pres.generators):
            row.append(_chi(fox_derivative(r, j), rho, dim, modulus))
        rows.append(row)
    return rows


def trivial_rho(pres: WirtingerPresentation):
    return [[[1]] for _ in range(pres.generators)]


def alexander_polynomial(w: BraidWord) -> Laurent:
    """Classical Alexander polynomial of a knot given as a closed braid,
    normalized to integer coefficients, lowest exponent 0, positive lead."""
    if w.closure_components() != 1:
        raise InputError("closure is a link with more than one component")
    pres = wirtinger_from_braid(w)
    if not pres.relators:
        return lp_const(1)
    mat = twisted_matrix(pres, trivial_rho(pres))
    flat = [[cell[0][0] for cell in row] for row in mat]
    # drop the last generator's column; any choice gives the same gcd up to units
    cut = [row[:-1] for row in flat]
    size = pres.generators - 1
    if size == 0:
        return lp_const(1)
    g = laurent_gcd_of_minors(cut, size)
    return lp_normalize(g) if g else {}


def alexander_at(poly: Laurent, t0: int):
    from .laurent import lp_eval
    return lp_eval(poly, t0)
