"""The Alexander polynomial's dict route before packed integers, kept as a
test oracle.

`_slide`, `_lp_div`, `lp_det` and `alexander_polynomial` are the code that
`fox` and `laurent` used to run, copied unchanged apart from the imports
and the guard charge: Laurent linear forms walked by `braids._burau_rows`,
Bareiss elimination over Z[t, 1/t] with exact long division, and
`laurent.lp_normalize`.  The package itself keeps none of it."""

from quandlekit.braids import BraidWord, _burau_rows
from quandlekit.errors import InputError
from quandlekit.laurent import Laurent, lp_add, lp_const, lp_mul, lp_normalize


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


def alexander_polynomial(w: BraidWord) -> Laurent:
    """Delta of a knot given as a closed braid, normalized: the (k - 1)-minor
    of the Burau matrix minus I, read by one walk of dict forms."""
    k, n = w.strands, len(w.letters)
    if k > n + 1 or w.closure_components() != 1:
        raise InputError("closure is a link with more than one component")
    units = [tuple([{0: 1} if i == j else {} for j in range(k)]) for i in range(k)]
    rows = _burau_rows(w, _slide(1), _slide(-1), units)
    minor = [[lp_add(x, {0: -1}) if i == j else x for j, x in enumerate(row[:-1])]
             for i, row in enumerate(rows[:-1])]
    return lp_normalize(lp_det(minor))
