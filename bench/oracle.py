"""Reference computations for the output checks, independent of quandlekit.

Nothing here imports the package under test.  The braid conventions are the
documented ones: strands are numbered 1..k left to right, and the positive
generator sigma_i sends the colors (u, v) at positions (i, i+1) to
(v, u*v); its inverse sends (u, v) to (v bar* u, u).

* Dihedral colorings use a*b = 2b - a (mod p), so bar* equals *.  The
  coloring map is linear over Z_p, which gives an independent count:
  p ** nullity(M - I).
* The Alexander polynomial comes from the same linear action over the
  Alexander quandle a*b = t a + (1 - t) b, i.e. the unreduced Burau matrix
  M(t).  M(t) - I kills the all-ones vector on the right and a vector with
  last entry 1 on the left, so its adjugate has rank one and the leading
  principal (k-1)-minor is the gcd of all first minors: Delta(t) up to a
  unit +-t^j.  This is a different route from the package's Fox-calculus
  gcd of minors, so agreement is a real check.
"""

from __future__ import annotations

# -- dihedral colorings -------------------------------------------------------


def propagate(letters, p: int, bottom) -> tuple[int, ...]:
    """Top colors of the braid word under the dihedral quandle R_p."""
    cur = list(bottom)
    for e in letters:
        i = abs(e) - 1
        u, v = cur[i], cur[i + 1]
        if e > 0:
            cur[i], cur[i + 1] = v, (2 * v - u) % p
        else:
            cur[i], cur[i + 1] = (2 * u - v) % p, u
    return tuple(cur)


def _dihedral_action(strands: int, letters) -> list[list[int]]:
    """Integer matrix M with top = M @ bottom for every R_p coloring."""
    rows = [[int(i == j) for j in range(strands)] for i in range(strands)]
    for e in letters:
        i = abs(e) - 1
        u, v = rows[i], rows[i + 1]
        if e > 0:
            rows[i], rows[i + 1] = v, [2 * b - a for a, b in zip(u, v)]
        else:
            rows[i], rows[i + 1] = [2 * a - b for a, b in zip(u, v)], u
    return rows


def rank_mod_p(mat, p: int) -> int:
    work = [[x % p for x in row] for row in mat]
    rank, cols = 0, len(work[0]) if work else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], -1, p)
        for r in range(len(work)):
            if r != rank and work[r][c]:
                f = work[r][c] * inv % p
                work[r] = [(x - f * y) % p for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def coloring_count(strands: int, letters, p: int) -> int:
    """Number of R_p colorings of the closure (p prime)."""
    m = _dihedral_action(strands, letters)
    for i in range(strands):
        m[i][i] -= 1
    return p ** (strands - rank_mod_p(m, p))


def components(strands: int, letters) -> int:
    perm = list(range(strands))
    for e in letters:
        i = abs(e) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, count = set(), 0
    for s in range(strands):
        if s not in seen:
            count += 1
            while s not in seen:
                seen.add(s)
                s = perm[s]
    return count


# -- Laurent polynomials as {exponent: coefficient} ---------------------------


def _padd(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            s = out.get(e1 + e2, 0) + c1 * c2
            if s:
                out[e1 + e2] = s
            else:
                out.pop(e1 + e2, None)
    return out


def _pdet(mat) -> dict:
    """Cofactor expansion; the matrices here are at most 4 x 4."""
    n = len(mat)
    if n == 0:
        return {0: 1}
    total: dict = {}
    for j in range(n):
        if not mat[0][j]:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total = _padd(total, _pmul(mat[0][j], _pdet(minor)), -1 if j % 2 else 1)
    return total


def _normalize(poly: dict) -> list[int]:
    """Coefficients lowest degree first, shifted to degree 0, positive lead."""
    if not poly:
        return []
    lo, hi = min(poly), max(poly)
    coeffs = [poly.get(e, 0) for e in range(lo, hi + 1)]
    return [-c for c in coeffs] if coeffs[-1] < 0 else coeffs


def alexander(strands: int, letters) -> list[int]:
    """Normalized Alexander polynomial of a knot closure, lowest degree first."""
    one, t = {0: 1}, {1: 1}
    rows = [[one if i == j else {} for j in range(strands)] for i in range(strands)]
    for e in letters:
        i = abs(e) - 1
        u, v = rows[i], rows[i + 1]
        if e > 0:
            # (u, v) -> (v, t u + (1 - t) v)
            new = [_padd(_pmul(t, a), _pmul({0: 1, 1: -1}, b)) for a, b in zip(u, v)]
            rows[i], rows[i + 1] = v, new
        else:
            # (u, v) -> ((1 - t^-1) u + t^-1 v, u)
            new = [_padd(_pmul({0: 1, -1: -1}, a), _pmul({-1: 1}, b))
                   for a, b in zip(u, v)]
            rows[i], rows[i + 1] = new, u
    a = [[_padd(rows[i][j], one if i == j else {}, -1) for j in range(strands - 1)]
         for i in range(strands - 1)]
    return _normalize(_pdet(a))


def poly_eval(coeffs: list[int], t0: int, mod: int | None = None) -> int:
    total = 0
    for c in reversed(coeffs):
        total = total * t0 + c
        if mod is not None:
            total %= mod
    return total
