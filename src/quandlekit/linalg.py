"""Exact integer and modular linear algebra.

Matrices are plain lists of lists of Python ints (arbitrary precision);
there is deliberately no floating point anywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InputError

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> Matrix:
    return [[0] * c for _ in range(r)]


def mat_mul(a: Matrix, b: Matrix, mod: Optional[int] = None) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik == 0:
                continue
            bk = b[k]
            for j in range(cols):
                oi[j] += aik * bk[j]
        if mod is not None:
            for j in range(cols):
                oi[j] %= mod
    return out


def mat_add(a: Matrix, b: Matrix, mod: Optional[int] = None) -> Matrix:
    out = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    if mod is not None:
        out = [[x % mod for x in row] for row in out]
    return out


def mat_sub(a: Matrix, b: Matrix, mod: Optional[int] = None) -> Matrix:
    out = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    if mod is not None:
        out = [[x % mod for x in row] for row in out]
    return out


def mat_scale(c: int, a: Matrix, mod: Optional[int] = None) -> Matrix:
    out = [[c * x for x in row] for row in a]
    if mod is not None:
        out = [[x % mod for x in row] for row in out]
    return out


def mat_vec(a: Matrix, v: list[int], mod: Optional[int] = None) -> list[int]:
    out = [sum(x * y for x, y in zip(row, v)) for row in a]
    if mod is not None:
        out = [x % mod for x in out]
    return out


def mat_frac_inverse(a: Matrix) -> list[list[Fraction]]:
    """Exact inverse over Q by Gauss-Jordan; raises on singular input."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            raise InputError("matrix is singular over Q")
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def int_det(a: Matrix) -> int:
    """Exact determinant via fraction-free elimination on Fractions."""
    n = len(a)
    work = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            if work[r][col] != 0:
                f = work[r][col] * inv
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    assert det.denominator == 1
    return int(det)


def mat_inv_mod(a: Matrix, n: int) -> Matrix:
    """Inverse mod n of a matrix whose determinant is a unit mod n."""
    d = int_det(a)
    if math.gcd(d % n, n) != 1:
        raise InputError(f"matrix determinant {d} is not a unit mod {n}")
    inv_q = mat_frac_inverse(a)
    # adjugate = det * inverse has integer entries
    dinv = pow(d % n, -1, n)
    out = []
    for row in inv_q:
        r = []
        for x in row:
            adj = x * d
            assert adj.denominator == 1
            r.append(dinv * int(adj) % n)
        out.append(r)
    return out


def is_invertible_mod(a: Matrix, n: int) -> bool:
    return math.gcd(int_det(a) % n, n) == 1


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass
class SnfResult:
    diag: list[int]             # invariant factors d1 | d2 | ... , all >= 1
    rows: int
    cols: int
    u: Optional[Matrix] = None  # unimodular, u @ m @ v == diag-rectangular
    v: Optional[Matrix] = None

    @property
    def rank(self) -> int:
        return len(self.diag)


def _swap_rows(m, u, i, j):
    m[i], m[j] = m[j], m[i]
    if u is not None:
        u[i], u[j] = u[j], u[i]


def _swap_cols(m, v, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]
    if v is not None:
        for row in v:
            row[i], row[j] = row[j], row[i]


def _add_row(m, u, dst, src, c):
    m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
    if u is not None:
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]


def _add_col(m, v, dst, src, c):
    for row in m:
        row[dst] += c * row[src]
    if v is not None:
        for row in v:
            row[dst] += c * row[src]


def _negate_row(m, u, i):
    m[i] = [-x for x in m[i]]
    if u is not None:
        u[i] = [-x for x in u[i]]


def smith_normal_form(mat: Matrix, transforms: bool = False) -> SnfResult:
    """Smith normal form over Z with min-|pivot| selection.

    Returns invariant factors (1s included) and, when requested, unimodular
    U (rows x rows) and V (cols x cols) with U*M*V equal to the diagonal form.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    m = [list(row) for row in mat]
    u = identity(rows) if transforms else None
    v = identity(cols) if transforms else None

    t = 0
    while t < min(rows, cols):
        # locate pivot of minimal absolute value in the trailing submatrix
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = m[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    piv = (i, j)
        if piv is None:
            break
        _swap_rows(m, u, t, piv[0])
        _swap_cols(m, v, t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    _add_row(m, u, i, t, -q)
                    if m[i][t] != 0:
                        _swap_rows(m, u, t, i)
                        dirty = True
            # clear row t
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    _add_col(m, v, j, t, -q)
                    if m[t][j] != 0:
                        _swap_cols(m, v, t, j)
                        dirty = True
            if not dirty:
                break
        # divisibility fix-up: pivot must divide every later entry
        fixed = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    _add_row(m, u, t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if m[t][t] < 0:
            _negate_row(m, u, t)
        t += 1

    diag = [m[i][i] for i in range(min(rows, cols)) if m[i][i] != 0]
    return SnfResult(diag=diag, rows=rows, cols=cols, u=u, v=v)


def int_kernel(mat: Matrix) -> list[list[int]]:
    """Basis (as column vectors) of the integer kernel lattice of mat."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[int(i == j) for i in range(cols)] for j in range(cols)]
    res = smith_normal_form(mat, transforms=True)
    r = res.rank
    return [[res.v[i][j] for i in range(cols)] for j in range(r, cols)]


def cokernel_mod(mat: Matrix, modulus: int) -> list[int]:
    """Invariant factors > 1 of (Z_N)^rows / column-span(mat).

    Computed over Z from the augmented matrix [mat | N*I]; the trivial group
    is the empty list.
    """
    if modulus <= 0:
        raise InputError("modulus must be positive")
    rows = len(mat)
    aug = [list(row) + [modulus if i == j else 0 for j in range(rows)]
           for i, row in enumerate(mat)]
    res = smith_normal_form(aug)
    return [d for d in res.diag if d > 1]


# ---------------------------------------------------------------------------
# Prime-field kernels


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def kernel_mod_p(mat: Matrix, p: int) -> list[list[int]]:
    """Echelonized basis of the null space of mat over Z_p."""
    if not _is_prime(p):
        raise InputError(f"{p} is not prime")
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    work = [[x % p for x in row] for row in mat]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if work[i][c] % p != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [x * inv % p for x in work[r]]
        for i in range(rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for c in free:
        vec = [0] * cols
        vec[c] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-work[i][c]) % p
        basis.append(vec)
    return basis


def solve_exact(b: Matrix, m: Matrix) -> Matrix:
    """Solve B Y = M over Z for square invertible B; entries must come out integral."""
    binv = mat_frac_inverse(b)
    rows = len(binv)
    cols = len(m[0]) if m else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            x = sum(binv[i][k] * m[k][j] for k in range(rows))
            assert x.denominator == 1, "solution is not integral"
            row.append(int(x))
        out.append(row)
    return out


def lattice_basis(gens: list[list[int]], dim: int) -> Matrix:
    """Square basis matrix (columns) of the full-rank lattice spanned by gens.

    `gens` are column vectors of length dim; the lattice must have rank dim.
    """
    if not gens:
        raise InputError("empty generating set for a full-rank lattice")
    g = [[gens[j][i] for j in range(len(gens))] for i in range(dim)]
    res = smith_normal_form(g, transforms=True)
    if res.rank != dim:
        raise InputError("generators do not span a full-rank lattice")
    # columns of G*V equal U^-1 * D; lattice basis = d_i * (U^-1 e_i)
    uinv = mat_frac_inverse(res.u)
    basis = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            x = uinv[i][j] * res.diag[j]
            assert x.denominator == 1
            basis[i][j] = int(x)
    return basis


def quotient_invariant_factors(sub_gens: list[list[int]],
                               lat_gens: list[list[int]],
                               dim: int) -> list[int]:
    """Invariant factors > 1 of L/M for lattices M <= L <= Z^dim, both full rank."""
    bl = lattice_basis(lat_gens, dim)
    m = [[sub_gens[j][i] for j in range(len(sub_gens))] for i in range(dim)]
    y = solve_exact(bl, m)
    res = smith_normal_form(y)
    if res.rank != dim:
        raise InputError("subgroup is not finite index in the lattice")
    return [d for d in res.diag if d > 1]
