"""The twisted chain complex of a quandle with module coefficients.

Chains in degree n are spanned by n-tuples of quandle elements with
coefficients in G = (Z_N)^m; the boundary of an (n+1)-tuple is

  d(x_1..x_{n+1}) = (-1)^{n+1} sum_{i=2}^{n+1} (-1)^i
                        eta[[x_1..^x_i..],[x_i..]] (x_1,..,^x_i,..,x_{n+1})
                  - (-1)^{n+1} sum_{i=2}^{n+1} (-1)^i
                        (x_1*x_i,..,x_{i-1}*x_i, x_{i+1},..,x_{n+1})
                  + (-1)^{n+1} tau[[x_1,x_3..],[x_2,x_3..]] (x_2,..,x_{n+1})

with [y_1..y_k] = ((y_1*y_2)*y_3)*...*y_k, and d(x) = -tau[x bar* x0][x0]
on 1-tuples.  Cochains are dualized by pulling the operator coefficients
out on the left, so the cocycle conditions come out exactly in the usual
written form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .algebra import AlgebraRep, bar
from .errors import GuardExceeded, InputError
from .linalg import (Matrix, int_kernel, kernel_mod_p, mat_vec,
                     quotient_invariant_factors, zeros)

SIZE_GUARD = 6
DEGREE_GUARD = 3


@dataclass(frozen=True)
class ComplexConfig:
    rep: AlgebraRep
    basepoint: int = 0
    variant: str = "quandle"  # "quandle" or "rack"

    def __post_init__(self):
        if self.variant not in ("quandle", "rack"):
            raise InputError(f"unknown variant {self.variant!r}")
        if not (0 <= self.basepoint < self.rep.quandle.size):
            raise InputError("basepoint out of range")


@dataclass
class Cochain:
    degree: int
    modulus: int
    dim: int
    values: dict  # tuple[int,...] -> list[int] of length dim

    def value(self, key) -> list[int]:
        return list(self.values.get(tuple(key), [0] * self.dim))

    def is_degenerate_free(self) -> bool:
        return all(not any(v) for k, v in self.values.items() if _degenerate(k))


def _degenerate(key) -> bool:
    return any(key[i] == key[i + 1] for i in range(len(key) - 1))


def _bracket(q, xs) -> int:
    acc = xs[0]
    for x in xs[1:]:
        acc = q.op(acc, x)
    return acc


def tuples(size: int, n: int):
    return itertools.product(range(size), repeat=n)


def tuple_index(size: int, key) -> int:
    idx = 0
    for x in key:
        idx = idx * size + x
    return idx


def boundary_blocks(cfg: ComplexConfig, n: int):
    """Operator coefficients of the boundary on (n+1)-tuples.

    Yields (source_tuple, {target_tuple: m x m matrix mod N}) pairs.
    """
    rep = cfg.rep
    q = rep.quandle
    size, N, m = q.size, rep.modulus, rep.dim
    if n == 0:
        for (x,) in tuples(size, 1):
            z = q.inv_op(x, cfg.basepoint)
            coef = [[(-e) % N for e in row] for row in rep.tau_at(z, cfg.basepoint)]
            yield (x,), {(): coef}
        return
    sgn_outer = (-1) ** (n + 1)
    for t in tuples(size, n + 1):
        acc: dict = {}

        def add(key, mat, s):
            key = tuple(key)
            if key not in acc:
                acc[key] = zeros(m, m)
            tgt = acc[key]
            for i in range(m):
                for j in range(m):
                    tgt[i][j] = (tgt[i][j] + s * mat[i][j]) % N

        ident = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        for i in range(2, n + 2):  # 1-based position of the removed entry
            s = sgn_outer * ((-1) ** i)
            removed = t[:i - 1] + t[i:]
            tail = t[i - 1:]
            add(removed, rep.eta_at(_bracket(q, removed), _bracket(q, tail)), s)
            shifted = tuple(q.op(t[j], t[i - 1]) for j in range(i - 1)) + t[i:]
            add(shifted, ident, -s)
        head = (t[0],) + t[2:]
        add(t[1:], rep.tau_at(_bracket(q, head), _bracket(q, t[1:])), sgn_outer)
        yield t, acc


def _assemble(cfg: ComplexConfig, n: int, cochains: bool) -> Matrix:
    """The boundary on (n+1)-tuples in the lex tuple basis, or its block
    transpose, the coboundary on n-cochains.  Each block occurs once and is
    never transposed itself: operators act on values from the left."""
    size, m = cfg.rep.quandle.size, cfg.rep.dim
    small, big = (size ** n) * m, (size ** (n + 1)) * m
    out = zeros(big, small) if cochains else zeros(small, big)
    for t, blocks in boundary_blocks(cfg, n):
        for key, mat in blocks.items():
            src, tgt = tuple_index(size, t) * m, tuple_index(size, key) * m
            r0, c0 = (src, tgt) if cochains else (tgt, src)
            for i in range(m):
                out[r0 + i][c0:c0 + m] = mat[i]
    return out


def boundary_matrix(cfg: ComplexConfig, n: int) -> Matrix:
    """Matrix of the boundary C_{n+1} (x) G -> C_n (x) G in the lex tuple basis."""
    return _assemble(cfg, n, cochains=False)


def coboundary_matrix(cfg: ComplexConfig, degree: int) -> Matrix:
    """Matrix of delta: C^degree -> C^{degree+1}, the block transpose of the
    boundary on (degree+1)-tuples."""
    return _assemble(cfg, degree, cochains=True)


def cochain_to_vector(cfg: ComplexConfig, kappa: Cochain) -> list[int]:
    size, m = cfg.rep.quandle.size, cfg.rep.dim
    vec = [0] * ((size ** kappa.degree) * m)
    for key in tuples(size, kappa.degree):
        v = kappa.value(key)
        base = tuple_index(size, key) * m
        for i in range(m):
            vec[base + i] = v[i] % kappa.modulus
    return vec


def vector_to_cochain(cfg: ComplexConfig, degree: int, vec) -> Cochain:
    size, m, N = cfg.rep.quandle.size, cfg.rep.dim, cfg.rep.modulus
    values = {}
    for key in tuples(size, degree):
        base = tuple_index(size, key) * m
        v = [vec[base + i] % N for i in range(m)]
        if any(v):
            values[key] = v
    return Cochain(degree=degree, modulus=N, dim=m, values=values)


def coboundary(cfg: ComplexConfig, kappa: Cochain) -> Cochain:
    mat = coboundary_matrix(cfg, kappa.degree)
    vec = mat_vec(mat, cochain_to_vector(cfg, kappa), cfg.rep.modulus)
    return vector_to_cochain(cfg, kappa.degree + 1, vec)


def is_cocycle_2(cfg: ComplexConfig, kappa: Cochain) -> bool:
    """Generalized 2-cocycle condition
    eta[x*y][z] k(x,y) + k(x*y,z) == eta[x*z][y*z] k(x,z)
                                   + tau[x*z][y*z] k(y,z) + k(x*z,y*z);
    the quandle variant additionally requires k(x,x) = 0."""
    if kappa.degree != 2:
        raise InputError(f"expected a degree-2 cochain, got degree {kappa.degree}")
    rep = cfg.rep
    q, N = rep.quandle, rep.modulus
    if cfg.variant == "quandle":
        for x in range(q.size):
            if any(kappa.value((x, x))):
                return False
    for x, y, z in tuples(q.size, 3):
        xy, xz, yz = q.op(x, y), q.op(x, z), q.op(y, z)
        lhs = mat_vec(rep.eta_at(xy, z), kappa.value((x, y)), N)
        lhs = [(a + b) % N for a, b in zip(lhs, kappa.value((xy, z)))]
        rhs = mat_vec(rep.eta_at(xz, yz), kappa.value((x, z)), N)
        rhs = [(a + b) % N for a, b in
               zip(rhs, mat_vec(rep.tau_at(xz, yz), kappa.value((y, z)), N))]
        rhs = [(a + b) % N for a, b in zip(rhs, kappa.value((xz, yz)))]
        if lhs != rhs:
            return False
    return True


def is_cocycle_3(cfg: ComplexConfig, kappa: Cochain) -> bool:
    """Degree-3 cocycle condition in the conjugation-action form; requires a
    representation with an underlying x -> rho(x) assignment."""
    if kappa.degree != 3:
        raise InputError(f"expected a degree-3 cochain, got degree {kappa.degree}")
    rep = cfg.rep
    if not rep.is_conj_type:
        raise InputError("degree-3 cocycle check needs a conjugation-type rep")
    q, N = rep.quandle, rep.modulus
    if cfg.variant == "quandle":
        for x, y in tuples(q.size, 2):
            if any(kappa.value((x, x, y))) or any(kappa.value((x, y, y))):
                return False
    for x, y, z, w in tuples(q.size, 4):
        xy, xz, yz, zw = q.op(x, y), q.op(x, z), q.op(y, z), q.op(z, w)
        xw, yw = q.op(x, w), q.op(y, w)
        lhs = mat_vec(rep.rho_at(w), kappa.value((x, y, z)), N)
        lhs = [(a + b) % N for a, b in zip(lhs, kappa.value((xz, yz, w)))]
        lhs = [(a + b) % N for a, b in
               zip(lhs, mat_vec(rep.rho_at(q.op(yz, w)), kappa.value((x, z, w)), N))]
        lhs = [(a + b) % N for a, b in zip(lhs, kappa.value((y, z, w)))]
        rhs = mat_vec(rep.rho_at(q.op(q.op(xy, z), w)), kappa.value((y, z, w)), N)
        rhs = [(a + b) % N for a, b in zip(rhs, kappa.value((xy, z, w)))]
        rhs = [(a + b) % N for a, b in
               zip(rhs, mat_vec(rep.rho_at(zw), kappa.value((x, y, w)), N))]
        rhs = [(a + b) % N for a, b in zip(rhs, kappa.value((xw, yw, zw)))]
        if lhs != rhs:
            return False
    return True


def _admissible_columns(cfg: ComplexConfig, degree: int) -> list[int]:
    size, m = cfg.rep.quandle.size, cfg.rep.dim
    cols = []
    for key in tuples(size, degree):
        if cfg.variant == "quandle" and _degenerate(key):
            continue
        base = tuple_index(size, key) * m
        cols.extend(range(base, base + m))
    return cols


def cocycle_space(cfg: ComplexConfig, degree: int) -> list[Cochain]:
    """Echelon basis of the space of degree-2 or degree-3 cocycles over Z_p."""
    if degree not in (2, 3):
        raise InputError("cocycle_space supports degrees 2 and 3")
    p = cfg.rep.modulus
    delta = coboundary_matrix(cfg, degree)
    cols = _admissible_columns(cfg, degree)
    restricted = [[row[c] for c in cols] for row in delta]
    basis = kernel_mod_p(restricted, p)  # raises unless p is prime
    out = []
    full_len = (cfg.rep.quandle.size ** degree) * cfg.rep.dim
    for vec in basis:
        full = [0] * full_len
        for c, v in zip(cols, vec):
            full[c] = v
        out.append(vector_to_cochain(cfg, degree, full))
    return out


def cohomology(cfg: ComplexConfig, degree: int) -> list[int]:
    """Invariant factors of ker(delta^degree)/im(delta^{degree-1}) as a finite
    abelian group, computed over Z from integer lifts."""
    if degree > DEGREE_GUARD:
        raise GuardExceeded(f"cohomology degree capped at {DEGREE_GUARD}")
    if cfg.rep.quandle.size > SIZE_GUARD:
        raise GuardExceeded(f"cohomology quandle size capped at {SIZE_GUARD}")
    N = cfg.rep.modulus
    cols = _admissible_columns(cfg, degree)
    rows_up = _admissible_columns(cfg, degree + 1)
    full_up = coboundary_matrix(cfg, degree)
    up = [[full_up[r][c] for c in cols] for r in rows_up]
    d = len(cols)
    # L = integer lift of ker(delta mod N): kernel of [up | N*I] projected
    aug = [list(row) + [N if i == j else 0 for j in range(len(up))]
           for i, row in enumerate(up)]
    lat_gens = [vec[:d] for vec in int_kernel(aug)]
    lat_gens += [[N if i == j else 0 for i in range(d)] for j in range(d)]
    # M = image of delta^{degree-1} plus the modulus relations
    sub_gens = []
    if degree >= 1:
        dcols = _admissible_columns(cfg, degree - 1)
        full_down = coboundary_matrix(cfg, degree - 1)
        down = [[full_down[r][c] for c in dcols] for r in cols]
        sub_gens = [[down[i][j] for i in range(d)] for j in range(len(dcols))]
    sub_gens += [[N if i == j else 0 for i in range(d)] for j in range(d)]
    return quotient_invariant_factors(sub_gens, lat_gens, d)
