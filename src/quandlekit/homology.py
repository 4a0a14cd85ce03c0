"""The twisted chain complex of a quandle with module coefficients.

Chains in degree n are spanned by n-tuples of quandle elements with
coefficients in G = (Z_N)^m; the boundary of an (n+1)-tuple is

  d(x_1..x_{n+1}) = (-1)^{n+1} sum_{i=2}^{n+1} (-1)^i
                        eta[[x_1..^x_i..],[x_i..]] (x_1,..,^x_i,..,x_{n+1})
                  - (-1)^{n+1} sum_{i=2}^{n+1} (-1)^i
                        (x_1*x_i,..,x_{i-1}*x_i, x_{i+1},..,x_{n+1})
                  + (-1)^{n+1} tau[[x_1,x_3..],[x_2,x_3..]] (x_2,..,x_{n+1})

with [y_1..y_k] = ((y_1*y_2)*y_3)*...*y_k, and d(x) = -tau[x bar* x0][x0]
on 1-tuples, listed once by _boundary_terms for the matrices, coboundary()
and the cocycle checks.  Cochains are dualized by pulling the operator
coefficients out on the left; a cocycle is a cochain with delta kappa = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import AlgebraRep
from .errors import GUARD, GuardExceeded, InputError
from .linalg import Matrix, identity, ker_mod_im, kernel_mod, zeros

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


def _boundary_terms(cfg: ComplexConfig, n: int):
    """The boundary on (n+1)-tuples as signed terms.

    Yields (t, [(sign, block, target), ...]) for every (n+1)-tuple t, so that
    d(t) = sum sign * block (target); block is a matrix of rep.eta or rep.tau,
    or None for the identity.  Targets may repeat within one tuple.
    """
    rep = cfg.rep
    q = rep.quandle
    if n == 0:
        for x in range(q.size):
            yield (x,), [(-1, rep.tau[q.inv_op(x, cfg.basepoint)][cfg.basepoint], ())]
        return
    sgn_outer = (-1) ** (n + 1)
    for t in tuples(q.size, n + 1):
        terms = []
        for i in range(2, n + 2):  # 1-based position of the removed entry
            s = sgn_outer * ((-1) ** i)
            removed = t[:i - 1] + t[i:]
            eta = rep.eta[_bracket(q, removed)][_bracket(q, t[i - 1:])]
            terms.append((s, eta, removed))
            shifted = tuple(q.op(t[j], t[i - 1]) for j in range(i - 1)) + t[i:]
            terms.append((-s, None, shifted))
        tau = rep.tau[_bracket(q, (t[0],) + t[2:])][_bracket(q, t[1:])]
        terms.append((sgn_outer, tau, t[1:]))
        yield t, terms


def _assemble(cfg: ComplexConfig, n: int, cochains: bool) -> Matrix:
    """The boundary on (n+1)-tuples in the lex tuple basis, or its block
    transpose, the coboundary on n-cochains.  Blocks are never transposed
    themselves: operators act on values from the left."""
    size, m, N = cfg.rep.quandle.size, cfg.rep.dim, cfg.rep.modulus
    small, big = (size ** n) * m, (size ** (n + 1)) * m
    out = zeros(big, small) if cochains else zeros(small, big)
    ident = identity(m)
    for t, terms in _boundary_terms(cfg, n):
        src = tuple_index(size, t) * m
        for sign, block, key in terms:
            tgt = tuple_index(size, key) * m
            r0, c0 = (src, tgt) if cochains else (tgt, src)
            for i, brow in enumerate(block or ident):
                row = out[r0 + i]
                for j, e in enumerate(brow):
                    if e:
                        row[c0 + j] = (row[c0 + j] + sign * e) % N
    return out


def boundary_matrix(cfg: ComplexConfig, n: int) -> Matrix:
    """Matrix of the boundary C_{n+1} (x) G -> C_n (x) G in the lex tuple
    basis, the signed boundary terms summed mod N."""
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
    """delta kappa, evaluated tuple by tuple from the signed boundary terms:
    (delta kappa)(t) = sum sign * block kappa(target); no matrix is built."""
    m, N = cfg.rep.dim, cfg.rep.modulus
    values = {}
    for t, terms in _boundary_terms(cfg, kappa.degree):
        acc = [0] * m
        for sign, block, key in terms:
            v = kappa.values.get(key)
            if not v:
                continue
            for i in range(m):
                acc[i] += sign * (v[i] if block is None else
                                  sum(e * x for e, x in zip(block[i], v)))
        acc = [a % N for a in acc]
        if any(acc):
            values[t] = acc
    return Cochain(degree=kappa.degree + 1, modulus=N, dim=m, values=values)


def _is_cocycle(cfg: ComplexConfig, kappa: Cochain, degree: int) -> bool:
    if kappa.degree != degree:
        raise InputError(f"expected a degree-{degree} cochain, got {kappa.degree}")
    if cfg.variant == "quandle" and not kappa.is_degenerate_free():
        return False
    return not coboundary(cfg, kappa).values


def is_cocycle_2(cfg: ComplexConfig, kappa: Cochain) -> bool:
    """delta kappa = 0 for a 2-cochain, that is
    eta[x*y][z] k(x,y) + k(x*y,z) == eta[x*z][y*z] k(x,z)
                                   + tau[x*z][y*z] k(y,z) + k(x*z,y*z);
    the quandle variant additionally requires k(x,x) = 0."""
    return _is_cocycle(cfg, kappa, 2)


def is_cocycle_3(cfg: ComplexConfig, kappa: Cochain) -> bool:
    """delta kappa = 0 for a 3-cochain, read from the rep's eta and tau
    tables, so it works for every rep; the quandle variant additionally
    requires kappa to vanish on tuples with two equal neighbours."""
    return _is_cocycle(cfg, kappa, 3)


def _admissible_columns(cfg: ComplexConfig, degree: int) -> list[int]:
    size, m = cfg.rep.quandle.size, cfg.rep.dim
    cols = []
    for key in tuples(size, degree):
        if cfg.variant == "quandle" and _degenerate(key):
            continue
        base = tuple_index(size, key) * m
        cols.extend(range(base, base + m))
    return cols


def cocycle_space(cfg: ComplexConfig, degree: int, guard: int = GUARD) -> list[Cochain]:
    """Generators of the group of degree-2 or degree-3 cocycles over Z_N:
    the kernel of the admissible block of delta, an echelon basis when N is
    prime.  The size^(2 degree + 1) m^2 cells of delta must not exceed
    `guard`."""
    if degree not in (2, 3):
        raise InputError("cocycle_space supports degrees 2 and 3")
    _require_cells(cfg, degree, guard)
    basis = kernel_mod(_admissible_block(cfg, degree), cfg.rep.modulus)
    cols = _admissible_columns(cfg, degree)
    out = []
    full_len = (cfg.rep.quandle.size ** degree) * cfg.rep.dim
    for vec in basis:
        full = [0] * full_len
        for c, v in zip(cols, vec):
            full[c] = v
        out.append(vector_to_cochain(cfg, degree, full))
    return out


def _require_cells(cfg: ComplexConfig, degree: int, guard: int) -> None:
    """Refuse to build delta^degree when its size^(2 degree + 1) m^2 cells
    exceed `guard`."""
    cells = cfg.rep.quandle.size ** (2 * degree + 1) * cfg.rep.dim ** 2
    if cells > guard:
        raise GuardExceeded(f"{cells} coboundary cells exceed the guard of {guard}")


def _admissible_block(cfg: ComplexConfig, n: int) -> Matrix:
    """delta^n from the admissible n-cochains to the admissible (n+1)-cochains."""
    full = coboundary_matrix(cfg, n)
    cols = _admissible_columns(cfg, n)
    return [[full[r][c] for c in cols] for r in _admissible_columns(cfg, n + 1)]


def cohomology(cfg: ComplexConfig, degree: int, guard: int = GUARD) -> list[int]:
    """Invariant factors of ker(delta^degree)/im(delta^{degree-1}) on the
    admissible cochains, computed by `ker_mod_im` over Z/p^e for each prime
    power p^e of N and merged by Chinese remaindering.  The cells of
    delta^degree must not exceed `guard`."""
    if degree < 0:
        raise InputError(f"cohomology degree {degree} is negative")
    if degree > DEGREE_GUARD:
        raise GuardExceeded(f"cohomology degree capped at {DEGREE_GUARD}")
    if cfg.rep.quandle.size > SIZE_GUARD:
        raise GuardExceeded(f"cohomology quandle size capped at {SIZE_GUARD}")
    _require_cells(cfg, degree, guard)
    down = (_admissible_block(cfg, degree - 1) if degree
            else [[] for _ in range(cfg.rep.dim)])
    return ker_mod_im(_admissible_block(cfg, degree), down, cfg.rep.modulus)
