"""The twisted chain complex of a quandle with module coefficients.

Chains in degree n are spanned by n-tuples of quandle elements with
coefficients in G = (Z_N)^m; the boundary of an (n+1)-tuple is

  d(x_1..x_{n+1}) = (-1)^{n+1} sum_{i=2}^{n+1} (-1)^i
                        eta[[x_1..^x_i..],[x_i..]] (x_1,..,^x_i,..,x_{n+1})
                  - (-1)^{n+1} sum_{i=2}^{n+1} (-1)^i
                        (x_1*x_i,..,x_{i-1}*x_i, x_{i+1},..,x_{n+1})
                  + (-1)^{n+1} tau[[x_1,x_3..],[x_2,x_3..]] (x_2,..,x_{n+1})

with [y_1..y_k] = ((y_1*y_2)*y_3)*...*y_k, and d(x) = -tau[x bar* x0][x0]
on 1-tuples, listed once by _boundary_terms for delta, coboundary() and
the cocycle checks.  The quandle complex divides the rack complex by the
degenerate tuples, those with two equal neighbours; the matrices and
cochain vectors are written in the basis of the chosen complex, _basis.
Cochains are dualized by pulling the operator coefficients out on the left;
a cocycle is a cochain with delta kappa = 0, and `_require_module` is the
one test of a cochain's fit to its rep, wherever one is used.  delta is
built once, as the sparse rows that linalg's elimination reads; the dense
matrices are views.

The generator rule.  Over a rep that satisfies the relations, in either
complex, over any Z_N and in every degree n >= 0, delta kappa = 0 exactly
when delta kappa vanishes at the (n+1)-tuples whose last entry lies in the
greedy generating set S of quandles.generating_set.  Write
W = {w : (delta kappa)(y, w) = 0 for every n-tuple y} and expand
delta(delta kappa)(x, a, b) = 0 for an n-tuple x and a, b in W: every term
is a block times delta kappa at a tuple that ends in a or b, but for
-(delta kappa)(x*b, a*b), so that one vanishes too.  As x -> x*b is a
bijection of the n-tuples, a*b is in W: W is closed under *, holds S, and
so holds the subquandle S generates, which is X.  In the quandle complex
delta kappa of a degenerate-free kappa is the rack one, which vanishes on
the degenerate tuples, and x -> x*b keeps them apart.  So the kernel of
delta^n is the kernel of its rows at the tuples ending in S, an |S|/|X|
slice of them: `cohomology`, `cocycle_space` and the cocycle checks build
or walk only those, which `_tuples` lists given last = S.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass

from .algebra import AlgebraRep
from .errors import InputError, charge, power_text
from .linalg import Matrix, _ker_mod_im, _kernel_by_column, identity

MAX_DEGREE = 3


@dataclass(frozen=True)
class ComplexConfig:
    rep: AlgebraRep
    basepoint: int = 0
    variant: str = "quandle"  # "quandle" or "rack"

    def __post_init__(self):
        if self.variant not in ("quandle", "rack"):
            raise InputError(f"unknown variant {self.variant!r}")
        if not (type(self.basepoint) is int
                and 0 <= self.basepoint < self.rep.quandle.size):
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
        return all(not any(x % self.modulus for x in v)
                   for k, v in self.values.items() if _degenerate(k))


def _require_module(rep: AlgebraRep, kappa: Cochain, degree=None) -> None:
    """The one rule of a cochain's fit to a rep: InputError "the cochain
    <what it is>, not <what the rep needs>" unless kappa has `degree`, when
    one is asked for, and a degree d >= 0, takes values in the rep's module
    (Z_N)^m, is keyed by tuples of d elements of 0..|X|-1 and holds a list
    of m entries at each, every number an int (type(x) is int)."""
    size, m, d = rep.quandle.size, rep.dim, kappa.degree
    if degree is not None and (type(d) is not int or d != degree):
        fault = f"is of degree {d!r}, not a degree-{degree} cochain"
    elif type(d) is not int or d < 0:
        fault = f"is of degree {d!r}, not of degree >= 0"
    elif (type(kappa.modulus), type(kappa.dim)) != (int, int) or (
            kappa.modulus, kappa.dim) != (rep.modulus, m):
        fault = (f"takes values in (Z_{kappa.modulus!r})^{kappa.dim!r}, not in the "
                 f"rep's (Z_{rep.modulus})^{m}")
    elif type(kappa.values) is not dict:
        fault = f"has the values {kappa.values!r}, not a dict of keys to values"
    else:
        for k, v in kappa.values.items():
            if not (type(k) is tuple and len(k) == d
                    and all(type(x) is int and 0 <= x < size for x in k)):
                fault = (f"has the key {k!r}, not a tuple of {d} elements of "
                         f"0..{size - 1}")
                break
            if not (type(v) in (list, tuple) and len(v) == m
                    and set(map(type, v)) == {int}):
                fault = f"has the value {v!r} at {k}, not a list of {m} integers"
                break
        else:
            return
    raise InputError(f"the cochain {fault}")


class _Kept:
    """The one cochain a rep keeps (`AlgebraRep._kept_cochain`): its key by
    value, (degree, modulus, dim, values with each value a tuple), a copy of
    the cochain; the verdicts of its cocycle check by (variant, basepoint),
    each recorded only once its check has run to the end; and its weight
    table, path * kappa(x, y) keyed by (path number * |X| + x) * |X| + y,
    which `invariants.cocycle_invariant` fills, at most (distinct path
    actions) * |X|^2 vectors of m entries."""

    __slots__ = ("key", "verdicts", "weights")

    def __init__(self, key):
        self.key, self.verdicts, self.weights = key, {}, {}


def _kept(rep: AlgebraRep, kappa: Cochain) -> _Kept:
    """The rep's entry for kappa, which must fit the rep (`_require_module`):
    the kept one if it is equal in value, else a new empty entry that
    replaces it whole, so an interrupt leaves the old entry or the new."""
    key = (kappa.degree, kappa.modulus, kappa.dim,
           {k: tuple(v) for k, v in kappa.values.items()})
    holder = rep._kept_cochain
    entry = holder[0]
    if entry is None or entry.key != key:
        entry = holder[0] = _Kept(key)
    return entry


def _degenerate(key) -> bool:
    return any(key[i] == key[i + 1] for i in range(len(key) - 1))


def _tuples(cfg: ComplexConfig, n: int, last=None) -> Iterable[tuple]:
    """The n-tuples of the complex that cfg.variant selects, in lex order:
    all of them for the rack complex, those with no two equal neighbours for
    the quandle complex; with `last`, an ascending list of elements, only
    those whose last entry is in it.  Each tuple is made once, from a list
    of the tuples one shorter, so none is made only to be filtered out, and
    the n-tuples themselves are yielded one at a time."""
    s, rack = cfg.rep.quandle.size, cfg.variant == "rack"
    keys = [()]
    for i in range(n):
        if not keys:                # so are the longer tuples
            return []
        ends = range(s) if last is None or i < n - 1 else last
        step = (k + (x,) for k in keys for x in ends if rack or not k or k[-1] != x)
        keys = step if i == n - 1 else list(step)
    return keys


def _basis(cfg: ComplexConfig, n: int) -> dict:
    """The n-tuples of the complex, `_tuples`, mapped to their positions."""
    return {k: i for i, k in enumerate(_tuples(cfg, n))}


def _boundary_terms(cfg: ComplexConfig, t: tuple) -> list:
    """The boundary of the tuple t as signed terms [(sign, block, target), ...],
    so that d(t) = sum sign * block (target); block is a matrix of rep.eta or
    rep.tau, or None for the identity.  Targets may repeat.

    Every bracket and shifted entry is read from the quandle's table.  With
    i the removed entry, [x_1..^x_i..] folds the bracket of the entries
    before it, kept as the walk goes, through the entries after it, and
    [x_i..] folds x_i through them.  At i = 2 these are [x_1, x_3..] and
    [x_2, x_3..], the indices of tau too."""
    rep, table = cfg.rep, cfg.rep.quandle.table
    n = len(t)
    if n == 1:
        bp = cfg.basepoint
        return [(-1, rep.tau[rep.quandle.inv_op(t[0], bp)][bp], ())]
    sgn_outer = -1 if n % 2 else 1
    terms = []
    head = t[0]                     # [x_1 .. x_(i-1)]
    for i in range(1, n):           # 0-based position of the removed entry
        xi, rest = t[i], t[i + 1:]
        a, b = head, xi
        for x in rest:
            a, b = table[a][x], table[b][x]
        if i == 1:
            tau = rep.tau[a][b]
        s = sgn_outer if i % 2 else -sgn_outer
        terms.append((s, rep.eta[a][b], t[:i] + rest))
        terms.append((-s, None, tuple([table[x][xi] for x in t[:i]]) + rest))
        head = table[head][xi]
    terms.append((sgn_outer, tau, t[1:]))
    return terms


def _assemble(cfg: ComplexConfig, n: int, last=None) -> list[dict]:
    """delta^n: C^n -> C^{n+1} in the bases of _basis, as m rows per
    (n+1)-tuple, each a {column: residue mod N} dict without zeros.  Terms
    on tuples outside the basis are dropped, and blocks are never
    transposed: operators act on values from the left.  With `last`, only
    the rows of the (n+1)-tuples that end in it are built; for last = S
    they have the kernel of the whole delta^n (the generator rule in the
    module docstring)."""
    m, N = cfg.rep.dim, cfg.rep.modulus
    small, ident, out = _basis(cfg, n), identity(m), []
    for t in _tuples(cfg, n + 1, last):
        terms = [(sign, block or ident, small[key] * m)
                 for sign, block, key in _boundary_terms(cfg, t) if key in small]
        for i in range(m):
            row = {}
            for sign, block, c0 in terms:
                for j, e in enumerate(block[i], c0):
                    if e:
                        row[j] = row.get(j, 0) + sign * e
            out.append({j: y for j, x in row.items() if (y := x % N)})
    return out


def boundary_matrix(cfg: ComplexConfig, n: int) -> Matrix:
    """Matrix of the boundary C_{n+1} (x) G -> C_n (x) G of the complex that
    cfg.variant selects: the block transpose of delta^n, written densely by
    scattering each of delta's rows into its blocks."""
    m, d = cfg.rep.dim, _assemble(cfg, n)
    out = [[0] * len(d) for _ in range(_basis_size(cfg, n) * m)]
    for r, row in enumerate(d):
        s, i = divmod(r, m)
        for c, x in row.items():
            b, j = divmod(c, m)
            out[b * m + i][s * m + j] = x
    return out


def coboundary_matrix(cfg: ComplexConfig, degree: int) -> Matrix:
    """Matrix of delta: C^degree -> C^{degree+1}, _assemble's rows written out."""
    cols = _basis_size(cfg, degree) * cfg.rep.dim
    out = []
    for row in _assemble(cfg, degree):
        dense = [0] * cols
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    return out


def _vector_to_cochain(cfg: ComplexConfig, degree: int, basis: dict,
                       vec) -> Cochain:
    """The degree-n cochain whose vector in `basis`, _basis(cfg, degree), is vec."""
    m, N = cfg.rep.dim, cfg.rep.modulus
    values = {}
    for key, pos in basis.items():
        v = [x % N for x in vec[pos * m:(pos + 1) * m]]
        if any(v):
            values[key] = v
    return Cochain(degree=degree, modulus=N, dim=m, values=values)


def coboundary(cfg: ComplexConfig, kappa: Cochain) -> Cochain:
    """delta kappa as a cochain of the complex that cfg.variant selects,
    evaluated on each (degree + 1)-tuple of _basis from the signed boundary
    terms: (delta kappa)(t) = sum sign * block kappa(target); no matrix is
    built.  The degenerate tuples form a subcomplex, so delta of a
    degenerate-free kappa vanishes on the tuples the quandle complex skips.
    kappa must fit the rep (`_require_module`)."""
    _require_module(cfg.rep, kappa)
    values = _coboundary_values(cfg, kappa, _tuples(cfg, kappa.degree + 1))
    return Cochain(degree=kappa.degree + 1, modulus=cfg.rep.modulus,
                   dim=cfg.rep.dim, values=dict(values))


def _coboundary_values(cfg: ComplexConfig, kappa: Cochain, tuples):
    """(t, (delta kappa)(t) mod N) for each t of `tuples` where it is not
    zero, one tuple at a time."""
    m, N = cfg.rep.dim, cfg.rep.modulus
    for t in tuples:
        acc = [0] * m
        for sign, block, key in _boundary_terms(cfg, t):
            v = kappa.values.get(key)
            if not v:
                continue
            for i in range(m):
                acc[i] += sign * (v[i] if block is None else
                                  sum(map(operator.mul, block[i], v)))
        acc = [a % N for a in acc]
        if any(acc):
            yield t, acc


def is_cocycle(cfg: ComplexConfig, kappa: Cochain, degree=None) -> bool:
    """delta kappa = 0 for a cochain of any degree d >= 0, checked on the
    (d + 1)-tuples of the complex that end in the generating set S (the
    generator rule in the module docstring) and stopped at the first that
    fails; kappa must fit the rep, and be of `degree` if one is given
    (`_require_module`).

    The guard bounds the walk before it starts: the |S| (s - 1)^d tuples of
    the quandle complex (|S| s^d of the rack complex) times their 2d + 1
    boundary terms times the m^2 entries of a block.  Each term also forms
    and looks up a tuple of d entries, which costs about as much as the rest
    of the term at 16 entries, so past 16 entries a term counts once more
    per 16.

    The verdict is kept on the rep with the one cochain it keeps, the last
    it met (`_kept`): a later call on a cochain equal in value is charged
    the same count, then reads the verdict instead of walking again, and a
    call on another cochain replaces the kept one, so the rep holds one copy
    of a cochain and its few verdicts.  A verdict is recorded only once the
    walk has ended, so an interrupted check leaves none."""
    _require_module(cfg.rep, kappa, degree)
    return _cocycle_verdict(cfg, kappa)


def _cocycle_verdict(cfg: ComplexConfig, kappa: Cochain) -> bool:
    """`is_cocycle` of a cochain that passed its fit check."""
    d, m, table = kappa.degree, cfg.rep.dim, cfg.rep.quandle.table
    gens = cfg.rep.quandle.generators
    weight = m * m * -(-(d + 1) // 16)
    charge(len(table) - (cfg.variant == "quandle"),
           f"boundary-term steps of the cocycle check (degree {d}: "
           f"{power_text(2 * d + 1)} terms of weight {power_text(weight)} on each "
           f"tuple ending in {len(gens)} generators)", d,
           times=len(gens) * (2 * d + 1) * weight)
    verdicts = _kept(cfg.rep, kappa).verdicts
    verdict = verdicts.get((cfg.variant, cfg.basepoint))
    if verdict is None:
        verdict = ((cfg.variant == "rack" or kappa.is_degenerate_free())
                   and next(_coboundary_values(cfg, kappa, _tuples(cfg, d + 1, gens)),
                            None) is None)
        verdicts[cfg.variant, cfg.basepoint] = verdict
    return verdict


def is_cocycle_2(cfg: ComplexConfig, kappa: Cochain) -> bool:
    """delta kappa = 0 for a 2-cochain, that is
    eta[x*y][z] k(x,y) + k(x*y,z) == eta[x*z][y*z] k(x,z)
                                   + tau[x*z][y*z] k(y,z) + k(x*z,y*z);
    the quandle variant additionally requires k(x,x) = 0."""
    return is_cocycle(cfg, kappa, 2)


def is_cocycle_3(cfg: ComplexConfig, kappa: Cochain) -> bool:
    """delta kappa = 0 for a 3-cochain, read from the rep's eta and tau
    tables, so it works for every rep; the quandle variant additionally
    requires kappa to vanish on tuples with two equal neighbours."""
    return is_cocycle(cfg, kappa, 3)


def cocycle_space(cfg: ComplexConfig, degree: int) -> list[Cochain]:
    """Generators of the group of degree-2 or degree-3 cocycles over Z_N: the
    kernel of delta's rows at the tuples ending in the generating set S,
    the kernel of the whole delta (the generator rule in the module
    docstring), read back as cochains through one listing of the basis.
    Over Z/p^e both row sets span one module, with the RREF pivots mod p as
    unit pivots, so over any N there are as many generators as the whole
    delta gives, with its span, and its echelon basis when N is prime.  The
    cells of the chosen complex's delta must not exceed the guard."""
    if type(degree) is not int or degree not in (2, 3):
        raise InputError("cocycle_space supports degrees 2 and 3")
    rows = _kernel_rows(cfg, degree)
    basis, m, N = _basis(cfg, degree), cfg.rep.dim, cfg.rep.modulus
    kernel = _kernel_by_column(rows, len(basis) * m, N)
    return [_vector_to_cochain(cfg, degree, basis, vec) for vec in kernel if any(vec)]


def _kernel_rows(cfg: ComplexConfig, degree: int) -> list[dict]:
    """delta^degree's rows at the tuples ending in S, which have its kernel,
    once the guard has taken the cells of the whole delta^degree."""
    charge(_basis_size(cfg, degree + 1) * _basis_size(cfg, degree)
           * cfg.rep.dim ** 2, "coboundary cells")
    return _assemble(cfg, degree, cfg.rep.quandle.generators)


def _basis_size(cfg: ComplexConfig, n: int) -> int:
    """len(_basis(cfg, n)) without listing it: s^n n-tuples for the rack
    complex, s (s - 1)^(n - 1) with no two equal neighbours for the quandle
    complex, and the one empty tuple for n = 0."""
    s = cfg.rep.quandle.size
    if cfg.variant == "rack" or n == 0:
        return s ** n
    return s * (s - 1) ** (n - 1)


def cohomology(cfg: ComplexConfig, degree: int) -> list[int]:
    """Invariant factors of ker(delta^degree)/im(delta^{degree-1}) in the
    complex that cfg.variant selects, by `_ker_mod_im`'s elimination over
    each Z/p^e in N, merged by CRT: on the whole of delta^{degree-1}, and on
    the rows of delta^degree at the tuples ending in the generating set S,
    which have its kernel (the generator rule in the module docstring).
    Degrees 0 to MAX_DEGREE, on a quandle of any size; the cells of the
    chosen complex's delta^degree must not exceed the guard."""
    if type(degree) is not int or not 0 <= degree <= MAX_DEGREE:
        raise InputError(f"cohomology supports degrees 0 to {MAX_DEGREE}, "
                         f"got {degree}")
    up = _kernel_rows(cfg, degree)
    down = _assemble(cfg, degree - 1) if degree else [{}] * cfg.rep.dim
    return _ker_mod_im(up, down, cfg.rep.modulus)
