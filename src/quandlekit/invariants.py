"""The two link invariants at closed-braid scale.

Both are multisets indexed by the quandle colorings of the closure: the
cocycle state sum collects signed, path-twisted cocycle values at the
crossings, and the module invariant collects the cokernels of the colored
matrices minus the identity.  Multisets are kept sorted so that equality
and serialization are canonical.  Both run in one process, over the
colorings of `braids.colorings_of_closure`: a kernel over an affine quandle,
a search over any other.

The colored matrix depends on a coloring only through its coefficient
sequence, the (eta, tau) block pair met at each crossing
(`braids.crossing_blocks`), so `module_invariant` builds one matrix and one
cokernel per distinct sequence.  When the rep's whole table is one pair, as
for an Alexander-type rep, every coloring has the sequence that the signs of
the letters fix: the colorings are only counted (`braids.coloring_count`),
and the constant coloring's one matrix and cokernel serve every coloring.

`cocycle_invariant` walks all colorings at once through `braids._path_walk`,
the one crossing rule with the one path rule on top, one column of colors
per position, and adds each crossing's weights sign * path * kappa(x, y)
into m accumulator columns as it goes; no list of crossings is kept, so
the walk holds O(colorings * (k + m)) numbers.  Path actions are numbered
by value per rep (`AlgebraRep._path_products`), each formed once per rep
from its one-shorter suffix.  The rep keeps one cochain, the last it met,
by value (`homology._kept`), with the verdict of its cocycle check and its
weight table: path * kappa(x, y) is formed once per (rep, cochain) for each
distinct path action and source pair (x, y), at most (distinct path
actions) * |X|^2 vectors of m entries, and a call on a cochain equal in
value forms none and walks no boundary term.  `crossing_data`, and through
it `diagram_two_chain` and `boltzmann_weight`, walk a one-coloring column
by the same rule.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .algebra import AlgebraRep
from .braids import (BraidWord, _column_keys, _looked_up, _path_walk,
                     _require_conj_type, colored_matrix, coloring_count,
                     colorings_of_closure, crossing_blocks, crossing_data)
from .errors import CheckFailed, InputError, charge, power_text
from .homology import Cochain, ComplexConfig, _cocycle_verdict, _kept, _require_module
from .linalg import cokernel_mod, mat_vec
from .quandles import FiniteQuandle, verify_axioms


@dataclass
class InvariantMultiset:
    entries: tuple            # sorted tuples of ints: one G-vector per coloring
    modulus: int
    dim: int

    def support(self):
        return set(self.entries)


@dataclass
class ModuleInvariant:
    entries: tuple            # sorted invariant-factor tuples, one per coloring


def _require_cocycle_fit(rep: AlgebraRep, kappa: Cochain, check: bool) -> None:
    """kappa a 2-cochain that fits the rep and the rep of conjugation type,
    as diagram chains need its rho, then, with `check`, kappa a cocycle: the
    input rules before any work, the size^3 cocycle check before the
    colorings, the fit tested once."""
    _require_module(rep, kappa, 2)
    _require_conj_type(rep)
    if check and not _cocycle_verdict(ComplexConfig(rep=rep, variant="quandle"), kappa):
        raise CheckFailed("cochain is not a generalized quandle 2-cocycle")


def boltzmann_weight(rep: AlgebraRep, kappa: Cochain, w: BraidWord, coloring,
                     crossing: int, check: bool = True) -> list[int]:
    """eps(r) * A_r * kappa(x, y) at the given crossing of the colored word,
    from its `crossing_data` record; kappa must be a 2-cochain that fits the
    rep (`homology._require_module`) and the rep of conjugation type, also
    when check is False."""
    _require_cocycle_fit(rep, kappa, check)
    data = crossing_data(rep, w, coloring)
    if not (0 <= crossing < len(data)):
        raise InputError(f"crossing index {crossing} out of range")
    sign, path, x, y = data[crossing]
    N = rep.modulus
    return [sign * c % N for c in mat_vec(path, kappa.value((x, y)), N)]


def cocycle_invariant(rep: AlgebraRep, kappa: Cochain, w: BraidWord,
                      check: bool = True) -> InvariantMultiset:
    """State-sum multiset: one weight sum per closure coloring by rep.quandle.

    All colorings are walked at once by `braids._path_walk`, one column of
    colors per position, and each crossing adds its weights
    sign * path * kappa(x, y) into m accumulator columns, one entry per
    coloring, so the walk holds O(colorings * (k + m)) numbers.  The
    weights are read from the table the rep keeps with its one cochain
    (`homology._kept`): each is formed once per (rep, cochain) for its
    distinct path action, numbered by value, and source pair (x, y), and a
    call on a cochain equal in value to the kept one forms none.  A
    coloring that the word does not fix is refused, as by `crossing_data`.
    kappa must be a 2-cochain that fits the rep and the rep of conjugation
    type, also when check is False, both refused before any colorings are
    listed; the size^3 cocycle check and the |X|^k candidate colorings must
    not exceed the guard."""
    _require_cocycle_fit(rep, kappa, check)
    N, size = rep.modulus, rep.quandle.size
    colorings = colorings_of_closure(rep.quandle, w)
    rows = rep._path_products[0].rows
    weights = _kept(rep, kappa).weights

    def weight(key):        # (path * |X| + x) * |X| + y -> path * kappa(x, y)
        rest, y = divmod(key, size)
        path, x = divmod(rest, size)
        return tuple(mat_vec(rows[path], kappa.value((x, y)), N))

    bottom = [list(c) for c in zip(*colorings)]
    columns = list(bottom)
    acc = [[0] * len(colorings)] * rep.dim
    parts = list(map(operator.itemgetter, range(rep.dim)))
    for e, _, xs, ys, paths in _path_walk(rep, w, columns):
        vecs = _looked_up(weights, _column_keys(size, paths, xs, ys), weight)
        step = operator.add if e > 0 else operator.sub
        acc = [list(map(step, a, map(part, vecs))) for a, part in zip(acc, parts)]
    if columns != bottom:
        raise InputError("coloring is not fixed by the braid word")
    entries = zip(*[[v % N for v in a] for a in acc])
    return InvariantMultiset(entries=tuple(sorted(entries)), modulus=rep.modulus,
                             dim=rep.dim)


def module_invariant(rep: AlgebraRep, w: BraidWord) -> ModuleInvariant:
    """Invariant factors of G^k / Im(M(w, x) - I), one per coloring x by
    rep.quandle; the |X|^k candidate colorings, the (k m)^2 cells of the
    colored matrix and the letters * k * m^3 steps of its block walk must
    not exceed the guard.  Colorings with the same coefficient sequence share
    one matrix and one cokernel.  When the rep's whole (eta, tau) table is
    one pair, as for an Alexander-type rep, the sequence depends only on the
    signs of the letters: the colorings are only counted, and the constant
    coloring is walked for all of them."""
    q, N = rep.quandle, rep.modulus
    if rep._one_pair:
        count, colorings = coloring_count(q, w), [(0,) * w.strands]
    else:
        count, colorings = 1, colorings_of_closure(q, w)
    charge(w.strands * rep.dim, "colored-matrix cells", 2)
    charge(len(w.letters) * w.strands * rep.dim ** 3, f"steps of the colored "
           f"matrix's block walk (letters * k * m^3, with {len(w.letters)} "
           f"letters, k = {w.strands} and m = {rep.dim})")
    entries = []
    cokernels: dict = {}        # coefficient sequence -> invariant factors
    for coloring in colorings:
        blocks = crossing_blocks(rep, w, coloring)
        entry = cokernels.get(blocks)
        if entry is None:
            m = colored_matrix(rep, w, coloring, blocks)
            for i in range(len(m)):
                m[i][i] = (m[i][i] - 1) % N
            entry = cokernels[blocks] = tuple(cokernel_mod(m, N))
        entries.append(entry)
    return ModuleInvariant(entries=tuple(sorted(entries)) * count)


def dynamical_extension(rep: AlgebraRep, kappa: Cochain | None = None):
    """Quandle structure on G x X, X = rep.quandle:
    (a, x) * (b, y) = (eta[x][y] a + tau[x][y] b + kappa(x, y), x * y).

    For each (x, y) the products eta[x][y] a and tau[x][y] b + kappa(x, y)
    are formed once per module vector, and each cell adds two of them by a
    table of vector sums.  Returns (table, report, quandle-or-None); the
    quandle is built only when the axioms pass.  The size^3 axiom checks
    must not exceed the guard: checked before the table is built, this bound
    also covers verify_axioms' full scan of a failing table.  kappa, when
    given, must be a 2-cochain that fits the rep (`homology._require_module`).
    """
    q, N, m = rep.quandle, rep.modulus, rep.dim
    if kappa is not None:
        _require_module(rep, kappa, 2)
    total = N ** m * q.size
    charge(total, f"axiom checks of an extension of size {power_text(total)}",
           3)
    vectors = list(itertools.product(range(N), repeat=m))
    vindex = {v: i for i, v in enumerate(vectors)}
    # sums[i][j] is the index of vectors[i] + vectors[j]
    sums = [[vindex[tuple((s + t) % N for s, t in zip(u, v))] for v in vectors]
            for u in vectors]
    size = q.size
    table = [[0] * total for _ in range(total)]
    for x in range(size):
        for y in range(size):
            shift = [0] * m if kappa is None else kappa.value((x, y))
            # eta a and tau b + kappa(x, y), once per module vector
            eta_a = [vindex[tuple(mat_vec(rep.eta[x][y], a, N))] for a in vectors]
            tau_b = [vindex[tuple((s + t) % N for s, t in
                                  zip(mat_vec(rep.tau[x][y], b, N), shift))]
                     for b in vectors]
            xy = q.op(x, y)
            for ai, ea in enumerate(eta_a):
                # the cells (b, y) of row (a, x) sit at b * size + y
                table[ai * size + x][y::size] = [sums[ea][tb] * size + xy
                                                 for tb in tau_b]
    report = verify_axioms(table)
    quandle = None
    if report:
        quandle = FiniteQuandle(tuple(tuple(r) for r in table),
                                label=f"ext({q.label},{rep.label})")
    return table, report, quandle


def multiset_contained(a: InvariantMultiset, b: InvariantMultiset) -> bool:
    """Containment after dropping multiplicities (support inclusion)."""
    if (a.modulus, a.dim) != (b.modulus, b.dim):
        raise InputError("multisets take values in different groups")
    return a.support() <= b.support()
