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
For such a rep of dimension 1, eta = t and tau = 1 - t, that matrix is the
unreduced Burau matrix at t over Z_N, read by one `braids._scalar_burau`
walk with no block walk; the block walk of `braids.colored_matrix` serves
every other rep.

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

The extension criterion.  `dynamical_extension` builds
E = G x_kappa X on G = (Z_N)^m with
(a, x) * (b, y) = (eta[x][y] a + tau[x][y] b + kappa(x, y), x * y), and E
is a quandle exactly when X is one, the rep satisfies relations (1)-(4) of
`quandlekit.algebra` with every eta[x][y] invertible, and kappa is a
normalized 2-cocycle: kappa(x, x) = 0 and
eta[x*y][z] kappa(x, y) + kappa(x*y, z)
  == eta[x*z][y*z] kappa(x, z) + tau[x*z][y*z] kappa(y, z) + kappa(x*z, y*z)
(Andruskiewitsch-Grana; Carter-Elhamdadi-Nikiforou-Saito).  The second
entries of E's products are X's, so E fails each axiom that X fails: a
point x*x != x, a column of X that misses an element, or a failing triple
(x, y, z) of X gives one in E over it.  Let X be a quandle.
Axiom I at (a, x) reads (eta[x][x] + tau[x][x]) a + kappa(x, x) = a: at
a = 0 it gives kappa(x, x) = 0, and then, at every a, relation (4).
Axiom II: the column of (b, y) maps the fibre over x onto the fibre over
x*y by a -> eta[x][y] a + tau[x][y] b + kappa(x, y), and x -> x*y is a
bijection of X, so the column is a bijection exactly when every
eta[x][y] is invertible mod N.  Axiom III at ((a, x), (b, y), (c, z)) is
an identity in a, b and c: its two sides are
eta[x*y][z] (eta[x][y] a + tau[x][y] b + kappa(x, y)) + tau[x*y][z] c
+ kappa(x*y, z) and eta[x*z][y*z] (eta[x][z] a + tau[x][z] c + kappa(x, z))
+ tau[x*z][y*z] (eta[y][z] b + tau[y][z] c + kappa(y, z)) + kappa(x*z, y*z).
Compared at a = b = c = 0, and then at each unit vector in a, in b and in
c, they agree for all a, b, c exactly when the coefficients of a, b and c
and the constants agree: relations (1), (2), (3) and the 2-cocycle
condition at (x, y, z).  The three checks are `verify_axioms` on X's table,
`verify_relations`, and the cocycle check of the quandle complex
(`homology._cocycle_verdict`), which also asks kappa(x, x) = 0; each runs
on a generating set, so deciding the axioms costs far less than scanning
E's |E|^2 columns.  A failing extension is scanned as before, for the
report of its first failures, and so is one over N = 1, where E is X.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .algebra import AlgebraRep, verify_relations
from .braids import (BraidWord, _column_keys, _looked_up, _path_walk,
                     _require_conj_type, _scalar_burau, colored_matrix,
                     coloring_count, colorings_of_closure, crossing_blocks,
                     crossing_data)
from .errors import CheckFailed, InputError, charge, power_text
from .homology import Cochain, ComplexConfig, _cocycle_verdict, _kept, _require_module
from .linalg import cokernel_mod, mat_vec, sub_identity
from .quandles import FiniteQuandle, ValidationReport, verify_axioms


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
    coloring is walked for all of them, for m = 1 as the Burau matrix at
    the rep's one scalar t (`braids._scalar_burau`)."""
    q, N = rep.quandle, rep.modulus
    if rep._one_pair:
        count, colorings = coloring_count(q, w), [(0,) * w.strands]
    else:
        count, colorings = 1, colorings_of_closure(q, w)
    charge(w.strands * rep.dim, "colored-matrix cells", 2)
    charge(len(w.letters) * w.strands * rep.dim ** 3, f"steps of the colored "
           f"matrix's block walk (letters * k * m^3, with {len(w.letters)} "
           f"letters, k = {w.strands} and m = {rep.dim})")
    if rep._one_pair and rep.dim == 1:
        m = sub_identity(_scalar_burau(w, rep.rho[0][0][0], N), N)
        return ModuleInvariant(entries=(tuple(cokernel_mod(m, N)),) * count)
    entries = []
    cokernels: dict = {}        # coefficient sequence -> invariant factors
    for coloring in colorings:
        blocks = crossing_blocks(rep, w, coloring)
        entry = cokernels.get(blocks)
        if entry is None:
            m = sub_identity(colored_matrix(rep, w, coloring, blocks), N)
            entry = cokernels[blocks] = tuple(cokernel_mod(m, N))
        entries.append(entry)
    return ModuleInvariant(entries=tuple(sorted(entries)) * count)


def dynamical_extension(rep: AlgebraRep, kappa: Cochain | None = None):
    """Quandle structure on E = G x X, X = rep.quandle, G = (Z_N)^m:
    (a, x) * (b, y) = (eta[x][y] a + tau[x][y] b + kappa(x, y), x * y).

    Returns (table, report, quandle-or-None); the quandle is built only when
    the axioms pass.  The size^3 axiom checks must not exceed the guard,
    charged before any work.  kappa, when given, must be a 2-cochain that
    fits the rep (`homology._require_module`).

    The table is built by linearity.  The vectors of G are numbered in
    `itertools.product` order, and their sum table is built digit by digit.
    For each (x, y), the numbers of eta a over all a, and of tau b + kappa(x, y)
    over all b, are read from the images of the unit vectors through the sum
    table, once per distinct matrix, so no matrix meets a vector.

    The axioms are decided by the criterion of the module docstring: E is a
    quandle exactly when X is one, the rep satisfies relations (1)-(4) with
    every eta invertible, and kappa is a normalized 2-cocycle, checked by
    `verify_axioms` on X, `verify_relations` and `_cocycle_verdict` in the
    quandle variant.  Only if one of them fails is E's table scanned by
    `verify_axioms`, so a failing extension gets the scan's report.  Over
    N = 1, E is X and the scan is taken.  For N >= 2 every charge of the
    three checks is at most the size^3 already charged."""
    q, N, m = rep.quandle, rep.modulus, rep.dim
    if kappa is not None:
        _require_module(rep, kappa, 2)
    total = N ** m * q.size
    charge(total, f"axiom checks of an extension of size {power_text(total)}",
           3)
    table = _extension_table(rep, kappa)
    if N > 1 and _is_extension(rep, kappa):
        report = ValidationReport(True)
    else:
        report = verify_axioms(table)
    quandle = None
    if report:
        quandle = FiniteQuandle(tuple(tuple(r) for r in table),
                                label=f"ext({q.label},{rep.label})")
    return table, report, quandle


def _extension_table(rep: AlgebraRep, kappa: Cochain | None) -> list[list[int]]:
    """The table of `dynamical_extension`: the cell of row (a, x) and
    column (b, y), at a * |X| + x and b * |X| + y with a and b numbered in
    `itertools.product` order, holds the number of
    eta[x][y] a + tau[x][y] b + kappa(x, y) times |X| plus x * y."""
    q, N, m = rep.quandle, rep.modulus, rep.dim
    if N == 1:                  # G = 0 and E is X
        return [list(row) for row in q.table]
    size = q.size
    # sums[i][j] is the number of vector i + vector j, one digit at a time
    digit = [[(d + e) % N for e in range(N)] for d in range(N)]
    sums = [[0]]
    for _ in range(m):
        sums = [[s * N + c for s in row for c in digit[d]]
                for row in sums for d in range(N)]

    def number(v) -> int:
        i = 0
        for e in v:
            i = i * N + e % N
        return i

    images: dict = {}           # matrix -> the number of matrix * a, every a

    def image(mat) -> list[int]:
        found = images.get(mat)
        if found is None:
            found = [0]
            for col in zip(*mat):       # a's next digit times unit vector k
                unit = number(col)
                steps = [0]
                for _ in range(N - 1):
                    steps.append(sums[steps[-1]][unit])
                found = [row[i] for row in map(sums.__getitem__, found)
                         for i in steps]
            images[mat] = found
        return found

    cells: dict = {}            # x * y -> sums scaled to cells over x * y
    total = len(sums) * size
    table = [[0] * total for _ in range(total)]
    for x in range(size):
        rows = table[x::size]   # the rows (a, x), a in order
        for y in range(size):
            xy = q.op(x, y)
            scaled = cells.get(xy)
            if scaled is None:
                scaled = cells[xy] = [[s * size + xy for s in row] for row in sums]
            eta_a = image(rep.eta[x][y])
            tau_b = image(rep.tau[x][y])
            if kappa is not None and (shift := number(kappa.value((x, y)))):
                tau_b = operator.itemgetter(*tau_b)(sums[shift])
            cells_of = operator.itemgetter(*tau_b)
            for row, ea in zip(rows, eta_a):
                # the cells (b, y) of row (a, x) sit at b * size + y
                row[y::size] = cells_of(scaled[ea])
    return table


def _is_extension(rep: AlgebraRep, kappa: Cochain | None) -> bool:
    """The criterion of the module docstring: X a quandle, the rep's
    relations, and kappa, if given, a quandle 2-cocycle.  A table of X that
    `verify_axioms` refuses as malformed fails it."""
    try:
        if not verify_axioms(rep.quandle.table):
            return False
    except InputError:
        return False
    return bool(verify_relations(rep)) and (
        kappa is None
        or _cocycle_verdict(ComplexConfig(rep=rep, variant="quandle"), kappa))


def multiset_contained(a: InvariantMultiset, b: InvariantMultiset) -> bool:
    """Containment after dropping multiplicities (support inclusion)."""
    if (a.modulus, a.dim) != (b.modulus, b.dim):
        raise InputError("multisets take values in different groups")
    return a.support() <= b.support()
