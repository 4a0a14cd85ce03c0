"""Matrix representations of the quandle algebra of a finite quandle.

A representation assigns to every pair (x, y) an invertible matrix eta[x][y]
and a matrix tau[x][y] over Z_N, subject to the four defining identities

  (1) eta[x*y][z] eta[x][y]  == eta[x*z][y*z] eta[x][z]
  (2) eta[x*y][z] tau[x][y]  == tau[x*z][y*z] eta[y][z]
  (3) tau[x*y][z]            == eta[x*z][y*z] tau[x][z] + tau[x*z][y*z] tau[y][z]
  (4) tau[x][x] + eta[x][x]  == I

checked by verify_relations. The coefficient module is (Z_N)^m acted on by
these matrices from the left.  Every table of matrices is shaped and
frozen mod N, N >= 1, by `_freeze`, in one pass over all its rows.

Conjugation type.  A rep is of conjugation type, as the paper's modules
over Conj(G) are, when eta[x][y] = rho(y) and tau[x][y] = I - rho(x*y) for
an x -> matrix assignment rho; the Alexander reps, eta = t and tau = I - t,
are the case rho = t.  The diagram chains of braids and the cocycle
invariant need that rho.  It is read from the tables, never carried beside
them: `AlgebraRep.rho` is rho(y) = eta[0][y] when eta[x][y] = eta[0][y] and
tau[x][y] = I - eta[0][x*y] mod N for every x and y, and None otherwise,
however the rep was built.

The generator rule.  Once every eta is invertible, (1)-(3) hold for all
(x, y, z) exactly when they hold for every z in the greedy generating set S
of quandles.generating_set.  On E = X x (Z_N)^m let
(x, a)*(y, b) = (x*y, eta[x][y] a + tau[x][y] b), and R_u(v) = v*u.
Comparing the coefficients of a, b and c in R_(z,c)((x, a)*(y, b)) and
R_(z,c)(x, a) * R_(z,c)(y, b) gives (1)-(3) at (x, y, z), and the first
entries agree by axiom III of X; so (1)-(3) hold at z for all x and y
exactly when every R_(z,c) is a homomorphism of E.  Every R_u is a
bijection, since the columns of X are permutations and every eta is
invertible.  If R_u and R_w are automorphisms, R_w R_u = R_(u*w) R_w, so
R_(u*w) = R_w R_u R_w^-1 is one too: the u whose R_u is an automorphism are
closed under *.  They hold S x (Z_N)^m, which generates E: the fibre over
u*w holds eta[u][w] a + tau[u][w] b for every a and b, all of (Z_N)^m when
the fibres over u and w are, and the x whose fibre is whole are closed
under * and hold S, so they are all of X.  Relation (4), which says that
E satisfies axiom I, is checked for every x.  verify_relations therefore
scans (1)-(3) only for z in S and, if anything fails, scans every z again
to report the first failure of each relation in (x, y, z) order.

The conjugation rule.  On tables of conjugation type, (1)-(4) say one
thing, the conjugation relation rho(y*z) rho(z) == rho(z) rho(y) at (y, z).
(1) at (x, y, z) is the relation at (y, z).  (2) at (x, y, z) is the
relation at (x*y, z), as tau[x*z][y*z] = I - rho((x*y)*z) by axiom III.
(3) reduces to the relation at (x*z, y*z): with w = (x*z)*(y*z) = (x*y)*z,
its right side is I - rho(w) + rho(w) rho(y*z) - rho(y*z) rho(x*z) and its
left side I - rho(w).  (4) holds because x*x = x: tau[x][x] + eta[x][x] is
I - rho(x) + rho(x).  Let Z be the set of z at which the relation holds for
every y.  Once every rho is invertible, Z is closed under *: for z and w in
Z, write y*(z*w) = ((y bar* w)*z)*w by axiom III; then rho(y bar* w) is
rho(w)^-1 rho(y) rho(w), since w is in Z, so rho(y*(z*w)) is
rho(w) rho(z) rho(w)^-1 rho(y) rho(w) rho(z)^-1 rho(w)^-1, and
rho(w) rho(z) rho(w)^-1 = rho(z*w).  Z holds S, so Z = X.  On a rep of
conjugation type with every eta invertible, verify_relations therefore
checks the relation at the |S| |X| pairs (y, z) with z in S, and only if
one fails runs the scans of the generator rule, so a failing rep gets the
same report; check_group_rep checks the same pairs, and every pair only
if one fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Optional

from .errors import CheckFailed, InputError, charge, quoted
from .linalg import (_require_modulus, identity, is_invertible_mod, mat_add,
                     mat_inv_mod, mat_mul, mat_scale, mat_sub)
from .quandles import FiniteQuandle, ValidationReport

if TYPE_CHECKING:
    from .groups import FiniteGroup


@dataclass(frozen=True)
class AlgebraRep:
    quandle: FiniteQuandle
    modulus: int
    dim: int
    eta: tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]
    tau: tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]
    label: str = ""

    @property
    def is_conj_type(self) -> bool:
        return self.rho is not None

    @cached_property
    def rho(self) -> Optional[tuple[tuple[tuple[int, ...], ...], ...]]:
        # the module docstring's conjugation type; count() tries identity first
        row, q = self.eta[0], self.quandle
        if (self.eta.count(row) == q.size
                and self.tau == _conj_tau(row, q.table, self.modulus)):
            return row
        return None

    @cached_property
    def _one_pair(self) -> bool:
        # every cell holds one (eta, tau) pair: by relation (4), a rep of
        # conjugation type whose rho is one matrix, as an Alexander rep's is
        return self.rho is not None and len(set(self.rho)) == 1

    @cached_property
    def _crossing_blocks(self) -> tuple[dict, dict, list]:
        # braids.crossing_blocks' numbering: (positive?, x, y) -> number,
        # (positive?, eta[x][y], tau[x][y]) -> number, and number -> the
        # block pair the crossing applies
        return {}, {}, []

    @cached_property
    def _path_products(self) -> tuple[_Products, tuple[int, ...], int, dict]:
        # braids._path_walk's numbering of path actions, for a rep of
        # conjugation type: the products, the number of each rho(x), the
        # number of the identity, and the steps, path * |X| + x -> the
        # number of path * rho(x), each formed when first met
        products = _Products(self.modulus)
        one = _freeze([identity(self.dim)], self.modulus)[1][0]
        return (products, tuple(map(products.number, self.rho)),
                products.number(one), {})

    @cached_property
    def _kept_cochain(self) -> list:
        # the one cochain the rep keeps, homology._kept: [entry or None].
        # Only the last cochain met is kept, so the rep holds at most one
        # entry: its key, its cocycle verdicts and its weight table, at
        # most (distinct path actions) * |X|^2 vectors of m entries
        return [None]


def _freeze(mats, n: Optional[int], count: int = 1,
            what: str = "a matrix") -> tuple[int, tuple]:
    """(dim, `mats` frozen) if they are `count` square dim x dim matrices of
    ints (type(x) is int), dim >= 1, else InputError "<what> must be <count>
    integer matrices, all square of one size >= 1"; then `_require_modulus`
    unless n is None.  Every matrix given to an AlgebraRep or GroupRep is
    frozen here, as row tuples in 0..n-1, one object per distinct residue
    matrix, by C-level passes over all the rows: the types of every entry,
    so True or 1.0 is refused before it can merge with an equal 1, then the
    range of each distinct row."""
    try:
        dim = len(mats[0]) if len(mats) else 0
        fits = dim and len(mats) == count and set(map(len, mats)) == {dim}
        rows = list(chain.from_iterable(mats)) if fits else []
        fits = fits and set(map(len, rows)) == {dim}
        rows = list(map(tuple, rows)) if fits else []
        types = list(map(type, chain.from_iterable(rows)))
        fits = fits and types.count(int) == len(types)
    except (TypeError, LookupError):    # an entry that is not a sequence
        fits = False
    if not fits:
        raise InputError(f"{what} must be {count} integer matrices, all square "
                         f"of one size >= 1")
    if n is not None:
        _require_modulus(n)
        distinct = set(rows)
        if not (0 <= min(map(min, distinct)) and max(map(max, distinct)) < n):
            residue = {r: tuple([e % n for e in r]) for r in distinct}
            rows = list(map(residue.__getitem__, rows))
    mats, frozen = list(zip(*[iter(rows)] * dim)), {}
    return dim, tuple(map(frozen.setdefault, mats, mats))


def _conj_tau(rho, table, n: int) -> tuple:
    """tau[x][y] = I - rho(x*y) mod n, one object per distinct rho(x*y)."""
    minus = {m: [[-e % n for e in r] for r in m] for m in set(rho)}
    for m, rows in minus.items():
        for i, r in enumerate(rows):
            r[i] = (1 - m[i][i]) % n
        minus[m] = tuple(map(tuple, rows))
    one_minus = list(map(minus.__getitem__, rho))
    return tuple(tuple(map(one_minus.__getitem__, row)) for row in table)


class _Products:
    """Products and sums mod n of frozen square matrices, each distinct pair
    formed once per instance.  Matrices are numbered by value, products and
    sums included, so `mul(i, j)` and `add(i, j)` return the numbers of
    matrix i times (plus) matrix j, and equal results compare as equal ints.
    A product row is formed from the nonzero entries of the left factor's
    row: it is the right factor's own row tuple when the left row is a unit
    vector."""

    def __init__(self, n: int):
        self.n = n
        self.numbers = {}     # frozen matrix -> number
        self.rows = []        # number -> its rows, as tuples
        self.terms = {}       # number -> each row's nonzero (column, entry)
        self.products = {}    # (i, j) -> number of rows[i] rows[j] mod n
        self.sums = {}        # (i, j) -> number of rows[i] + rows[j] mod n

    def number(self, m) -> int:
        i = self.numbers.get(m)
        if i is None:
            # the row first: an interrupt between the two statements leaves
            # an unnumbered row, never a number without its row
            self.rows.append(m)
            i = self.numbers[m] = len(self.rows) - 1
        return i

    def number_table(self, table) -> list[list[int]]:
        """The numbers of a table's matrices, by value, each distinct
        object hashed once."""
        cells = {id(m): m for row in table for m in row}
        numbers = dict(zip(cells, map(self.number, cells.values())))
        return [list(map(numbers.__getitem__, map(id, row))) for row in table]

    def mul(self, i: int, j: int) -> int:
        p = self.products.get((i, j))
        if p is None:
            p = self.products[i, j] = self._mul(i, j)
        return p

    def _mul(self, i: int, j: int) -> int:
        n, b = self.n, self.rows[j]
        terms = self.terms.get(i)
        if terms is None:
            terms = self.terms[i] = [[(k, e) for k, e in enumerate(r) if e]
                                     for r in self.rows[i]]
        out = []
        for t in terms:
            if len(t) == 1 and t[0][1] == 1:
                out.append(b[t[0][0]])
            else:
                acc = [0] * len(b)
                for k, e in t:
                    acc = [s + e * v for s, v in zip(acc, b[k])]
                out.append(tuple([s % n for s in acc]))
        return self.number(tuple(out))

    def add(self, i: int, j: int) -> int:
        s = self.sums.get((i, j))
        if s is None:
            n = self.n
            s = self.sums[i, j] = self.number(
                tuple(tuple([(u + v) % n for u, v in zip(r, q)])
                      for r, q in zip(self.rows[i], self.rows[j])))
        return s


@dataclass(frozen=True)
class GroupRep:
    """An x -> invertible matrix assignment on a quandle, standing in for a
    module over the enveloping group: plain data, checked by the rep built
    from it."""
    quandle: FiniteQuandle
    modulus: int
    dim: int
    rho: tuple[tuple[tuple[int, ...], ...], ...]
    label: str = ""


def check_group_rep(g: GroupRep) -> ValidationReport:
    """Conjugation consistency: rho(x*y) == rho(y) rho(x) rho(y)^-1 mod N,
    tested as rho(x*y) rho(y) == rho(y) rho(x) once every rho(x) is
    invertible, for y in the greedy generating set S only (the conjugation
    rule above); if a pair fails, every y is scanned, so the failure named
    is the first of the |X|^2 scan.  Each distinct product is formed
    once."""
    q, n = g.quandle, g.modulus
    for x in range(q.size):
        if not is_invertible_mod(g.rho[x], n):
            return ValidationReport(False, [f"rho({x}) is not invertible mod {n}"])
    products = _Products(n)
    rho = [products.number(m) for m in g.rho]
    failure = (_conjugation_failure(q.table, rho, products, q.generators)
               and _conjugation_failure(q.table, rho, products, range(q.size)))
    if failure:
        x, y = failure
        return ValidationReport(
            False, [f"rho({x}*{y}) != rho({y}) rho({x}) rho({y})^-1"])
    return ValidationReport(True)


def _conjugation_failure(table, rho, products: _Products,
                         zs) -> Optional[tuple[int, int]]:
    """The first (x, y) in scan order, y in zs, at which
    rho(x*y) rho(y) != rho(y) rho(x), or None; rho holds the numbers of its
    matrices in `products`."""
    mul = products.mul
    for x, row in enumerate(table):
        rho_x = rho[x]
        for y in zs:
            if mul(rho[row[y]], rho[y]) != mul(rho[y], rho_x):
                return x, y
    return None


def make_group_rep(quandle: FiniteQuandle, modulus: int, rho,
                   label: str = "") -> GroupRep:
    """Freeze rho, one matrix per quandle element (`_freeze`), into a
    GroupRep."""
    dim, rho = _freeze(rho, modulus, quandle.size, "rho, one per quandle element,")
    return GroupRep(quandle=quandle, modulus=modulus, dim=dim, rho=rho, label=label)


def regular_group_rep(group: FiniteGroup, quandle: FiniteQuandle,
                      elements, modulus: int) -> GroupRep:
    """GroupRep via the left-regular permutation representation of `group`,
    restricted to the group elements carried by the quandle, which must lie
    in 0..|G|-1 (an empty group gives matrices with no rows, refused by
    `make_group_rep`)."""
    n = group.size
    rho = []
    for e in elements:
        if n and not (type(e) is int and 0 <= e < n):
            raise InputError(f"{quoted(e)} is not an element of the group of "
                             f"order {n}")
        m = [[0] * n for _ in range(n)]
        for h in range(n):
            m[group.mul[e][h]][h] = 1
        rho.append(m)
    return make_group_rep(quandle, modulus, rho,
                          label=f"regular({group.label or n})")


def permutation_rep_r3(modulus: int = 3) -> GroupRep:
    """The dihedral quandle R3 acting on (Z_N)^3 by permuting coordinates:
    element i acts as the transposition fixing coordinate i."""
    from .quandles import make_dihedral
    q = make_dihedral(3)
    rho = []
    for i in range(3):
        others = [j for j in range(3) if j != i]
        perm = {i: i, others[0]: others[1], others[1]: others[0]}
        m = [[0] * 3 for _ in range(3)]
        for src, dst in perm.items():
            m[dst][src] = 1
        rho.append(m)
    return make_group_rep(q, modulus, rho, label="perm3")


def verify_relations(rep: AlgebraRep) -> ValidationReport:
    """Identities (1)-(4); reports the first failure of each, in the order
    of the (x, y, z) scan.

    Each distinct matrix object is numbered once, and invertibility tested
    once per distinct eta.  A rep of conjugation type then passes if
    rho(y*z) rho(z) == rho(z) rho(y) for every y and every z in the greedy
    generating set S, which is enough (the conjugation rule above).
    Otherwise (1)-(3) are checked for z in S
    only, which is enough (the generator rule above), and (4) for every x;
    if anything fails, the same scan runs over every z, so the report is
    the exhaustive scan's.  Each distinct matrix product and each distinct
    sum of relation (3) is formed once: a conjugation rep has only |X|
    distinct eta and |X| distinct tau.

    The guard bounds the |X|^3 triples, then, before any product is formed,
    (e + min(d^2, 6 |S| |X|^2)) m^3 steps: the inversions of the e distinct
    eta and the products of the d distinct m x m matrices, six per triple
    at most, which bounds the two per pair of the conjugation rule too.  A
    scan over every z is held to the same count with 6 |X|^3 before it
    starts."""
    q, n, m = rep.quandle, rep.modulus, rep.dim
    size, table = q.size, q.table
    charge(size, "relation triples", 3)
    products = _Products(n)
    eta = products.number_table(rep.eta)
    distinct_eta = len(products.rows)
    tau = products.number_table(rep.tau)
    distinct = len(products.rows)
    matrices = (f"({distinct_eta} distinct eta among {distinct} distinct "
                f"{m} x {m} matrices)")
    gens = q.generators
    charge((distinct_eta + min(distinct ** 2, 6 * len(gens) * size ** 2)) * m ** 3,
           f"steps of the relations at {len(gens)} of {size} elements z "
           f"{matrices}")
    # eta is numbered 0, 1, ... in (x, y) order: the first singular one fails first
    for i in range(distinct_eta):
        if not is_invertible_mod(products.rows[i], n):
            x, y = divmod(list(chain.from_iterable(eta)).index(i), size)
            return ValidationReport(False, [f"eta[{x}][{y}] is not invertible mod {n}"])
    if rep.rho is not None and not _conjugation_failure(table, eta[0], products, gens):
        return ValidationReport(True)
    one = products.number(_freeze([identity(m)], n)[1][0])
    failures = _relation_failures(table, eta, tau, one, products, gens)
    if failures and len(gens) < size:
        charge((distinct_eta + min(distinct ** 2, 6 * size ** 3)) * m ** 3,
               f"steps of the relations at {size} of {size} elements z "
               f"{matrices}")
        failures = _relation_failures(table, eta, tau, one, products, range(size))
    return ValidationReport(passed=not failures, failures=failures)


def _relation_failures(table, eta, tau, one: int, products: _Products,
                       zs) -> list[str]:
    """The first failure of each relation over the (x, y, z) with z in zs, in
    scan order, and of (4) over every x; eta and tau hold the numbers of
    their matrices in `products`, and `one` is the identity's."""
    mul, add = products.mul, products.add
    size = len(table)
    failures = []
    found = [False] * 4
    for x in range(size):
        eta_x, tau_x, row_x = eta[x], tau[x], table[x]
        for y in range(size):
            xy, eta_xy, tau_xy = row_x[y], eta_x[y], tau_x[y]
            eta_y, tau_y, row_y = eta[y], tau[y], table[y]
            eta_above, tau_above = eta[xy], tau[xy]
            for z in zs:
                xz, yz = row_x[z], row_y[z]
                e, t = eta[xz][yz], tau[xz][yz]
                if not found[0] and mul(eta_above[z], eta_xy) != mul(e, eta_x[z]):
                    found[0] = True
                    failures.append(f"relation (1) fails at (x,y,z)=({x},{y},{z})")
                if not found[1] and mul(eta_above[z], tau_xy) != mul(t, eta_y[z]):
                    found[1] = True
                    failures.append(f"relation (2) fails at (x,y,z)=({x},{y},{z})")
                if not found[2] and tau_above[z] != add(mul(e, tau_x[z]),
                                                       mul(t, tau_y[z])):
                    found[2] = True
                    failures.append(f"relation (3) fails at (x,y,z)=({x},{y},{z})")
        if not found[3] and add(tau_x[x], eta_x[x]) != one:
            found[3] = True
            failures.append(f"relation (4) fails at x={x}")
    return failures


def make_rep(quandle: FiniteQuandle, modulus: int, eta, tau,
             label: str = "", check: bool = True) -> AlgebraRep:
    """The rep with tables eta and tau given from outside (a JSON document,
    make_wada_rep or a test), frozen with one object per distinct residue
    matrix.  eta and tau are |X| x |X| tables of matrices, all square of
    one size, shaped and frozen by one `_freeze`; with `check`, a rep that
    fails verify_relations raises CheckFailed.  Whether the rep is of
    conjugation type, and its rho, are read from the tables (`AlgebraRep.rho`)."""
    size = quandle.size
    try:
        fits = len(eta) == len(tau) == size and set(map(len, chain(eta, tau))) == {size}
        mats = list(chain.from_iterable(chain(eta, tau))) if fits else []
    except TypeError:               # a table or row that is not a sequence
        mats = []
    dim, cells = _freeze(mats, modulus, 2 * size * size,
                         f"{size} x {size} tables eta and tau")
    rows = list(zip(*[iter(cells)] * size))
    rep = AlgebraRep(quandle=quandle, modulus=modulus, dim=dim, eta=tuple(rows[:size]),
                     tau=tuple(rows[size:]), label=label)
    if check:
        report = verify_relations(rep)
        if not report:
            raise CheckFailed("; ".join(report.failures))
    return rep


def make_alexander_rep(quandle: FiniteQuandle, modulus: int, t) -> AlgebraRep:
    """Constant tables eta = t, tau = I - t, which satisfy (1)-(4) on every
    quandle, so only t is checked: a unit mod N, either an integer (a 1x1
    rep) or a square matrix, which sets the dimension.  t and I - t are
    frozen once, and each table is one row of |X| references to its matrix,
    repeated |X| times."""
    tmat = [[t]] if type(t) is int else t
    dim, (eta,) = _freeze([tmat], modulus, 1, "t, an integer or a matrix,")
    if not is_invertible_mod(eta, modulus):
        raise InputError(f"t is not invertible mod {modulus}")
    tau = _freeze([mat_sub(identity(dim), eta, modulus)], modulus)[1][0]
    size = quandle.size
    return AlgebraRep(quandle=quandle, modulus=modulus, dim=dim,
                      eta=((eta,) * size,) * size, tau=((tau,) * size,) * size,
                      label=f"alexander-rep(N={modulus},t={t})")


def make_conj_rep(g: GroupRep) -> AlgebraRep:
    """eta[x][y] = rho(y), tau[x][y] = I - rho(x*y).

    Every row of eta is the GroupRep's own frozen rho, and I - rho(z) is
    formed once per element z (`_conj_tau`), so the tables hold |X| distinct
    eta and |X| distinct tau objects.  CheckFailed unless check_group_rep
    passes, which on these tables is equivalent to relations (1)-(4) (the
    conjugation rule above)."""
    report = check_group_rep(g)
    if not report:
        raise CheckFailed("; ".join(report.failures))
    q, n = g.quandle, g.modulus
    return AlgebraRep(quandle=q, modulus=n, dim=g.dim, eta=(g.rho,) * q.size,
                      tau=_conj_tau(g.rho, q.table, n), label=f"conj-rep({g.label})")


def make_wada_rep(g: GroupRep, variant) -> AlgebraRep:
    """Free-derivative tables for the Wada-type crossing operations.

    variant: an integer m for w(x,y) = y^m x y^-m over a conjugation-power
    quandle, or the string "core" for w(x,y) = y x^-1 y over a core quandle.
    rho itself is not checked: the tables are accepted only if they pass
    verify_relations, and CheckFailed is raised otherwise.
    """
    q, n, dim = g.quandle, g.modulus, g.dim
    size = q.size
    eta = [[None] * size for _ in range(size)]
    tau = [[None] * size for _ in range(size)]
    if variant == "core":
        for x in range(size):
            rx_inv = mat_inv_mod(g.rho[x], n)
            for y in range(size):
                prod = mat_mul(g.rho[y], rx_inv, n)
                eta[x][y] = mat_scale(-1, prod, n)
                tau[x][y] = mat_add(identity(dim), prod, n)
    elif isinstance(variant, int) and variant >= 1:
        m = variant
        for y in range(size):
            ry = g.rho[y]
            ry_inv = mat_inv_mod(ry, n)
            powers = [identity(dim)]
            for _ in range(m):
                powers.append(mat_mul(powers[-1], ry, n))
            inv_powers = [identity(dim)]
            for _ in range(m):
                inv_powers.append(mat_mul(inv_powers[-1], ry_inv, n))
            geo = identity(dim)
            for j in range(1, m):
                geo = mat_add(geo, powers[j], n)
            inv_geo = inv_powers[1]
            for j in range(2, m + 1):
                inv_geo = mat_add(inv_geo, inv_powers[j], n)
            for x in range(size):
                eta[x][y] = powers[m]
                tau[x][y] = mat_sub(
                    geo, mat_mul(mat_mul(powers[m], g.rho[x], n), inv_geo, n), n)
    else:
        raise InputError(f"unknown wada variant {quoted(variant)}")
    return make_rep(q, n, eta, tau, label=f"wada-rep({variant},{g.label})")


def bar(rep: AlgebraRep, x: int, y: int) -> tuple[tuple, tuple]:
    """The negative-crossing coefficients, as frozen matrices:
    eta_bar = eta[x bar* y][y]^-1, tau_bar = -eta_bar tau[x bar* y][y], with
    which the inverse crossing undoes the block of (x bar* y, y)."""
    z, n = rep.quandle.inv_op(x, y), rep.modulus
    eta_bar = mat_inv_mod(rep.eta[z][y], n)
    tau_bar = mat_scale(-1, mat_mul(eta_bar, rep.tau[z][y], n), n)
    return _freeze([eta_bar, tau_bar], n, 2)[1]
