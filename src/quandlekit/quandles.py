"""Finite quandles as validated operation tables on {0..n-1}.

A quandle satisfies
  (I)   a*a = a
  (II)  for each b, a -> a*b is a bijection
  (III) (a*b)*c = (a*c)*(b*c)
`verify_axioms` checks axiom III only for c in a generating set, which is
enough once axiom II holds, and bounds its work by a guard.  Tables are
immutable once validated, so they can be shared freely.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InputError, charge, quoted
from .groups import FiniteGroup


@dataclass
class ValidationReport:
    passed: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.passed


def generating_set(table) -> list[int]:
    """A greedy generating set of a table: each pick is the least element
    outside the closure under * of the picks before it.  The closure grows
    by multiplying each new member both ways by the members before it and
    by itself, and stops once it holds all n elements, so the whole search
    reads at most O(n^2) table entries."""
    n = len(table)
    cols = list(zip(*table))
    inside = [False] * n
    members: list[int] = []
    picks = []
    for x in range(n):
        if inside[x]:
            continue
        picks.append(x)
        inside[x] = True
        members.append(x)
        i = len(members) - 1
        while i < len(members) < n:
            m = members[i]
            prefix = members[:i + 1]
            # m * e, then e * m, for every earlier member e and for e = m
            for line in (table[m], cols[m]):
                for p in map(line.__getitem__, prefix):
                    if not inside[p]:
                        inside[p] = True
                        members.append(p)
            i += 1
    return picks


def verify_axioms(table) -> ValidationReport:
    """Check quandle axioms I-III; report the first violation of each.

    Axioms I and II are checked entry by entry.  Axiom III says that each
    column map R_c(a) = a*c is a homomorphism: R_c R_b == R_{b*c} R_c for
    every b, one composition of whole columns by one itemgetter call.  Once
    axiom II holds, every R_b is a bijection, and R_{a*b} = R_b R_a R_b^-1
    when R_b is an automorphism, so the c whose R_c is an automorphism form
    a subquandle.  Axiom III is therefore checked only for c in a greedy
    `generating_set` S: |S| n compositions of n entries each, not n^2.  If
    axiom II or some c in S fails, every pair (b, c) is composed and the
    failing pairs are scanned by a to report the first failing (a, b, c).

    A table is a non-empty list of n rows of n ints in 0..n-1 (InputError
    otherwise).  The guard bounds the work: the n^2 cells before the
    generating set is found, the |S| n^2 steps of its check, and the n^3
    steps of the full scan before it starts; each refusal raises
    GuardExceeded."""
    if not (table and type(table) in (list, tuple)
            and set(map(type, table)) <= {list, tuple}):
        raise InputError("a quandle table must be a non-empty list of rows")
    n = len(table)
    for row in table:
        if len(row) != n:
            raise InputError("table is not square")
        # type(e) is int: True and False are ints to isinstance
        if row and not (set(map(type, row)) == {int} and 0 <= min(row)
                        and max(row) < n):
            e = next(e for e in row if type(e) is not int or not 0 <= e < n)
            raise InputError(f"table entry {quoted(e)} is not an integer in "
                             f"0..{n - 1}")
    charge(n, f"table cells of a quandle of size {n}", 2)
    failures = []
    for a in range(n):
        if table[a][a] != a:
            failures.append(f"axiom I fails at a={a}: {a}*{a}={table[a][a]}")
            break
    cols = list(zip(*table))
    bijective = True
    for b, col in enumerate(cols):
        if len(set(col)) != n:
            failures.append(f"axiom II fails at b={b}: column {list(col)} "
                            "is not a permutation")
            bijective = False
            break
    # after[b](cols[c]) is the column map a -> (a*b)*c
    after = [operator.itemgetter(*col) for col in cols]

    def homomorphism(b, c):
        return after[b](cols[c]) == after[c](cols[table[b][c]])

    if bijective:
        gens = generating_set(table)
        charge(len(gens) * n * n, f"steps of axiom III on {len(gens)} "
               f"generators of a quandle of size {n}")
        if all(homomorphism(b, c) for c in gens for b in range(n)):
            return ValidationReport(passed=not failures, failures=failures)
    charge(n, f"steps of the axiom III scan of a table of size {n}", 3)
    bad = [(b, c) for b in range(n) for c in range(n) if not homomorphism(b, c)]
    if bad:
        a, b, c = next((a, b, c) for a in range(n) for b, c in bad
                       if table[table[a][b]][c] != table[table[a][c]][table[b][c]])
        failures.append(
            f"axiom III fails at (a,b,c)=({a},{b},{c}): "
            f"({a}*{b})*{c} != ({a}*{c})*({b}*{c})")
    return ValidationReport(passed=not failures, failures=failures)


@dataclass(frozen=True)
class FiniteQuandle:
    table: tuple[tuple[int, ...], ...]
    label: str = ""

    @property
    def size(self) -> int:
        return len(self.table)

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def _hash(self) -> int:
        return hash((self.table, self.label))

    def __hash__(self) -> int:
        """The dataclass hash of (table, label), computed once: `io._built`
        hashes its key, this quandle among the arguments, on every hit."""
        return self._hash

    @cached_property
    def _inv_table(self) -> tuple[tuple[int, ...], ...]:
        # inv[a][b] = the unique c with c*b = a
        n = self.size
        inv = [[0] * n for _ in range(n)]
        for c in range(n):
            for b in range(n):
                inv[self.table[c][b]][b] = c
        return tuple(tuple(row) for row in inv)

    def inv_op(self, a: int, b: int) -> int:
        """a op-bar b: the unique c with c*b = a."""
        return self._inv_table[a][b]

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The greedy `generating_set` of the table, found once."""
        return tuple(generating_set(self.table))

    @cached_property
    def _affine_t(self) -> int | None:
        """The t with a*b = t a + (1 - t) b mod n for all a, b, if the table
        is that affine one, else None: t = 1*0 is read off and every row
        checked, O(n^2) once.  Covers R_n (t = n - 1), the Alexander
        quandles and T_n (t = 1); a one-element table is read as t = 0."""
        n = self.size
        t = self.table[1][0] if n > 1 else 0
        first = tuple((1 - t) * b % n for b in range(n))
        for a, row in enumerate(self.table):
            ta = t * a
            if row != tuple([(ta + x) % n for x in first]):
                return None
        return t


def quandle_from_table(table, label: str = "") -> FiniteQuandle:
    """The quandle of a table that passes `verify_axioms`."""
    report = verify_axioms(table)
    if not report:
        raise InputError("not a quandle: " + "; ".join(report.failures))
    return FiniteQuandle(table=tuple(tuple(row) for row in table), label=label)


def _affine(n: int, t: int, label: str) -> FiniteQuandle:
    """Z_n with a*b = t a + (1 - t) b mod n, the one table of T_n (t = 1),
    R_n (t = -1) and Alex(n, t); n must be positive and t a unit mod n."""
    if n < 1:
        raise InputError("quandle size must be positive")
    if math.gcd(t, n) != 1:
        raise InputError(f"t={t} is not a unit mod {n}")
    first = [(1 - t) * b for b in range(n)]
    return FiniteQuandle(tuple(tuple([(t * a + c) % n for c in first])
                               for a in range(n)), label=label)


def make_trivial(n: int) -> FiniteQuandle:
    return _affine(n, 1, f"T{n}")


def make_dihedral(n: int) -> FiniteQuandle:
    return _affine(n, -1, f"R{n}")


def make_alexander(n: int, t: int) -> FiniteQuandle:
    """Z_n with a*b = t*a + (1-t)*b; t must be a unit mod n."""
    return _affine(n, t, f"Alex({n},{t})")


def make_conj(g: FiniteGroup, subset=None, power: int = 1) -> FiniteQuandle:
    """Quandle on a conjugation-closed subset with a*b = b^m a b^-m; the
    subset's elements must lie in 0..|G|-1."""
    elems = list(range(g.size)) if subset is None else list(subset)
    for e in elems:
        if not (type(e) is int and 0 <= e < g.size):
            raise InputError(f"{quoted(e)} is not an element of the group of "
                             f"order {g.size}")
    index = {e: i for i, e in enumerate(elems)}
    table = []
    for a in elems:
        row = []
        for b in elems:
            c = g.conj(a, b, power)
            if c not in index:
                raise InputError(
                    f"subset not closed under conjugation: {a}*{b}={c} is outside")
            row.append(index[c])
        table.append(tuple(row))
    return FiniteQuandle(tuple(table), label=f"Conj({g.label or g.size},m={power})")


def make_core(g: FiniteGroup) -> FiniteQuandle:
    """Core quandle of a group: a*b = b a^-1 b."""
    n = g.size
    table = tuple(
        tuple(g.mul[g.mul[b][g.inv[a]]][b] for b in range(n)) for a in range(n))
    return FiniteQuandle(table, label=f"Core({g.label or n})")

