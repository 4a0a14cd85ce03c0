"""Finite quandles as validated operation tables on {0..n-1}.

A quandle satisfies
  (I)   a*a = a
  (II)  for each b, a -> a*b is a bijection
  (III) (a*b)*c = (a*c)*(b*c)
Tables are immutable once validated, so they can be shared freely.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InputError
from .groups import FiniteGroup


@dataclass
class ValidationReport:
    passed: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.passed


def verify_axioms(table) -> ValidationReport:
    """Check quandle axioms I-III exhaustively; report first violation of each.

    Axiom III says that for every pair (b, c) the column maps R_c(a) = a*c
    satisfy R_c R_b == R_{b*c} R_c, so it is checked as n^2 compositions of
    whole columns, each done by one itemgetter call.  Only the pairs that
    fail are scanned by a to report the first failing (a, b, c)."""
    n = len(table)
    for row in table:
        if len(row) != n:
            raise InputError("table is not square")
        for e in row:
            # type(e) is int: True and False are ints to isinstance
            if type(e) is not int or not (0 <= e < n):
                raise InputError(f"table entry {e!r} is not an integer in 0..{n - 1}")
    failures = []
    for a in range(n):
        if table[a][a] != a:
            failures.append(f"axiom I fails at a={a}: {a}*{a}={table[a][a]}")
            break
    cols = [[table[a][b] for a in range(n)] for b in range(n)]
    for b, col in enumerate(cols):
        if len(set(col)) != n:
            failures.append(f"axiom II fails at b={b}: column {col} is not a permutation")
            break
    # after[b](cols[c]) is the column map a -> (a*b)*c
    after = [operator.itemgetter(*col) for col in cols]
    bad = [(b, c) for b in range(n) for c in range(n)
           if after[b](cols[c]) != after[c](cols[table[b][c]])]
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


def quandle_from_table(table, label: str = "") -> FiniteQuandle:
    report = verify_axioms(table)
    if not report:
        raise InputError("not a quandle: " + "; ".join(report.failures))
    return FiniteQuandle(table=tuple(tuple(row) for row in table), label=label)


def make_trivial(n: int) -> FiniteQuandle:
    if n < 1:
        raise InputError("quandle size must be positive")
    return FiniteQuandle(tuple(tuple(a for _ in range(n)) for a in range(n)), label=f"T{n}")


def make_dihedral(n: int) -> FiniteQuandle:
    if n < 1:
        raise InputError("quandle size must be positive")
    table = tuple(tuple((2 * j - i) % n for j in range(n)) for i in range(n))
    return FiniteQuandle(table, label=f"R{n}")


def make_alexander(n: int, t: int) -> FiniteQuandle:
    """Z_n with a*b = t*a + (1-t)*b; t must be a unit mod n."""
    import math
    if n < 1:
        raise InputError("modulus must be positive")
    if math.gcd(t, n) != 1:
        raise InputError(f"t={t} is not a unit mod {n}")
    table = tuple(tuple((t * a + (1 - t) * b) % n for b in range(n)) for a in range(n))
    return FiniteQuandle(table, label=f"Alex({n},{t})")


def make_conj(g: FiniteGroup, subset=None, power: int = 1) -> FiniteQuandle:
    """Quandle on a conjugation-closed subset with a*b = b^m a b^-m."""
    elems = list(range(g.size)) if subset is None else list(subset)
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

