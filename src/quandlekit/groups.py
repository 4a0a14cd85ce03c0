"""Finite groups given by multiplication tables.

Only used as raw material for conjugation/core quandles and for regular
(permutation) matrix representations; nothing here tries to be clever.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import InputError


@dataclass(frozen=True)
class FiniteGroup:
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...] = field(repr=False, default=())
    identity: int = 0
    label: str = ""

    @property
    def size(self) -> int:
        return len(self.mul)

    def power(self, a: int, n: int) -> int:
        if n < 0:
            return self.power(self.inv[a], -n)
        r = self.identity
        for _ in range(n):
            r = self.mul[r][a]
        return r

    def conj(self, a: int, b: int, m: int = 1) -> int:
        """b^m * a * b^-m."""
        bm = self.power(b, m)
        return self.mul[self.mul[bm][a]][self.inv[bm]]

    def conjugacy_classes(self) -> list[list[int]]:
        seen = set()
        classes = []
        for a in range(self.size):
            if a in seen:
                continue
            cls = sorted({self.conj(a, g) for g in range(self.size)})
            seen.update(cls)
            classes.append(cls)
        return classes


def group_from_table(mul, label: str = "") -> FiniteGroup:
    """Validate associativity/identity/inverses and build a FiniteGroup."""
    n = len(mul)
    mul = tuple(tuple(row) for row in mul)
    for row in mul:
        if len(row) != n or any(not (0 <= e < n) for e in row):
            raise InputError("multiplication table is not a square table over 0..n-1")
    ident = None
    for e in range(n):
        if all(mul[e][a] == a and mul[a][e] == a for a in range(n)):
            ident = e
            break
    if ident is None:
        raise InputError("no identity element in multiplication table")
    inv = []
    for a in range(n):
        hits = [b for b in range(n) if mul[a][b] == ident and mul[b][a] == ident]
        if not hits:
            raise InputError(f"element {a} has no inverse")
        inv.append(hits[0])
    for a, b, c in itertools.product(range(n), repeat=3):
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            raise InputError(f"associativity fails at ({a},{b},{c})")
    return FiniteGroup(mul=mul, inv=tuple(inv), identity=ident, label=label)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InputError("cyclic group order must be positive")
    mul = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    inv = tuple((-a) % n for a in range(n))
    return FiniteGroup(mul=mul, inv=inv, identity=0, label=f"Z{n}")


def group_from_permutations(perms, label: str = "") -> FiniteGroup:
    """Group whose elements are exactly the given permutations.

    `perms` must be closed under composition; element order is as given.
    Composition convention: (p*q)(i) = p[q[i]].
    """
    perms = [tuple(p) for p in perms]
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    mul = []
    for p in perms:
        row = []
        for q in perms:
            pq = tuple(p[q[i]] for i in range(len(p)))
            if pq not in index:
                raise InputError("permutation list is not closed under composition")
            row.append(index[pq])
        mul.append(tuple(row))
    return group_from_table(mul, label=label)


def symmetric_group(n: int) -> FiniteGroup:
    if n > 5:
        raise InputError("symmetric_group supports n <= 5")
    perms = sorted(itertools.permutations(range(n)))
    return group_from_permutations(perms, label=f"S{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n, acting on vertices 0..n-1."""
    rots = [tuple((i + r) % n for i in range(n)) for r in range(n)]
    refls = [tuple((r - i) % n for i in range(n)) for r in range(n)]
    return group_from_permutations(rots + refls, label=f"D{n}")


def quaternion_group() -> FiniteGroup:
    """Q8: 1, -1, i, -i, j, -j, k, -k, numbered 0..7, as the unit
    quaternions a + bi + cj + dk = (a, b, c, d) under Hamilton's product."""
    units = [tuple(s * (i == u) for i in range(4)) for u in range(4) for s in (1, -1)]

    def mul(p, q):
        (a, b, c, d), (e, f, g, h) = p, q
        return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)

    index = {u: i for i, u in enumerate(units)}
    return group_from_table([[index[mul(p, q)] for q in units] for p in units],
                            label="Q8")


def small_groups(max_order: int = 8) -> list[FiniteGroup]:
    """A representative stable of groups of order <= max_order."""
    gs: list[FiniteGroup] = [cyclic_group(n) for n in range(1, max_order + 1)]
    if max_order >= 4:
        # Klein four group as Z2 x Z2 permutations
        gs.append(group_from_permutations(
            [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)], label="V4"))
    if max_order >= 6:
        gs.append(symmetric_group(3))
    if max_order >= 8:
        gs.append(dihedral_group(4))
        gs.append(quaternion_group())
    return gs
