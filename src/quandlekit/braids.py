"""Braid words, coloring propagation, colored matrices and diagram chains.

Conventions (fixed once, everything downstream is tested against them):
strands run downward, positions are 1-based left to right, and the positive
generator sigma_i sends the color pair (u, v) at positions (i, i+1) to
(v, u*v); its inverse sends (u, v) to (v bar* u, u).  The closure arcs are
drawn on the left of the braid, so the region at infinity is to the right
and the path from it to a crossing at positions (i, i+1) crosses exactly
the strands k, k-1, ..., i+2.

`_crossings` is the one crossing rule, the only code that reads a letter's
sign to tell which strand passes under: given an operation and its inverse,
it walks per-position values down the word and hands out each crossing once,
as (letter, p, x, y), p the left position and (x, y) the source pair, (u, v)
at sigma_i and (v bar* u, u) at its inverse.  It carries quandle colors
(`_walk`, for `act`, `crossing_blocks`, which numbers each crossing's block
pair, (eta, tau)[x][y] or its inverse pair `algebra.bar`, and `_path_walk`,
the one path rule, which adds each crossing's path action, numbered by value
per rep, for `crossing_data` and `invariants.cocycle_invariant`), linear
forms (`_burau_rows`, the one linear-form walk: over Z_n at a scalar t,
`_scalar_burau`, for the colorings and for the module invariant of a
one-pair rep of dimension 1, over Z[t^+-1] packed at t = 2^W for
`fox.alexander_polynomial`, and as row blocks for `colored_matrix`, the
block walk of every other rep) and arc ids (`closure_arcs`, whose (over,
src, tgt) triples stand for the Wirtinger relators that `fox.twisted_matrix`
reads).

`colorings_of_closure` finds the closure colorings in one process, without
testing every candidate.  Over an affine quandle Z_n, a*b = t a + (1 - t) b
(R_n, the Alexander quandles, T_n), the word acts on bottom vectors by the
Burau matrix M at t, so the colorings are ker(M - I) over Z_n: M is read
in one pass of `_crossings` over linear forms (`_scalar_burau`), the
kernel comes from `linalg.kernel_mod`, and its span is listed without
repeats.  Over any other quandle the search branches on at most k arcs,
picked beforehand as those that force the most others, and propagates each
color through the triples, so it reaches at most |X|^k leaves.  Over a
one-element quandle the one coloring, all zeros, is returned without
either.  `coloring_count` counts them, over an affine quandle without
listing, by |coker(M - I)|.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, getitem, mod, mul
from typing import TYPE_CHECKING

from . import _deferred
from .errors import InputError, charge, power_text, quoted
from .linalg import (Matrix, cokernel_mod, identity, kernel_mod, mat_add, mat_scale,
                     sub_identity)

if TYPE_CHECKING:
    from .algebra import AlgebraRep
    from .quandles import FiniteQuandle

# a rep's negative blocks, imported by its first call: colorings and the
# Alexander polynomial load no `algebra`
bar = _deferred(globals(), "algebra", "bar")

KNOT_TABLE = {
    "3_1": "k=2; 1 1 1",
    "4_1": "k=3; 1 -2 1 -2",
    "5_1": "k=2; 1 1 1 1 1",
}


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        # type(...) is int: True is an int to isinstance
        if type(self.strands) is not int:
            raise InputError(f"strand count {quoted(self.strands)} is not an "
                             "integer")
        if self.strands < 1:
            raise InputError("strand count must be >= 1")
        if type(self.letters) is not tuple:
            raise InputError("letters must be a tuple of integers")
        for pos, e in enumerate(self.letters):
            if type(e) is not int:
                raise InputError(f"letter {pos}: {quoted(e)} is not an integer")
            if e == 0:
                raise InputError(f"letter {pos}: zero generator index")
            if abs(e) > self.strands - 1:
                raise InputError(
                    f"letter {pos}: generator {e} out of range for {self.strands} strands")

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-e for e in reversed(self.letters)))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise InputError("cannot concatenate words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def permutation(self) -> tuple[int, ...]:
        """Bottom-position -> top-position permutation of the strands."""
        perm = list(range(self.strands))
        for e in self.letters:
            p = abs(e) - 1
            perm[p], perm[p + 1] = perm[p + 1], perm[p]
        return tuple(perm)

    def closure_components(self) -> int:
        perm = self.permutation()
        seen = set()
        comps = 0
        for s in range(self.strands):
            if s in seen:
                continue
            comps += 1
            while s not in seen:
                seen.add(s)
                s = perm[s]
        return comps


_BRAID_TEXT = re.compile(r"\s*k\s*=\s*(\d+)\s*;(.*)$", re.S)


def parse_braid(text: str) -> BraidWord:
    """Parse 'k=3; 1 -2 1 -2' (strand count, then whitespace-separated letters)."""
    m = _BRAID_TEXT.match(text)
    if not m:
        raise InputError(f"cannot parse braid text {quoted(text)}: expected "
                         "'k=<n>; ...'")
    try:
        strands = int(m.group(1))
    except ValueError:              # over the int-string digit limit
        raise InputError(f"strand count of {len(m.group(1))} digits is too "
                         "long") from None
    tokens = m.group(2).split()
    try:
        letters = tuple(map(int, tokens))
    except ValueError:              # name the first token int() refuses
        for pos, tok in enumerate(tokens):
            try:
                int(tok)
            except ValueError:
                raise InputError(f"letter {pos}: {quoted(tok)} is not an "
                                 "integer") from None
    return BraidWord(strands=strands, letters=letters)


def braid_or_knot(text: str) -> BraidWord:
    if text in KNOT_TABLE:
        return parse_braid(KNOT_TABLE[text])
    return parse_braid(text)


def _require_bottom(q: FiniteQuandle, w: BraidWord, colors: list[int]) -> None:
    if len(colors) != w.strands:
        raise InputError(f"expected {w.strands} bottom colors, got {len(colors)}")
    if not all(0 <= c < q.size for c in colors):
        raise InputError(f"bottom colors {quoted(colors)} outside 0..{q.size - 1}")


def _walk(q: FiniteQuandle, w: BraidWord, colors: list[int]):
    """Check that `colors` are w.strands colors of q, then return the
    `_crossings` of the word over q's operation and its inverse."""
    _require_bottom(q, w, colors)
    return _crossings(w, colors, q.op, q.inv_op)


def _crossings(w: BraidWord, colors: list, op, inv_op):
    """Apply each crossing of the word to `colors` in place, then yield its
    record (letter, p, x, y): p the 0-based left position and (x, y) the
    source pair.  sigma_i sends (u, v) to (v, u*v), with (x, y) = (u, v);
    its inverse sends (u, v) to (v bar* u, u), with (x, y) = (v bar* u, u).
    Here u*v is op(u, v) and a bar* b is inv_op(a, b), the c with c*b = a."""
    for e in w.letters:
        p = abs(e) - 1
        u, v = colors[p], colors[p + 1]
        if e > 0:
            x, y = u, v
            colors[p], colors[p + 1] = v, op(u, v)
        else:
            x, y = inv_op(v, u), u
            colors[p], colors[p + 1] = x, y
        yield e, p, x, y


def act(q: FiniteQuandle, w: BraidWord, bottom) -> tuple[int, ...]:
    """The top colors of the word when `bottom` colors its bottom ends."""
    colors = list(bottom)
    for _ in _walk(q, w, colors):
        pass
    return tuple(colors)


def closure_arcs(w: BraidWord):
    """The arcs of the closed-braid diagram, as (arc count, crossings, bottom).

    `_crossings` carries raw arc ids down the word: a crossing ends the under
    strand's arc and starts a new one, so crossing i starts raw arc k + i,
    as tgt = src * over at sigma_i and as src = tgt bar* over at its inverse.
    `crossings` lists (over, src, tgt) in letter order.  The closure merges
    the top arc on each position with the bottom arc there (union-find), and
    the merged arcs are numbered in order of their first raw arc.
    `bottom[pos]` is the arc at bottom position pos."""
    k = w.strands
    raw = []                        # (over, src, tgt) raw arc ids

    def start(src, over):           # sigma_i starts tgt = src * over
        raw.append((over, src, k + len(raw)))
        return raw[-1][2]

    def start_bar(tgt, over):       # its inverse starts src = tgt bar* over
        raw.append((over, k + len(raw), tgt))
        return raw[-1][1]

    arcs = list(range(k))           # raw arc id on each position
    for _ in _crossings(w, arcs, start, start_bar):
        pass
    next_arc = k + len(raw)
    parent = list(range(next_arc))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for pos in range(k):
        ra, rb = find(pos), find(arcs[pos])
        if ra != rb:
            parent[rb] = ra
    classes: dict = {}
    for a in range(next_arc):
        classes.setdefault(find(a), len(classes))
    crossings = [tuple(classes[find(a)] for a in arc) for arc in raw]
    return len(classes), crossings, [classes[find(pos)] for pos in range(k)]


def _propagate(at, table, inv, col, a, trail) -> bool:
    """Color what arc a forces in `col` (-1: uncolored), listing it in `trail`;
    False on a clash.  In a crossing (over, src, tgt) of `at` with the over
    arc colored, src fixes tgt = src * over and tgt fixes src = tgt bar* over."""
    todo = [a]
    while todo:
        for o, s, t in at[todo.pop()]:
            x = col[o]
            if x < 0:
                continue
            cs, ct = col[s], col[t]
            if cs >= 0:
                y = table[cs][x]
                if ct < 0:
                    col[t] = y
                    trail.append(t)
                    todo.append(t)
                elif ct != y:
                    return False
            elif ct >= 0:
                col[s] = inv[ct][x]
                trail.append(s)
                todo.append(s)
    return True


_ONE = ((0,),)  # the one-element quandle: propagating over it marks forced arcs


def _search_plan(w: BraidWord):
    """(at, bottom, branch): the crossings on each arc, the arc at each bottom
    position, and the arcs to branch on, chosen greedily among those that
    would force a bottom arc not yet known: the one forcing the most arcs
    first, ties to the lowest arc id.  Each forces a new bottom arc, so there
    are at most k branch arcs.

    Each pick trials every unknown arc: the trial colors its arc in place and
    is undone along its trail.  A trial visits at most 3 * letters crossing
    slots, and an arc in no crossing (a whole strand) visits none, so the
    plan's at most k scans take O(k * (k + letters^2)) steps."""
    count, crossings, bottom = closure_arcs(w)
    at: list[list] = [[] for _ in range(count)]
    for c in crossings:
        for a in set(c):
            at[a].append(c)
    is_bottom = [False] * count
    for b in bottom:
        is_bottom[b] = True
    known, branch = [-1] * count, []
    missing = sum(is_bottom)
    while missing:
        pick = []           # the first longest trail reaching a new bottom arc
        for a in range(count):
            if known[a] >= 0:
                continue
            known[a], trail = 0, [a]
            _propagate(at, _ONE, _ONE, known, a, trail)
            for t in trail:
                known[t] = -1
            if len(trail) > len(pick) and any(is_bottom[t] for t in trail):
                pick = trail
        for t in pick:
            known[t] = 0
            missing -= is_bottom[t]
        branch.append(pick[0])
    return at, bottom, branch


def colorings_of_closure(q: FiniteQuandle, w: BraidWord) -> list[tuple[int, ...]]:
    """All bottom vectors fixed by the word, in lexicographic order.

    Over an affine quandle they are a kernel, found by `_affine_colorings`;
    over any other, `_search_colorings` branches on at most k arcs and
    reaches at most |X|^k leaves.  The guard on |X|^k bounds either, and for
    |X| >= 2 it keeps k at most the guard's bit length, so the k^2 and k^3
    terms stay small.  The guard also bounds the k * (letters + 1)^2 steps of
    the search's plan, which cover the kernel route's walk of k-entry linear
    forms through the word.  When |X| = 1 the one coloring is the all-zero
    vector, so neither route is taken; the guard then bounds its k entries
    at each of the letters + 1 heights of the word, which is what
    `crossing_data`, `invariants.cocycle_invariant` and `colored_matrix`
    touch when they walk it through the word."""
    _charge_colorings(q, w)
    if q.size == 1:
        return [(0,) * w.strands]
    if q._affine_t is not None:
        return _affine_colorings(q, w)
    return _search_colorings(q, w)


def coloring_count(q: FiniteQuandle, w: BraidWord) -> int:
    """len(colorings_of_closure(q, w)) under the same guard charges; over an
    affine quandle Z_n, |ker(M - I)| = |coker(M - I)|, with no listing."""
    if q.size == 1 or q._affine_t is None:
        return len(colorings_of_closure(q, w))
    _charge_colorings(q, w)
    a = sub_identity(_scalar_burau(w, q._affine_t, q.size), q.size)
    return math.prod(cokernel_mod(a, q.size))


def _charge_colorings(q: FiniteQuandle, w: BraidWord) -> None:
    """The guard's charges for the colorings of the word's closure by q."""
    strands, letters = power_text(w.strands), len(w.letters)
    charge(q.size, "candidate colorings", w.strands)
    if q.size == 1:
        charge(w.strands * (letters + 1), f"entries of the one coloring on "
               f"{strands} strands through {letters} letters")
    else:
        charge(w.strands * (letters + 1) ** 2, f"steps of the search plan on "
               f"{strands} strands and {letters} letters")


def _burau_rows(w: BraidWord, op, inv_op, units) -> list:
    """The k x k Burau matrix M of the word over a ring, read in one walk of
    `_crossings`.  Each strand's color is a linear form over the bottom
    colors, starting from `units`, the unit vectors; `op` applies a*b =
    t a + (1 - t) b entrywise and `inv_op` its inverse a bar* b =
    t^-1 (a - (1 - t) b).  Row i of M is the form that ends at top position
    i, so top colors are M * bottom.  Over Z_n it is the matrix at a scalar
    t (`_scalar_burau`), over Z[t^+-1], as ints at t = 2^W with a
    coefficient bound and a lowest exponent per form, the unreduced Burau
    matrix of `fox.alexander_polynomial`, and with a row
    block of the identity per position and each crossing's block pair as
    both operations, the colored matrix (`colored_matrix`)."""
    rows = list(units)
    for _ in _crossings(w, rows, op, inv_op):
        pass
    return rows


def _scalar_burau(w: BraidWord, t: int, n: int) -> list[tuple[int, ...]]:
    """`_burau_rows` over Z_n at a scalar t: the Burau matrix of the word at
    t, a*b = t a + (1 - t) b, as for the colorings by an affine quandle Z_n
    and for the colored matrix of a one-pair rep of dimension 1.  t^-1 is
    formed only when the word has a negative letter, so a non-unit t gives
    the matrix of a positive word and InputError otherwise; t is a unit for
    every affine table that passes axiom II, since a -> t a + (1 - t) b is a
    bijection of Z_n only when t is."""
    k, s = w.strands, 1 - t
    if min(w.letters, default=1) < 0:
        try:
            t_inv = pow(t, -1, n)
        except ValueError:
            raise InputError(f"matrix is not invertible mod {n}") from None

    def op(u, v):
        return tuple([(t * a + s * b) % n for a, b in zip(u, v)])

    def inv_op(u, v):
        return tuple([t_inv * (a - s * b) % n for a, b in zip(u, v)])

    return _burau_rows(w, op, inv_op,
                       [tuple([int(i == j) for j in range(k)]) for i in range(k)])


def _affine_colorings(q: FiniteQuandle, w: BraidWord) -> list[tuple[int, ...]]:
    """The colorings by an affine quandle Z_n, a*b = t a + (1 - t) b: the
    crossing rule is linear, so the word acts on bottom vectors by the Burau
    matrix M at t, read by `_scalar_burau` in one walk of the word, and the
    colorings are ker(M - I).  The span of the `kernel_mod` generators is
    listed one coset of the span so far per multiple of the next generator
    that is not yet in it, so no vector is made twice and the work is k
    entries per coloring."""
    n, k = q.size, w.strands
    a = sub_identity(_scalar_burau(w, q._affine_t, n), n)
    span = [(0,) * k]
    members = set(span)
    for g in map(tuple, kernel_mod(a, n)):
        shifts, m = [], g
        while m not in members:
            shifts.append(m)
            m = tuple([(x + y) % n for x, y in zip(m, g)])
        new = [tuple([(x + y) % n for x, y in zip(s, c)])
               for c in shifts for s in span]
        span += new
        members.update(new)
    span.sort()
    return span


def _search_colorings(q: FiniteQuandle, w: BraidWord) -> list[tuple[int, ...]]:
    """The colorings by any quandle, by a depth-first search: it colors the
    at most k branch arcs of `_search_plan` with every value in turn and
    propagates each choice, pruning on a clash, so it reaches at most
    |X|^k leaves."""
    at, bottom, branch = _search_plan(w)
    table, inv = q.table, q._inv_table
    col = [-1] * len(at)
    out = []
    # depth-first with explicit stacks, since a large --guard allows deep
    # searches (never of depth 0, as k >= 1): the values left for each
    # depth's arc, and what its current value colored
    values, trails = [iter(range(q.size))], []
    while values:
        depth = len(values) - 1
        if len(trails) > depth:
            for b in trails.pop():
                col[b] = -1
        v = next(values[-1], -1)
        if v < 0:
            values.pop()
            continue
        a = branch[depth]
        col[a] = v
        trail = [a]
        trails.append(trail)
        if _propagate(at, table, inv, col, a, trail):
            if depth + 1 < len(branch):
                values.append(iter(range(q.size)))
            else:
                out.append(tuple(col[a] for a in bottom))
    out.sort()
    return out


def crossing_blocks(rep: AlgebraRep, w: BraidWord, bottom) -> tuple[int, ...]:
    """The coefficient sequence of the colored word, from one walk: for each
    crossing with source pair (x, y), the number of the block pair it
    applies, (eta, tau)[x][y] at a positive crossing and their inverse pair
    (algebra.bar of (x*y, y)) at a negative one.  Pairs are numbered per rep
    by (sign, eta[x][y], tau[x][y]), so each distinct negative block is
    inverted once and colorings with the same sequence have the same colored
    matrix.  When the rep's whole table is one pair (`AlgebraRep._one_pair`,
    as for an Alexander-type rep) the sequence depends only on the signs of
    the letters, so every coloring has the same one and
    `invariants.module_invariant` walks only the constant coloring."""
    cells, numbers, pairs = rep._crossing_blocks
    q, out = rep.quandle, []
    for e, _, x, y in _walk(q, w, list(bottom)):
        cell = (e > 0, x, y)
        n = cells.get(cell)
        if n is None:
            eta, tau = rep.eta[x][y], rep.tau[x][y]
            key = (e > 0, eta, tau)
            n = numbers.get(key)
            if n is None:
                # the pair first, numbered once it is in: an interrupt in
                # bar leaves the rep's numbering as it was; (x*y) bar* y = x
                pairs.append((eta, tau) if e > 0 else bar(rep, q.op(x, y), y))
                n = numbers[key] = len(pairs) - 1
            cells[cell] = n
        out.append(n)
    return tuple(out)


def colored_matrix(rep: AlgebraRep, w: BraidWord, bottom, blocks=None) -> Matrix:
    """The km x km matrix over Z_N of the module-color action determined by
    the quandle colors propagated from `bottom`: the product of the block
    updates of its coefficient sequence `blocks`, which is
    crossing_blocks(rep, w, bottom) unless the caller has walked already.
    `_burau_rows` carries a row block per position; at either sign the under
    strand leaves as eta * under + tau * over, by the crossing's pair, each
    row a sum of the rows at the nonzero entries of its row of (eta | tau)."""
    N, m = rep.modulus, rep.dim
    if blocks is None:
        blocks = crossing_blocks(rep, w, bottom)
    _, _, pairs = rep._crossing_blocks
    steps = map(pairs.__getitem__, blocks)
    modulus, width = repeat(N), w.strands * m

    def leave(under, over):         # both crossing signs: the next block pair
        eta, tau = next(steps)
        rows, out = under + over, []
        for coeffs in map(add, eta, tau):
            acc = None
            for c, row in zip(coeffs, rows):
                if c:
                    term = row if c == 1 else map(mul, row, repeat(c))
                    acc = term if acc is None else map(add, acc, term)
            out.append([0] * width if acc is None else list(map(mod, acc, modulus)))
        return out

    eye = identity(width)
    units = [eye[p:p + m] for p in range(0, width, m)]
    return list(chain.from_iterable(_burau_rows(w, leave, leave, units)))


def _require_conj_type(rep: AlgebraRep) -> None:
    if not rep.is_conj_type:
        raise InputError("diagram chains need a conjugation-type rep")


def _column_keys(base: int, first, *columns) -> list[int]:
    """The numbers (..(first * base + c_1) * base + ..) * base + c_r down the
    columns, entry by entry: one int key per row, formed by C-level maps, so
    no tuple is made per entry."""
    keys = first
    for col in columns:
        keys = map(add, map(mul, keys, repeat(base)), col)
    return list(keys)


def _looked_up(table: dict, keys: list, form) -> list:
    """[table[key] for key in keys] by one C-level pass, each missing entry
    first formed once as table[key] = form(key)."""
    try:
        return list(map(table.__getitem__, keys))
    except KeyError:
        for key in set(keys).difference(table):
            table[key] = form(key)
        return list(map(table.__getitem__, keys))


def _path_walk(rep: AlgebraRep, w: BraidWord, columns: list):
    """`_crossings` of a conj-type rep's quandle over `columns`, one column
    per position holding the colors of every coloring walked at that
    position, yielding each crossing's record with its path actions
    appended, (letter, p, xs, ys, paths): xs and ys are the columns of the
    source pairs, and paths[c] is rho(c_(k-1)) ... rho(c_(p+2)) mod N over
    the colors of coloring c right of the crossing, the outermost strand
    first, as its number in the rep's `_path_products`.  This is the one
    path rule; the columns must hold colors of the rep's quandle.

    suf[j], the column of the numbers of rho(c_(k-1)) ... rho(c_j), is kept
    for j >= lo.  A crossing at p needs suf[p + 2]; if lo > p + 2 the
    columns from lo - 1 down to p + 2 are formed, one lookup per coloring in
    the rep's steps, keyed path * |X| + color, and as the crossing then
    changes c_p and c_(p+1), lo becomes p + 2.  So the walk holds
    O(colorings * k) numbers: the k color columns and at most k suffix
    columns, each replaced, never kept past its use.  Products are numbered
    by value per rep, so each distinct (path, color) product is formed once
    however many colorings and calls meet it, and the walk relies on no
    relation of the rep: it is exact for unchecked tables too."""
    products, rho, one, steps = rep._path_products
    k, size = w.strands, rep.quandle.size
    table, inv = rep.quandle.table, rep.quandle._inv_table

    def step(key):                  # path * |X| + color -> path * rho(color)
        path, c = divmod(key, size)
        return products.mul(path, rho[c])

    def op(us, vs):                 # u * v down the columns
        return list(map(getitem, map(table.__getitem__, us), vs))

    def inv_op(us, vs):             # u bar* v down the columns
        return list(map(getitem, map(inv.__getitem__, us), vs))

    suf = [[one] * len(columns[0])] * (k + 1)
    lo = k
    for e, p, xs, ys in _crossings(w, columns, op, inv_op):
        j = p + 2
        while lo > j:
            lo -= 1
            suf[lo] = _looked_up(steps, _column_keys(size, suf[lo + 1], columns[lo]),
                                 step)
        lo = j
        yield e, p, xs, ys, suf[j]


def crossing_data(rep: AlgebraRep, w: BraidWord, coloring):
    """Per-crossing data (sign, path action, source color pair) for a closure
    coloring, in letter order, from one `_path_walk` of a one-coloring
    column: the path action is the ordered product of rho over the strand
    colors to the right of the crossing, outermost strand first, a frozen
    matrix mod N; needs a conj-type rep."""
    _require_conj_type(rep)
    _require_bottom(rep.quandle, w, list(coloring))
    rows = rep._path_products[0].rows
    columns = [[c] for c in coloring]
    out = [(1 if e > 0 else -1, rows[path], x, y)
           for e, _, (x,), (y,), (path,) in _path_walk(rep, w, columns)]
    if tuple(c for c, in columns) != tuple(coloring):
        raise InputError("coloring is not fixed by the braid word")
    return out


def diagram_two_chain(rep: AlgebraRep, w: BraidWord, coloring) -> dict:
    """The operator-coefficient 2-chain of the colored closed-braid diagram:
    a map (x, y) -> m x m integer matrix mod N accumulating eps * path_action
    over the crossings with source color pair (x, y), from `crossing_data`."""
    N, out = rep.modulus, {}
    for eps, path, x, y in crossing_data(rep, w, coloring):
        term = mat_scale(eps, path, N)
        out[x, y] = mat_add(out[x, y], term, N) if (x, y) in out else term
    return {k: v for k, v in out.items() if any(map(any, v))}


def markov_moves(w: BraidWord) -> list[BraidWord]:
    """Braid words with the same closure link: conjugates, cyclic rotations,
    stabilizations, and local braid-relation rewrites."""
    out = []
    k = w.strands
    for i in range(1, k):
        for s in (1, -1):
            out.append(BraidWord(k, (s * i,) + w.letters + (-s * i,)))
    for r in range(1, len(w.letters)):
        out.append(BraidWord(k, w.letters[r:] + w.letters[:r]))
    out.append(BraidWord(k + 1, w.letters + (k,)))
    out.append(BraidWord(k + 1, w.letters + (-k,)))
    letters = w.letters
    for i in range(len(letters) - 1):
        a, b = letters[i], letters[i + 1]
        if abs(abs(a) - abs(b)) >= 2:
            out.append(BraidWord(k, letters[:i] + (b, a) + letters[i + 2:]))
    for i in range(len(letters) - 2):
        a, b, c = letters[i:i + 3]
        if a == c and abs(abs(a) - abs(b)) == 1 and a > 0 and b > 0:
            out.append(BraidWord(k, letters[:i] + (b, a, b) + letters[i + 3:]))
    return out
