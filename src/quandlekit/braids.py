"""Braid words, coloring propagation, colored matrices and diagram chains.

Conventions (fixed once, everything downstream is tested against them):
strands run downward, positions are 1-based left to right, and the positive
generator sigma_i sends the color pair (u, v) at positions (i, i+1) to
(v, u*v); its inverse sends (u, v) to (v bar* u, u).  The closure arcs are
drawn on the left of the braid, so the region at infinity is to the right
and the path from it to a crossing at positions (i, i+1) crosses exactly
the strands k, k-1, ..., i+2.  `_walk` is the one function that applies
this crossing rule; `act`, `colored_matrix` and `crossing_data` loop over it.
"""

from __future__ import annotations

import itertools
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .algebra import AlgebraRep, bar
from .errors import GUARD, GuardExceeded, InputError
from .linalg import Matrix, identity, mat_add, mat_mul, zeros
from .quandles import FiniteQuandle

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
        if self.strands < 1:
            raise InputError("strand count must be >= 1")
        for pos, e in enumerate(self.letters):
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


def parse_braid(text: str) -> BraidWord:
    """Parse 'k=3; 1 -2 1 -2' (strand count, then whitespace-separated letters)."""
    m = re.match(r"\s*k\s*=\s*(\d+)\s*;(.*)$", text, re.S)
    if not m:
        raise InputError(f"cannot parse braid text {text!r}: expected 'k=<n>; ...'")
    strands = int(m.group(1))
    letters = []
    for pos, tok in enumerate(m.group(2).split()):
        try:
            letters.append(int(tok))
        except ValueError:
            raise InputError(f"letter {pos}: {tok!r} is not an integer") from None
    return BraidWord(strands=strands, letters=tuple(letters))


def braid_or_knot(text: str) -> BraidWord:
    if text in KNOT_TABLE:
        return parse_braid(KNOT_TABLE[text])
    return parse_braid(text)


def _walk(q: FiniteQuandle, w: BraidWord, colors: list[int]):
    """Yield (letter, p) before each crossing of the word, p the 0-based left
    position, then apply the crossing to `colors` in place: sigma_i sends
    (u, v) to (v, u*v), its inverse sends (u, v) to (v bar* u, u)."""
    if len(colors) != w.strands:
        raise InputError(f"expected {w.strands} bottom colors, got {len(colors)}")
    for e in w.letters:
        p = abs(e) - 1
        yield e, p
        u, v = colors[p], colors[p + 1]
        if e > 0:
            colors[p], colors[p + 1] = v, q.op(u, v)
        else:
            colors[p], colors[p + 1] = q.inv_op(v, u), u


def act(q: FiniteQuandle, w: BraidWord, bottom) -> tuple[int, ...]:
    """The top colors of the word when `bottom` colors its bottom ends."""
    colors = list(bottom)
    for _ in _walk(q, w, colors):
        pass
    return tuple(colors)


def _fixed_in_range(q: FiniteQuandle, w: BraidWord, lo: int, hi: int):
    """The bottom vectors fixed by the word among candidates lo..hi-1 in
    lexicographic order."""
    candidates = itertools.product(range(q.size), repeat=w.strands)
    return [vec for vec in itertools.islice(candidates, lo, hi)
            if act(q, w, vec) == vec]


def colorings_of_closure(q: FiniteQuandle, w: BraidWord,
                         guard: int = GUARD,
                         jobs: int = 1) -> list[tuple[int, ...]]:
    """All bottom vectors fixed by the word, in lexicographic order; `jobs`
    worker processes, at most os.cpu_count(), share the candidates."""
    total = q.size ** w.strands
    if total > guard:
        raise GuardExceeded(
            f"{total} candidate colorings exceed the guard of {guard}")
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or total < 4 * jobs:
        return _fixed_in_range(q, w, 0, total)
    bounds = [total * i // jobs for i in range(jobs + 1)]
    chunks = [(q, w, bounds[i], bounds[i + 1]) for i in range(jobs)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_fixed_worker, chunks))
    return [vec for part in parts for vec in part]


def _fixed_worker(args):
    return _fixed_in_range(*args)


def colored_matrix(rep: AlgebraRep, w: BraidWord, bottom) -> Matrix:
    """The km x km matrix over Z_N of the module-color action determined by
    the quandle colors propagated from `bottom`."""
    N, m, k = rep.modulus, rep.dim, w.strands
    # row blocks of the running matrix, updated in place per letter
    blocks = [[[1 if (i == j and bi == bj) else 0
                for bj in range(k) for j in range(m)]
               for i in range(m)] for bi in range(k)]
    cur = list(bottom)
    for e, p in _walk(rep.quandle, w, cur):
        u, v = cur[p], cur[p + 1]
        if e > 0:
            new_p1 = mat_add(mat_mul(rep.eta[u][v], blocks[p], N),
                             mat_mul(rep.tau[u][v], blocks[p + 1], N), N)
            blocks[p], blocks[p + 1] = blocks[p + 1], new_p1
        else:
            eta_bar, tau_bar = bar(rep, v, u)
            new_p = mat_add(mat_mul(eta_bar, blocks[p + 1], N),
                            mat_mul(tau_bar, blocks[p], N), N)
            blocks[p], blocks[p + 1] = new_p, blocks[p]
    out = []
    for blk in blocks:
        out.extend(blk)
    return out


def crossing_data(rep: AlgebraRep, w: BraidWord, coloring):
    """Per-crossing data (sign, path action, source color pair) for a closure
    coloring, in letter order.

    The path action is the ordered product of rho over the strand colors to
    the right of the crossing, outermost strand first; needs a conj-type rep.
    """
    q, N = rep.quandle, rep.modulus
    if not rep.is_conj_type:
        raise InputError("diagram chains need a conjugation-type rep")
    cur = list(coloring)
    out = []
    for e, p in _walk(q, w, cur):
        path = identity(rep.dim)
        for s in range(w.strands - 1, p + 1, -1):
            path = mat_mul(path, rep.rho[cur[s]], N)
        u, v = cur[p], cur[p + 1]
        out.append((1, path, u, v) if e > 0 else (-1, path, q.inv_op(v, u), u))
    if tuple(cur) != tuple(coloring):
        raise InputError("coloring is not fixed by the braid word")
    return out


def diagram_two_chain(rep: AlgebraRep, w: BraidWord, coloring) -> dict:
    """The operator-coefficient 2-chain of the colored closed-braid diagram:
    a map (x, y) -> m x m integer matrix mod N accumulating eps * path_action
    over the crossings with source color pair (x, y)."""
    N, m = rep.modulus, rep.dim
    chain: dict = {}
    for eps, path, x, y in crossing_data(rep, w, coloring):
        key = (x, y)
        if key not in chain:
            chain[key] = zeros(m, m)
        acc = chain[key]
        for i in range(m):
            for j in range(m):
                acc[i][j] = (acc[i][j] + eps * path[i][j]) % N
    return {k: v for k, v in chain.items() if any(any(row) for row in v)}


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
