import itertools
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quandlekit import braids
from quandlekit.algebra import (
    make_alexander_rep,
    make_conj_rep,
    make_group_rep,
    permutation_rep_r3,
)
from quandlekit.braids import (
    KNOT_TABLE,
    BraidWord,
    act,
    braid_or_knot,
    colored_matrix,
    coloring_count,
    colorings_of_closure,
    crossing_data,
    diagram_two_chain,
    markov_moves,
    parse_braid,
)
from quandlekit.errors import GuardExceeded, InputError, guarded
from quandlekit.homology import ComplexConfig, _basis, boundary_matrix
from quandlekit.linalg import mat_mul, mat_vec
from quandlekit.groups import symmetric_group
from quandlekit.quandles import (make_alexander, make_conj, make_core, make_dihedral,
                                 make_trivial)


def test_parse_braid():
    w = parse_braid("k=3; 1 -2 1 -2")
    assert w.strands == 3
    assert w.letters == (1, -2, 1, -2)
    with pytest.raises(InputError):
        parse_braid("3; 1 2")
    with pytest.raises(InputError):
        parse_braid("k=3; 1 x")
    with pytest.raises(InputError):
        parse_braid("k=2; 2")     # generator out of range
    with pytest.raises(InputError):
        parse_braid("k=2; 0")


@pytest.mark.parametrize("strands, letters, message", [
    ("2", (1,), "strand count '2' is not an integer"),
    (True, (), "strand count True is not an integer"),
    (2.0, (1,), "strand count 2.0 is not an integer"),
    (0, (), "strand count must be >= 1"),
    (2, ("1",), "letter 0: '1' is not an integer"),
    (3, (1, True), "letter 1: True is not an integer"),
    (3, (1, 2.0), "letter 1: 2.0 is not an integer"),
    (2, [1], "letters must be a tuple of integers"),
    (2, "1", "letters must be a tuple of integers"),
])
def test_braid_words_are_type_strict(strands, letters, message):
    """A strand count and letters are ints (type(x) is int), refused with
    InputError otherwise, from Python as from parse_braid."""
    with pytest.raises(InputError) as info:
        BraidWord(strands, letters)
    assert str(info.value) == message


def test_knot_table():
    for name in KNOT_TABLE:
        w = braid_or_knot(name)
        assert w.closure_components() == 1


def test_permutation_and_components():
    w = parse_braid("k=3; 1")
    assert w.permutation() == (1, 0, 2)
    assert w.closure_components() == 2
    assert parse_braid("k=2;").closure_components() == 2


def test_inverse_and_mul():
    w = parse_braid("k=3; 1 -2")
    ww = w * w.inverse()
    r3 = make_dihedral(3)
    for bottom in itertools.product(range(3), repeat=3):
        assert act(r3, ww, bottom) == bottom


def test_act_trace():
    """sigma_i sends (u, v) to (v, u*v) and its inverse sends (u, v) to
    (v bar* u, u); crossing_data reports the source pair of each crossing,
    (u, v) for a positive one and (v bar* u, u) for a negative one."""
    r3 = make_dihedral(3)
    w = braid_or_knot("3_1")
    assert act(r3, w, (0, 1)) == (0, 1)
    rep = make_conj_rep(permutation_rep_r3(3))
    data = crossing_data(rep, w, (0, 1))
    assert [(eps, x, y) for eps, _, x, y in data] == [(1, 0, 1), (1, 1, 2), (1, 2, 0)]
    r5 = make_dihedral(5)
    trivial = make_conj_rep(make_group_rep(r5, 5, [[[1]]] * 5))
    w = braid_or_knot("4_1")
    assert act(r5, w, (0, 1, 4)) == (0, 1, 4)
    data = crossing_data(trivial, w, (0, 1, 4))
    assert [(eps, x, y) for eps, _, x, y in data] == [
        (1, 0, 1), (-1, 0, 2), (1, 1, 0), (-1, 1, 4)]


def test_bottom_length_checked():
    r3 = make_dihedral(3)
    rep = make_conj_rep(permutation_rep_r3(3))
    w = braid_or_knot("4_1")
    for bottom in ((0, 1), (0, 1, 2, 0)):
        with pytest.raises(InputError):
            act(r3, w, bottom)
        with pytest.raises(InputError):
            colored_matrix(rep, w, bottom)
    with pytest.raises(InputError):
        act(r3, parse_braid("k=2;"), (0,))


def test_color_range_checked():
    """A bottom color outside 0..size-1 is an InputError, not an index from
    the end of the table."""
    r3 = make_dihedral(3)
    rep = make_conj_rep(permutation_rep_r3(3))
    w = parse_braid("k=2; 1")
    for bottom in ((-1, 0), (0, 3)):
        with pytest.raises(InputError):
            act(r3, w, bottom)
        with pytest.raises(InputError):
            colored_matrix(rep, w, bottom)
        with pytest.raises(InputError):
            crossing_data(rep, w, bottom)


def brute_force_colorings(q, w):
    """The |X|^k oracle: every bottom vector the word fixes, in lexicographic
    order.  All candidates cross at once, one column of colors per position:
    sigma_i sends (u, v) to (v, u*v), its inverse (u, v) to (v bar* u, u)."""
    bottom = list(itertools.product(range(q.size), repeat=w.strands))
    cols = [list(col) for col in zip(*bottom)]
    for e in w.letters:
        p = abs(e) - 1
        u, v = cols[p], cols[p + 1]
        if e > 0:
            cols[p], cols[p + 1] = v, [q.op(a, b) for a, b in zip(u, v)]
        else:
            cols[p], cols[p + 1] = [q.inv_op(b, a) for a, b in zip(u, v)], u
    return [vec for vec, top in zip(bottom, zip(*cols)) if vec == top]


def _transpositions_quandle():
    """Conjugation quandle of the transpositions of S3 (not Alexander)."""
    s3 = symmetric_group(3)
    return make_conj(s3, [a for a in range(s3.size)
                          if a != s3.identity and s3.mul[a][a] == s3.identity])


_PROPERTY_QUANDLES = [make_dihedral(3), make_dihedral(5), make_dihedral(7),
                      make_alexander(5, 2), _transpositions_quandle(),
                      make_trivial(1), make_trivial(2)]

# braids with strands in no crossing: the last two of four, and all three
_LONE_STRANDS = [BraidWord(4, (1, 1, 1)), BraidWord(3, ())]


@st.composite
def _braid_words(draw, max_strands=5, max_letters=14):
    k = draw(st.integers(1, max_strands))
    letter = st.integers(1, max(k - 1, 1)).flatmap(
        lambda i: st.sampled_from([i, -i]))
    letters = draw(st.lists(letter, max_size=max_letters)) if k > 1 else []
    return BraidWord(k, tuple(letters))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(q=st.sampled_from(_PROPERTY_QUANDLES), w=_braid_words())
@example(q=make_dihedral(3), w=_LONE_STRANDS[0])
@example(q=make_dihedral(3), w=_LONE_STRANDS[1])
@example(q=make_trivial(1), w=_LONE_STRANDS[0])
def test_propagation_matches_brute_force(q, w):
    """On every Markov variant of the braid, the propagated colorings are the
    brute-force list, found by branching on at most one arc per strand."""
    for v in [w, *markov_moves(w)]:
        assert colorings_of_closure(q, v) == brute_force_colorings(q, v)
        assert len(braids._search_plan(v)[2]) <= v.strands


def _plan_by_copies(w):
    """The reference search plan: each pick copies the known arcs for a
    trial on every unknown arc, and rescans the bottom arcs."""
    count, crossings, bottom = braids.closure_arcs(w)
    at = [[] for _ in range(count)]
    for c in crossings:
        for a in set(c):
            at[a].append(c)
    known, branch = [-1] * count, []
    while min(known[b] for b in bottom) < 0:
        best = None
        for a in (a for a in range(count) if known[a] < 0):
            got, trail = list(known), [a]
            got[a] = 0
            braids._propagate(at, braids._ONE, braids._ONE, got, a, trail)
            if any(known[b] < got[b] for b in bottom) and (
                    best is None or len(trail) > len(best[1])):
                best = got, trail
        known = best[0]
        branch.append(best[1][0])
    return at, bottom, branch


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(w=_braid_words())
@example(w=_LONE_STRANDS[0])
@example(w=_LONE_STRANDS[1])
def test_search_plan_matches_the_copying_greedy(w):
    """Trials in place, each undone along its trail, pick the same branch
    arcs as copying the known arcs for every trial, also where whole strands
    are in no crossing."""
    for v in [w, *markov_moves(w)]:
        assert braids._search_plan(v) == _plan_by_copies(v)


def _arcs_by_position(w):
    """closure_arcs with the crossing rule written out by position: sigma_i
    ends the left strand's arc and starts tgt on the right, its inverse ends
    the right strand's arc and starts src on the left; crossing i starts raw
    arc k + i.  The closure merges the top and bottom arcs at each position,
    and the merged arcs are numbered in order of their first raw arc."""
    k = w.strands
    arcs = list(range(k))
    raw = []
    for e in w.letters:
        p = abs(e) - 1
        new = k + len(raw)
        if e > 0:
            over, src, tgt = arcs[p + 1], arcs[p], new
            arcs[p], arcs[p + 1] = over, tgt
        else:
            over, src, tgt = arcs[p], new, arcs[p + 1]
            arcs[p], arcs[p + 1] = src, over
        raw.append((over, src, tgt))
    parent = list(range(k + len(raw)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for pos in range(k):
        ra, rb = find(pos), find(arcs[pos])
        if ra != rb:
            parent[rb] = ra
    classes = {}
    for a in range(len(parent)):
        classes.setdefault(find(a), len(classes))
    number = [classes[find(a)] for a in range(len(parent))]
    return (len(classes), [tuple(number[a] for a in c) for c in raw],
            number[:k])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(w=_braid_words())
@example(w=_LONE_STRANDS[0])
@example(w=_LONE_STRANDS[1])
def test_closure_arcs_match_the_positional_walk(w):
    """closure_arcs, walked by `_crossings`, numbers the arcs and lists the
    (over, src, tgt) triples as the positional rule does, on every Markov
    variant: the search plan's branch order and the Wirtinger minor both
    read that numbering."""
    for v in [w, *markov_moves(w)]:
        assert braids.closure_arcs(v) == _arcs_by_position(v)


def test_coloring_counts():
    r3, r5 = make_dihedral(3), make_dihedral(5)
    assert len(colorings_of_closure(r3, braid_or_knot("3_1"))) == 9
    assert len(colorings_of_closure(r3, braid_or_knot("4_1"))) == 3
    assert len(colorings_of_closure(r5, braid_or_knot("4_1"))) == 25
    assert len(colorings_of_closure(r5, braid_or_knot("5_1"))) == 25
    # the trefoil's 9 colorings, and any color on the two strands it misses
    assert len(colorings_of_closure(r3, _LONE_STRANDS[0])) == 9 * 3 ** 2


def test_one_element_quandle_needs_no_search(monkeypatch):
    """Over a one-element quandle the one coloring is all zeros, found
    without a search plan, however many strands."""
    def no_plan(w):
        raise AssertionError("search plan made")

    monkeypatch.setattr(braids, "_search_plan", no_plan)
    got = colorings_of_closure(make_trivial(1), parse_braid("k=1000000; 1"))
    assert got == [(0,) * 10**6]


def test_coloring_guard_and_jobs():
    r3 = make_dihedral(3)
    w = braid_or_knot("3_1")
    with guarded(5), pytest.raises(GuardExceeded):
        colorings_of_closure(r3, w)


def test_search_propagations_bounded():
    """Branching on the arcs that force the most keeps the search small where
    branching on the bottom arcs in position order stalled: on these R7
    braids that order made 19,607 and 960,799 propagation calls."""
    r7 = make_dihedral(7)
    cases = [("k=5; 1 4 3 3 2 -3 2 3 3 -4 -4 -1 3 -3 3", 343, 19_607),
             ("k=7; -4 6 5 -6 -6 6 5 -2 2 5 2 6 4 -2 -6", 16_807, 960_799)]
    for text, colorings, stalled in cases:
        calls = 0

        def tracer(frame, event, arg):
            nonlocal calls
            code = frame.f_code
            # the propagation step, under whatever name braids gives it
            if (event == "call" and code.co_filename == braids.__file__
                    and code.co_name.endswith("propagate")):
                calls += 1

        sys.settrace(tracer)
        try:
            found = colorings_of_closure(r7, parse_braid(text))
        finally:
            sys.settrace(None)
        assert len(found) == colorings
        assert calls < stalled / 10


def test_burau_values():
    """Alexander rep on the trivial quandle gives the unreduced Burau matrix;
    frozen small values mod 5 with t = 2."""
    t1 = make_trivial(1)
    rep = make_alexander_rep(t1, 5, 2)
    sigma = BraidWord(2, (1,))
    assert colored_matrix(rep, sigma, (0, 0)) == [[0, 1], [2, 4]]
    cube = BraidWord(2, (1, 1, 1))
    assert colored_matrix(rep, cube, (0, 0)) == [[3, 3], [1, 0]]


def test_colored_matrix_respects_inverse():
    rep = make_conj_rep(permutation_rep_r3(3))
    w = parse_braid("k=3; 1 -2")
    ww = w * w.inverse()
    for bottom in ((0, 1, 2), (1, 1, 0)):
        m = colored_matrix(rep, ww, bottom)
        n = len(m)
        assert m == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_colored_matrix_braid_relations():
    """sigma_1 sigma_2 sigma_1 = sigma_2 sigma_1 sigma_2 on colors and on
    matrices, for every bottom vector; |X| = 3, k = 3."""
    q = make_dihedral(3)
    rep = make_conj_rep(permutation_rep_r3(3))
    lhs = parse_braid("k=3; 1 2 1")
    rhs = parse_braid("k=3; 2 1 2")
    for bottom in itertools.product(range(3), repeat=3):
        assert act(q, lhs, bottom) == act(q, rhs, bottom)
        assert colored_matrix(rep, lhs, bottom) == colored_matrix(rep, rhs, bottom)
    far_l = parse_braid("k=4; 1 3")
    far_r = parse_braid("k=4; 3 1")
    for bottom in itertools.product(range(3), repeat=4):
        assert colored_matrix(rep, far_l, bottom) == colored_matrix(rep, far_r, bottom)


def test_crossing_data_needs_fixed_coloring():
    rep = make_conj_rep(permutation_rep_r3(3))
    w = braid_or_knot("4_1")
    # only the constant colorings of 4_1 over R3 are fixed
    with pytest.raises(InputError):
        crossing_data(rep, w, (0, 1, 2))
    data = crossing_data(rep, w, (1, 1, 1))
    assert [eps for eps, _, _, _ in data] == [1, -1, 1, -1]


def test_two_chains_are_cycles():
    """Every colored closed-braid diagram gives a 2-cycle of the twisted
    complex (its operator coefficients are annihilated by the boundary)."""
    q = make_dihedral(3)
    rep = make_conj_rep(permutation_rep_r3(3))
    cfg = ComplexConfig(rep=rep, variant="rack")
    b1 = boundary_matrix(cfg, 1)
    basis = _basis(cfg, 2)
    m, N = rep.dim, rep.modulus
    for name in ("3_1", "4_1"):
        w = braid_or_knot(name)
        for coloring in colorings_of_closure(q, w):
            chain = diagram_two_chain(rep, w, coloring)
            for j in range(m):
                vec = [0] * (len(basis) * m)
                for key, coef in chain.items():
                    base = basis[key] * m
                    for i in range(m):
                        vec[base + i] = coef[i][j]
                assert not any(mat_vec(b1, vec, N))


def test_markov_moves_are_closure_preserving():
    r3 = make_dihedral(3)
    for name in ("3_1", "4_1"):
        w = braid_or_knot(name)
        variants = markov_moves(w)
        assert len(variants) >= 5
        base = len(colorings_of_closure(r3, w))
        for v in variants:
            assert len(colorings_of_closure(r3, v)) == base


# affine quandles Z_n, a*b = t a + (1 - t) b, composite n included
_AFFINE_QUANDLES = [*(make_dihedral(n) for n in (3, 4, 5, 6, 8, 9, 12)),
                    make_alexander(5, 2), make_alexander(7, 3),
                    make_alexander(8, 3), make_alexander(9, 2),
                    make_trivial(2), make_trivial(3)]


def _burau_by_act(q, w):
    """The reference Burau matrix: column j is the top of the unit vector e_j."""
    k = w.strands
    cols = [act(q, w, [int(i == j) for i in range(k)]) for j in range(k)]
    return [tuple(col[i] for col in cols) for i in range(k)]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(q=st.sampled_from(_AFFINE_QUANDLES), w=_braid_words(4, 10))
@example(q=make_dihedral(12), w=_LONE_STRANDS[0])
@example(q=make_alexander(8, 3), w=_LONE_STRANDS[1])
@example(q=make_trivial(3), w=_LONE_STRANDS[0])
def test_affine_route_matches_the_search(q, w):
    """Over an affine quandle the colorings are the kernel of the Burau
    matrix at t minus I; listed from its generators, they are the search's
    list on every Markov variant, for composite n too and with strands in
    no crossing.  The matrix, read in one walk of linear forms, is the one
    of k walks of `act` over the unit vectors."""
    for v in [w, *markov_moves(w)]:
        assert colorings_of_closure(q, v) == braids._search_colorings(q, v), v
        assert braids._scalar_burau(v, q._affine_t, q.size) == _burau_by_act(q, v), v


def test_burau_rows_by_other_routes():
    """Over T_n the one-walk matrix is the braid's permutation matrix, and
    over R_n and the Alexander quandles it is the colored matrix of
    alexander-rep:n:t on the one-element quandle; both agree with `act`."""
    words = [parse_braid(text) for text in (
        "k=1;", "k=4; 1 2 -3 1", "k=5; 1 1 1 2 -1 2 3 3 3 4 -3 4",
        "k=7; 3 5 -5 -4 -4 4 2 4 -2 -5 5 -5 1 5 1 -2 -6 4 3 3")]
    words += [braid_or_knot(name) for name in KNOT_TABLE]
    for w in words:
        k, perm = w.strands, w.permutation()
        for n in (2, 3, 5):
            rows = braids._scalar_burau(w, 1, n)
            assert rows == [tuple(int(perm[i] == j) for j in range(k))
                            for i in range(k)]
            assert rows == _burau_by_act(make_trivial(n), w)
        for n, t in ((3, 2), (7, 6), (5, 2), (8, 3), (9, 2)):
            q = make_alexander(n, t)
            rep = make_alexander_rep(make_trivial(1), n, t)
            rows = braids._scalar_burau(w, t, n)
            assert [list(r) for r in rows] == colored_matrix(rep, w, (0,) * k)
            assert rows == _burau_by_act(q, w)


_NON_AFFINE_QUANDLES = [make_conj(symmetric_group(3)), make_core(symmetric_group(3))]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(q=st.sampled_from(_PROPERTY_QUANDLES[:5] + _NON_AFFINE_QUANDLES),
       w=_braid_words(4, 10))
@example(q=_NON_AFFINE_QUANDLES[0], w=_LONE_STRANDS[0])
def test_search_matches_brute_force(q, w):
    """The search, which every quandle but an affine one takes, gives the
    brute-force list on every Markov variant, over R_n as well."""
    for v in [w, *markov_moves(w)]:
        assert braids._search_colorings(q, v) == brute_force_colorings(q, v), v


def test_affine_recogniser():
    """The table itself is recognised: the three shorthands give their t,
    and Conj(S3) and Core(S3) are not affine."""
    from quandlekit import io as qio
    assert qio.load_quandle("dihedral:6")._affine_t == 5
    assert qio.load_quandle("alexander:8:3")._affine_t == 3
    assert qio.load_quandle("trivial:4")._affine_t == 1
    s3 = symmetric_group(3)
    assert make_conj(s3)._affine_t is None
    assert make_core(s3)._affine_t is None


def test_affine_quandles_need_no_search_plan(monkeypatch):
    """An affine quandle's colorings come from a kernel, with no search
    plan; any other quandle is still searched."""
    def no_plan(w):
        raise AssertionError("search plan made")

    w = braid_or_knot("4_1")
    conj = make_conj(symmetric_group(3))
    searched = colorings_of_closure(conj, w)
    monkeypatch.setattr(braids, "_search_plan", no_plan)
    for q in (make_dihedral(5), make_alexander(8, 3), make_trivial(2)):
        assert len(colorings_of_closure(q, w)) == len(brute_force_colorings(q, w))
    with pytest.raises(AssertionError, match="search plan made"):
        colorings_of_closure(conj, w)
    assert searched == brute_force_colorings(conj, w)


def test_affine_listing_removes_repeats(monkeypatch):
    """The span is listed without repeats whatever generators the kernel
    gives: with the first one doubled and the sum of all of them added, the
    lists are unchanged (and a listing that kept repeats would grow by at
    most n^2, to stay small)."""
    cases = [(make_alexander(8, 3), parse_braid("k=3; 1 -2 1 -2 1 -2")),
             (make_dihedral(6), _LONE_STRANDS[0]),
             (make_dihedral(9), braid_or_knot("3_1"))]
    want = [colorings_of_closure(q, w) for q, w in cases]
    kernel = braids.kernel_mod

    def redundant(a, n):
        gens = kernel(a, n)
        return gens + [[2 * x % n for x in gens[0]], [sum(c) % n for c in zip(*gens)]]

    monkeypatch.setattr(braids, "kernel_mod", redundant)
    assert [colorings_of_closure(q, w) for q, w in cases] == want


def test_found_braids_by_both_routes():
    """Two R7 braids on which the search does far more work than its output
    (a deferred crossing check, and a cycle of crossings that propagation
    cannot see) give the search's lists by the kernel route."""
    r7 = make_dihedral(7)
    for text, count in (
            ("k=7; 3 5 -5 -4 -4 4 2 4 -2 -5 5 -5 1 5 1 -2 -6 4 3 3", 49),
            ("k=7; -4 6 5 -6 -6 6 5 -2 2 5 2 6 4 -2 -6", 7 ** 5)):
        w = parse_braid(text)
        found = colorings_of_closure(r7, w)
        assert len(found) == count
        assert found == braids._search_colorings(r7, w)


def test_search_on_its_own_stays_bounded(monkeypatch):
    """`test_search_propagations_bounded` now reaches the kernel route, which
    propagates nothing; the search on its own keeps that test's bound, a
    tenth of the 19,607 and 960,799 calls of position order on these R7
    braids (plan trials included)."""
    calls = 0
    propagate = braids._propagate

    def counted(*args):
        nonlocal calls
        calls += 1
        return propagate(*args)

    monkeypatch.setattr(braids, "_propagate", counted)
    r7 = make_dihedral(7)
    for text, stalled in (("k=5; 1 4 3 3 2 -3 2 3 3 -4 -4 -1 3 -3 3", 19_607),
                          ("k=7; -4 6 5 -6 -6 6 5 -2 2 5 2 6 4 -2 -6", 960_799)):
        w = parse_braid(text)
        calls = 0
        colorings_of_closure(r7, w)
        assert calls == 0
        braids._search_colorings(r7, w)
        assert 0 < calls < stalled / 10


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(q=st.sampled_from(_PROPERTY_QUANDLES + _AFFINE_QUANDLES + _NON_AFFINE_QUANDLES),
       w=_braid_words(4, 10))
@example(q=make_dihedral(12), w=_LONE_STRANDS[0])
@example(q=make_trivial(1), w=_LONE_STRANDS[0])
@example(q=_NON_AFFINE_QUANDLES[0], w=_LONE_STRANDS[1])
def test_coloring_count_is_the_length_of_the_listing(q, w):
    """coloring_count, the order of coker(M - I) over an affine quandle, the
    search's length over any other and 1 over a one-element quandle, is the
    number of colorings listed, on every Markov variant."""
    for v in [w, *markov_moves(w)]:
        assert coloring_count(q, v) == len(colorings_of_closure(q, v)), v


def _guard_outcome(f, q, w, guard):
    """The GuardExceeded text of f(q, w) under `guard`, or None if it passes."""
    with guarded(guard):
        try:
            f(q, w)
        except GuardExceeded as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("q, text", [
    (make_dihedral(3), "k=2; 1 1 1"),                   # kernel route
    (make_dihedral(7), "k=6; 1 -1"),
    (_transpositions_quandle(), "k=3; 1 -2 1 -2"),      # search route
    (make_trivial(1), "k=4; 1 2 3 -1"),                 # the one coloring
])
def test_coloring_count_is_charged_as_the_listing_is(q, text):
    """One step either side of the |X|^k candidates and of the second charge,
    the search plan's k (letters + 1)^2 steps (the one coloring's
    k (letters + 1) entries when |X| = 1), the count and the listing raise
    the same GuardExceeded text or both pass."""
    w = parse_braid(text)
    k, letters = w.strands, len(w.letters)
    second = k * (letters + 1) ** (1 if q.size == 1 else 2)
    for bound in (q.size ** k, second):
        outcomes = [[_guard_outcome(f, q, w, guard)
                     for f in (coloring_count, colorings_of_closure)]
                    for guard in (bound - 1, bound, bound + 1)]
        for count, listing in outcomes:
            assert count == listing, (bound, count)
        assert outcomes[0][0] is not None
    assert _guard_outcome(coloring_count, q, w, max(q.size ** k, second)) is None
