import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quandlekit.braids import (KNOT_TABLE, BraidWord, _burau_rows, braid_or_knot,
                               colorings_of_closure, markov_moves, parse_braid)
from quandlekit.errors import GUARD, InputError
from quandlekit.fox import (
    alexander_polynomial,
    twisted_matrix,
    wirtinger_from_braid,
)
from quandlekit import fox
from quandlekit.laurent import (_bareiss, _digits, laurent_gcd_of_minors, lp_det,
                                lp_normalize)
from quandlekit.linalg import kernel_mod_p
from quandlekit.quandles import make_alexander, make_dihedral

import alexander_oracle
from alexander_oracle import lp_mul
from fox_calculus import fox_derivative, reduce_word, ring_mul, word_inv, word_mul

X = ((0, 1),)
Y = ((1, 1),)


def trivial_rho(pres):
    """rho = 1 on every generator: twisted_matrix is then the Alexander
    matrix of the presentation."""
    return [[[1]] for _ in range(pres.generators)]


def _at(poly, t0, p):
    """poly(t0) mod p, for a polynomial with no negative exponent."""
    return sum(c * pow(t0, e, p) for e, c in poly.items()) % p


def test_free_reduction():
    assert reduce_word(((0, 1), (0, -1))) == ()
    assert reduce_word(((0, 1), (1, 1), (1, -1), (0, 1))) == ((0, 1), (0, 1))
    with pytest.raises(InputError):
        reduce_word(((0, 2),))


def test_word_ops():
    w = word_mul(X, Y)
    assert word_mul(w, word_inv(w)) == ()
    assert word_inv(X) == ((0, -1),)


def test_fox_derivative_basics():
    assert fox_derivative(X, 0) == {(): 1}
    assert fox_derivative(X, 1) == {}
    assert fox_derivative(word_inv(X), 0) == {((0, -1),): -1}


def test_fox_derivative_conjugation():
    """d/dx (y x y^-1) = y and d/dy (y x y^-1) = 1 - y x y^-1."""
    w = word_mul(word_mul(Y, X), word_inv(Y))
    assert fox_derivative(w, 0) == {Y: 1}
    assert fox_derivative(w, 1) == {(): 1, w: -1}


def test_fox_product_rule():
    u = word_mul(X, Y)
    v = word_mul(Y, word_inv(X))
    for g in (0, 1):
        lhs = fox_derivative(word_mul(u, v), g)
        du = fox_derivative(u, g)
        dv = fox_derivative(v, g)
        rhs = dict(du)
        for w_, c in ring_mul({u: 1}, dv).items():
            s = rhs.get(w_, 0) + c
            if s:
                rhs[w_] = s
            else:
                rhs.pop(w_, None)
        assert lhs == rhs


def test_wirtinger_trefoil():
    pres = wirtinger_from_braid(braid_or_knot("3_1"))
    assert pres.generators == 3
    assert len(pres.crossings) == 3
    for triple in pres.crossings:
        assert len(triple) == 3 and all(0 <= a < 3 for a in triple)


def test_wirtinger_counts_figure_eight():
    pres = wirtinger_from_braid(braid_or_knot("4_1"))
    assert pres.generators == 4
    assert len(pres.crossings) == 4


def test_alexander_polynomials():
    assert alexander_polynomial(braid_or_knot("3_1")) == {0: 1, 1: -1, 2: 1}
    assert alexander_polynomial(braid_or_knot("4_1")) == {0: 1, 1: -3, 2: 1}
    assert alexander_polynomial(braid_or_knot("5_1")) == \
        {0: 1, 1: -1, 2: 1, 3: -1, 4: 1}
    assert alexander_polynomial(BraidWord(2, (1,))) == {0: 1}   # unknot
    with pytest.raises(InputError):
        alexander_polynomial(parse_braid("k=2; 1 1"))   # Hopf link


def _random_knots(seed, count):
    """Seeded random knots: 2-4 strands, at most 12 letters, one component."""
    rng = random.Random(seed)
    knots = []
    while len(knots) < count:
        k = rng.randint(2, 4)
        w = BraidWord(k, tuple(rng.choice((1, -1)) * rng.randint(1, k - 1)
                               for _ in range(rng.randint(1, 12))))
        if w.closure_components() == 1:
            knots.append(w)
    return knots


def test_alexander_markov_invariant_and_symmetric():
    """On random knots Delta is the same for every Markov variant, has
    Delta(1) = +-1 and is symmetric up to units: Delta(t) = +-t^j Delta(1/t)."""
    for w in _random_knots(20261018, 40):
        delta = alexander_polynomial(w)
        for v in markov_moves(w):
            assert alexander_polynomial(v) == delta, (w, v)
        assert abs(sum(delta.values())) == 1
        coefficients = [delta.get(e, 0) for e in range(max(delta) + 1)]
        assert coefficients[::-1] in (coefficients, [-c for c in coefficients])


@pytest.mark.parametrize("m", [5, 10, 50])
def test_alexander_torus_knots(m):
    """T(2, 2m + 1) has Delta = sum_{i <= 2m} (-t)^i; the n! expansion took
    over 100 s at m = 5, and the arcs^4 guard of the Wirtinger minor refused
    m = 50."""
    w = BraidWord(2, (1,) * (2 * m + 1))
    assert alexander_polynomial(w) == {i: (-1) ** i for i in range(2 * m + 1)}


def _alexander_by_gcd_of_minors(w):
    """The reference: the rational gcd of every first minor of the Alexander
    matrix without its last column, normalized."""
    pres = wirtinger_from_braid(w)
    mat = twisted_matrix(pres, trivial_rho(pres))
    cut = [[cell[0][0] for cell in row[:-1]] for row in mat]
    return lp_normalize(laurent_gcd_of_minors(cut, pres.generators - 1))


def test_alexander_matches_gcd_of_minors(monkeypatch):
    """One first minor gives the gcd of all of them, with one integer
    Bareiss call per knot, on the k - 1 rows of the Burau minor on k
    strands: on 200 seeded knots (2-5 strands, at most 14 letters), T(2, m)
    up to m = 21 and the one-strand unknot."""
    rng = random.Random(20261019)
    knots = [BraidWord(1, ())] + [BraidWord(2, (1,) * m) for m in range(1, 22, 2)]
    while len(knots) < 212:
        k = rng.randint(2, 5)
        w = BraidWord(k, tuple(rng.choice((1, -1)) * rng.randint(1, k - 1)
                               for _ in range(rng.randint(1, 14))))
        if w.closure_components() == 1:
            knots.append(w)
    calls = []

    def counted(mat):
        calls.append(len(mat))
        return _bareiss(mat)

    monkeypatch.setattr(fox, "_bareiss", counted)   # not the reference's
    nontrivial = 0
    for w in knots:
        calls.clear()
        delta = alexander_polynomial(w)
        assert delta == _alexander_by_gcd_of_minors(w), w
        assert calls == [w.strands - 1], w
        nontrivial += delta != {0: 1}
    assert nontrivial >= 90


def _alexander_by_wirtinger_minor(w):
    """The oracle: the Bareiss determinant of the first minor of the
    arcs-sized Alexander matrix without its last relator and last arc."""
    pres = wirtinger_from_braid(w)
    mat = twisted_matrix(pres, trivial_rho(pres))
    return lp_normalize(lp_det([[cell[0][0] for cell in row[:-1]]
                                for row in mat[:-1]]))


def _joined(draw, k, letters):
    """The word of the letters, then sigma_i^+-1 wherever strand i is not yet
    on the cycle of strand 0 (the letter joins the two cycles), for i = 1 ..
    k - 1: its closure is a knot."""
    for i in range(1, k):
        perm, cycle, s = BraidWord(k, tuple(letters)).permutation(), {0}, 0
        while perm[s]:
            s = perm[s]
            cycle.add(s)
        if i not in cycle:
            letters.append(draw(st.sampled_from([i, -i])))
    return BraidWord(k, tuple(letters))


@st.composite
def _knots(draw):
    """Braid words on 2-7 strands that close to a knot: at most 16 random
    letters, then the joining letters of `_joined`."""
    k = draw(st.integers(2, 7))
    letter = st.integers(1, k - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    return _joined(draw, k, draw(st.lists(letter, max_size=16)))


@st.composite
def _cancelling_knots(draw):
    """Knots on 1-8 strands with at most 60 letters: at most 29 random
    letters, with up to four words equal to 1 put in at random places (a
    pair sigma_i^e sigma_i^-e, a braid relation sigma_i sigma_j sigma_i
    (sigma_j sigma_i sigma_j)^-1 for |i - j| = 1, or a commutator of
    distant generators), then the joining letters of `_joined`."""
    k = draw(st.integers(1, 8))
    if k == 1:
        return BraidWord(1, ())
    letter = st.integers(1, k - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    letters = draw(st.lists(letter, max_size=29))
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(1, k - 1)), draw(st.integers(1, k - 1))
        e = draw(st.sampled_from([1, -1]))
        if abs(i - j) == 1:
            piece = [e * i, e * j, e * i, -e * j, -e * i, -e * j]
        elif i != j:
            piece = [e * i, e * j, -e * i, -e * j]
        else:
            piece = [e * i, -e * i]
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = piece
    return _joined(draw, k, letters)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(w=_cancelling_knots())
@example(w=BraidWord(3, (1, 2, 1, -2, -1, -2) * 9 + (1, 2)))
@example(w=BraidWord(4, (1, 2, 3, -3, -2, -1) * 9 + (1, 2, 3)))
def test_alexander_matches_the_dict_route(w):
    """The packed walk and one integer Bareiss give the polynomial of the
    dict route (`alexander_oracle`), on knots whose words are full of
    cancelling pairs and braid relations."""
    assert w.closure_components() == 1 and len(w.letters) <= 60
    assert alexander_polynomial(w) == alexander_oracle.alexander_polynomial(w)


def test_packed_walk_decodes_to_the_dict_burau_rows(monkeypatch):
    """`_walk` at t = 2^8, 2^16 and 2^64 decodes, entry by entry, to the
    Burau rows of the dict walk, and every coefficient is within its form's
    bound, on 150 seeded words of 2-6 strands and up to 40 letters, of one
    sign or of mixed signs.  At width 8 the bounds reach 2^7 - 1 within a
    few letters, so the forms are renormalized often, and a word whose
    coefficients do not fit raises _Narrow."""
    rng = random.Random(20261021)
    renormalized, narrow = [], 0
    renormalize = fox._renormalize
    monkeypatch.setattr(fox, "_renormalize",
                        lambda *args: renormalized.append(args[2]) or renormalize(*args))
    for _ in range(150):
        k, sign = rng.randint(2, 6), rng.choice((1, -1, 0))   # 0: mixed signs
        w = BraidWord(k, tuple((sign or rng.choice((1, -1))) * rng.randint(1, k - 1)
                               for _ in range(rng.randint(0, 40))))
        units = [tuple([{0: 1} if i == j else {} for j in range(k)]) for i in range(k)]
        expected = _burau_rows(w, alexander_oracle._slide(1), alexander_oracle._slide(-1),
                               units)
        for width in (8, 16, 64):
            try:
                rows = fox._walk(w, width)
            except fox._Narrow:
                narrow += 1
                continue
            for (low, bound, ints), row in zip(rows, expected):
                for x, entry in zip(ints, row):
                    digits = _digits(x, width)
                    assert {e + low: c for e, c in enumerate(digits) if c} == entry, w
                    assert max(map(abs, digits)) <= bound, w
    assert renormalized.count(8) >= 300 and narrow >= 3


def test_renormalization_and_restart(monkeypatch):
    """T(2, 101) outgrows its tracked bounds at W = 64 and is renormalized
    without a restart.  (sigma_1 sigma_2^-1)^50, whose Delta has
    coefficients over 2^63, still outgrows W = 64 after renormalizing and
    is walked again at W = 128, then once more at W = 192, where the exact
    L1 norms of its minor's rows fit."""
    widths, renormalized = [], []
    walk, renormalize = fox._walk, fox._renormalize
    monkeypatch.setattr(fox, "_walk",
                        lambda w, width: widths.append(width) or walk(w, width))
    monkeypatch.setattr(fox, "_renormalize",
                        lambda *args: renormalized.append(args[2]) or renormalize(*args))
    assert alexander_polynomial(BraidWord(2, (1,) * 101)) == \
        {i: (-1) ** i for i in range(101)}
    assert widths == [64] and renormalized
    widths.clear()
    renormalized.clear()
    w = BraidWord(3, (1, -2) * 50)
    delta = alexander_polynomial(w)
    assert delta == alexander_oracle.alexander_polynomial(w)
    assert widths == [64, 128, 192] and 64 in renormalized
    assert max(map(abs, delta.values())).bit_length() > 63


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(w=_knots())
@example(w=BraidWord(1, ()))
@example(w=BraidWord(2, (1,)))
def test_burau_route_matches_the_wirtinger_minor(w):
    """The (k - 1)-minor of the Burau matrix minus I gives the polynomial of
    the Wirtinger minor, on the knot and on every Markov variant of it."""
    assert w.closure_components() == 1
    for v in [w, *markov_moves(w)]:
        assert alexander_polynomial(v) == _alexander_by_wirtinger_minor(v), v


def test_burau_route_matches_the_wirtinger_minor_on_the_knot_table():
    for name, text in KNOT_TABLE.items():
        w = parse_braid(text)
        assert alexander_polynomial(w) == _alexander_by_wirtinger_minor(w), name


def test_alexander_of_a_torus_knot_on_8_strands():
    """T(8, 15), 105 crossings on 8 strands, has the closed form
    (t^120 - 1)(t - 1) / ((t^8 - 1)(t^15 - 1)) of degree 98 at the default
    guard, which the arcs^4 estimate of the Wirtinger minor exceeded."""
    def poly(*exponents):       # the product of t^e - 1 over the exponents
        out = {0: 1}
        for e in exponents:
            out = lp_mul(out, {e: 1, 0: -1})
        return out

    num, den = poly(120, 1), poly(8, 15)
    w = BraidWord(8, tuple(range(1, 8)) * 15)
    delta = alexander_polynomial(w)
    assert lp_mul(delta, den) == num and max(delta) == 98
    assert wirtinger_from_braid(w).generators ** 4 > GUARD


def test_determinant_vs_colorings():
    """|Delta(-1)| = p  iff  the closure has nontrivial R_p colorings
    (coloring count p^2 vs p for the bundled knots, all of prime determinant)."""
    for name in ("3_1", "4_1", "5_1"):
        w = braid_or_knot(name)
        det = abs(sum(c * (-1) ** e for e, c in alexander_polynomial(w).items()))
        for p in (3, 5, 7):
            count = len(colorings_of_closure(make_dihedral(p), w))
            assert count == (p * p if det % p == 0 else p)


def _fox_nullity(w, t0, p):
    """Nullity over Z_p of the trivial-rho Fox matrix evaluated at t = t0."""
    pres = wirtinger_from_braid(w)
    if not pres.crossings:
        return pres.generators
    mat = [[_at(cell[0][0], t0, p) for cell in row]
           for row in twisted_matrix(pres, trivial_rho(pres))]
    return len(kernel_mod_p(mat, p))


def test_alexander_colorings_are_fox_kernel():
    """For an Alexander quandle Z_p[t]/(t - t0), and R_p with t0 = -1, the
    closure colorings are the kernel of the Fox matrix at t0 mod p, so they
    number p^nullity; this holds for links too.  The 7-strand braid is the
    R7 case that took seconds by brute force."""
    rng = random.Random(20261018)
    quandles = [(make_dihedral(3), -1), (make_dihedral(5), -1),
                (make_alexander(5, 2), 2), (make_alexander(7, 3), 3)]
    cases = [(parse_braid("k=7; 1 -2 3 -4 5 -6 1 2 -3 4 -5 6"), make_dihedral(7), -1)]
    for _ in range(300):
        k = rng.randint(2, 4)
        letters = [rng.choice((1, -1)) * rng.randint(1, k - 1)
                   for _ in range(rng.randint(1, 10))]
        cases.append((BraidWord(k, tuple(letters)), *rng.choice(quandles)))
    for w, q, t0 in cases:
        p = q.size
        assert len(colorings_of_closure(q, w)) == p ** _fox_nullity(w, t0, p)


def test_alexander_quandle_colorings_detect_roots_of_delta():
    """A knot has more than p colorings by Alex(p, t0) exactly when
    Delta(t0) = 0 mod p, for p <= 11 and every unit t0 (t0 = 1 is the
    trivial quandle, with p colorings and Delta(1) = +-1)."""
    knots = [braid_or_knot(name) for name in KNOT_TABLE] + _random_knots(2001, 40)
    roots = 0
    for w in knots:
        delta = alexander_polynomial(w)
        for p in (2, 3, 5, 7, 11):
            for t0 in range(1, p):
                count = len(colorings_of_closure(make_alexander(p, t0), w))
                root = _at(delta, t0, p) == 0
                assert (count > p) == root, (w, p, t0)
                roots += root
    assert roots >= 50


def test_twisted_matrix_trivial_rho_row_sums():
    """Each Wirtinger relator maps to a row whose entries sum to zero at
    t = 1 (the augmentation kills every Fox derivative row)."""
    pres = wirtinger_from_braid(braid_or_knot("4_1"))
    mat = twisted_matrix(pres, trivial_rho(pres))
    for row in mat:
        total = 0
        for cell in row:
            total += sum(cell[0][0].values())
        assert total == 0


def test_twisted_matrix_rejects_bad_rho():
    """rho must respect every relator and be one square dim x dim matrix
    per generator, dim >= 1."""
    pres = wirtinger_from_braid(braid_or_knot("3_1"))
    rho = [[[1]], [[1]], [[2]]]   # not constant on conjugacy classes
    with pytest.raises(InputError):
        twisted_matrix(pres, rho)
    for rho in ([[[1]], [[1]]], [[[1, 0]]] * 3, [[]] * 3, []):
        with pytest.raises(InputError, match=r"^rho, one per generator, must be "
                                             r"3 integer matrices, all square of one "
                                             r"size >= 1$"):
            twisted_matrix(pres, rho)


def test_twisted_matrix_mod():
    """Coefficients are reduced mod N once, after the terms of coinciding arcs
    are summed; the second braid has kinks, where an arc meets itself."""
    for braid, modulus in (("3_1", 5), ("k=5; -4 -2 -1 2 -2 -4 -4", 2)):
        pres = wirtinger_from_braid(braid_or_knot(braid))
        mat = twisted_matrix(pres, trivial_rho(pres), modulus=modulus)
        for row in mat:
            for cell in row:
                for c in cell[0][0].values():
                    assert 0 < c < modulus


def _abelianized(element: dict) -> dict:
    """Sum of coef * t^(exponent sum of the word) over a group-ring element."""
    out: dict = {}
    for word, coef in element.items():
        deg = sum(e for _, e in word)
        out[deg] = out.get(deg, 0) + coef
    return {d: c for d, c in out.items() if c}


def test_twisted_matrix_trivial_rho_is_abelianized_fox_derivative():
    """With trivial rho the closed-form rows are the Fox derivatives of the
    relators, abelianized."""
    for name in ("3_1", "4_1", "5_1"):
        w = braid_or_knot(name)
        for v in [w, *markov_moves(w)]:
            pres = wirtinger_from_braid(v)
            relators = [((o, 1), (s, 1), (o, -1), (t, -1)) for o, s, t in pres.crossings]
            expected = [[[[_abelianized(fox_derivative(r, j))]]
                         for j in range(pres.generators)] for r in relators]
            assert twisted_matrix(pres, trivial_rho(pres)) == expected
