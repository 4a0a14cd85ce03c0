import itertools
import random
import signal
from fractions import Fraction

import pytest

from quandlekit.laurent import (
    _lp_div,
    laurent_gcd_of_minors,
    lp,
    lp_add,
    lp_const,
    lp_det,
    lp_eval,
    lp_gcd,
    lp_mul,
    lp_normalize,
)

random.seed(7)


def rand_poly():
    return lp(*((e, random.randint(-4, 4))
                for e in range(random.randint(-2, 0), random.randint(1, 3))))


def test_zero_coefficients_dropped():
    assert lp((0, 1), (1, 0), (2, 0)) == {0: 1}
    assert lp((1, 2), (1, -2)) == {}
    assert lp_add({1: 3}, {1: -3}) == {}


def test_add_mul_ring_axioms():
    for _ in range(30):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert lp_add(a, b) == lp_add(b, a)
        assert lp_mul(a, b) == lp_mul(b, a)
        assert lp_mul(a, lp_add(b, c)) == lp_add(lp_mul(a, b), lp_mul(a, c))


def test_eval():
    p = {0: 1, 1: -1, 2: 1}  # t^2 - t + 1
    assert lp_eval(p, -1) == 3
    assert lp_eval(p, 2) == 3
    assert lp_eval(p, 2, mod=5) == 3
    # negative exponents need an invertible point mod N
    q = {-1: 1, 1: 1}
    assert lp_eval(q, 2, mod=5) == (3 + 2) % 5


def test_normalize():
    # (1/2) t^-1 - (1/2) t  ->  primitive, valuation 0, positive lead... the
    # lead coefficient of t^2 - 1 is positive after sign flip
    p = {-1: Fraction(1, 2), 1: Fraction(-1, 2)}
    n = lp_normalize(p)
    assert n == {0: -1, 2: 1} or n == {0: 1, 2: -1}
    assert min(n) == 0
    assert n[max(n)] > 0


def test_gcd():
    a = lp_mul({0: 1, 1: 1}, {0: -1, 1: 1})   # (t+1)(t-1)
    b = lp_mul({0: 1, 1: 1}, {0: 1, 1: 1})    # (t+1)^2
    g = lp_normalize(lp_gcd(a, b))
    assert g == {0: 1, 1: 1}
    assert lp_gcd(a, {}) == a


def test_det():
    m = [[{0: 1}, {1: 1}], [{0: 2}, {1: 3}]]   # [[1, t], [2, 3t]]
    assert lp_det(m) == {1: 1}
    # singular
    m2 = [[{0: 1}, {0: 1}], [{0: 1}, {0: 1}]]
    assert lp_det(m2) == {}


def _permutation_det(mat):
    """The n! permutation expansion: a test oracle that shares no code with
    Bareiss elimination."""
    n = len(mat)
    total = {}
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = lp_const(-1 if inv % 2 else 1)
        for i in range(n):
            term = lp_mul(term, mat[i][perm[i]])
        total = lp_add(total, term)
    return total


def test_det_matches_permutation_expansion():
    """Bareiss over Z[t, 1/t] against the n! expansion on 560 seeded integer
    Laurent matrices of sizes 0-6: sparse and dense entries, negative
    exponents, zero columns and singular matrices (a row that is a Laurent
    multiple of another)."""
    rng = random.Random(20261018)

    def entry():
        low = rng.randint(-2, 1)
        return lp(*((e, rng.randint(-3, 3)) for e in range(low, rng.randint(low, 2))))

    singular = 0
    for trial in range(560):
        n = trial % 7
        density = rng.choice((0.3, 0.6, 1.0))
        mat = [[entry() if rng.random() < density else {} for _ in range(n)]
               for _ in range(n)]
        if n >= 2 and trial % 5 == 1:
            i, j = rng.sample(range(n), 2)
            mat[i] = [lp_mul(x, entry()) for x in mat[j]]
        elif n and trial % 5 == 2:
            col = rng.randrange(n)
            for row in mat:
                row[col] = {}
        det = lp_det(mat)
        singular += not det
        assert det == _permutation_det(mat), mat
    assert singular >= 150


def test_lp_div_exact_and_rejects_non_divisors():
    for _ in range(50):
        a, b = rand_poly(), rand_poly() or {0: 1}
        assert _lp_div(lp_mul(a, b), b) == a
    # 1 / 2 floors to 0, so without the remainder check the dividend never
    # shrinks; (t^2 + 3) / (t - 1) leaves 4, which needs a term below t^0
    cases = (({0: 1}, {0: 2}), ({0: 1}, {0: 1, 1: 1}),
             ({0: 3, 2: 1}, {0: -1, 1: 1}), ({-1: 2, 3: 4}, {1: 4}))
    if hasattr(signal, "SIGALRM"):  # fail rather than hang on a loop
        signal.signal(signal.SIGALRM, lambda *_: pytest.fail("_lp_div looped"))
        signal.alarm(5)
    try:
        for a, b in cases:
            with pytest.raises(ArithmeticError):
                _lp_div(a, b)
    finally:
        if hasattr(signal, "SIGALRM"):
            signal.alarm(0)


def test_gcd_of_minors():
    # Wirtinger-style 2x2 from the trefoil has gcd t^2 - t + 1 up to units
    m = [[{0: -1, 1: 1}, {0: 1}], [{1: -1}, {0: -1, 1: 1}]]
    g = lp_normalize(laurent_gcd_of_minors(m, 2))
    assert g == {0: 1, 1: -1, 2: 1}
    # all-zero minors give the zero polynomial
    z = [[{}, {}], [{}, {}]]
    assert laurent_gcd_of_minors(z, 2) == {}
