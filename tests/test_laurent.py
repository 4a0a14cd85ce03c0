import random
from fractions import Fraction

from quandlekit.laurent import (
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


def test_gcd_of_minors():
    # Wirtinger-style 2x2 from the trefoil has gcd t^2 - t + 1 up to units
    m = [[{0: -1, 1: 1}, {0: 1}], [{1: -1}, {0: -1, 1: 1}]]
    g = lp_normalize(laurent_gcd_of_minors(m, 2))
    assert g == {0: 1, 1: -1, 2: 1}
    # all-zero minors give the zero polynomial
    z = [[{}, {}], [{}, {}]]
    assert laurent_gcd_of_minors(z, 2) == {}
