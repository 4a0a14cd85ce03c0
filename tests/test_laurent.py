import itertools
import random
import signal
from fractions import Fraction

import pytest

from quandlekit.laurent import (
    _digits,
    _width,
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

from alexander_oracle import _lp_div
from alexander_oracle import lp_det as dict_det

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


def test_det_matches_the_dict_bareiss():
    """The packed determinant against the dict Bareiss, on 300 seeded
    matrices of sizes 0-6 with negative exponents, zero entries, entries 50
    exponents apart, and coefficients up to 2^90, which need slots wider
    than 64 bits."""
    rng = random.Random(20261020)
    wide = 0
    for trial in range(300):
        n, size = trial % 7, rng.choice((3, 1000, 1 << 40, 1 << 90))
        shift = rng.choice((0, 0, 50, -50))

        def entry():
            low = rng.randint(-3, 2) + shift * rng.randint(0, 1)
            return lp(*((e, rng.randint(-size, size))
                        for e in range(low, low + rng.randint(0, 4))))

        mat = [[entry() if rng.random() < 0.7 else {} for _ in range(n)]
               for _ in range(n)]
        wide += size > 1 << 20 and n > 0
        assert lp_det(mat) == dict_det(mat), mat
    assert wide >= 100
    # det [[p, p], [p, -p]] = -2 p^2: its middle coefficient -16 c^2 needs
    # slots of 192 bits, where c^2, the product of the rows' largest
    # coefficients, would have asked for 128
    c = (1 << 62) - 1
    p = {e: c for e in range(8)}
    assert lp_det([[p, p], [p, lp_mul(p, {0: -1})]]) == lp_mul(lp_mul(p, p), {0: -2})


@pytest.mark.parametrize("width", [8, 64, 128, 192])
def test_balanced_digits_at_the_edges(width):
    """_digits reads back the extreme digits +-(2^(W - 1) - 1) in every
    slot, the top one too, side by side with digits of either sign;
    _width(b) is the least multiple of 64 whose digits hold +-b."""
    edge = (1 << width - 1) - 1
    rng = random.Random(width)
    cases = [[edge], [-edge], [edge, -edge, edge], [-edge, 0, 0, -edge],
             [0, edge], [1, -1, edge, -edge], [0]]
    cases += [[rng.choice((edge, -edge, 0, 1, -1)) for _ in range(rng.randint(1, 12))]
              for _ in range(300)]
    for digits in cases:
        x = sum(d << width * e for e, d in enumerate(digits))
        got = _digits(x, width)
        assert got[:len(digits)] == digits[:len(got)], digits
        assert not any(got[len(digits):] + digits[len(got):]), digits
    if width % 64 == 0:
        assert _width(edge) == width and _width(edge + 1) == width + 64


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
