import itertools
import math
import random

import pytest

from alexander_oracle import lp_det as dict_det
from quandlekit.errors import InputError
from quandlekit.linalg import (
    _local_homology,
    _sparse,
    cokernel_mod,
    identity,
    int_det,
    int_kernel,
    is_invertible_mod,
    ker_mod_im,
    kernel_mod,
    kernel_mod_p,
    lattice_basis,
    mat_frac_inverse,
    mat_inv_mod,
    mat_mul,
    mat_vec,
    quotient_invariant_factors,
    smith_normal_form,
    solve_exact,
)

random.seed(20260823)


def rand_mat(rows, cols, lo=-9, hi=9):
    return [[random.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_snf_small_oracle():
    # diag(2, 4): invariant factors of [[2, 0], [0, 4]] and of [[2, 4], [4, 2]]
    # hand-checked: det = -12, gcd of entries 2, so factors (2, 6)
    res = smith_normal_form([[2, 0], [0, 4]])
    assert res.diag == [2, 4]
    res2 = smith_normal_form([[2, 4], [4, 2]])
    assert res2.diag == [2, 6]


def test_snf_divisibility_and_transforms():
    for _ in range(40):
        m = rand_mat(random.randint(1, 5), random.randint(1, 5))
        res = smith_normal_form(m, transforms=True)
        for i in range(len(res.diag) - 1):
            if res.diag[i + 1]:
                assert res.diag[i] != 0
                assert res.diag[i + 1] % res.diag[i] == 0
        assert all(d >= 0 for d in res.diag)
        # U m V has the diagonal form
        umv = mat_mul(mat_mul(res.u, m), res.v)
        for i in range(len(umv)):
            for j in range(len(umv[0])):
                want = res.diag[i] if i == j and i < len(res.diag) else 0
                assert umv[i][j] == want
        assert abs(int_det(res.u)) == 1
        assert abs(int_det(res.v)) == 1


def test_cokernel_mod():
    # same lattice, reduced mod 5: the whole group survives
    assert cokernel_mod([[2, -1], [1, 2]], 5) == [5]
    assert cokernel_mod([[1, 0], [0, 1]], 7) == []
    assert cokernel_mod([[0, 0], [0, 0]], 6) == [6, 6]
    # composite moduli: the local factors at each prime power combine into
    # the invariant factors of [M | N*I] over Z; the last three moduli are
    # too large to factor by trial division
    rng = random.Random(2026)
    for n in (1, 4, 6, 8, 12, 18, 27, 30, 36, 49, 60,
              2 ** 61 - 1, 3 ** 40, (10 ** 9 + 7) * (10 ** 9 + 9)):
        for _ in range(6):
            rows, cols = rng.randint(0, 3), rng.randint(0, 4)
            m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            aug = [row + [n if i == j else 0 for j in range(rows)]
                   for i, row in enumerate(m)]
            assert cokernel_mod(m, n) == _factors_by_minors(aug)


def _subquotient_by_counting(a, b, n):
    """{d: |{x in ker a : d x in im b}| / |im b|} for every d | n, the sizes
    of the d-torsion of ker(a)/im(b), by listing all of (Z_n)^len(b)."""
    vecs = list(itertools.product(range(n), repeat=len(b)))
    ker = [x for x in vecs if not any(mat_vec(a, list(x), n))]
    im = {tuple(mat_vec(b, list(y), n))
          for y in itertools.product(range(n), repeat=len(b[0]) if b else 0)}
    return {d: sum(tuple(d * v % n for v in x) in im for x in ker) // len(im)
            for d in range(1, n + 1) if n % d == 0}


def test_ker_mod_im_matches_counting():
    """The d-torsion of ker(a)/im(b), for every d | N, fixes the group; it is
    counted by listing vectors, with a built from the vectors that b kills
    on the left.  A product a.b that is not zero is rejected."""
    rng = random.Random(9)
    for n in (4, 6, 8, 9, 12):
        divisors = [d for d in range(2, n) if n % d == 0]
        for _ in range(12):
            k, cols = rng.randint(1, 3), rng.randint(0, 2)
            b = [[rng.choice(divisors) * rng.randrange(n) % n for _ in range(cols)]
                 for _ in range(k)]
            left = [y for y in itertools.product(range(n), repeat=k)
                    if not any(mat_vec([list(c) for c in zip(*b)], list(y), n))]
            a = [list(rng.choice(left)) for _ in range(rng.randint(0, 2))]
            factors = ker_mod_im(a, b, n)
            want = _subquotient_by_counting(a, b, n)
            assert {d: math.prod(math.gcd(d, f) for f in factors)
                    for d in want} == want, (n, a, b)
    with pytest.raises(InputError):
        ker_mod_im([[1, 0]], [[1], [0]], 6)


def _det(a):
    if not a:
        return 1
    return sum((-1) ** j * a[0][j] * _det([r[:j] + r[j + 1:] for r in a[1:]])
               for j in range(len(a)))


def _factors_by_minors(a):
    """Invariant factors > 1 of a full-row-rank integer matrix from its
    determinantal divisors (gcds of the i x i minors).  Unlike integer SNF
    of [M | N*I], whose coefficients grow until some of these inputs take
    minutes, it always finishes."""
    rows, cols = len(a), len(a[0]) if a else 0
    d = [1]
    for i in range(1, rows + 1):
        d.append(math.gcd(*(
            _det([[a[r][c] for c in cs] for r in rs])
            for rs in itertools.combinations(range(rows), i)
            for cs in itertools.combinations(range(cols), i))))
    return [d[i] // d[i - 1] for i in range(1, rows + 1) if d[i] > d[i - 1]]


def test_int_kernel():
    ker = int_kernel([[1, -3], [2, -6]])
    assert len(ker) == 1
    v = ker[0]
    assert v in ([3, 1], [-3, -1])


def test_kernel_mod_p():
    basis = kernel_mod_p([[1, 1, 0], [0, 0, 0]], 3)
    assert len(basis) == 2
    for v in basis:
        assert (v[0] + v[1]) % 3 == 0
    with pytest.raises(InputError):
        kernel_mod_p([[1]], 6)
    with pytest.raises(InputError):
        kernel_mod_p([[1]], (10 ** 9 + 7) * (10 ** 9 + 9))
    assert kernel_mod_p([[1, -1]], 2 ** 61 - 1) == [[1, 1]]


def _span(gens, n, cols):
    """The subgroup of (Z_n)^cols that gens generate, closed by brute force."""
    zero = (0,) * cols
    span, todo = {zero}, [zero]
    while todo:
        v = todo.pop()
        for g in gens:
            w = tuple((x + y) % n for x, y in zip(v, g))
            if w not in span:
                span.add(w)
                todo.append(w)
    return span


def test_kernel_mod_matches_enumeration():
    """For N <= 12 and at most 4 columns, every generator lies in the kernel
    and together they span all of it, as listed vector by vector."""
    rng = random.Random(20261018)
    for n in range(1, 13):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for _ in range(6):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = [[rng.choice(divisors) * rng.randrange(-n, n) for _ in range(cols)]
                 for _ in range(rows)]
            ker = {v for v in itertools.product(range(n), repeat=cols)
                   if not any(mat_vec(m, list(v), n))}
            gens = kernel_mod(m, n)
            assert all(len(g) == cols and tuple(g) in ker for g in gens), (n, m)
            assert _span(gens, n, cols) == ker, (n, m)
    # mod 1 the kernel is the zero module: no generator is needed
    assert kernel_mod([[1, 2], [3, 4]], 1) == []
    assert _span([], 1, 2) == {v for v in itertools.product(range(1), repeat=2)}


def test_local_homology_skips_the_kernel_on_request():
    """Without kernel vectors the elimination gives the same exponents and
    no vectors; kernel_mod's generators come from the default run."""
    rng = random.Random(316)
    for p, e in ((2, 3), (3, 2), (5, 1), (7, 2)):
        q = p ** e
        for _ in range(10):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = [[rng.choice((1, p, p * p)) * rng.randrange(q) for _ in range(cols)]
                 for _ in range(rows)]
            b = [{}] * cols
            full = _local_homology(_sparse(a, q), b, p, e, q)
            assert len(full[1]) == cols
            assert _local_homology(_sparse(a, q), b, p, e, q, False) == (full[0], [])
            assert kernel_mod(a, q) == [[g.get(k, 0) for k in range(cols)]
                                        for g in full[1] if g]


def test_mat_inv_mod_mixed_local_blocks():
    """Mod 12 a matrix is invertible exactly when it is at 2 and at 3.  Blocks
    that are units at one prime only are hidden by integer unimodular mixing,
    so no entry need be a unit mod 12."""
    units = [[[5]], [[7]], [[3, 4], [4, 3]], [[2, 3], [3, 2]]]
    only_at_2 = [[[3]], [[1, 2], [1, 5]]]           # odd dets divisible by 3
    only_at_3 = [[[2]], [[4]], [[2, 1], [0, 1]]]    # even dets prime to 3
    rng = random.Random(1998)
    seen = set()
    for _ in range(150):
        kinds = [rng.choice(("unit", "unit", "2", "3")) for _ in range(rng.randint(1, 3))]
        pool = {"unit": units, "2": only_at_2, "3": only_at_3}
        blocks = [rng.choice(pool[kind]) for kind in kinds]
        k = sum(map(len, blocks))
        d, at = [[0] * k for _ in range(k)], 0
        for blk in blocks:
            for i, row in enumerate(blk):
                d[at + i][at:at + len(row)] = row
            at += len(blk)
        mix = [identity(k), identity(k)]
        for u in mix:
            for _ in range(2 * k):
                i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
                if i != j:
                    f = rng.randint(-3, 3)
                    for row in u:
                        row[j] += f * row[i]
        a = mat_mul(mat_mul(mix[0], d), mix[1])
        unit = all(kind == "unit" for kind in kinds)
        seen.add(unit)
        assert is_invertible_mod(a, 12) == unit, (kinds, a)
        if unit:
            inv = mat_inv_mod(a, 12)
            assert mat_mul(a, inv, 12) == mat_mul(inv, a, 12) == identity(k)
        else:
            with pytest.raises(InputError):
                mat_inv_mod(a, 12)
    assert seen == {True, False}


def test_mat_inv_mod_euclid_pivot():
    """Column 0 of [[2, 3], [3, 2]] holds no unit mod 6, but det = -5 is one:
    Euclid's algorithm on the column finds the pivot."""
    a = [[2, 3], [3, 2]]
    assert is_invertible_mod(a, 6)
    assert mat_mul(a, mat_inv_mod(a, 6), 6) == identity(2)
    assert not is_invertible_mod([[2, 3], [4, 0]], 6)    # det -12
    with pytest.raises(InputError):
        mat_inv_mod([[2, 4], [4, 2]], 6)                 # column gcd 2


def test_mat_inv_mod():
    """A * mat_inv_mod(A) = I exactly when det A is a unit mod n."""
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 30, 2 ** 61 - 1):
        for _ in range(40):
            k = rng.randint(0, 5)
            a = [[rng.randrange(-n, 2 * n) for _ in range(k)] for _ in range(k)]
            unit = math.gcd(_det(a), n) == 1
            assert is_invertible_mod(a, n) == unit
            if unit:
                one = [[x % n for x in row] for row in identity(k)]
                assert mat_mul(a, mat_inv_mod(a, n), n) == one
            else:
                with pytest.raises(InputError):
                    mat_inv_mod(a, n)
    # mod 1 every matrix is zero and invertible, even one singular over Q
    assert is_invertible_mod([[0, 0], [0, 0]], 1)
    assert mat_inv_mod([[0, 0], [0, 0]], 1) == [[0, 0], [0, 0]]


def test_int_det_matches_cofactor_expansion():
    """int_det, the integer Bareiss, against the cofactor expansion and the
    dict Bareiss on constant polynomials, with entries up to 2^80, zero
    columns and repeated rows."""
    rng = random.Random(11)
    for k in range(7):
        for trial in range(30):
            size = 9 if trial % 2 else 1 << 80
            a = [[rng.randint(-size, size) for _ in range(k)] for _ in range(k)]
            if k and rng.random() < 0.3:      # a repeated row: det 0
                a[-1] = list(a[0])
            elif k and rng.random() < 0.2:    # a zero column: det 0
                col = rng.randrange(k)
                for row in a:
                    row[col] = 0
            assert int_det(a) == _det(a)
            assert int_det(a) == dict_det([[{0: x} if x else {} for x in row]
                                           for row in a]).get(0, 0)


def test_mat_frac_inverse():
    m = [[2, 1], [1, 1]]
    inv = mat_frac_inverse(m)
    prod = [[sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    assert prod == [[1, 0], [0, 1]]


def test_solve_exact():
    b = [[1, 2], [3, 5]]
    x = [[4, -1], [0, 2]]
    m = mat_mul(b, x)
    assert solve_exact(b, m) == x


def test_lattice_basis():
    gens = [[2, 0], [0, 3], [2, 3]]
    basis = lattice_basis([list(v) for v in gens], 2)
    # the lattice <(2,0),(0,3),(2,3)> is <(2,0),(0,3)>, index 6 in Z^2
    res = smith_normal_form(basis)
    assert res.diag == [1, 6]


def test_quotient_invariant_factors():
    # Z^2 / <2e1, 3e2> = Z/2 x Z/3 = Z/6
    facs = quotient_invariant_factors([[2, 0], [0, 3]], [[1, 0], [0, 1]], 2)
    assert facs == [6]
    # trivial quotient drops the unit factors entirely
    assert quotient_invariant_factors([[1, 0], [0, 1]], [[1, 0], [0, 1]], 2) == []


def test_mat_vec_mod():
    assert mat_vec([[1, 2], [3, 4]], [1, 1], 5) == [3, 2]


def test_prime_powers_within_the_rho_cap():
    """The moduli of the tests factor within RHO_STEPS, the rho-split
    (10^9 + 7)(10^9 + 9) among them; two 20-digit prime factors do not."""
    from quandlekit.errors import GuardExceeded
    from quandlekit.linalg import _prime_powers
    m61 = 2 ** 61 - 1
    for n, powers in ((1, {}), (360, {2: 3, 3: 2, 5: 1}), (m61, {m61: 1}),
                      (3 * m61, {3: 1, m61: 1}), (3 ** 40, {3: 40}),
                      ((10 ** 9 + 7) * (10 ** 9 + 9), {10 ** 9 + 7: 1, 10 ** 9 + 9: 1}),
                      ((10 ** 9 + 7) ** 2 * 43 * 47, {10 ** 9 + 7: 2, 43: 1, 47: 1})):
        assert _prime_powers(n) == powers
    with pytest.raises(GuardExceeded):
        _prime_powers(100000000000000001380000000000000004437)


def _echelon_kernel(mat, p, cols):
    """The kernel of mat over F_p by Gauss-Jordan: the RREF, then for each
    free column f the vector that is 1 at f, 0 at the other free columns
    and minus the RREF's column f at the pivot columns."""
    rows = [[x % p for x in row] for row in mat]
    pivots = []
    for col in range(cols):
        r = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if r is None:
            continue
        top = len(pivots)
        rows[top], rows[r] = rows[r], rows[top]
        inv = pow(rows[top][col], -1, p)
        rows[top] = [x * inv % p for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                f = row[col]
                rows[i] = [(x - f * y) % p for x, y in zip(row, rows[top])]
        pivots.append(col)
    out = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [int(c == f) for c in range(cols)]
        for i, c in enumerate(pivots):
            vec[c] = -rows[i][f] % p
        out.append(vec)
    return out, len(pivots)


# the coboundaries that the `search` jobs of the benchmark's cohomology
# workload take the kernel of: degree, quandle, rep and prime
_SEARCHES = [(d, quandle, rep, p) for quandle, rep, p in (
    ("dihedral:3", "conj-rep:perm3", 3), ("dihedral:3", "alexander-rep:5:2", 5),
    ("dihedral:4", "alexander-rep:3:2", 3), ("dihedral:5", "alexander-rep:5:2", 5))
    for d in (2, 3)] + [(2, "alexander:5:2", "alexander-rep:7:3", 7)]


def test_sparsest_row_pivots_keep_the_echelon_kernel_over_a_prime():
    """The elimination pivots the sparsest row first, yet over a prime each
    row pivots at its leading entry: kernel_mod_p is the echelon basis of an
    independent Gauss-Jordan, on the search coboundaries (up to 320 x 80)
    and on seeded random sparse matrices up to 12 x 12."""
    from quandlekit.homology import ComplexConfig, coboundary_matrix
    from quandlekit.io import load_quandle, load_rep
    cases = []
    for degree, quandle, rep, p in _SEARCHES:
        cfg = ComplexConfig(rep=load_rep(rep, load_quandle(quandle)))
        cases.append((coboundary_matrix(cfg, degree), p))
    assert max(len(m) for m, _ in cases) == 320
    rng = random.Random(4096)
    for _ in range(300):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        p = rng.choice((2, 3, 5, 7, 11))
        density = rng.choice((0.1, 0.3, 0.6))
        cases.append(([[rng.randrange(1, p) if rng.random() < density else 0
                        for _ in range(cols)] for _ in range(rows)], p))
    for m, p in cases:
        assert kernel_mod_p(m, p) == _echelon_kernel(m, p, len(m[0]))[0], (p, m)


def test_kernel_generators_over_prime_powers():
    """Over p^e the generators of kernel_mod are one per column that is not
    a pivot mod p, lie in the kernel and span all of it, as listed vector by
    vector; the kernel's order is the product of ker_mod_im's factors."""
    rng = random.Random(27)
    for _ in range(120):
        p, e = rng.choice(((2, 2), (2, 3), (3, 2), (5, 2)))
        q = p ** e
        cols = rng.randint(1, 4 if q < 9 else 3)
        m = [[rng.choice((1, p, p * p)) * rng.randrange(q) if rng.random() < 0.5
              else 0 for _ in range(cols)] for _ in range(rng.randint(1, 5))]
        ker = {v for v in itertools.product(range(q), repeat=cols)
               if not any(mat_vec(m, list(v), q))}
        gens = kernel_mod(m, q)
        assert len(gens) == cols - _echelon_kernel(m, p, cols)[1], (q, m)
        assert all(tuple(g) in ker for g in gens), (q, m)
        assert _span(gens, q, cols) == ker, (q, m)
        assert math.prod(ker_mod_im(m, [[] for _ in range(cols)], q)) == len(ker)
