import itertools
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quandlekit.algebra import (
    AlgebraRep,
    _Products,
    bar,
    check_group_rep,
    make_alexander_rep,
    make_conj_rep,
    make_group_rep,
    make_rep,
    make_wada_rep,
    permutation_rep_r3,
    regular_group_rep,
    verify_relations,
)
from quandlekit.errors import CheckFailed, InputError
from quandlekit.groups import cyclic_group, small_groups
from quandlekit.io import load_rep, rep_from_doc, rep_to_doc
from quandlekit.linalg import (identity, is_invertible_mod, mat_add, mat_inv_mod, mat_mul,
                               mat_scale, mat_vec)
from quandlekit.quandles import (
    make_alexander,
    make_conj,
    make_core,
    make_dihedral,
    make_trivial,
)


def test_alexander_rep_relations():
    for n, t in ((3, 2), (5, 2), (5, 4), (9, 2)):
        for q in (make_dihedral(3), make_dihedral(4), make_trivial(2),
                  make_alexander(5, 3)):
            rep = make_alexander_rep(q, n, t)
            assert verify_relations(rep).passed


def test_alexander_rep_needs_unit():
    with pytest.raises(InputError):
        make_alexander_rep(make_dihedral(3), 6, 3)


def test_alexander_rep_matrix_t():
    # t can be a matrix as long as it is invertible
    q = make_trivial(2)
    t = [[0, 1], [1, 1]]
    rep = make_alexander_rep(q, 5, t)
    assert rep.dim == 2
    assert verify_relations(rep).passed


def test_alexander_rep_needs_square_t():
    """A 1 x 2 t has a trivial cokernel, yet is no rep's eta."""
    for t in ([[1, 0]], []):
        with pytest.raises(InputError, match=r"^t, an integer or a matrix, must "
                                             r"be 1 integer matrices, all square of one "
                                             r"size >= 1$"):
            make_alexander_rep(make_dihedral(3), 5, t)


@pytest.mark.parametrize("rho", [[[[1]]], [[[1, 0]]] * 3],
                         ids=["one matrix for three elements", "1x2 matrices"])
def test_group_rep_needs_one_square_matrix_per_element(rho):
    with pytest.raises(InputError, match=r"^rho, one per quandle element, must "
                                         r"be 3 integer matrices, all square of one "
                                         r"size >= 1$"):
        make_group_rep(make_dihedral(3), 5, rho)


def test_perm3_rep():
    g = permutation_rep_r3(3)
    assert check_group_rep(g).passed
    rep = make_conj_rep(g)
    assert verify_relations(rep).passed
    assert rep.is_conj_type
    # eta does not depend on x for conjugation reps
    assert rep.eta[0][2] == rep.eta[1][2]


def test_perm3_conj_rep_checks_once(monkeypatch):
    """conj-rep:perm3 is built and checked once per process: a second load
    returns the rep of the first, and another modulus is another rep."""
    from quandlekit import algebra, io
    check, calls = algebra.check_group_rep, []

    def counted(g):
        calls.append(g)
        return check(g)

    monkeypatch.setattr(algebra, "check_group_rep", counted)
    io._built.cache_clear()
    assert io.load_rep("conj-rep:perm3") is io.load_rep("conj-rep:perm3")
    assert len(calls) == 1
    assert io.load_rep("conj-rep:perm3:5").modulus == 5 and len(calls) == 2


def test_an_interrupted_numbering_leaves_no_number_without_its_row():
    """`_Products.number` publishes a number only once its row is in, so a
    rep's shared products survive an interrupt (SIGALRM, Ctrl-C) between
    the two: the next matrices are numbered as in a fresh instance."""
    class Interrupted(list):
        armed = True

        def append(self, m):
            if self.armed:
                self.armed = False
                raise KeyboardInterrupt
            super().append(m)

    products = _Products(5)
    products.rows = Interrupted()
    with pytest.raises(KeyboardInterrupt):
        products.number(((1,),))
    assert products.number(((2,),)) == 0 and products.number(((1,),)) == 1
    assert products.rows == [((2,),), ((1,),)]


def _mixed_rows(m: int, n: int, seed: int) -> tuple:
    """An m x m matrix mod n, frozen, whose rows are each a unit row, a row
    of I - P, a zero row or a row of any entries, for one random
    permutation matrix P."""
    rng = random.Random(seed)
    perm = rng.sample(range(m), m)
    rows = []
    for i in range(m):
        unit = [int(j == perm[i]) for j in range(m)]
        rows.append(rng.choice([
            unit, [(int(i == j) - e) % n for j, e in enumerate(unit)], [0] * m,
            [rng.randrange(n) for _ in range(m)]]))
    return tuple(tuple(r[j] % n for j in range(m)) for r in rows)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(m=st.integers(1, 5), n=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
@example(m=1, n=7, seed=0)
@example(m=1, n=1, seed=0)
@example(m=4, n=9, seed=3)
def test_products_mul_is_mat_mul(m, n, seed):
    """`_Products.mul` is mat_mul mod n, on left factors mixing unit rows,
    rows of I - P, zero rows and any rows, and on the same pair again."""
    a, b = _mixed_rows(m, n, seed), _mixed_rows(m, n, seed + 1)
    products = _Products(n)
    i, j = products.number(a), products.number(b)
    for x, y in ((i, j), (j, i), (i, i), (i, j)):
        left, right = products.rows[x], products.rows[y]
        assert products.rows[products.mul(x, y)] == tuple(
            map(tuple, mat_mul(left, right, n)))


def test_regular_conj_rep_checks_once(monkeypatch):
    """make_conj_rep checks its rho exactly once; the GroupRep it is given
    is plain data and was never checked before."""
    from quandlekit import algebra
    check, calls = algebra.check_group_rep, []

    def counted(g):
        calls.append(g)
        return check(g)

    monkeypatch.setattr(algebra, "check_group_rep", counted)
    q8 = next(g for g in small_groups(8) if g.label == "Q8")
    rep = make_conj_rep(regular_group_rep(q8, make_conj(q8), list(range(8)),
                                          modulus=7))
    assert len(calls) == 1 and verify_relations(rep).passed
    bad = make_group_rep(make_dihedral(3), 5, [[[2]], [[2]], [[1]]])
    with pytest.raises(CheckFailed):
        make_conj_rep(bad)
    with pytest.raises(CheckFailed):
        make_conj_rep(bad)
    assert len(calls) == 3


def test_conj_rep_rejects_bad_group_rep():
    q = make_dihedral(3)
    # constant rho = diag(2) is not conjugation-consistent on R3
    rho = [[[2]], [[2]], [[1]]]
    g = make_group_rep(q, 5, rho)
    assert not check_group_rep(g).passed
    with pytest.raises(CheckFailed):
        make_conj_rep(g)


def _conj_tables(g):
    """make_conj_rep's tables for g, built without its check."""
    q, n = g.quandle, g.modulus
    eta = [[g.rho[y] for y in range(q.size)] for _ in range(q.size)]
    tau = [[mat_add(identity(g.dim), mat_scale(-1, g.rho[q.op(x, y)], n), n)
            for y in range(q.size)] for x in range(q.size)]
    return make_rep(q, n, eta, tau, check=False)


def _reference_group_rep_failures(g):
    """check_group_rep's rule with two products per (x, y) of the |X|^2
    scan; the first failure."""
    q, n = g.quandle, g.modulus
    for x in range(q.size):
        if not is_invertible_mod(g.rho[x], n):
            return [f"rho({x}) is not invertible mod {n}"]
    for x in range(q.size):
        for y in range(q.size):
            if mat_mul(g.rho[q.op(x, y)], g.rho[y], n) != mat_mul(g.rho[y], g.rho[x], n):
                return [f"rho({x}*{y}) != rho({y}) rho({x}) rho({y})^-1"]
    return []


def test_group_rep_check_is_equivalent_to_the_conj_relations():
    """make_conj_rep checks only rho: on its tables check_group_rep passes
    exactly when relations (1)-(4) hold, and it names the failure the plain
    |X|^2 scan names first."""
    cases = []
    for q in (make_dihedral(3), make_dihedral(4), make_trivial(2),
              make_alexander(5, 2)):
        for n in (4, 5):
            for values in itertools.product(range(n), repeat=q.size):
                cases.append(make_group_rep(q, n, [[[v]] for v in values]))
    rng = random.Random(18)
    s3 = next(g for g in small_groups(6) if g.label == "S3")
    for q in (make_dihedral(3), make_conj(s3)):
        for _ in range(150):
            cases.append(make_group_rep(q, 6, [
                [[rng.randrange(6) for _ in range(2)] for _ in range(2)]
                for _ in range(q.size)]))
    outcomes = set()
    for g in cases:
        report = check_group_rep(g)
        assert report.failures == _reference_group_rep_failures(g), g
        assert report.passed == verify_relations(_conj_tables(g)).passed, g
        outcomes.add(report.passed)
    assert outcomes == {True, False}


def test_wada_rep_rejects_inconsistent_rho():
    g = make_group_rep(make_dihedral(3), 5, [[[2]], [[2]], [[1]]])
    for variant in (1, 2, "core"):
        with pytest.raises(CheckFailed):
            make_wada_rep(g, variant)


def test_regular_rep_over_small_groups():
    for g in small_groups(8):
        q = make_conj(g)
        grep = regular_group_rep(g, q, list(range(g.size)), modulus=7)
        assert check_group_rep(grep).passed
        rep = make_conj_rep(grep)
        assert verify_relations(rep).passed


def _unshared(table):
    """The table with a fresh list for every cell: equal by value, sharing
    no matrix object."""
    return [[[list(r) for r in m] for m in row] for row in table]


def _assert_make_rep_agrees(rep):
    """make_rep on rep's own tables and on the same tables as fresh lists
    gives rep itself and the same verify_relations report, passing or, with
    tau[0][0] = I, failing."""
    broken = _unshared(rep.tau)
    broken[0][0] = identity(rep.dim)    # relation (4) fails at x = 0
    for tau, passed in ((rep.tau, True), (broken, False)):
        shared = make_rep(rep.quandle, rep.modulus, rep.eta, tau,
                          label=rep.label, check=False)
        fresh = make_rep(rep.quandle, rep.modulus, _unshared(rep.eta),
                         _unshared(tau), label=rep.label, check=False)
        assert fresh == shared
        if passed:
            assert fresh == rep
        report = verify_relations(fresh)
        assert report.passed is passed
        assert verify_relations(shared) == report


def test_alexander_rep_freezes_one_eta_and_one_tau():
    """Every cell of make_alexander_rep holds the one frozen t and the one
    frozen I - t, and every row of a table is one tuple object, over R2000
    too; make_rep agrees on the same tables as fresh lists."""
    big = make_alexander_rep(make_dihedral(2000), 7, 2)
    for table in (big.eta, big.tau):
        assert len(table) == 2000 and all(row is table[0] for row in table)
        assert len(table[0]) == 2000 and all(m is table[0][0] for m in table[0])
    assert (big.eta[0][0], big.tau[0][0]) == (((2,),), ((6,),))
    for rep in (make_alexander_rep(make_dihedral(7), 7, 2),
                make_alexander_rep(make_dihedral(3), 6, [[1, 1], [0, 1]]),
                make_alexander_rep(make_trivial(2), 5, 1)):
        assert all(m is rep.eta[0][0] for row in rep.eta for m in row)
        assert all(m is rep.tau[0][0] for row in rep.tau for m in row)
        _assert_make_rep_agrees(rep)


def test_conj_rep_shares_one_block_per_element():
    """make_conj_rep gives eta[x][y] = rho(y) and tau[x][y] = I - rho(x*y)
    mod N in every cell, for the regular conjugation reps of small_groups(8)
    and for conj-rep:perm3, with at most |X| distinct objects per table;
    every row of eta is the rep's own rho tuple.  make_rep agrees on the
    same tables as fresh lists."""
    reps = [make_conj_rep(regular_group_rep(g, make_conj(g), range(g.size), 7))
            for g in small_groups(8)]
    reps.append(load_rep("conj-rep:perm3"))
    for rep in reps:
        q, n, dim = rep.quandle, rep.modulus, rep.dim
        for x in range(q.size):
            for y in range(q.size):
                rho = rep.rho[q.op(x, y)]
                assert rep.tau[x][y] == tuple(
                    tuple((int(i == j) - rho[i][j]) % n for j in range(dim))
                    for i in range(dim))
                assert rep.eta[x][y] is rep.rho[y]
        assert all(row is rep.rho for row in rep.eta)
        for table in (rep.eta, rep.tau):
            assert len({id(m) for row in table for m in row}) <= q.size
        _assert_make_rep_agrees(rep)


def test_wada_conj_variants():
    for g in small_groups(8):
        for m in (1, 2):
            q = make_conj(g, power=m)
            grep = regular_group_rep(g, q, list(range(g.size)), modulus=5)
            rep = make_wada_rep(grep, m)
            assert verify_relations(rep).passed


def test_wada_core_variant():
    for g in small_groups(8):
        q = make_core(g)
        grep = regular_group_rep(g, q, list(range(g.size)), modulus=5)
        rep = make_wada_rep(grep, "core")
        assert verify_relations(rep).passed


def test_conjugation_type_is_read_from_the_tables():
    """rho is read from eta and tau alone: the regular conjugation rep of
    every group of order <= 8 mod 3, 5 and 7 gives back its GroupRep's rho,
    through make_conj_rep and through the m = 1 Wada tables make_rep
    freezes; the Alexander reps give rho = t and the trivial action I; and
    one cell of tau, or one row of eta, off the rule leaves no rho."""
    for g in small_groups(8):
        for n in (3, 5, 7):
            grep = regular_group_rep(g, make_conj(g), range(g.size), n)
            assert make_conj_rep(grep).rho == grep.rho
            wada = make_wada_rep(grep, 1)
            assert wada.is_conj_type and wada.rho == grep.rho
    r3 = make_dihedral(3)
    for t in (2, [[1, 1], [0, 1]]):
        rep = make_alexander_rep(r3, 5, t)
        assert rep.rho == (rep.eta[0][0],) * 3
    assert load_rep("trivial-action:4", quandle=r3).rho == (((1,),),) * 3
    perm3 = load_rep("conj-rep:perm3")
    tau = _unshared(perm3.tau)
    tau[0][1] = identity(3)
    eta = _unshared(perm3.eta)
    eta[2] = eta[2][1:] + eta[2][:1]
    for rep in (make_rep(r3, 3, perm3.eta, tau, check=False),
                make_rep(r3, 3, eta, perm3.tau, check=False)):
        assert not rep.is_conj_type and rep.rho is None
    assert make_rep(r3, 3, _unshared(perm3.eta), _unshared(perm3.tau)).rho == perm3.rho


def test_rep_documents_keep_rho():
    """A rep read back from its JSON document has the rho, or the None, of
    the rep written."""
    z3 = cyclic_group(3)
    d4 = next(g for g in small_groups(8) if g.label == "D4")
    reps = [load_rep("conj-rep:perm3"), load_rep("conj-rep:perm3:9"),
            make_alexander_rep(make_dihedral(5), 7, 3),
            load_rep("trivial-action:3", quandle=make_trivial(3)),
            make_conj_rep(regular_group_rep(d4, make_conj(d4), range(8), 7)),
            make_wada_rep(regular_group_rep(z3, make_core(z3), range(3), 5), "core")]
    for rep in reps:
        back = rep_from_doc(json.loads(json.dumps(rep_to_doc(rep))))
        assert (back.eta, back.tau) == (rep.eta, rep.tau)
        assert back.rho == rep.rho
    assert [rep.rho is None for rep in reps] == [False] * 5 + [True]


def test_wada_rejects_unknown_variant():
    g = permutation_rep_r3(3)
    with pytest.raises(InputError):
        make_wada_rep(g, "frobnicate")
    with pytest.raises(InputError):
        make_wada_rep(g, 0)


def test_make_rep_rejects_broken_tables():
    q = make_trivial(2)
    ident = identity(1)
    eta = [[ident, ident], [ident, ident]]
    tau = [[[[1]], [[0]]], [[[0]], [[0]]]]   # tau[0][0] breaks relation (4)
    with pytest.raises(CheckFailed):
        make_rep(q, 3, eta, tau)


def test_make_rep_refuses_modulus_below_one():
    """make_rep refuses a modulus below 1 with InputError, checked or not,
    as make_group_rep and make_alexander_rep do (`linalg._require_modulus`)."""
    q = make_dihedral(3)
    eta = [[identity(1)] * 3] * 3
    tau = [[[[0]]] * 3] * 3
    for modulus in (0, -5):
        for build in (lambda: make_rep(q, modulus, eta, tau),
                      lambda: make_rep(q, modulus, eta, tau, check=False),
                      lambda: make_group_rep(q, modulus, eta[0]),
                      lambda: make_alexander_rep(q, modulus, 1)):
            with pytest.raises(InputError, match="is not a positive integer$"):
                build()


def _reduced(rep) -> bool:
    """Every matrix of the rep, GroupRep or AlgebraRep, is a tuple of row
    tuples with entries in 0..N-1."""
    tables = (rep.eta, rep.tau) if isinstance(rep, AlgebraRep) else ()
    matrices = [m for table in tables for row in table for m in row]
    return all(type(m) is tuple and all(type(r) is tuple and all(
        0 <= e < rep.modulus for e in r) for r in m)
        for m in matrices + list(rep.rho or ()))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(n=st.integers(3, 9), seed=st.integers(0, 2 ** 16))
def test_every_constructor_reduces_mod_n(n, seed):
    """Every constructor gives entries in 0..N-1, with one object per
    distinct residue matrix from make_rep, and a rep built from matrices
    shifted by multiples of N, some entries negative, equals the rep built
    from their residues."""
    rng = random.Random(seed)

    def shifted(m):
        return [[e + n * rng.randint(-3, 3) for e in r] for r in m]

    q = make_dihedral(n)
    tables = [[[[rng.randrange(-3 * n, 3 * n) for _ in range(2)] for _ in range(2)]
               for _ in range(n)] for _ in range(2 * n)]
    rep = make_rep(q, n, tables[:n], tables[n:], check=False)
    cells = [m for table in (rep.eta, rep.tau) for row in table for m in row]
    assert _reduced(rep) and len({id(m) for m in cells}) == len(set(cells))
    assert _reduced(make_group_rep(q, n, tables[0]))
    t = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
    matrix_t = [[t, 1], [0, 1]]
    for given_t, residue in ((t + n * rng.randint(-3, 3), t),
                             (shifted(matrix_t), matrix_t)):
        alexander, expected = (make_alexander_rep(q, n, t) for t in (given_t, residue))
        assert _reduced(alexander)
        assert (alexander.eta, alexander.tau) == (expected.eta, expected.tau)
    reflections = [[[n - 1, 2 * x % n], [0, 1]] for x in range(n)]
    translations = [[[1, x], [0, 1]] for x in range(n)]
    for rho, build in ((reflections, make_conj_rep),
                       (reflections, lambda g: make_wada_rep(g, 1)),
                       (translations, lambda g: make_wada_rep(g, "core"))):
        g = make_group_rep(q, n, [shifted(m) for m in rho])
        assert _reduced(g)
        built = build(g)
        assert _reduced(built) and built == build(make_group_rep(q, n, rho))


def test_verify_relations_rejects_noninvertible_eta():
    """A singular eta is a failed report, not an exception; make_rep still
    refuses the tables."""
    q = make_trivial(1)
    rep = make_rep(q, 4, [[[[2]]]], [[[[0]]]], check=False)
    report = verify_relations(rep)
    assert not report.passed
    assert report.failures == ["eta[0][0] is not invertible mod 4"]
    with pytest.raises(CheckFailed):
        make_rep(q, 4, [[[[2]]]], [[[[0]]]])


@pytest.mark.parametrize("check", [False, True])
def test_make_rep_checks_the_shape_of_its_tables(check):
    """make_rep refuses, with or without `check`, tables that are not
    |X| x |X| tables of dim x dim matrices with dim >= 1."""
    one, r3 = make_trivial(1), make_dihedral(3)
    unit = [[[[1]]] * 3] * 3
    for q, eta, tau in (
            (one, [[[]]], [[[]]]),             # matrices with no rows
            (one, [[]], [[]]),                 # a row with no matrices
            (one, [[[[1]]]], [[[[0, 0]]]]),    # a 1 x 2 tau beside a 1 x 1 eta
            (one, [[[[1]]]], [[[[0]], [[0]]]]),
            (r3, unit[:2], unit[:2]),          # two rows on a 3-element quandle
            (r3, unit, unit[:2])):
        with pytest.raises(InputError, match="all square of one size >= 1"):
            make_rep(q, 5, eta, tau, check=check)
    rep = make_rep(r3, 5, unit, [[[[0]]] * 3] * 3, check=check)
    assert rep.dim == 1 and rep.rho == (((1,),),) * 3


def test_bar_elements_undo_crossing():
    """bar is exactly what makes the inverse crossing the inverse map:
    if c = eta a + tau b then a = eta_bar c + tau_bar b."""
    rep = make_conj_rep(permutation_rep_r3(3))
    q, n = rep.quandle, rep.modulus
    for x in range(3):
        for y in range(3):
            eta_bar, tau_bar = bar(rep, x, y)
            z = q.inv_op(x, y)
            # eta_bar eta[z][y] == I and eta_bar tau[z][y] + tau_bar == 0
            assert mat_mul(eta_bar, rep.eta[z][y], n) == identity(rep.dim)
            s = mat_add(mat_mul(eta_bar, rep.tau[z][y], n), tau_bar, n)
            assert all(all(v == 0 for v in row) for row in s)


def test_bar_matches_fresh_computation():
    """bar gives frozen matrices equal to the inverse computed afresh, for
    every (x, y), on R3 with perm3 and on R5 mod 5."""
    for rep in (make_conj_rep(permutation_rep_r3(3)),
                make_alexander_rep(make_dihedral(5), 5, 2)):
        q, n = rep.quandle, rep.modulus
        for x in range(q.size):
            for y in range(q.size):
                z = q.inv_op(x, y)
                eta_bar = mat_inv_mod(rep.eta[z][y], n)
                tau_bar = mat_scale(-1, mat_mul(eta_bar, rep.tau[z][y], n), n)
                pair = bar(rep, x, y)
                assert all(isinstance(m, tuple) and all(isinstance(r, tuple) for r in m)
                           for m in pair)
                assert [list(map(list, m)) for m in pair] == [eta_bar, tau_bar]


def test_relation_four_meaning():
    # tau[x][x] + eta[x][x] = I makes the extension operation idempotent:
    # eta a + tau a = a for every module element
    rep = make_alexander_rep(make_dihedral(3), 9, 2)
    n = rep.modulus
    for x in range(3):
        for a in ([1], [5], [8]):
            va = mat_vec(rep.eta[x][x], a, n)
            vb = mat_vec(rep.tau[x][x], a, n)
            assert [(p + q) % n for p, q in zip(va, vb)] == [v % n for v in a]
