import itertools
import math

import pytest

from quandlekit.errors import GuardExceeded, InputError, guarded
from quandlekit.groups import cyclic_group, dihedral_group, small_groups, symmetric_group
from quandlekit.quandles import (
    FiniteQuandle,
    generating_set,
    make_alexander,
    make_conj,
    make_core,
    make_dihedral,
    make_trivial,
    quandle_from_table,
    verify_axioms,
)


def test_dihedral_axioms():
    for n in range(2, 13):
        q = make_dihedral(n)
        assert verify_axioms([list(r) for r in q.table]).passed


def test_dihedral_operation():
    r5 = make_dihedral(5)
    # i*j = 2j - i mod 5
    assert r5.op(1, 3) == 0
    assert r5.op(4, 0) == 1


def test_trivial_quandle():
    t3 = make_trivial(3)
    for a in range(3):
        for b in range(3):
            assert t3.op(a, b) == a


def test_alexander_requires_unit():
    make_alexander(6, 5)
    with pytest.raises(InputError):
        make_alexander(6, 2)  # gcd(2,6) != 1, not a unit


def test_alexander_axioms_all_units():
    from math import gcd
    for n in range(2, 13):
        for t in range(1, n):
            if gcd(t, n) != 1:
                continue
            q = make_alexander(n, t)
            assert verify_axioms([list(r) for r in q.table]).passed


def test_conj_and_core_axioms():
    for g in small_groups(8):
        for power in (1, 2):
            q = make_conj(g, power=power)
            assert verify_axioms([list(r) for r in q.table]).passed
        assert verify_axioms([list(r) for r in make_core(g).table]).passed


def test_verify_axioms_catches_violations():
    # break idempotency
    bad = [[1, 1], [0, 0]]
    report = verify_axioms(bad)
    assert not report.passed
    assert any("axiom I" in f for f in report.failures)
    # break right-invertibility: column 0 is constant
    bad2 = [[0, 1, 2], [0, 0, 2], [0, 2, 1]]
    report2 = verify_axioms(bad2)
    assert not report2.passed


def test_verify_axioms_rejects_malformed():
    with pytest.raises(InputError):
        verify_axioms([[0, 1], [1]])
    with pytest.raises(InputError):
        verify_axioms([[0, 5], [1, 0]])
    for table in ([0, 1], 5, "ab", {0: [0]}, []):
        with pytest.raises(InputError, match="^a quandle table must be a non-empty "
                                             "list of rows$"):
            verify_axioms(table)


def test_greedy_generating_sets():
    """0 and 1 generate R_n for every n >= 2 (0*1 = 2, 1*0 = n - 1, and so
    on), and each element of a trivial quandle generates only itself."""
    for n in (*range(2, 14), 300, 600):
        assert generating_set(make_dihedral(n).table) == [0, 1]
    for n in (1, 2, 5, 40):
        assert generating_set(make_trivial(n).table) == list(range(n))
    assert generating_set([]) == [] and generating_set([[0]]) == [0]


def test_verify_axioms_guard_bounds_its_work():
    """The guard refuses the n^2 cells, then the |S| n^2 steps of axiom III
    on the generating set S, then, for a failing table, the n^3 steps of
    the full scan.  R9 has 81 cells and 2 generators; swapping two entries
    of a column keeps axiom II and breaks axiom III."""
    r9 = [list(r) for r in make_dihedral(9).table]
    with guarded(80), pytest.raises(GuardExceeded, match="81 table cells"):
        verify_axioms(r9)
    with guarded(161), pytest.raises(GuardExceeded,
                                     match="162 steps of axiom III on 2 generators"):
        verify_axioms(r9)
    with guarded(162):
        assert verify_axioms(r9).passed
    r9[1][0], r9[2][0] = r9[2][0], r9[1][0]
    with guarded(728), pytest.raises(GuardExceeded, match="729 steps"):
        verify_axioms(r9)
    with guarded(729):
        assert verify_axioms(r9).failures == [
            "axiom III fails at (a,b,c)=(0,1,0): (0*1)*0 != (0*0)*(1*0)"]
    t4 = [list(r) for r in make_trivial(4).table]
    with guarded(63), pytest.raises(GuardExceeded,
                                    match="64 steps of axiom III on 4 generators"):
        verify_axioms(t4)


def test_inv_op_is_inverse():
    q = make_dihedral(7)
    for a in range(7):
        for b in range(7):
            assert q.op(q.inv_op(a, b), b) == a
            assert q.inv_op(q.op(a, b), b) == a


def isomorphisms(q1, q2):
    """Every bijection phi with phi(a*b) == phi(a)*phi(b), by brute force."""
    n = q1.size
    return [phi for phi in itertools.permutations(range(n))
            if all(phi[q1.op(a, b)] == q2.op(phi[a], phi[b])
                   for a in range(n) for b in range(n))]


def test_dihedral_is_alexander_with_t_minus_one():
    # i*j = 2j - i is -i + 2j, so the tables agree element for element
    for n in range(2, 13):
        assert make_dihedral(n).table == make_alexander(n, n - 1).table


def test_non_isomorphic_same_size():
    assert isomorphisms(make_trivial(3), make_dihedral(3)) == []


def test_conj_subset_closure_check():
    s3 = symmetric_group(3)
    transpositions = [i for i in range(s3.size)
                      if s3.mul[i][i] == s3.identity and i != s3.identity]
    q = make_conj(s3, subset=transpositions)
    assert q.size == 3
    # conjugation of S3 transpositions behaves like R3
    assert isomorphisms(q, make_dihedral(3))
    three_cycle = next(i for i in range(s3.size)
                       if i != s3.identity and i not in transpositions)
    with pytest.raises(InputError):
        make_conj(s3, subset=[transpositions[0], three_cycle])


@pytest.mark.parametrize("subset", [[0, 99], [-1], [0, True], [1.0]])
def test_conj_subset_outside_the_group_is_refused(subset):
    """A subset element outside 0..|G|-1 is an input error, as it is for
    `regular_group_rep`, not an IndexError."""
    with pytest.raises(InputError, match=r"is not an element of the group of order 6$"):
        make_conj(symmetric_group(3), subset)


def test_core_of_cyclic_is_dihedral():
    for n in (3, 5, 7):
        assert make_core(cyclic_group(n)).table == make_dihedral(n).table


def test_quandle_from_table_rejects_bad():
    with pytest.raises(InputError):
        quandle_from_table([[1, 1], [0, 0]])  # idempotency fails
    with pytest.raises(InputError, match="non-empty list of rows$"):
        quandle_from_table([])


def test_frozen_table():
    q = make_dihedral(3)
    assert isinstance(q.table, tuple)
    assert isinstance(q.table[0], tuple)


def test_affine_gives_the_three_tables_and_labels():
    """`_affine(n, t, label)` is the one table of T_n, R_n and Alex(n, t):
    for n <= 30 and every unit t it gives the table and label that the three
    constructors' own comprehensions gave, kept here as the oracle, and the
    constructors return it."""
    from quandlekit.quandles import _affine

    def oracle_trivial(n):
        return FiniteQuandle(tuple(tuple(a for _ in range(n)) for a in range(n)),
                             label=f"T{n}")

    def oracle_dihedral(n):
        return FiniteQuandle(tuple(tuple((2 * j - i) % n for j in range(n))
                                   for i in range(n)), label=f"R{n}")

    def oracle_alexander(n, t):
        return FiniteQuandle(tuple(tuple((t * a + (1 - t) * b) % n for b in range(n))
                                   for a in range(n)), label=f"Alex({n},{t})")

    for n in range(1, 31):
        assert _affine(n, 1, f"T{n}") == make_trivial(n) == oracle_trivial(n)
        assert _affine(n, -1, f"R{n}") == make_dihedral(n) == oracle_dihedral(n)
        units = [t for t in range(-n, 2 * n) if math.gcd(t, n) == 1]
        assert units
        for t in units:
            assert (_affine(n, t, f"Alex({n},{t})") == make_alexander(n, t)
                    == oracle_alexander(n, t)), (n, t)
        for t in set(range(n)) - set(units):
            with pytest.raises(InputError, match=f"^t={t} is not a unit mod {n}$"):
                make_alexander(n, t)
    for make in (make_trivial, make_dihedral, lambda n: make_alexander(n, 1)):
        with pytest.raises(InputError, match="^quandle size must be positive$"):
            make(0)
