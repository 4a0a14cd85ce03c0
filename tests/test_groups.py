import pytest

from quandlekit.errors import InputError
from quandlekit.groups import (
    cyclic_group,
    dihedral_group,
    group_from_table,
    quaternion_group,
    small_groups,
    symmetric_group,
)


def check_group_axioms(g):
    n = g.size
    for a in range(n):
        assert g.mul[g.identity][a] == a
        assert g.mul[a][g.identity] == a
        assert g.mul[a][g.inv[a]] == g.identity
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert g.mul[g.mul[a][b]][c] == g.mul[a][g.mul[b][c]]


def test_small_groups_are_groups():
    gs = small_groups(8)
    assert len(gs) >= 10
    for g in gs:
        check_group_axioms(g)


def test_cyclic():
    z6 = cyclic_group(6)
    assert z6.mul[2][5] == 1
    assert z6.inv[4] == 2


def test_symmetric():
    s3 = symmetric_group(3)
    assert s3.size == 6
    check_group_axioms(s3)
    with pytest.raises(InputError):
        symmetric_group(6)


def test_dihedral_and_quaternion():
    d4 = dihedral_group(4)
    assert d4.size == 8
    check_group_axioms(d4)
    q8 = quaternion_group()
    assert q8.size == 8
    check_group_axioms(q8)
    # Q8 has a unique element of order 2
    order2 = [a for a in range(8) if a != q8.identity and q8.mul[a][a] == q8.identity]
    assert len(order2) == 1


def test_group_from_table_validates():
    with pytest.raises(InputError):
        group_from_table([[0, 1], [0, 1]])


def test_conjugacy_classes():
    s3 = symmetric_group(3)
    classes = s3.conjugacy_classes()
    assert sorted(len(c) for c in classes) == [1, 2, 3]


def test_quaternion_group_table_is_pinned():
    """Q8 from Hamilton's product on the unit quaternions 1, -1, i, -i, j,
    -j, k, -k is the table that the string-name products gave."""
    g = quaternion_group()
    assert g.mul == ((0, 1, 2, 3, 4, 5, 6, 7), (1, 0, 3, 2, 5, 4, 7, 6),
                     (2, 3, 1, 0, 6, 7, 5, 4), (3, 2, 0, 1, 7, 6, 4, 5),
                     (4, 5, 7, 6, 1, 0, 2, 3), (5, 4, 6, 7, 0, 1, 3, 2),
                     (6, 7, 4, 5, 3, 2, 1, 0), (7, 6, 5, 4, 2, 3, 0, 1))
    assert (g.inv, g.identity, g.label) == ((0, 1, 3, 2, 5, 4, 7, 6), 0, "Q8")
