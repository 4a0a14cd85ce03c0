"""The one shape-and-freeze pass of matrix tables, `algebra._freeze`, and
the tau of a conjugation rep, `algebra._conj_tau`, against the direct forms
they replaced: a shape check over every matrix followed by one freeze per
matrix, and I - rho(x*y) formed entry by entry.  The frozen tables must be
equal, hold one object per distinct residue matrix, and be refused with
the same InputError text."""

import json
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import algebra
from quandlekit.algebra import make_conj_rep, make_group_rep, make_rep, regular_group_rep
from quandlekit.cli import main
from quandlekit.errors import InputError
from quandlekit.groups import small_groups
from quandlekit.io import rep_from_doc, rep_to_doc
from quandlekit.linalg import _require_modulus, identity, mat_sub
from quandlekit.quandles import make_conj, make_dihedral, make_trivial

QUANDLES = {1: make_trivial(1), 2: make_trivial(2), 3: make_dihedral(3)}
HAZARDS = ("none", "true", "float", "string entry", "ragged row", "string matrix",
           "wide matrix", "short table", "modulus")


def _reference_square_dim(mats, count: int, what: str) -> int:
    """The shape rule as it stood before the one-pass freeze: a generator
    over every matrix and row."""
    try:
        dim = len(mats[0]) if len(mats) else 0
        fits = dim and len(mats) == count and all(
            len(m) == dim and all(len(row) == dim for row in m) for m in mats
        ) and set(map(type, chain.from_iterable(chain.from_iterable(mats)))) == {int}
    except (TypeError, LookupError):
        fits = False
    if not fits:
        raise InputError(f"{what} must be {count} integer matrices, all square "
                         f"of one size >= 1")
    return dim


def _reference_freeze(m, n: int, frozen: dict) -> tuple:
    """One matrix frozen mod n, one object per residue matrix in `frozen`."""
    _require_modulus(n)
    key = tuple(map(tuple, m))
    if key not in frozen:
        out = key
        if not (0 <= min(map(min, key)) and max(map(max, key)) < n):
            out = tuple(tuple([e % n for e in r]) for r in key)
        frozen[key] = frozen.setdefault(out, out)
    return frozen[key]


def _reference_make_rep(q, n, eta, tau):
    """(dim, eta, tau) as make_rep froze them before the one-pass freeze."""
    size = q.size
    try:
        mats = [m for table in (eta, tau) if len(table) == size
                for row in table if len(row) == size for m in row]
    except TypeError:
        mats = []
    dim = _reference_square_dim(mats, 2 * size * size,
                                f"{size} x {size} tables eta and tau")
    frozen = {}
    return (dim,) + tuple(tuple(tuple(_reference_freeze(m, n, frozen) for m in row)
                                for row in table) for table in (eta, tau))


def _outcome(call):
    try:
        return call()
    except InputError as err:
        return str(err)


@st.composite
def _tables(draw):
    """(quandle, modulus, eta, tau, hazard): tables of fresh lists drawn
    from a small pool of matrices, so equal cells and cells equal mod N
    occur, with entries outside 0..N-1, and at most one hazard."""
    size = draw(st.sampled_from(sorted(QUANDLES)))
    n = draw(st.sampled_from([1, 2, 5, 7]))
    dim = draw(st.integers(1, 3))
    entry = st.integers(-2 * n, 2 * n)
    pool = draw(st.lists(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                                  min_size=dim, max_size=dim), min_size=1, max_size=4))
    cells = [[list(r) for r in draw(st.sampled_from(pool))]
             for _ in range(2 * size * size)]
    hazard = draw(st.sampled_from(HAZARDS))
    c = draw(st.integers(0, len(cells) - 1))
    i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    if hazard in ("true", "float"):
        # the cell's entry written as an equal bool or float, beside an
        # unchanged copy of the cell, so the two hash and compare equal
        other = draw(st.integers(0, len(cells) - 1).filter(lambda k: k != c))
        cells[other] = [list(r) for r in cells[c]]
        if hazard == "true":
            cells[c][i][j] = cells[c][i][j] % 2 == 1
            cells[other][i][j] = int(cells[c][i][j])
        else:
            cells[c][i][j] = float(cells[c][i][j])
    elif hazard == "string entry":
        cells[c][i][j] = str(cells[c][i][j])
    elif hazard == "ragged row":
        cells[c][i] = cells[c][i][:-1] if dim > 1 else cells[c][i] + [0]
    elif hazard == "string matrix":
        cells[c] = "1" * dim
    elif hazard == "wide matrix":
        cells[c] = [r + [0] for r in cells[c]]
    elif hazard == "modulus":
        n = draw(st.sampled_from([0, -3, True, 5.0, "5"]))
    eta = [cells[k * size:(k + 1) * size] for k in range(size)]
    tau = [cells[k * size:(k + 1) * size] for k in range(size, 2 * size)]
    if hazard == "short table":
        tau = tau[:-1] if size > 1 else [[]]
    return QUANDLES[size], n, eta, tau, hazard


def test_one_pass_freeze_matches_the_two_pass_rule():
    """make_rep's tables, and `_freeze` on a flat list of matrices with and
    without a modulus, against `_square_dim` then `_freeze` per matrix: an
    equal rep of int entries with one object per distinct residue matrix,
    or the same InputError text, on clean tables and on each hazard."""
    seen = set()

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(case=_tables())
    def check(case):
        q, n, eta, tau, hazard = case
        expected = _outcome(lambda: _reference_make_rep(q, n, eta, tau))
        got = _outcome(lambda: make_rep(q, n, eta, tau, check=False))
        if isinstance(expected, str):
            assert got == expected
            seen.add((hazard, "refused"))
        else:
            assert (got.dim, got.eta, got.tau) == expected
            cells = [m for table in (got.eta, got.tau) for row in table for m in row]
            assert len({id(m) for m in cells}) == len(set(cells))
            assert {type(e) for m in cells for r in m for e in r} == {int}
            seen.add((hazard, "frozen"))
        mats = [m for table in (eta, tau) for row in table for m in row]
        count = 2 * q.size * q.size
        for modulus in (n, None):
            def reference():
                dim = _reference_square_dim(mats, count, "the cells")
                frozen = {}
                return dim, tuple(tuple(map(tuple, m)) if modulus is None
                                  else _reference_freeze(m, modulus, frozen) for m in mats)
            assert (_outcome(lambda: algebra._freeze(mats, modulus, count, "the cells"))
                    == _outcome(reference))

    check()
    assert seen == {(h, "refused") for h in HAZARDS[1:]} | {("none", "frozen")}


def test_a_true_or_float_cell_beside_an_equal_int_cell_is_refused():
    """The dedupe meets only ints: [[True]] and [[1.0]] beside [[1]] are
    refused in the shape form, and in any order."""
    q = make_trivial(2)
    message = "2 x 2 tables eta and tau must be 8 integer matrices, all square of one size >= 1"
    for odd in ([[True]], [[1.0]]):
        for k in range(4):
            eta = [[[[1]], [[1]]], [[[1]], [[1]]]]
            eta[k // 2][k % 2] = odd
            with pytest.raises(InputError) as err:
                make_rep(q, 5, eta, [[[[0]], [[0]]], [[[0]], [[0]]]], check=False)
            assert str(err.value) == message


class _Unsized:
    """A matrix with no length, which must be refused before it is iterated
    (an endless iterator would never end)."""

    def __iter__(self):
        raise AssertionError("iterated")


def test_a_matrix_without_a_length_is_refused_unread():
    """Refused in the shape form, with the right count of matrices and with
    the wrong one."""
    q = make_trivial(2)
    for rho in ([[[1]], _Unsized()], [[[1]], _Unsized(), [[1]]]):
        with pytest.raises(InputError, match="^rho, one per quandle element, must be 2 "):
            make_group_rep(q, 5, rho)
    with pytest.raises(InputError, match="^2 x 2 tables eta and tau must be 8 "):
        make_rep(q, 5, [[[[1]], [[1]]], [[[1]], [[1]]]],
                 [[[[0]], [[0]]], [[[0]], _Unsized()]], check=False)


def _reference_conj_tau(rho, table, n):
    return tuple(tuple(tuple(map(tuple, mat_sub(identity(len(rho[0])), rho[z], n)))
                       for z in row) for row in table)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 5, 7, 8]), dim=st.integers(1, 3),
       size=st.sampled_from([1, 2, 3]))
def test_conj_tau_is_one_minus_rho(data, n, dim, size):
    """`_conj_tau(rho, table, n)` is I - rho(x*y) mod n in every cell, mod 1
    and with entries n - 1 too, with one object per distinct rho(z)."""
    q = QUANDLES[size]
    entry = st.sampled_from([0, n - 1]) | st.integers(0, n - 1)
    matrix = st.lists(st.lists(entry, min_size=dim, max_size=dim).map(tuple),
                      min_size=dim, max_size=dim).map(tuple)
    rho = data.draw(st.lists(matrix, min_size=size, max_size=size))
    tau = algebra._conj_tau(rho, q.table, n)
    assert tau == _reference_conj_tau(rho, q.table, n)
    cells = [m for row in tau for m in row]
    assert len({id(m) for m in cells}) == len(set(cells)) == len(set(rho))


def test_conj_tau_pins():
    """Mod 1 every tau is the zero matrix, and entries n - 1 on and off the
    diagonal give 2 and 1 mod n."""
    assert algebra._conj_tau([((0,),)], ((0,),), 1) == ((((0,),),),)
    rho = [((6, 6), (6, 0)), ((1, 0), (0, 1))]
    assert algebra._conj_tau(rho, ((0, 0), (1, 1)), 7) == (
        (((2, 1), (1, 1)), ((2, 1), (1, 1))), (((0, 0), (0, 0)), ((0, 0), (0, 0))))


def test_regular_conjugation_reps_round_trip_and_check(tmp_path, capsys):
    """Each regular conjugation rep of a group of order <= 8 mod 7 read back
    from its JSON document is the rep written, with the same rho, and passes
    `check rep`."""
    for g in small_groups(8):
        rep = make_conj_rep(regular_group_rep(g, make_conj(g), range(g.size), 7))
        text = json.dumps(rep_to_doc(rep), sort_keys=True)
        back = rep_from_doc(json.loads(text))
        assert back == rep and back.rho == rep.rho and back.rho is not None
        path = tmp_path / f"{g.label}.json"
        path.write_text(text)
        assert main(["check", "rep", str(path)]) == 0, g.label
        assert json.loads(capsys.readouterr().out)["passed"] is True
