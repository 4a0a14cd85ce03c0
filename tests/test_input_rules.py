"""Each validity rule of the inputs is tested in one function, so every
entry point refuses a faulty input with InputError in that rule's one
message form: a cochain's fit to its rep (`homology._require_module`), the
shape of a table of integer matrices (`algebra._freeze`) and the modulus
(`linalg._require_modulus`, met by `algebra._freeze` once the shape holds
and by every modular entry point of `linalg`).  Integers
are tested by type, so True, 1.5 and 5.0 are refused.  `io` only parses:
a cochain read from JSON meets the same rule, in the same form, as one
built in Python."""

import json
from functools import partial

import pytest

from quandlekit import io as qio
from quandlekit.algebra import (make_alexander_rep, make_conj_rep, make_group_rep,
                                make_rep, permutation_rep_r3, regular_group_rep)
from quandlekit.braids import braid_or_knot, colorings_of_closure
from quandlekit.errors import InputError
from quandlekit.fox import twisted_matrix, wirtinger_from_braid
from quandlekit.linalg import (cokernel_mod, is_invertible_mod, kernel_mod,
                               kernel_mod_p, mat_inv_mod)
from quandlekit.groups import FiniteGroup, cyclic_group
from quandlekit.homology import (Cochain, ComplexConfig, coboundary,
                                 is_cocycle_2, is_cocycle_3)
from quandlekit.invariants import (boltzmann_weight, cocycle_invariant,
                                   dynamical_extension)
from quandlekit.quandles import make_dihedral, make_trivial

REP = make_conj_rep(permutation_rep_r3(3))      # R3 acting on (Z_3)^3
TREFOIL = braid_or_knot("3_1")


def _json(kappa: Cochain, tmp_path) -> str:
    # the fields as they are, where cochain_to_doc would make each value a list
    path = tmp_path / "kappa.json"
    path.write_text(json.dumps({
        "degree": kappa.degree, "modulus": kappa.modulus, "dim": kappa.dim,
        "values": {",".join(map(str, k)): v for k, v in kappa.values.items()}}))
    return str(path)


# consumer name -> (the degree of the cochains it takes, whether it fixes
# that degree, a call on a cochain); load_cochain reads the cochain back
# from a JSON file and is asked for degree 2
CONSUMERS = {
    "coboundary": (2, False, lambda k, tmp: coboundary(ComplexConfig(rep=REP), k)),
    "is_cocycle_2": (2, True, lambda k, tmp: is_cocycle_2(ComplexConfig(rep=REP), k)),
    "is_cocycle_3": (3, True, lambda k, tmp: is_cocycle_3(ComplexConfig(rep=REP), k)),
    "cocycle_invariant": (2, True, lambda k, tmp: cocycle_invariant(REP, k, TREFOIL)),
    "cocycle_invariant unchecked": (
        2, True, lambda k, tmp: cocycle_invariant(REP, k, TREFOIL, check=False)),
    "boltzmann_weight": (2, True, lambda k, tmp: boltzmann_weight(
        REP, k, TREFOIL, colorings_of_closure(REP.quandle, TREFOIL)[0], 0)),
    "dynamical_extension": (2, True, lambda k, tmp: dynamical_extension(REP, k)),
    "load_cochain": (2, True, lambda k, tmp: qio.load_cochain(_json(k, tmp), REP, 2)),
}


def _faults(degree: int, fixed: bool):
    """(cochain, message) for each fault of a degree-`degree` cochain on REP.
    io.cochain_from_doc tests none of them but 'values' that are not an
    object, so a JSON document meets the rule with the same cochain and the
    same message."""
    key = (0, 1, 2)[:degree]
    out = [(Cochain(degree, 3, 3, {key: vec}),
            f"has the value {vec!r} at {key}, not a list of 3 integers")
           for vec in ([1], [1, 0, 0, 0], [1.5, 0, 0], [True, 0, 0], 5)]
    for bad in (key + (1,), key[:-1] + (7,), (-1,) + key[1:]):
        out.append((Cochain(degree, 3, 3, {bad: [1, 0, 0]}),
                    f"has the key {bad}, not a tuple of {degree} elements of 0..2"))
    out.append((Cochain(degree, 3.0, 3, {}),
                "takes values in (Z_3.0)^3, not in the rep's (Z_3)^3"))
    out.append((Cochain(degree, 3, 3, [[1, 0, 0]]),
                "has the values [[1, 0, 0]], not a dict of keys to values"))
    out.append((Cochain(-1, 3, 3, {}), f"is of degree -1, not a degree-{degree} "
                "cochain" if fixed else "is of degree -1, not of degree >= 0"))
    if fixed:
        other = 5 - degree
        out.append((Cochain(other, 3, 3, {(0, 1, 2)[:other]: [1, 0, 0]}),
                    f"is of degree {other}, not a degree-{degree} cochain"))
    return out


@pytest.mark.parametrize("name", CONSUMERS)
def test_every_cochain_consumer_refuses_a_misfit_in_one_form(name, tmp_path):
    """A short or long vector, a value that is not a list of ints (1.5, True
    or the int 5), a key of the wrong arity, outside 0..|X|-1 or negative,
    a modulus that is not an int, values that are not a dict, a negative
    degree, and the wrong degree where the consumer fixes one: each was a
    traceback, a silently wrong answer or another message before the rule
    had one home.  A cocycle that fits passes the same call first."""
    degree, fixed, call = CONSUMERS[name]
    call(Cochain(degree, 3, 3, {(0, 1, 2)[:degree]: [0, 0, 0]}), tmp_path)
    for kappa, fault in _faults(degree, fixed):
        if name == "load_cochain" and type(kappa.values) is not dict:
            continue    # JSON 'values' that are not an object are io's to refuse
        with pytest.raises(InputError) as err:
            call(kappa, tmp_path)
        assert str(err.value) == f"the cochain {fault}", (name, kappa)


def test_the_command_line_refuses_a_misfit_in_the_same_form(tmp_path, capsys):
    """A key outside R3 and a degree-1 cochain for `extend`: exit 2, one line."""
    from quandlekit.cli import main
    bad, k1 = tmp_path / "bad.json", tmp_path / "k1.json"
    bad.write_text('{"degree": 2, "modulus": 3, "dim": 3, "values": {"0,7": [1, 0, 0]}}')
    k1.write_text('{"degree": 1, "modulus": 3, "dim": 3, "values": {"0": [1, 0, 0]}}')
    rep = ["--quandle", "dihedral:3", "--rep", "conj-rep:perm3"]
    for argv, line in (
            (["check", "cocycle", str(bad)] + rep,
             "the cochain has the key (0, 7), not a tuple of 2 elements of 0..2"),
            (["extend"] + rep + ["--cocycle", str(k1)],
             "the cochain is of degree 1, not a degree-2 cochain")):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"input error: {line}\n")


R3, ONE = make_dihedral(3), make_trivial(1)
UNIT = [[[[1]]] * 3] * 3
PRES = wirtinger_from_braid(TREFOIL)    # three generators


def _shape(what: str, count: int) -> str:
    return f"{what} must be {count} integer matrices, all square of one size >= 1"


def _modulus(n) -> str:
    return f"modulus {n!r} is not a positive integer"


TABLES = _shape("3 x 3 tables eta and tau", 18)
RHO = _shape("rho, one per quandle element,", 3)
T = _shape("t, an integer or a matrix,", 1)
GENERATORS = _shape("rho, one per generator,", 3)
MODULUS = _modulus(0)


def _modulus_cases(call):
    """A good call mod 5, and the faults of a modulus of 0, 2.0 and 5.0."""
    return (partial(call, 5),
            [(f"modulus {n!r}", partial(call, n), _modulus(n)) for n in (0, 2.0, 5.0)])


# entry point -> (a call on good tables, [(fault, call, message), ...])
MATRIX_CASES = {
    "make_rep": (lambda: make_rep(R3, 5, UNIT, [[[[0]]] * 3] * 3), [
        ("no rows", lambda: make_rep(ONE, 5, [[[]]], [[[]]]),
         _shape("1 x 1 tables eta and tau", 2)),
        ("ragged", lambda: make_rep(R3, 5, [[[[1]]] * 3, [[[1]]] * 2, [[[1]]] * 4],
                                    UNIT), TABLES),
        ("non-square", lambda: make_rep(R3, 5, UNIT, [[[[0, 0]]] * 3] * 3), TABLES),
        ("wrong count", lambda: make_rep(R3, 5, UNIT, UNIT[:2]), TABLES),
        ("not matrices", lambda: make_rep(R3, 5, [[1] * 3] * 3, [[0] * 3] * 3),
         TABLES),
        ("not tables", lambda: make_rep(R3, 5, [1, 2, 3], 5), TABLES),
        ("a 2.0 entry", lambda: make_rep(R3, 5, [[[[2.0]]] * 3] * 3, UNIT), TABLES),
        ("a True entry", lambda: make_rep(R3, 5, UNIT, [[[[True]]] * 3] * 3), TABLES),
        ("modulus 0", lambda: make_rep(R3, 0, UNIT, UNIT, check=False), MODULUS),
        ("modulus 5.0", lambda: make_rep(R3, 5.0, UNIT, UNIT, check=False),
         _modulus(5.0))]),
    "make_group_rep": (lambda: make_group_rep(R3, 5, [[[1]]] * 3), [
        ("no rows", lambda: make_group_rep(R3, 5, [[]] * 3), RHO),
        ("ragged", lambda: make_group_rep(R3, 5, [[[1, 0], [0]]] * 3), RHO),
        ("non-square", lambda: make_group_rep(R3, 5, [[[1, 0]]] * 3), RHO),
        ("wrong count", lambda: make_group_rep(R3, 5, [[[1]]] * 2), RHO),
        ("not matrices", lambda: make_group_rep(R3, 5, [1, 2, 3]), RHO),
        ("a 2.0 entry", lambda: make_group_rep(R3, 5, [[[2.0]]] * 3), RHO),
        ("a True entry", lambda: make_group_rep(R3, 5, [[[True]]] * 3), RHO),
        ("modulus 0", lambda: make_group_rep(R3, 0, [[[1]]] * 3), MODULUS),
        ("modulus 5.0", lambda: make_group_rep(R3, 5.0, [[[1]]] * 3), _modulus(5.0))]),
    # the regular rep's matrices are square by construction
    "regular_group_rep": (lambda: regular_group_rep(cyclic_group(3), R3, [0] * 3, 5), [
        ("no rows", lambda: regular_group_rep(FiniteGroup(mul=()), ONE, [0], 5),
         _shape("rho, one per quandle element,", 1)),
        ("wrong count", lambda: regular_group_rep(cyclic_group(3), R3, [0, 1], 5), RHO),
        ("not an element", lambda: regular_group_rep(cyclic_group(3), R3, [0, 1, 5], 5),
         "5 is not an element of the group of order 3"),
        ("modulus 0", lambda: regular_group_rep(cyclic_group(3), R3, [0] * 3, 0),
         MODULUS),
        ("modulus 5.0", lambda: regular_group_rep(cyclic_group(3), R3, [0] * 3, 5.0),
         _modulus(5.0))]),
    # t is one matrix, so it has no count to get wrong
    "make_alexander_rep": (lambda: make_alexander_rep(R3, 5, [[2, 0], [0, 2]]), [
        ("no rows", lambda: make_alexander_rep(R3, 5, []), T),
        ("ragged", lambda: make_alexander_rep(R3, 5, [[1, 0], [1]]), T),
        ("non-square", lambda: make_alexander_rep(R3, 5, [[1, 0]]), T),
        ("not a matrix", lambda: make_alexander_rep(R3, 5, 2.0), T),
        ("a 2.0 entry", lambda: make_alexander_rep(R3, 5, [[2.0]]), T),
        ("a True entry", lambda: make_alexander_rep(R3, 5, [[True]]), T),
        ("t = True", lambda: make_alexander_rep(R3, 5, True), T),
        ("modulus 0", lambda: make_alexander_rep(R3, 0, 2), MODULUS),
        ("modulus 5.0", lambda: make_alexander_rep(R3, 5.0, 2), _modulus(5.0))]),
    "twisted_matrix": (lambda: twisted_matrix(PRES, [[[1]]] * 3, modulus=5), [
        ("no rows", lambda: twisted_matrix(PRES, [[]] * 3), GENERATORS),
        ("ragged", lambda: twisted_matrix(PRES, [[[1, 0], [0]]] * 3), GENERATORS),
        ("non-square", lambda: twisted_matrix(PRES, [[[1, 0]]] * 3), GENERATORS),
        ("wrong count", lambda: twisted_matrix(PRES, [[[1]]] * 4), GENERATORS),
        ("not matrices", lambda: twisted_matrix(PRES, [1, 2, 3]), GENERATORS),
        # over Z as well as mod N
        ("a 2.0 entry", lambda: twisted_matrix(PRES, [[[2.0]]] * 3), GENERATORS),
        ("a True entry", lambda: twisted_matrix(PRES, [[[True]]] * 3, modulus=5),
         GENERATORS),
        ("modulus 0", lambda: twisted_matrix(PRES, [[[1]]] * 3, modulus=0),
         MODULUS),
        ("modulus 5.0", lambda: twisted_matrix(PRES, [[[1]]] * 3, modulus=5.0),
         _modulus(5.0))]),
    # the modular entry points of linalg refuse the modulus before any entry
    # is reduced
    "kernel_mod": _modulus_cases(lambda n: kernel_mod([[1, 1]], n)),
    "kernel_mod_p": _modulus_cases(lambda n: kernel_mod_p([[1, 1]], n)),
    "cokernel_mod": _modulus_cases(lambda n: cokernel_mod([[2]], n)),
    "mat_inv_mod": _modulus_cases(lambda n: mat_inv_mod([[1]], n)),
    "is_invertible_mod": _modulus_cases(lambda n: is_invertible_mod([[1]], n)),
}


@pytest.mark.parametrize("name", MATRIX_CASES)
def test_every_matrix_table_entry_point_refuses_a_bad_shape_in_one_form(name):
    """No rows, a ragged table, non-square matrices, the wrong count, entries
    that are not matrices, a 2.0 or True entry, a t of True, and modulus 0,
    2.0 or 5.0: the shapes in `_freeze`'s one form, the modulus in
    `_require_modulus`'s, and a group element outside the group in
    `regular_group_rep`'s.  The same entry point takes good tables first."""
    good, faults = MATRIX_CASES[name]
    good()
    for fault, call, message in faults:
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == message, (name, fault)
