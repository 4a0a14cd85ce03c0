import itertools
import random

import pytest

from quandlekit.algebra import (
    make_alexander_rep,
    make_conj_rep,
    make_wada_rep,
    permutation_rep_r3,
    regular_group_rep,
)
from quandlekit.errors import GuardExceeded, InputError
from quandlekit.groups import cyclic_group
from quandlekit.homology import (
    Cochain,
    ComplexConfig,
    boundary_matrix,
    coboundary,
    coboundary_matrix,
    cochain_to_vector,
    cocycle_space,
    cohomology,
    is_cocycle_2,
    is_cocycle_3,
    vector_to_cochain,
)
from quandlekit.linalg import mat_mul, mat_vec
from quandlekit.quandles import make_core, make_dihedral, make_trivial

random.seed(12)


def reps_for(q, modulus=3):
    out = [make_alexander_rep(q, modulus, 2)]
    if q.size == 3 and q.label.startswith("R"):
        out.append(make_conj_rep(permutation_rep_r3(modulus)))
    return out


def core_z3_wada_rep():
    """A rep whose eta and tau are not rho(y) and I - rho(x*y)."""
    z3 = cyclic_group(3)
    grep = regular_group_rep(z3, make_core(z3), list(range(3)), modulus=5,
                             check=False)
    return make_wada_rep(grep, "core")


def test_boundary_squares_to_zero():
    reps = [rep for q in (make_dihedral(3), make_dihedral(4), make_trivial(2))
            for rep in reps_for(q)]
    for rep in reps + [core_z3_wada_rep()]:
        for basepoint in (0, 1):
            cfg = ComplexConfig(rep=rep, variant="rack", basepoint=basepoint)
            for n in (0, 1, 2):
                b_low = boundary_matrix(cfg, n)
                b_high = boundary_matrix(cfg, n + 1)
                prod = mat_mul(b_low, b_high, rep.modulus)
                assert all(all(x == 0 for x in row) for row in prod), \
                    (rep.quandle.label, rep.label, basepoint, n)


def test_coboundary_squares_to_zero():
    rep = make_conj_rep(permutation_rep_r3(3))
    cfg = ComplexConfig(rep=rep)
    d1 = coboundary_matrix(cfg, 1)
    d2 = coboundary_matrix(cfg, 2)
    prod = mat_mul(d2, d1, 3)
    assert all(all(x == 0 for x in row) for row in prod)


def test_is_cocycle_2_matches_matrix_dual():
    """is_cocycle_2 agrees with the coboundary matrix applied to kappa."""
    rep = make_conj_rep(permutation_rep_r3(3))
    cfg = ComplexConfig(rep=rep, variant="rack")
    d2 = coboundary_matrix(cfg, 2)
    for _ in range(30):
        values = {}
        for key in itertools.product(range(3), repeat=2):
            v = [random.randrange(3) for _ in range(3)]
            if any(v):
                values[key] = v
        kappa = Cochain(2, 3, 3, values)
        vec = cochain_to_vector(cfg, kappa)
        matrix_says = not any(mat_vec(d2, vec, 3))
        assert is_cocycle_2(cfg, kappa) == matrix_says


def test_quandle_variant_requires_diagonal_zero():
    rep = make_alexander_rep(make_trivial(2), 2, 1)
    kappa = Cochain(2, 2, 1, {(0, 0): [1]})
    assert is_cocycle_2(ComplexConfig(rep=rep, variant="rack"), kappa)
    assert not is_cocycle_2(ComplexConfig(rep=rep, variant="quandle"), kappa)


def test_cocycle_space_matches_exhaustive_count():
    """(R3, trivial action): solver dimension vs brute force over all
    admissible cochains, p = 2 and p = 3."""
    q = make_dihedral(3)
    for p in (2, 3):
        rep = make_alexander_rep(q, p, 1)   # t=1: eta=I, tau=0
        cfg = ComplexConfig(rep=rep, variant="quandle")
        basis = cocycle_space(cfg, 2)
        offdiag = [(x, y) for x in range(3) for y in range(3) if x != y]
        count = 0
        for vals in itertools.product(range(p), repeat=len(offdiag)):
            values = {k: [v] for k, v in zip(offdiag, vals) if v}
            if is_cocycle_2(cfg, Cochain(2, p, 1, values)):
                count += 1
        assert p ** len(basis) == count


def test_cocycle_space_members_are_cocycles():
    rep = make_conj_rep(permutation_rep_r3(3))
    cfg = ComplexConfig(rep=rep, variant="quandle")
    for kappa in cocycle_space(cfg, 2):
        assert is_cocycle_2(cfg, kappa)
        assert kappa.is_degenerate_free()


def test_coboundaries_are_cocycles():
    rep = make_conj_rep(permutation_rep_r3(3))
    for variant in ("rack", "quandle"):
        cfg = ComplexConfig(rep=rep, variant=variant)
        for _ in range(10):
            phi = Cochain(1, 3, 3, {(x,): [random.randrange(3) for _ in range(3)]
                                    for x in range(3)})
            dphi = coboundary(cfg, phi)
            assert is_cocycle_2(ComplexConfig(rep=rep, variant="rack"), dphi)


def test_is_cocycle_3_matches_matrix_dual():
    for rep in (make_conj_rep(permutation_rep_r3(3)),
                make_alexander_rep(make_dihedral(3), 3, 2)):
        cfg = ComplexConfig(rep=rep, variant="rack")
        d3 = coboundary_matrix(cfg, 3)
        for _ in range(10):
            values = {}
            for key in itertools.product(range(3), repeat=3):
                v = [random.randrange(3) for _ in range(rep.dim)]
                if any(v):
                    values[key] = v
            kappa = Cochain(3, 3, rep.dim, values)
            vec = cochain_to_vector(cfg, kappa)
            matrix_says = not any(mat_vec(d3, vec, 3))
            assert is_cocycle_3(cfg, kappa) == matrix_says
        # and the members of the solver basis pass the check
        cfgq = ComplexConfig(rep=rep, variant="quandle")
        basis = cocycle_space(cfgq, 3)
        assert basis
        for kappa in basis[:5]:
            assert is_cocycle_3(cfgq, kappa)


def test_is_cocycle_3_accepts_coboundaries_of_wada_rep():
    """delta phi is a 3-cocycle for every 2-cochain phi, on a rep whose
    tables are not of the conjugation form."""
    rep = core_z3_wada_rep()
    cfg = ComplexConfig(rep=rep, variant="rack")
    for _ in range(5):
        phi = Cochain(2, 5, 3, {key: [random.randrange(5) for _ in range(3)]
                                for key in itertools.product(range(3), repeat=2)})
        dphi = coboundary(cfg, phi)
        assert dphi.values
        assert is_cocycle_3(cfg, dphi)


def test_vector_round_trip():
    rep = make_conj_rep(permutation_rep_r3(3))
    cfg = ComplexConfig(rep=rep)
    values = {(0, 1): [1, 2, 0], (2, 1): [0, 0, 1]}
    kappa = Cochain(2, 3, 3, values)
    vec = cochain_to_vector(cfg, kappa)
    back = vector_to_cochain(cfg, 2, vec)
    assert back.values == values


def test_cohomology_values():
    rep = make_conj_rep(permutation_rep_r3(3))
    assert cohomology(ComplexConfig(rep=rep, variant="quandle"), 2) == [3]
    arep = make_alexander_rep(make_dihedral(3), 3, 2)
    assert cohomology(ComplexConfig(rep=arep, variant="quandle"), 2) == [3, 3]


def test_cohomology_guards():
    rep = make_alexander_rep(make_dihedral(7), 3, 2)
    with pytest.raises(GuardExceeded):
        cohomology(ComplexConfig(rep=rep), 2)
    rep2 = make_alexander_rep(make_dihedral(3), 3, 2)
    with pytest.raises(GuardExceeded):
        cohomology(ComplexConfig(rep=rep2), 4)


def test_bad_variant_rejected():
    rep = make_alexander_rep(make_dihedral(3), 3, 2)
    with pytest.raises(InputError):
        ComplexConfig(rep=rep, variant="birack")
