import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.algebra import (
    make_alexander_rep,
    make_conj_rep,
    make_rep,
    make_wada_rep,
    permutation_rep_r3,
    regular_group_rep,
)
from quandlekit.errors import GuardExceeded, InputError, guarded
from quandlekit.groups import cyclic_group, symmetric_group
from quandlekit import homology
from quandlekit.homology import (
    Cochain,
    ComplexConfig,
    _assemble,
    _basis,
    _degenerate,
    _basis_size,
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
from quandlekit.linalg import (_ker_mod_im, _kernel_by_column, _probable_prime,
                               cokernel_mod, identity, int_kernel, ker_mod_im,
                               kernel_mod, mat_mul, mat_vec, quotient_invariant_factors)
from quandlekit.quandles import (make_alexander, make_conj, make_core, make_dihedral,
                                 make_trivial)

random.seed(12)


def reps_for(q, modulus=3):
    out = [make_alexander_rep(q, modulus, 2)]
    if q.size == 3 and q.label.startswith("R"):
        out.append(make_conj_rep(permutation_rep_r3(modulus)))
    return out


def core_z3_wada_rep():
    """A rep whose eta and tau are not rho(y) and I - rho(x*y)."""
    z3 = cyclic_group(3)
    grep = regular_group_rep(z3, make_core(z3), list(range(3)), modulus=5)
    return make_wada_rep(grep, "core")


def _reference_bracket(q, xs):
    acc = xs[0]
    for x in xs[1:]:
        acc = q.op(acc, x)
    return acc


def _reference_boundary_terms(cfg, t):
    """_boundary_terms as the formula in the module docstring reads, each
    bracket folded afresh by q.op."""
    rep, q = cfg.rep, cfg.rep.quandle
    if len(t) == 1:
        return [(-1, rep.tau[q.inv_op(t[0], cfg.basepoint)][cfg.basepoint], ())]
    sgn_outer = (-1) ** len(t)
    terms = []
    for i in range(2, len(t) + 1):  # 1-based position of the removed entry
        s = sgn_outer * ((-1) ** i)
        removed = t[:i - 1] + t[i:]
        eta = rep.eta[_reference_bracket(q, removed)][_reference_bracket(q, t[i - 1:])]
        terms.append((s, eta, removed))
        shifted = tuple(q.op(t[j], t[i - 1]) for j in range(i - 1)) + t[i:]
        terms.append((-s, None, shifted))
    tau = rep.tau[_reference_bracket(q, (t[0],) + t[2:])][_reference_bracket(q, t[1:])]
    terms.append((sgn_outer, tau, t[1:]))
    return terms


def _transpositions_of_s3():
    s3 = symmetric_group(3)
    return make_conj(s3, [e for e in range(s3.size)
                          if e != s3.identity and s3.mul[e][e] == s3.identity])


@pytest.mark.parametrize("quandle", [
    make_dihedral(3), make_dihedral(4), make_dihedral(5), make_trivial(3),
    make_alexander(5, 2), _transpositions_of_s3()], ids=lambda q: q.label)
def test_boundary_terms_match_the_bracket_formula(quandle):
    """_boundary_terms, which reads its brackets and shifted tuples from the
    quandle's table, gives the terms of the formula, in the same order, on
    every tuple of length 1-4, in both complexes and from every basepoint.
    Each eta and tau cell holds its own 1 x 1 block, so a block read from
    the wrong cell shows."""
    s = quandle.size
    rep = make_rep(quandle, 10 ** 6,
                   [[[[x * s + y + 1]] for y in range(s)] for x in range(s)],
                   [[[[s * s + x * s + y + 1]] for y in range(s)] for x in range(s)],
                   check=False)
    for variant in ("quandle", "rack"):
        for bp in range(s):
            cfg = ComplexConfig(rep=rep, basepoint=bp, variant=variant)
            for x in range(s):
                assert (homology._boundary_terms(cfg, (x,))
                        == _reference_boundary_terms(cfg, (x,)))
        cfg = ComplexConfig(rep=rep, variant=variant)
        for n in range(2, 5):
            for t in itertools.product(range(s), repeat=n):
                assert (homology._boundary_terms(cfg, t)
                        == _reference_boundary_terms(cfg, t)), t


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


def test_a_cochain_labelled_with_another_modulus_is_refused():
    """A cocycle's values labelled mod 5 on a rep mod 3 once passed
    is_cocycle_2, which read them mod 3; the checks and coboundary refuse a
    cochain outside the rep's module."""
    cfg = ComplexConfig(rep=make_conj_rep(permutation_rep_r3(3)))
    kappa = cocycle_space(cfg, 2)[0]
    assert is_cocycle_2(cfg, kappa)
    other = Cochain(2, 5, 3, kappa.values)
    for call in (is_cocycle_2, coboundary):
        with pytest.raises(InputError, match=r"^the cochain takes values in "
                                             r"\(Z_5\)\^3, not in the rep's \(Z_3\)\^3$"):
            call(cfg, other)


def test_a_cochain_of_another_dimension_is_refused():
    """A dimension-1 cochain on the dimension-3 conj-rep once made
    is_cocycle_2 die with an IndexError."""
    cfg = ComplexConfig(rep=make_conj_rep(permutation_rep_r3(3)))
    narrow = Cochain(2, 3, 1, {(0, 1): [1], (1, 2): [2]})
    for call in (is_cocycle_2, coboundary):
        with pytest.raises(InputError, match=r"\(Z_3\)\^1, not in the rep's \(Z_3\)\^3$"):
            call(cfg, narrow)
    with pytest.raises(InputError):
        is_cocycle_3(cfg, Cochain(3, 3, 1, {}))


def test_quandle_variant_requires_diagonal_zero():
    rep = make_alexander_rep(make_trivial(2), 2, 1)
    kappa = Cochain(2, 2, 1, {(0, 0): [1]})
    assert is_cocycle_2(ComplexConfig(rep=rep, variant="rack"), kappa)
    assert not is_cocycle_2(ComplexConfig(rep=rep, variant="quandle"), kappa)
    # a value that is zero mod N is no value
    kappa.values[(0, 0)] = [2]
    assert is_cocycle_2(ComplexConfig(rep=rep, variant="quandle"), kappa)


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


_DELTA_REPS = [make_alexander_rep(make_dihedral(3), 3, 2),
               make_alexander_rep(make_dihedral(4), 8, 3),
               make_alexander_rep(make_dihedral(3), 6, [[1, 1], [0, 1]]),
               make_conj_rep(permutation_rep_r3(3)),
               make_conj_rep(permutation_rep_r3(4)),
               core_z3_wada_rep()]


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(_DELTA_REPS), st.integers(1, 3), st.data())
def test_quandle_coboundary_is_the_rack_one_on_degenerate_free_cochains(
        rep, degree, data):
    """The degenerate tuples form a subcomplex, so the quandle complex's
    delta, which walks only its own tuples, equals the rack complex's delta
    on a degenerate-free cochain, and the rack one has no value on a
    degenerate tuple."""
    m, n = rep.dim, rep.modulus
    keys = [k for k in itertools.product(range(rep.quandle.size), repeat=degree)
            if not _degenerate(k)]
    vec = data.draw(st.lists(st.integers(0, n - 1), min_size=len(keys) * m,
                             max_size=len(keys) * m))
    kappa = Cochain(degree, n, m, {k: vec[i * m:(i + 1) * m]
                                   for i, k in enumerate(keys)
                                   if any(vec[i * m:(i + 1) * m])})
    rack = coboundary(ComplexConfig(rep=rep, variant="rack"), kappa)
    assert coboundary(ComplexConfig(rep=rep, variant="quandle"), kappa) == rack
    assert not any(_degenerate(k) for k in rack.values)


def _span_order(vectors, n, length):
    """|span| of vectors of `length` entries over Z_n: n^length over the
    order of the cokernel of the matrix whose columns they are."""
    cols = [list(r) for r in zip(*vectors)] if vectors else [[]] * length
    return n ** length // math.prod(cokernel_mod(cols, n))


def _same_span(a, b, n):
    """|span a| = |span b| = |span (a and b)|, so a and b span one group."""
    length = len(a[0]) if a else len(b[0]) if b else 0
    return (_span_order(a, n, length) == _span_order(b, n, length)
            == _span_order(a + b, n, length))


@pytest.mark.parametrize("variant", ["quandle", "rack"])
def test_sparse_delta_gives_what_the_dense_matrices_give(variant):
    """cohomology and cocycle_space hand delta's sparse rows to the
    elimination; the dense coboundary_matrix through the public ker_mod_im
    and kernel_mod gives the same, for degrees 0-3 over prime and composite
    moduli: the same cocycle generators over a prime, and over a composite
    N as many generators with the same span.  On trivial:1 the quandle
    complex has no tuples from degree 2 on, and trivial-action (eta = I,
    tau = 0) has delta^0 = 0."""
    trivial1 = make_alexander_rep(make_trivial(1), 5, 2)
    action = make_alexander_rep(make_dihedral(3), 5, 1)
    reps = _DELTA_REPS + [trivial1, make_alexander_rep(make_trivial(1), 6, 1),
                          action, make_alexander_rep(make_dihedral(4), 12, 1)]
    for rep in reps:
        cfg, n = ComplexConfig(rep=rep, variant=variant), rep.modulus
        for degree in range(4):
            where = (rep.quandle.label, rep.label, degree)
            up, down = _deltas(cfg, degree)
            assert cohomology(cfg, degree) == ker_mod_im(up, down, n), where
            if degree >= 2:
                gens = [cochain_to_vector(cfg, k) for k in cocycle_space(cfg, degree)]
                whole = kernel_mod(up, n)
                if _probable_prime(n):
                    assert gens == whole, where
                else:
                    assert len(gens) == len(whole), where
                    assert _same_span(gens, whole, n), where
    empty = coboundary_matrix(ComplexConfig(rep=trivial1, variant=variant), 2)
    assert (empty == []) == (variant == "quandle")
    zero = coboundary_matrix(ComplexConfig(rep=action, variant=variant), 0)
    assert len(zero) == 3 and not any(map(any, zero))


# R3-R7 (R4 and R6 disconnected), a non-latin Alexander quandle, and trivial:3,
# whose generating set is all of it
_RULE_QUANDLES = [make_dihedral(n) for n in range(3, 8)] + [make_alexander(8, 3),
                                                            make_trivial(3)]
# twisted reps of dimension 3 on R3, over prime and composite moduli
_RULE_TWISTED = [make_conj_rep(permutation_rep_r3(n)) for n in (3, 4, 6)] + [
    core_z3_wada_rep()]
# (config, degree) -> its cocycle_space, once the config's elimination checks
# pass: the property draws some configs many times, with other cochains
_RULE_COCYCLES: dict = {}


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_delta_has_its_kernel_at_the_tuples_ending_in_a_generating_set(data):
    """The generator rule of the homology module: delta^n has the kernel of
    its rows at the (n+1)-tuples whose last entry is in the greedy
    generating set.  So `cohomology` on those rows is ker_mod_im on all of
    them; over a prime, `cocycle_space` is the echelon basis of the whole
    delta; and the cocycle checks, which walk only those tuples, say what
    the whole coboundary says, on random cochains and on cocycles changed
    at one tuple.  Alexander-type reps of dimension 1 and 2 on every
    quandle (dimension 1 only on R7 and alexander:8:3), and the conj-rep
    perm3 and Core(Z3) Wada reps of dimension 3; both variants, every
    basepoint, degrees 0-3 and degree 4 on at most 4 elements."""
    if data.draw(st.integers(0, 3)):
        q = data.draw(st.sampled_from(_RULE_QUANDLES))
        n = data.draw(st.sampled_from((2, 3, 5, 7, 4, 6, 9, 12)))
        units = [1, n - 1] + [2] * (n % 2)
        if q.size <= 6:     # a 2x2 t on 7 or 8 elements takes seconds in degree 3
            units += [[[1, 1], [0, 1]], [[0, 1], [1, 1]]]
        rep = make_alexander_rep(q, n, data.draw(st.sampled_from(units)))
    else:
        rep = data.draw(st.sampled_from(_RULE_TWISTED))
    q, m, n = rep.quandle, rep.dim, rep.modulus
    cfg = ComplexConfig(rep=rep, variant=data.draw(st.sampled_from(("quandle", "rack"))),
                        basepoint=data.draw(st.integers(0, q.size - 1)))
    degree = data.draw(st.integers(0, 4 if q.size <= 4 else 3))
    where = (q.label, rep.label, n, cfg.variant, cfg.basepoint, degree)

    if (cfg, degree) not in _RULE_COCYCLES:
        down = _assemble(cfg, degree - 1) if degree else [{}] * m
        with mock.patch.multiple(homology, MAX_DEGREE=degree):
            assert cohomology(cfg, degree) == _ker_mod_im(
                _assemble(cfg, degree), down, n), where
        cocycles = cocycle_space(cfg, degree) if degree in (2, 3) else []
        if degree in (2, 3) and _probable_prime(n):
            cols = len(_basis(cfg, degree)) * m
            assert cocycles == [vector_to_cochain(cfg, degree, v) for v in
                                _kernel_by_column(_assemble(cfg, degree), cols, n)
                                if any(v)], where
        _RULE_COCYCLES[cfg, degree] = cocycles
    if degree not in (2, 3):
        return
    cocycles = _RULE_COCYCLES[cfg, degree]

    is_cocycle = is_cocycle_2 if degree == 2 else is_cocycle_3
    keys = list(_basis(cfg, degree))
    vectors = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    kappa = Cochain(degree, n, m, data.draw(st.dictionaries(
        st.sampled_from(keys), vectors, max_size=4)))
    assert is_cocycle(cfg, kappa) == (not coboundary(cfg, kappa).values), where
    vec = [0] * (len(keys) * m)
    for gen in cocycles:
        c = data.draw(st.integers(0, n - 1))
        vec = [(x + c * y) % n for x, y in zip(vec, cochain_to_vector(cfg, gen))]
    kappa = vector_to_cochain(cfg, degree, vec)
    assert is_cocycle(cfg, kappa) and not coboundary(cfg, kappa).values, where
    key = data.draw(st.sampled_from(keys))
    change = data.draw(vectors.filter(any))
    kappa.values[key] = [(x + y) % n for x, y in zip(kappa.value(key), change)]
    assert is_cocycle(cfg, kappa) == (not coboundary(cfg, kappa).values), where


def test_vector_round_trip():
    rep = make_conj_rep(permutation_rep_r3(3))
    cfg = ComplexConfig(rep=rep)
    values = {(0, 1): [1, 2, 0], (2, 1): [0, 0, 1]}
    kappa = Cochain(2, 3, 3, values)
    vec = cochain_to_vector(cfg, kappa)
    back = vector_to_cochain(cfg, 2, vec)
    assert back.values == values


def test_cochain_to_vector_refuses_values_outside_the_complex():
    """A quandle-complex cochain that is nonzero on a degenerate tuple has no
    vector; a value that is zero mod N there is no value at all."""
    rep = make_conj_rep(permutation_rep_r3(3))
    cfg = ComplexConfig(rep=rep)
    kappa = Cochain(2, 3, 3, {(0, 1): [1, 2, 0], (1, 1): [0, 2, 0]})
    with pytest.raises(InputError, match=r"\(1, 1\)"):
        cochain_to_vector(cfg, kappa)
    rack = ComplexConfig(rep=rep, variant="rack")
    assert vector_to_cochain(rack, 2, cochain_to_vector(rack, kappa)).values \
        == kappa.values
    kappa.values[(1, 1)] = [0, 3, 0]
    assert cochain_to_vector(cfg, kappa) == [1, 2, 0] + [0] * 15


def _sliced_reference(full, size, m, row_degree, col_degree):
    """The rows and columns of a rack-complex matrix at the tuples with no
    two equal neighbours, found by their lex index among all tuples: the
    slicing the quandle complex's matrices were once cut out by."""
    def coords(n):
        keys = itertools.product(range(size), repeat=n)
        return [idx * m + i for idx, key in enumerate(keys)
                if all(a != b for a, b in zip(key, key[1:])) for i in range(m)]
    return [[full[r][c] for c in coords(col_degree)] for r in coords(row_degree)]


def test_quandle_matrices_are_the_rack_matrices_without_degenerate_tuples():
    reps = [rep for q in (make_dihedral(3), make_dihedral(4), make_trivial(2))
            for rep in reps_for(q)]
    for rep in reps + [core_z3_wada_rep()]:
        size, m = rep.quandle.size, rep.dim
        for basepoint in (0, 1):
            rack = ComplexConfig(rep=rep, variant="rack", basepoint=basepoint)
            cfg = ComplexConfig(rep=rep, variant="quandle", basepoint=basepoint)
            for n in range(4):
                where = (rep.quandle.label, rep.label, basepoint, n)
                delta = coboundary_matrix(cfg, n)
                assert delta and delta == _sliced_reference(
                    coboundary_matrix(rack, n), size, m, n + 1, n), where
                assert boundary_matrix(cfg, n) == _sliced_reference(
                    boundary_matrix(rack, n), size, m, n, n + 1), where


def test_boundary_matrix_is_the_block_transpose_of_delta():
    """Each m x m block of delta moves to the transposed place and keeps its
    own orientation: the conjugation and Wada reps have blocks that are
    not symmetric, and boundary squares to zero with them transposed too."""
    for rep in (make_conj_rep(permutation_rep_r3(3)), core_z3_wada_rep()):
        m = rep.dim
        for variant in ("quandle", "rack"):
            cfg = ComplexConfig(rep=rep, variant=variant)
            for n in range(3):
                d = coboundary_matrix(cfg, n)
                assert boundary_matrix(cfg, n) == [
                    [d[s + i][c + j] for s in range(0, len(d), m) for j in range(m)]
                    for c in range(0, len(d[0]), m) for i in range(m)], (variant, n)


def test_cocycle_checks_guard_their_boundary_tuples():
    """is_cocycle_2 and is_cocycle_3 refuse more than the guard of the steps
    they walk, after the degree check: on R3, whose generating set is
    {0, 1}, 2 * 2^d tuples of the quandle complex, 2d + 1 boundary terms
    each, and 3^2 steps per term for conj-rep:perm3, which is 360 steps in
    degree 2 and 1008 in degree 3."""
    cfg = ComplexConfig(rep=make_conj_rep(permutation_rep_r3(3)))
    zero2, zero3 = Cochain(2, 3, 3, {}), Cochain(3, 3, 3, {})
    with guarded(360):
        assert is_cocycle_2(cfg, zero2)
    with guarded(1008):
        assert is_cocycle_3(cfg, zero3)
    with guarded(359), pytest.raises(
            GuardExceeded, match=r"^360 boundary-term steps of the cocycle check "
            r"\(degree 2: 5 terms of weight 9 on each tuple ending in 2 generators\) "
            "exceed the guard of 359$"):
        is_cocycle_2(cfg, zero2)
    with guarded(1007), pytest.raises(GuardExceeded, match="^1008 boundary-term steps"):
        is_cocycle_3(cfg, zero3)
    with guarded(0), pytest.raises(InputError, match="degree-3"):
        is_cocycle_3(cfg, zero2)


def test_basis_size_counts_the_basis():
    """The closed form that the coboundary-cells guard uses, s^n for the
    rack complex and s (s-1)^(n-1) for the quandle complex, is the number
    of tuples that _basis lists, for degrees 0-4 and sizes 1-5."""
    for q in (make_trivial(1), make_trivial(2), make_dihedral(3),
              make_alexander(4, 3), make_dihedral(5)):
        for variant in ("rack", "quandle"):
            cfg = ComplexConfig(rep=make_alexander_rep(q, 5, 2), variant=variant)
            for n in range(5):
                assert _basis_size(cfg, n) == len(_basis(cfg, n)), (q.label, variant, n)


def test_cohomology_values():
    rep = make_conj_rep(permutation_rep_r3(3))
    assert cohomology(ComplexConfig(rep=rep, variant="quandle"), 2) == [3]
    arep = make_alexander_rep(make_dihedral(3), 3, 2)
    assert cohomology(ComplexConfig(rep=arep, variant="quandle"), 2) == [3, 3]


def _rank_mod_p(rows, p):
    """Rank over F_p by plain row echelon reduction."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _delta_rank(cfg, degree):
    """(number of admissible degree-cochain coordinates, rank of delta on
    them), with delta of each basis cochain evaluated by coboundary()."""
    rep = cfg.rep

    def admissible(n):
        return [k for k in itertools.product(range(rep.quandle.size), repeat=n)
                if cfg.variant == "rack"
                or all(a != b for a, b in zip(k, k[1:]))]

    targets = admissible(degree + 1)
    images = []
    for key in admissible(degree):
        for i in range(rep.dim):
            unit = Cochain(degree, rep.modulus, rep.dim,
                           {key: [int(i == j) for j in range(rep.dim)]})
            dk = coboundary(cfg, unit)
            images.append([x for t in targets for x in dk.value(t)])
    return len(images), _rank_mod_p(images, rep.modulus)


@pytest.mark.parametrize("variant", ["quandle", "rack"])
@pytest.mark.parametrize("quandle", [make_trivial(1), make_dihedral(3)],
                         ids=["trivial1", "dihedral3"])
def test_cohomology_matches_kernel_and_image_counts(quandle, variant):
    """Over F_p, |H^n| = p^(dim ker delta^n - rank delta^(n-1)), counted from
    coboundary() of every basis cochain.  On trivial:1 the quandle variant
    has no admissible 2-tuples, so delta^1 = 0 and ker delta^1 is all of
    C^1; from degree 2 on there are no admissible cochains at all.  The
    rack degree-3 cases with p = 5 and 7 on dihedral:3 once ran for over
    100 s."""
    for p, t in ((3, 2), (5, 2), (7, 3)):
        cfg = ComplexConfig(rep=make_alexander_rep(quandle, p, t), variant=variant)
        prev_rank = 0
        for degree in range(4):
            d, rank = _delta_rank(cfg, degree)
            assert cohomology(cfg, degree) == [p] * (d - rank - prev_rank), \
                (p, degree)
            prev_rank = rank


def _deltas(cfg, degree):
    """delta^degree and delta^(degree-1) on the admissible cochains."""
    down = (coboundary_matrix(cfg, degree - 1) if degree
            else [[] for _ in range(cfg.rep.dim)])
    return coboundary_matrix(cfg, degree), down


def _lattice_cohomology(cfg, degree):
    """H^degree by the integer lattice route: ker(delta mod N) lifted to Z as
    the kernel of [delta | N*I], over im(delta^(degree-1)) + N*Z^d."""
    n = cfg.rep.modulus
    up, down = _deltas(cfg, degree)
    d = len(down)
    aug = [row + [n * (i == j) for j in range(len(up))] for i, row in enumerate(up)]
    lat = [vec[:d] for vec in int_kernel(aug)] if up else identity(d)
    rel = [[n * (i == j) for i in range(d)] for j in range(d)]
    return quotient_invariant_factors([list(c) for c in zip(*down)] + rel,
                                      lat + rel, d)


def _composite_cases():
    r3, r4 = make_dihedral(3), make_dihedral(4)
    yield make_alexander_rep(r4, 4, 3), "quandle", 2
    for n, t, degree in ((4, 3, 2), (4, 3, 3), (9, 2, 2), (25, 2, 2), (27, 2, 2)):
        yield make_alexander_rep(r3, n, t), "quandle", degree
    for t in ([[0, 1], [1, 1]], [[1, 1], [0, 1]]):
        for n in (4, 6, 9, 12):
            rep = make_alexander_rep(r3, n, t)
            for variant in ("quandle", "rack"):
                for degree in range(3):
                    yield rep, variant, degree
    for n in (6, 9):
        rep = make_conj_rep(permutation_rep_r3(n))
        for variant in ("quandle", "rack"):
            for degree in range(2):
                yield rep, variant, degree


def test_cohomology_agrees_with_lattice_route_on_composite_moduli():
    """Over Z/p^e and merged by CRT, as the integer lattice route over Z
    gives, on the composite-modulus cases that route finishes quickly."""
    for rep, variant, degree in _composite_cases():
        cfg = ComplexConfig(rep=rep, variant=variant)
        assert cohomology(cfg, degree) == _lattice_cohomology(cfg, degree), \
            (rep.label, variant, degree)


@pytest.mark.parametrize("variant", ["quandle", "rack"])
def test_cohomology_order_identity(variant):
    """|H^n| = |coker delta^n| |coker delta^(n-1)| / N^(rows of delta^n), with
    the cokernels from cokernel_mod; this reaches rack cases the lattice
    route does not finish, such as alexander-rep:6:5 in degree 2."""
    r3 = make_dihedral(3)
    reps = [make_alexander_rep(r3, n, t) for n, t in ((6, 5), (10, 3), (12, 5), (8, 3))]
    reps += [make_alexander_rep(r3, 6, [[1, 1], [0, 1]]),
             make_alexander_rep(r3, 10, [[2, 1], [1, 1]]),
             make_conj_rep(permutation_rep_r3(6))]
    for rep in reps:
        cfg = ComplexConfig(rep=rep, variant=variant)
        n = rep.modulus
        for degree in range(4):
            up, down = _deltas(cfg, degree)
            order = (math.prod(cokernel_mod(up, n)) * math.prod(cokernel_mod(down, n))
                     // n ** len(up))
            assert math.prod(cohomology(cfg, degree)) == order, \
                (rep.label, degree)
    if variant == "rack":
        cfg = ComplexConfig(rep=make_alexander_rep(r3, 6, 5), variant="rack")
        assert cohomology(cfg, 2) == [3, 6]


@pytest.mark.parametrize("variant", ["quandle", "rack"])
def test_cocycle_space_generates_the_cocycles_over_composite_moduli(variant):
    """Over Z_N with N composite every generator is a cocycle, and the group
    they span, of order N^len / |coker| as columns, has the order of
    ker(delta) from ker_mod_im."""
    r3 = make_dihedral(3)
    reps = [make_alexander_rep(r3, n, t) for n, t in ((9, 2), (4, 3), (6, 5), (12, 5))]
    reps += [make_conj_rep(permutation_rep_r3(4)), make_conj_rep(permutation_rep_r3(9)),
             make_alexander_rep(make_dihedral(4), 8, 3),
             make_alexander_rep(make_alexander(5, 2), 25, 2)]
    for rep in reps:
        for degree in (2, 3):
            cfg = ComplexConfig(rep=rep, variant=variant)
            gens = cocycle_space(cfg, degree)
            is_cocycle = is_cocycle_2 if degree == 2 else is_cocycle_3
            assert all(is_cocycle(cfg, k) for k in gens), (rep.label, degree)
            n, length = rep.modulus, len(_basis(cfg, degree)) * rep.dim
            cols = [cochain_to_vector(cfg, k) for k in gens]
            span = n ** length // math.prod(cokernel_mod(
                [list(r) for r in zip(*cols)] if cols else [[]] * length, n))
            block = coboundary_matrix(cfg, degree)
            kernel = math.prod(ker_mod_im(block, [[] for _ in block[0]], n))
            assert span == kernel > 1, (rep.label, degree)


def test_cohomology_guards():
    """The coboundary cells are the one bound, one step either side of the
    381,024 cells of R7's degree-3 delta; a degree outside 0-3 is an input
    error, and so are a degree or a basepoint that is not an int."""
    rep = make_alexander_rep(make_dihedral(7), 3, 2)
    with guarded(381023), pytest.raises(
            GuardExceeded, match="^381024 coboundary cells exceed the guard of 381023$"):
        cohomology(ComplexConfig(rep=rep), 3)
    with guarded(381024):
        assert cohomology(ComplexConfig(rep=rep), 3) == []
    rep2 = make_alexander_rep(make_dihedral(3), 3, 2)
    for degree in (4, -1, 2.0):
        with pytest.raises(InputError, match=f"^cohomology supports degrees 0 to 3, "
                                             f"got {degree}$"):
            cohomology(ComplexConfig(rep=rep2), degree)
    with pytest.raises(InputError, match="^cocycle_space supports degrees 2 and 3$"):
        cocycle_space(ComplexConfig(rep=rep2), 2.0)
    with pytest.raises(InputError, match="^basepoint out of range$"):
        ComplexConfig(rep=rep2, basepoint=1.0)


def test_cohomology_of_quandles_past_six_elements():
    """H^3 with trivial coefficients on quandles of more than 6 elements,
    bounded by the coboundary cells alone: H^3_Q(R7; Z7) = Z7 (Mochizuki,
    J. Pure Appl. Algebra 179, 2003), [7, 7] in the rack complex, and
    H^3_Q(R9; Z3) = Z3."""
    r7 = make_alexander_rep(make_dihedral(7), 7, 1)
    assert cohomology(ComplexConfig(rep=r7), 3) == [7]
    assert cohomology(ComplexConfig(rep=r7, variant="rack"), 3) == [7, 7]
    r9 = make_alexander_rep(make_dihedral(9), 3, 1)
    assert cohomology(ComplexConfig(rep=r9), 3) == [3]


# quandles of 2 to 5 elements, and composite moduli with two primes or one
_SPAN_QUANDLES = [make_dihedral(3), make_dihedral(4), make_dihedral(5),
                  make_alexander(5, 2), make_trivial(2), make_trivial(3)]


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(_SPAN_QUANDLES), st.sampled_from((4, 6, 8, 9, 12, 25)),
       st.sampled_from(("quandle", "rack")), st.integers(2, 3), st.data())
def test_cocycle_space_over_a_composite_modulus_has_the_whole_deltas_count_and_span(
        q, n, variant, degree, data):
    """Over a composite N, cocycle_space eliminates only delta's rows at the
    tuples ending in the generating set, and gives as many generators as
    the whole delta does, with the same span: Alexander-type reps of
    dimension 1, of dimension 2 on at most 4 elements, and conj-rep perm3
    on R3."""
    units = [t for t in range(1, n) if math.gcd(t, n) == 1]
    if q.size <= 4:
        units += [[[1, 1], [0, 1]], [[0, 1], [1, 1]]]
    if q.label == "R3" and data.draw(st.booleans()):
        rep = make_conj_rep(permutation_rep_r3(n))
    else:
        rep = make_alexander_rep(q, n, data.draw(st.sampled_from(units)))
    cfg = ComplexConfig(rep=rep, variant=variant)
    gens = [cochain_to_vector(cfg, k) for k in cocycle_space(cfg, degree)]
    whole = kernel_mod(coboundary_matrix(cfg, degree), n)
    assert len(gens) == len(whole)
    assert _same_span(gens, whole, n)


def test_bad_variant_rejected():
    rep = make_alexander_rep(make_dihedral(3), 3, 2)
    with pytest.raises(InputError):
        ComplexConfig(rep=rep, variant="birack")


def _orbits(q) -> int:
    """Orbits of X under its inner automorphisms x -> x * y, by union-find."""
    parent = list(range(q.size))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x in range(q.size):
        for y in range(q.size):
            parent[find(q.op(x, y))] = find(x)
    return len({find(x) for x in range(q.size)})


def _inner_order(q) -> int:
    """|Inn(X)|: the group that the right translations x -> x * y generate."""
    gens = [tuple(q.op(x, y) for x in range(q.size)) for y in range(q.size)]
    group, todo = {tuple(range(q.size))}, [tuple(range(q.size))]
    while todo:
        g = todo.pop()
        for s in gens:
            h = tuple(s[i] for i in g)
            if h not in group:
                group.add(h)
                todo.append(h)
    return len(group)


@pytest.mark.parametrize("quandle, n", [
    (make_dihedral(3), 5), (make_dihedral(3), 7), (make_dihedral(5), 3),
    (make_alexander(5, 2), 3), (make_trivial(2), 5), (make_dihedral(4), 3)])
def test_rack_cohomology_with_trivial_coefficients_etingof_grana(quandle, n):
    """Etingof and Grana (On rack cohomology, J. Pure Appl. Algebra 177,
    2003): when |Inn(X)| is a unit mod N, rack cohomology with trivial
    coefficients Z_N in degree d is (Z_N)^(|orbits|^d)."""
    assert math.gcd(_inner_order(quandle), n) == 1
    cfg = ComplexConfig(rep=make_alexander_rep(quandle, n, 1), variant="rack")
    orbits = _orbits(quandle)
    for d in range(4):
        assert cohomology(cfg, d) == [n] * orbits ** d, (quandle.label, n, d)


def test_rack_cohomology_of_r3_mod_3_exceeds_the_orbit_count():
    """|Inn(R3)| = 6 is not a unit mod 3, and H^3 of R3 with trivial Z_3
    coefficients has two factors where one orbit alone would give one."""
    q = make_dihedral(3)
    assert (_inner_order(q), _orbits(q)) == (6, 1)
    cfg = ComplexConfig(rep=make_alexander_rep(q, 3, 1), variant="rack")
    assert [cohomology(cfg, d) for d in range(4)] == [[3], [3], [3], [3, 3]]


def test_wada_rep_relation_check_is_held_to_the_guard():
    """make_wada_rep checks its tables within the guard: Core(Z3)'s 27
    relation triples, then 1053 steps of the relations on its 2 generators."""
    with guarded(26), pytest.raises(GuardExceeded,
                                    match="^27 relation triples exceed the guard of 26$"):
        core_z3_wada_rep()
    with guarded(1052), pytest.raises(
            GuardExceeded, match=r"^1053 steps of the relations at 2 of 3 elements z "
                                 r"\(3 distinct eta among 6 distinct 3 x 3 matrices\) "
                                 r"exceed the guard of 1052$"):
        core_z3_wada_rep()
    with guarded(1053):
        assert core_z3_wada_rep().dim == 3
