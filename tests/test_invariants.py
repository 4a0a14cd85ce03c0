import functools
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quandlekit import braids
from quandlekit.algebra import (
    AlgebraRep,
    bar,
    make_alexander_rep,
    make_conj_rep,
    make_group_rep,
    make_rep,
    make_wada_rep,
    permutation_rep_r3,
    regular_group_rep,
)
from quandlekit.braids import (BraidWord, braid_or_knot,
                               colored_matrix, colorings_of_closure,
                               crossing_blocks, crossing_data, diagram_two_chain,
                               markov_moves, parse_braid)
from quandlekit.errors import CheckFailed, GuardExceeded, InputError, guarded
from quandlekit.homology import (
    Cochain,
    ComplexConfig,
    coboundary,
    cocycle_space,
    is_cocycle_2,
)
from quandlekit.invariants import (
    InvariantMultiset,
    boltzmann_weight,
    cocycle_invariant,
    dynamical_extension,
    module_invariant,
    multiset_contained,
)
from quandlekit.groups import cyclic_group, dihedral_group, symmetric_group
from quandlekit.io import load_rep
from quandlekit.linalg import (cokernel_mod, identity, mat_add, mat_inv_mod,
                               mat_mul, mat_scale, mat_vec)
from quandlekit.quandles import (make_alexander, make_conj, make_core,
                                 make_dihedral, make_trivial)
from test_acceptance import chain_pairings_match
from test_braids import _braid_words
from test_check_references import _GENERATOR_RULE_REPS

random.seed(31)


def nontrivial_kappa():
    """A fixed nonzero quandle 2-cocycle over (R3, perm rep mod 3)."""
    rep = make_conj_rep(permutation_rep_r3(3))
    cfg = ComplexConfig(rep=rep, variant="quandle")
    basis = cocycle_space(cfg, 2)
    values: dict = {}
    for w_, b in zip((1, 2, 1, 0, 2, 1, 1), basis):
        for key, v in b.values.items():
            cur = values.get(key, [0, 0, 0])
            nxt = [(a + w_ * c) % 3 for a, c in zip(cur, v)]
            if any(nxt):
                values[key] = nxt
            else:
                values.pop(key, None)
    return rep, Cochain(2, 3, 3, values)


def test_module_invariant_burau_oracle():
    """T1 colorings are trivial, so the module invariant is the cokernel of
    the unreduced Burau matrix at t=2 minus I; the trefoil gives Z/5."""
    t1 = make_trivial(1)
    rep = make_alexander_rep(t1, 5, 2)
    inv = module_invariant(rep, braid_or_knot("3_1"))
    assert inv.entries == ((5,),)


def test_module_invariant_regular_d4_mod_7():
    """The Conj(D4) regular rep mod 7 gives 24x24 colored matrices whose
    cokernels integer SNF of [M | 7I] could not finish; at the coloring
    (3, 3, 1) the cokernel is twelve copies of Z_7 (checked with sympy)."""
    d4 = dihedral_group(4)
    rep = make_conj_rep(regular_group_rep(d4, make_conj(d4), range(8), modulus=7))
    w = braid_or_knot("k=3; -1 2 2 2 2 -1")
    inv = module_invariant(rep, w)
    assert len(inv.entries) == 320
    m = colored_matrix(rep, w, (3, 3, 1))
    for i in range(len(m)):
        m[i][i] = (m[i][i] - 1) % 7
    assert cokernel_mod(m, 7) == [7] * 12
    assert (7,) * 12 in inv.entries


def test_module_invariant_markov():
    r3 = make_dihedral(3)
    reps = [make_alexander_rep(r3, 3, 2), make_conj_rep(permutation_rep_r3(3))]
    for rep in reps:
        for name in ("3_1", "4_1"):
            w = braid_or_knot(name)
            base = module_invariant(rep, w).entries
            for v in markov_moves(w):
                assert module_invariant(rep, v).entries == base


def test_module_invariant_distinguishes():
    r3 = make_dihedral(3)
    rep = make_conj_rep(permutation_rep_r3(3))
    a = module_invariant(rep, braid_or_knot("3_1")).entries
    b = module_invariant(rep, braid_or_knot("4_1")).entries
    assert a != b


def _reference_walk(rep, w, coloring):
    """(sign, p, u, v, colors right of p + 1) per letter, the crossing rule
    written out afresh: sigma_i sends (u, v) to (v, u*v), its inverse sends
    (u, v) to (v bar* u, u)."""
    q = rep.quandle
    cur = list(coloring)
    for e in w.letters:
        p = abs(e) - 1
        u, v = cur[p], cur[p + 1]
        yield e, p, u, v, tuple(cur[p + 2:])
        cur[p], cur[p + 1] = (v, q.op(u, v)) if e > 0 else (q.inv_op(v, u), u)


def _freeze(m):
    return tuple(map(tuple, m))


def _reference_matrices(rep, w):
    """M(w, C) - I for every closure coloring C, with no sharing: the
    colored matrix from the rep's tables and the bar inverse computed
    afresh (it must equal colored_matrix), as sorted frozen matrices."""
    q, N, m = rep.quandle, rep.modulus, rep.dim
    out = []
    for coloring in colorings_of_closure(q, w):
        mat = identity(w.strands * m)
        for e, p, u, v, _ in _reference_walk(rep, w, coloring):
            low, high = mat[p * m:(p + 1) * m], mat[(p + 1) * m:(p + 2) * m]
            if e > 0:
                new = mat_add(mat_mul(rep.eta[u][v], low, N),
                              mat_mul(rep.tau[u][v], high, N), N)
                mat[p * m:(p + 2) * m] = high + new
            else:
                z = q.inv_op(v, u)
                eta_bar = mat_inv_mod(rep.eta[z][u], N)
                tau_bar = mat_scale(-1, mat_mul(eta_bar, rep.tau[z][u], N), N)
                new = mat_add(mat_mul(eta_bar, high, N), mat_mul(tau_bar, low, N), N)
                mat[p * m:(p + 2) * m] = new + low
        assert colored_matrix(rep, w, coloring) == mat, (w, coloring)
        for i in range(len(mat)):
            mat[i][i] = (mat[i][i] - 1) % N
        out.append(_freeze(mat))
    return sorted(out)


_ORACLE_REPS = [make_conj_rep(permutation_rep_r3(3)),
                make_alexander_rep(make_dihedral(5), 5, 2)]


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(rep=st.sampled_from(_ORACLE_REPS), w=_braid_words(4, 10))
def test_colored_matrix_matches_the_reference(rep, w):
    """colored_matrix, which walks its row blocks by `_burau_rows` with one
    step for both signs, equals the crossing rule written out afresh at
    every closure coloring of every Markov variant, for conj-rep:perm3 and
    an Alexander-type rep on R5."""
    for v in [w, *markov_moves(w)]:
        _reference_matrices(rep, v)     # asserts colored_matrix per coloring


@pytest.mark.parametrize("rep", _ORACLE_REPS + _GENERATOR_RULE_REPS,
                         ids=lambda rep: rep.label)
def test_each_negative_pair_is_bar_of_its_crossing(rep):
    """Every negative pair that crossing_blocks numbers, over every source
    pair (x, y), is bar(rep, x*y, y): the block pair of (x, y) inverted,
    as (x*y) bar* y = x.  sigma_1^-1 on (u, v) has the source pair
    (v bar* u, u), so the words below meet every (x, y)."""
    q, n = rep.quandle, rep.modulus
    for u, v in itertools.product(range(q.size), repeat=2):
        crossing_blocks(rep, BraidWord(2, (-1,)), (u, v))
    cells, _, pairs = rep._crossing_blocks
    negative = {(x, y): i for (positive, x, y), i in cells.items() if not positive}
    assert len(negative) == q.size ** 2
    for (x, y), i in negative.items():
        eta_bar, tau_bar = pairs[i]
        assert pairs[i] == bar(rep, q.op(x, y), y)
        assert mat_mul(eta_bar, rep.eta[x][y], n) == identity(rep.dim)
        assert mat_add(mat_mul(eta_bar, rep.tau[x][y], n), tau_bar, n) == [
            [0] * rep.dim] * rep.dim


def _index_loop_two_chain(rep, w, coloring):
    """diagram_two_chain by an index loop over the entries of each
    crossing's eps * path action."""
    N, m = rep.modulus, rep.dim
    chain: dict = {}
    for eps, path, x, y in crossing_data(rep, w, coloring):
        acc = chain.setdefault((x, y), [[0] * m for _ in range(m)])
        for i in range(m):
            for j in range(m):
                acc[i][j] = (acc[i][j] + eps * path[i][j]) % N
    return {k: v for k, v in chain.items() if any(any(row) for row in v)}


_CONJ_TYPE_REPS = [rep for rep in _ORACLE_REPS + _GENERATOR_RULE_REPS
                   if rep.is_conj_type]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(rep=st.sampled_from(_CONJ_TYPE_REPS), w=_braid_words(4, 8))
def test_diagram_two_chain_matches_the_index_loop(rep, w):
    """diagram_two_chain, summed with mat_scale and mat_add, equals the
    entry-by-entry loop at every closure coloring, zero entries dropped."""
    for coloring in colorings_of_closure(rep.quandle, w):
        assert diagram_two_chain(rep, w, coloring) == _index_loop_two_chain(
            rep, w, coloring), coloring


def _reference_cocycle(rep, kappa, w):
    """cocycle_invariant's entries with every path action
    rho(c_(k-1)) ... rho(c_(p+2)) multiplied afresh."""
    q, N = rep.quandle, rep.modulus
    entries = []
    for coloring in colorings_of_closure(q, w):
        total = [0] * rep.dim
        for e, p, u, v, right in _reference_walk(rep, w, coloring):
            path = identity(rep.dim)
            for c in reversed(right):
                path = mat_mul(path, rep.rho[c], N)
            key = (u, v) if e > 0 else (q.inv_op(v, u), u)
            vec = mat_vec(path, kappa.value(key), N)
            total = [(t + (1 if e > 0 else -1) * x) % N for t, x in zip(total, vec)]
        entries.append(tuple(total))
    return tuple(sorted(entries))


def _random_braids(rng, count, max_strands):
    return [BraidWord(k, tuple(rng.choice((1, -1)) * rng.randint(1, k - 1)
                               for _ in range(rng.randint(1, 12))))
            for k in (rng.randint(2, max_strands) for _ in range(count))]


def test_shared_invariants_match_the_per_coloring_reference(monkeypatch):
    """module_invariant, which builds one matrix and cokernel per distinct
    coefficient sequence, and cocycle_invariant, which shares path actions
    between colorings, equal the per-coloring references on random braids
    (k <= 5, at most 12 letters; k <= 3 for the 8-dimensional D4 rep and
    k <= 4 for perm3 mod 9).  With the cokernel swapped for the matrix
    itself, module_invariant must list each coloring's own M - I, so a
    sequence that two different matrices share cannot hide behind equal
    cokernels.  The references hold for any 2-cochain, so kappa is random
    and unchecked; the perm3 rep also runs the checked cocycle of
    nontrivial_kappa, and over Z_9, a composite modulus, the signed sums
    must reduce mod 9.  The regular D4 rep mod 7 and the core-Z3 Wada rep
    have non-constant tables, so their colorings share few sequences.  The
    cocycle part runs on every rep of conjugation type, the Alexander reps
    (rho = t) included, and skips the core Wada rep, whose eta depends on x,
    so it has no rho."""
    from quandlekit import invariants
    rng = random.Random(16)
    d4 = dihedral_group(4)
    z3 = cyclic_group(3)
    wada = make_wada_rep(regular_group_rep(z3, make_core(z3), range(3), modulus=5),
                         "core")
    perm3 = make_conj_rep(permutation_rep_r3(3))
    cases = [(make_alexander_rep(make_dihedral(3), 3, 2), 5, 12),
             (make_alexander_rep(make_dihedral(5), 5, 2), 5, 8),
             (make_alexander_rep(make_alexander(5, 2), 5, 2), 5, 8),
             (perm3, 5, 12), (wada, 5, 12),
             (make_conj_rep(regular_group_rep(d4, make_conj(d4), range(8),
                                              modulus=7)), 3, 6),
             (make_conj_rep(permutation_rep_r3(9)), 4, 8)]
    for rep, max_strands, count in cases:
        n, size = rep.modulus, rep.quandle.size
        for w in _random_braids(rng, count, max_strands):
            mats = _reference_matrices(rep, w)
            want = tuple(sorted(tuple(cokernel_mod(m, n)) for m in mats))
            assert module_invariant(rep, w).entries == want, w
            with monkeypatch.context() as patch:
                patch.setattr(invariants, "cokernel_mod", lambda m, _: [_freeze(m)])
                assert module_invariant(rep, w).entries == tuple((m,) for m in mats)
            if not rep.is_conj_type:
                continue
            kappa = Cochain(2, n, rep.dim, {
                (x, y): [rng.randrange(n) for _ in range(rep.dim)]
                for x in range(size) for y in range(size)})
            assert (cocycle_invariant(rep, kappa, w, check=False).entries
                    == _reference_cocycle(rep, kappa, w)), w
    rep, kappa = nontrivial_kappa()
    assert perm3 == rep
    for w in _random_braids(rng, 8, 4):
        assert cocycle_invariant(rep, kappa, w).entries == _reference_cocycle(rep, kappa, w)


def _json_conj_rep_s3():
    """The regular conjugation rep of S3 mod 5, read back from its JSON
    document, so its tables are those of a file, not of make_conj_rep."""
    import json

    from quandlekit.groups import small_groups
    from quandlekit.io import rep_from_doc, rep_to_doc
    s3 = next(g for g in small_groups(6) if g.label == "S3")
    rep = make_conj_rep(regular_group_rep(s3, make_conj(s3), range(6), 5))
    return rep_from_doc(json.loads(json.dumps(rep_to_doc(rep))))


# (rep, most strands): conj-rep:perm3 mod 3 and mod 9, Alexander reps, the
# trivial action, and a JSON conjugation rep of S3
_STATE_SUM_CASES = [(make_conj_rep(permutation_rep_r3(3)), 4),
                    (make_conj_rep(permutation_rep_r3(9)), 4),
                    (make_alexander_rep(make_dihedral(5), 5, 2), 4),
                    (make_alexander_rep(make_alexander(5, 2), 5, 3), 4),
                    (make_alexander_rep(make_dihedral(3), 3, [[2, 1], [0, 2]]), 4),
                    (make_alexander_rep(make_dihedral(3), 3, 1), 4),
                    (make_alexander_rep(make_trivial(2), 2, 1), 5),
                    (_json_conj_rep_s3(), 3)]


@functools.lru_cache(maxsize=None)
def _state_sum_cocycles(i: int):
    rep = _STATE_SUM_CASES[i][0]
    return tuple(cocycle_space(ComplexConfig(rep=rep, variant="quandle"), 2))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(case=st.integers(0, len(_STATE_SUM_CASES) - 1).flatmap(
           lambda i: st.tuples(st.just(i), _braid_words(_STATE_SUM_CASES[i][1], 8))),
       seed=st.integers(0, 2 ** 16), cocycle=st.booleans())
@example(case=(0, BraidWord(3, ())), seed=0, cocycle=False)
@example(case=(0, BraidWord(1, ())), seed=1, cocycle=True)
@example(case=(1, parse_braid("k=3; 1 1 2 2 -1")), seed=2, cocycle=False)
@example(case=(7, parse_braid("k=2; 1 1")), seed=3, cocycle=False)
def test_the_column_walk_is_the_per_coloring_reference(case, seed, cocycle):
    """cocycle_invariant, which walks every coloring at once in columns,
    equals the per-coloring reference, and crossing_data, a walk of one
    coloring's column, equals the reference records at every coloring.  The
    braids are random words, the empty word, one strand and links; kappa
    is a random cochain under check=False, a non-cocycle in general, or a
    seeded sum of cocycle generators under the check.  The reps are shared
    by the examples, so each keeps the cochain of the example before."""
    i, w = case
    rep, _ = _STATE_SUM_CASES[i]
    q, n, m = rep.quandle, rep.modulus, rep.dim
    rng = random.Random(seed)
    if cocycle:
        values: dict = {}
        for gen in _state_sum_cocycles(i):
            c = rng.randrange(n)
            for key, v in gen.values.items():
                values[key] = [(a + c * b) % n for a, b in
                               zip(values.get(key, [0] * m), v)]
        kappa = Cochain(2, n, m, values)
    else:
        kappa = Cochain(2, n, m, {(x, y): [rng.randrange(n) for _ in range(m)]
                                  for x in range(q.size) for y in range(q.size)
                                  if rng.random() < 0.7})
    entries = cocycle_invariant(rep, kappa, w, check=cocycle).entries
    assert entries == _reference_cocycle(rep, kappa, w)
    for coloring in colorings_of_closure(q, w):
        assert crossing_data(rep, w, coloring) == [
            (1 if e > 0 else -1, _path_value(rep, right),
             *((u, v) if e > 0 else (q.inv_op(v, u), u)))
            for e, _, u, v, right in _reference_walk(rep, w, coloring)]


def test_a_rep_off_conjugation_type_is_refused_before_its_colorings():
    """A rep with no rho is refused before the |X|^k candidate colorings are
    charged, checked or not: on R3 mod 5 with eta = 1 and tau = 2 (not
    1 - 1) and k = 8, under a guard of 10 below the 6561 candidates, both
    calls raise the InputError, not GuardExceeded."""
    from quandlekit.algebra import make_rep
    rep = make_rep(make_dihedral(3), 5, [[[[1]]] * 3] * 3, [[[[2]]] * 3] * 3,
                   check=False)
    assert rep.rho is None
    w = BraidWord(8, (1, 2, 3, 4, 5, 6, 7))
    for check in (False, True):
        with guarded(10), pytest.raises(InputError, match="^diagram chains need "
                                                          "a conjugation-type rep$"):
            cocycle_invariant(rep, Cochain(2, 5, 1, {}), w, check=check)


def _counted(monkeypatch, module, name):
    """Wrap module.name so that each call is listed in the returned list."""
    calls, f = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_an_equal_cochain_reuses_the_kept_weights_and_verdict(monkeypatch):
    """A fresh Cochain equal in value to the one the rep keeps forms no
    weight and walks no boundary term, checked or not, and gets the same
    entries."""
    from quandlekit import homology, invariants
    rep, kappa = nontrivial_kappa()
    w = braid_or_knot("4_1")
    base = cocycle_invariant(rep, kappa, w).entries
    weights = _counted(monkeypatch, invariants, "mat_vec")
    terms = _counted(monkeypatch, homology, "_boundary_terms")
    for check in (True, False):
        equal = Cochain(2, 3, 3, {k: tuple(v) for k, v in kappa.values.items()})
        assert cocycle_invariant(rep, equal, w, check=check).entries == base
    assert weights == [] and terms == []


def test_the_kept_verdict_follows_the_cochain():
    """On one rep a non-cocycle after a cocycle is refused, and a cocycle
    after a non-cocycle passes; the kept entry is replaced whole, with the
    verdict of the last check."""
    rep, kappa = nontrivial_kappa()
    bad = Cochain(2, 3, 3, {**kappa.values, (0, 1): [1, 0, 0]})
    w = braid_or_knot("3_1")
    base = cocycle_invariant(rep, kappa, w).entries
    for _ in range(2):
        with pytest.raises(CheckFailed, match="not a generalized quandle 2-cocycle"):
            cocycle_invariant(rep, bad, w)
        assert cocycle_invariant(rep, kappa, w).entries == base
    assert rep._kept_cochain[0].verdicts == {("quandle", 0): True}


def test_an_unchecked_call_records_no_verdict(monkeypatch):
    """check=False fills the weights but never records a verdict: a checking
    call on the same non-cocycle afterwards still walks the check and
    refuses it."""
    from quandlekit import homology
    rep = make_conj_rep(permutation_rep_r3(3))
    bad = Cochain(2, 3, 3, {(0, 1): [1, 0, 0]})
    w = braid_or_knot("3_1")
    cocycle_invariant(rep, bad, w, check=False)
    kept = rep._kept_cochain[0]
    assert kept.verdicts == {} and kept.weights
    terms = _counted(monkeypatch, homology, "_boundary_terms")
    with pytest.raises(CheckFailed):
        cocycle_invariant(rep, bad, w)
    assert terms and rep._kept_cochain[0] is kept
    assert kept.verdicts == {("quandle", 0): False}


@pytest.mark.parametrize("stage", ["mat_vec", "_coboundary_values"])
def test_an_interrupted_fill_or_check_leaves_the_kept_cochain_sound(monkeypatch, stage):
    """A KeyboardInterrupt while the weights are formed, after the check has
    ended, keeps the weights formed before it and no other; one while the
    check walks records no verdict.  Either way the next call on the same
    rep gives the entries of a fresh rep, and a non-cocycle is still
    refused."""
    from quandlekit import homology, invariants
    module = invariants if stage == "mat_vec" else homology
    f, calls = getattr(module, stage), []

    def interrupted(*args):
        calls.append(1)
        if len(calls) == 3 or stage == "_coboundary_values":
            raise KeyboardInterrupt
        return f(*args)

    rep, kappa = nontrivial_kappa()
    w = braid_or_knot("k=3; 1 -2 1 -2 -2 1 -1 2")
    fresh = cocycle_invariant(nontrivial_kappa()[0], kappa, w).entries
    with monkeypatch.context() as patch:
        patch.setattr(module, stage, interrupted)
        with pytest.raises(KeyboardInterrupt):
            cocycle_invariant(rep, kappa, w)
    kept = rep._kept_cochain[0]
    if stage == "mat_vec":
        assert kept.verdicts == {("quandle", 0): True} and len(kept.weights) == 2
    else:
        assert kept.verdicts == {} and kept.weights == {}
    assert cocycle_invariant(rep, kappa, w).entries == fresh
    bad = Cochain(2, 3, 3, {**kappa.values, (0, 1): [1, 0, 0]})
    with monkeypatch.context() as patch:
        patch.setattr(module, stage, interrupted)
        calls.clear()
        with pytest.raises(KeyboardInterrupt):
            cocycle_invariant(rep, bad, w, check=stage != "mat_vec")
    with pytest.raises(CheckFailed):
        cocycle_invariant(rep, bad, w)


def test_alexander_type_module_is_the_burau_cokernel():
    """For make_alexander_rep(q, N, t) the blocks are constant, so every
    coloring's entry is the one entry of the Burau module, the invariant
    over the one-element quandle."""
    rng = random.Random(1618)
    for q, n, t in ((make_dihedral(3), 3, 2), (make_dihedral(5), 5, 2),
                    (make_dihedral(7), 7, 2), (make_alexander(5, 2), 5, 3),
                    (make_dihedral(5), 5, [[2, 1], [0, 3]])):
        for w in _random_braids(rng, 6, 4):
            burau = module_invariant(make_alexander_rep(make_trivial(1), n, t), w)
            assert len(burau.entries) == 1
            inv = module_invariant(make_alexander_rep(q, n, t), w)
            assert inv.entries == burau.entries * len(colorings_of_closure(q, w)), w


def test_alexander_coloring_count_is_the_burau_module_order():
    """The colorings by Alex(n, t) are the kernel of the Burau matrix at t
    minus I, and over Z_n a square matrix has a kernel and a cokernel of one
    order: the count is the product of the factors of the module invariant
    over the one-element quandle, composite n included."""
    rng = random.Random(2001)
    for n, t in ((3, 2), (4, 3), (5, 2), (6, 5), (7, 3), (8, 3), (9, 2), (12, 5)):
        q = make_alexander(n, t)
        for w in _random_braids(rng, 12, 4) + [BraidWord(4, (1, 1, 1))]:
            (factors,) = module_invariant(
                make_alexander_rep(make_trivial(1), n, t), w).entries
            assert len(colorings_of_closure(q, w)) == math.prod(factors), w


def test_module_invariant_builds_one_matrix_per_coefficient_sequence(monkeypatch):
    """5_2 # 5_2 has 7^3 colorings by R7; over alexander-rep:7:2 they all
    have one coefficient sequence, so one colored matrix and one cokernel
    are built, and every entry is the Burau cokernel."""
    from quandlekit import invariants
    calls = {"colored_matrix": 0, "cokernel_mod": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(invariants, name, counted(name, getattr(invariants, name)))
    w = braid_or_knot("k=5; 1 1 1 2 -1 2 3 3 3 4 -3 4")
    inv = module_invariant(make_alexander_rep(make_dihedral(7), 7, 2), w)
    assert len(inv.entries) == 7 ** 3
    assert calls == {"colored_matrix": 1, "cokernel_mod": 1}
    assert set(inv.entries) == set(
        module_invariant(make_alexander_rep(make_trivial(1), 7, 2), w).entries)


def test_one_pair_rep_walks_the_word_once(monkeypatch):
    """A rep whose whole (eta, tau) table is one pair walks the word once
    for all colorings: alexander-rep:7:2 over the 7^3 R7 colorings of
    5_2 # 5_2, and the same constant table built as an AlgebraRep with a
    tuple of its own per cell, which is one pair by value and gives the same
    entries.  conj-rep:perm3 on R3 walks each coloring."""
    from quandlekit import invariants
    calls = []

    def counted(rep, w, bottom):
        calls.append(tuple(bottom))
        return crossing_blocks(rep, w, bottom)

    monkeypatch.setattr(invariants, "crossing_blocks", counted)
    w = braid_or_knot("k=5; 1 1 1 2 -1 2 3 3 3 4 -3 4")
    r7 = make_dihedral(7)
    inv = module_invariant(make_alexander_rep(r7, 7, 2), w)
    assert len(inv.entries) == 7 ** 3 and len(calls) == 1

    def cells(v):
        return tuple(tuple(tuple(map(tuple, [[v]])) for _ in range(7))
                     for _ in range(7))

    fresh = AlgebraRep(quandle=r7, modulus=7, dim=1, eta=cells(2), tau=cells(6))
    assert fresh.eta[0][0] is not fresh.eta[0][1] and fresh._one_pair
    calls.clear()
    assert module_invariant(fresh, w) == inv
    assert len(calls) == 1
    calls.clear()
    perm3 = make_conj_rep(permutation_rep_r3(3))
    assert not perm3._one_pair
    module_invariant(perm3, w)
    assert sorted(calls) == colorings_of_closure(perm3.quandle, w)
    assert len(calls) > 1


def _listing_module_invariant(rep, w):
    """module_invariant with every coloring listed: one colored matrix and
    one cokernel per distinct coefficient sequence, each coloring walked."""
    N, cokernels, entries = rep.modulus, {}, []
    for coloring in colorings_of_closure(rep.quandle, w):
        blocks = crossing_blocks(rep, w, coloring)
        if blocks not in cokernels:
            m = colored_matrix(rep, w, coloring, blocks)
            for i in range(len(m)):
                m[i][i] = (m[i][i] - 1) % N
            cokernels[blocks] = tuple(cokernel_mod(m, N))
        entries.append(cokernels[blocks])
    return tuple(sorted(entries))


def _s4_transpositions():
    """The conjugation quandle of the six transpositions of S4, not affine."""
    s4 = symmetric_group(4)
    perms = sorted(itertools.permutations(range(4)))
    return make_conj(s4, [a for a, p in enumerate(perms)
                          if sum(i != j for i, j in enumerate(p)) == 2])


# Alexander reps (t, matrix t too) and trivial-action reps (t = 1) on
# affine quandles and on a non-affine one, whose colorings are searched
_ONE_PAIR_REPS = [make_alexander_rep(q, n, t) for q, n, t in (
    (make_dihedral(3), 3, 2), (make_dihedral(3), 9, 1), (make_dihedral(4), 5, 2),
    (make_dihedral(4), 4, 3), (make_dihedral(6), 7, 1), (make_dihedral(9), 9, 2),
    (make_alexander(5, 2), 5, 2), (make_alexander(5, 2), 5, 1),
    (make_trivial(1), 5, 2), (make_trivial(3), 3, 2), (make_trivial(4), 6, 1),
    (make_dihedral(3), 3, [[0, 1], [1, 1]]), (_s4_transpositions(), 5, 2),
    (_s4_transpositions(), 3, 1))]


@pytest.mark.parametrize("rep", _ONE_PAIR_REPS, ids=lambda rep: rep.quandle.label)
@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(w=_braid_words(4, 10))
@example(w=BraidWord(4, (1, 1, 1)))
@example(w=BraidWord(3, ()))
def test_counted_module_invariant_is_the_listing_one(rep, w):
    """A one-pair rep's module invariant, one cokernel times the counted
    colorings, is the invariant of every listed coloring walked, over
    affine quandles (counted by a cokernel) and over the transpositions of
    S4 (counted by the search)."""
    assert rep._one_pair
    assert module_invariant(rep, w).entries == _listing_module_invariant(rep, w)


def _mat_mul_colored_matrix(rep, w, bottom):
    """colored_matrix with each crossing's under block leaving as
    mat_mul(eta, under) + mat_mul(tau, over)."""
    N, m = rep.modulus, rep.dim
    _, _, pairs = rep._crossing_blocks
    steps = map(pairs.__getitem__, crossing_blocks(rep, w, bottom))

    def leave(under, over):
        eta, tau = next(steps)
        return mat_add(mat_mul(eta, under, N), mat_mul(tau, over, N), N)

    eye = identity(w.strands * m)
    units = [eye[p:p + m] for p in range(0, len(eye), m)]
    return list(itertools.chain.from_iterable(braids._burau_rows(w, leave, leave, units)))


def _unchecked_rep(etas, taus, seed):
    """An unchecked 2-dimensional rep on R3 mod 6 whose cells are drawn
    from `etas` and `taus`."""
    rng = random.Random(seed)
    return make_rep(make_dihedral(3), 6,
                    [[rng.choice(etas) for _ in range(3)] for _ in range(3)],
                    [[rng.choice(taus) for _ in range(3)] for _ in range(3)],
                    check=False)


_UNITS_MOD_6 = [[[1, 0], [0, 1]], [[1, 1], [0, 1]], [[5, 0], [2, 1]], [[0, 1], [1, 0]]]
_NON_UNITS_MOD_6 = [[[0, 0], [0, 0]], [[2, 3], [0, 4]], [[3, 0], [0, 0]], [[1, 2], [1, 2]]]
_S3, _D4 = symmetric_group(3), dihedral_group(4)
# m = 1, 3, 6 and 8, the core Wada rep, and unchecked tables: unit eta with
# zero and non-unit tau, and zero and non-unit eta, whose negative
# crossings cannot be inverted, walked on positive words only
_MATRIX_REPS = [
    make_alexander_rep(make_dihedral(5), 5, 2),
    make_conj_rep(permutation_rep_r3(3)),
    make_conj_rep(regular_group_rep(_S3, make_conj(_S3), range(6), modulus=7)),
    make_conj_rep(regular_group_rep(_D4, make_conj(_D4), range(8), modulus=7)),
    make_wada_rep(regular_group_rep(cyclic_group(3), make_core(cyclic_group(3)),
                                    range(3), modulus=5), "core"),
    _unchecked_rep(_UNITS_MOD_6, _UNITS_MOD_6 + _NON_UNITS_MOD_6, 1),
    _unchecked_rep(_UNITS_MOD_6 + _NON_UNITS_MOD_6, _NON_UNITS_MOD_6, 2)]


@pytest.mark.parametrize("rep", _MATRIX_REPS, ids=lambda rep: rep.label or "unchecked")
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(w=_braid_words(4, 10), data=st.data())
def test_colored_matrix_is_the_mat_mul_walk(rep, w, data):
    """colored_matrix, which sums the under and over rows weighted by the
    nonzero entries of each row of eta and tau, equals the walk by mat_mul
    and mat_add at any bottom colors, not only at closure colorings."""
    if rep is _MATRIX_REPS[-1]:
        w = BraidWord(w.strands, tuple(map(abs, w.letters)))
    bottom = data.draw(st.lists(st.integers(0, rep.quandle.size - 1),
                                min_size=w.strands, max_size=w.strands))
    assert colored_matrix(rep, w, bottom) == _mat_mul_colored_matrix(rep, w, bottom)


def _path_value(rep, right):
    """rho(c_(k-1)) ... rho(c_(p+2)) mod N for the colors `right`, multiplied
    afresh and frozen."""
    path = identity(rep.dim)
    for c in reversed(right):
        path = mat_mul(path, rep.rho[c], rep.modulus)
    return _freeze(path)


def test_cocycle_invariant_forms_each_weight_once(monkeypatch):
    """cocycle_invariant forms path * kappa(x, y) once per distinct path
    action, by value, and source pair (x, y), found by the reference walk
    over every coloring: fewer than one per tuple of colors right of the
    crossing, and far fewer than one per crossing.  The table is kept on the
    rep with its cochain, so a second call with a fresh Cochain equal in
    value forms none.  The entries equal the per-coloring reference."""
    from quandlekit import invariants
    calls = []

    def counted(m, v, mod):
        calls.append(1)
        return mat_vec(m, v, mod)

    monkeypatch.setattr(invariants, "mat_vec", counted)
    rep, kappa = nontrivial_kappa()
    q = rep.quandle
    w = braid_or_knot("k=4; 1 1 1 -3 -3 -3")     # 3_1 and 3_1* apart: 81 colorings
    inv = cocycle_invariant(rep, kappa, w, check=False)
    crossings = 0
    by_value, by_tuple = set(), set()
    for coloring in colorings_of_closure(q, w):
        for e, _, u, v, right in _reference_walk(rep, w, coloring):
            crossings += 1
            pair = (u, v) if e > 0 else (q.inv_op(v, u), u)
            by_value.add((_path_value(rep, right), pair))
            by_tuple.add((right, pair))
    assert len(calls) == len(by_value) < len(by_tuple) < crossings
    assert inv.entries == _reference_cocycle(rep, kappa, w)
    calls.clear()
    equal = Cochain(2, 3, 3, {k: list(v) for k, v in kappa.values.items()})
    assert cocycle_invariant(rep, equal, w, check=False).entries == inv.entries
    assert calls == []


def test_each_path_product_is_formed_once_per_rep(monkeypatch):
    """Path actions are numbered by value per rep: each product of a path
    and a color's rho is formed once, however many crossings, colorings and
    calls meet it, and each path equals rho(c_(k-1)) ... rho(c_(p+2))
    multiplied afresh.  On conj-rep:perm3 that is at most |S3| * |R3| = 18
    products in all.  Over a one-element quandle whose rho has order 4, a
    crossing with 3000 strands on its right forms at most 4 products, and
    the rep keeps O(1) memo entries, not a chain of 3000 suffixes."""
    from quandlekit import algebra
    formed = []
    mul = algebra._Products._mul

    def counted(self, i, j):
        formed.append((id(self), i, j))
        return mul(self, i, j)

    monkeypatch.setattr(algebra._Products, "_mul", counted)
    rep = make_conj_rep(permutation_rep_r3(3))
    # the constant coloring: letter 2 meets the path rho(0), letter 1 rho(0)^2
    for text, products in (("k=4; 2 1", 2), ("k=4; 1 2", 0)):
        formed.clear()
        data = crossing_data(rep, braid_or_knot(text), (0,) * 4)
        assert len(formed) == products, text
        assert [path for _, path, _, _ in data] == [
            _path_value(rep, (0,) * (3 - abs(e))) for e in braid_or_knot(text).letters]
    formed.clear()
    rng = random.Random(41)
    for w in _random_braids(rng, 20, 5):
        for coloring in colorings_of_closure(rep.quandle, w):
            data = crossing_data(rep, w, coloring)
            assert [path for _, path, _, _ in data] == [
                _path_value(rep, right)
                for *_, right in _reference_walk(rep, w, coloring)]
    assert len(formed) == len(set(formed)) <= 18
    one = make_conj_rep(make_group_rep(make_trivial(1), 5, [[[2]]]))
    formed.clear()
    data = crossing_data(one, BraidWord(3002, (1,)), (0,) * 3002)
    assert data == [(1, ((pow(2, 3000, 5),),), 0, 0)]
    products = one._path_products[0]
    assert len(formed) <= 4
    assert max(map(len, (products.rows, products.products, products.terms))) <= 4


def test_each_distinct_negative_block_is_inverted_once(monkeypatch):
    """module_invariant inverts the block (eta, tau)[x][y] of a negative
    crossing with source pair (x, y) once per rep, however many crossings
    and colorings meet it: once in all for the constant blocks of
    alexander-rep:5:2 over the 25 R5 colorings of 4_1, and once per distinct
    negative block, found by the reference walk, for conj-rep:perm3."""
    from quandlekit import algebra
    inverted = []

    def counted(m, n):
        inverted.append(_freeze(m))
        return mat_inv_mod(m, n)

    monkeypatch.setattr(algebra, "mat_inv_mod", counted)
    w = braid_or_knot("4_1")
    inv = module_invariant(make_alexander_rep(make_dihedral(5), 5, 2), w)
    assert inv.entries == ((5,),) * 25
    assert inverted == [((2,),)]
    inverted.clear()
    rep = make_conj_rep(permutation_rep_r3(3))
    module_invariant(rep, w)
    q = rep.quandle
    negative = {(rep.eta[x][y], rep.tau[x][y])
                for coloring in colorings_of_closure(q, w)
                for e, _, u, v, _ in _reference_walk(rep, w, coloring) if e < 0
                for x, y in [(q.inv_op(v, u), u)]}
    assert len(negative) > 1
    assert sorted(inverted) == sorted(eta for eta, _ in negative)


def test_composite_modulus_cocycle_invariants_are_markov_invariant():
    """The Z_9 2-cocycles of R3 permuting (Z_9)^3, some with unit values,
    give cocycle invariants that every Markov variant of a seeded random knot
    (k <= 4) shares; on the trefoil some of them split the colorings."""
    rep = make_conj_rep(permutation_rep_r3(9))
    kappas = cocycle_space(ComplexConfig(rep=rep, variant="quandle"), 2)
    assert any(x % 3 for k in kappas for v in k.values.values() for x in v)
    rng = random.Random(20261018)
    knots = [braid_or_knot("3_1")]
    while len(knots) < 12:
        k = rng.randint(2, 4)
        w = BraidWord(k, tuple(rng.choice((1, -1)) * rng.randint(1, k - 1)
                               for _ in range(rng.randint(1, 12))))
        if w.closure_components() == 1:
            knots.append(w)
    for w in knots:
        for kappa in kappas:
            base = cocycle_invariant(rep, kappa, w).entries
            for v in markov_moves(w):
                assert cocycle_invariant(rep, kappa, v).entries == base, (w, v)
    trefoil = knots[0]
    assert any(len(set(cocycle_invariant(rep, k, trefoil).entries)) > 1 for k in kappas)


def test_cocycle_invariant_markov_and_coboundary():
    rep, kappa = nontrivial_kappa()
    # negative crossings on non-constant colorings: the signs must agree too
    mirror = braid_or_knot("3_1").inverse()
    assert chain_pairings_match(rep, kappa, mirror,
                                cocycle_invariant(rep, kappa, mirror).entries)
    r3 = make_dihedral(3)
    cfg = ComplexConfig(rep=rep, variant="quandle")
    for name in ("3_1", "4_1"):
        w = braid_or_knot(name)
        base = cocycle_invariant(rep, kappa, w)
        assert chain_pairings_match(rep, kappa, w, base.entries)
        for v in markov_moves(w):
            assert cocycle_invariant(rep, kappa, v).entries == base.entries
        for _ in range(5):
            phi = Cochain(1, 3, 3, {(x,): [random.randrange(3) for _ in range(3)]
                                    for x in range(3)})
            dphi = coboundary(cfg, phi)
            shifted = dict(kappa.values)
            for key in itertools.product(range(3), repeat=2):
                v = [(a + b) % 3 for a, b in
                     zip(Cochain(2, 3, 3, shifted).value(key), dphi.value(key))]
                if any(v):
                    shifted[key] = v
                else:
                    shifted.pop(key, None)
            k2 = Cochain(2, 3, 3, shifted)
            assert cocycle_invariant(rep, k2, w).entries == base.entries


def test_cocycle_invariant_nontrivial_on_trefoil():
    rep, kappa = nontrivial_kappa()
    r3 = make_dihedral(3)
    inv = cocycle_invariant(rep, kappa, braid_or_knot("3_1"))
    assert any(any(e) for e in inv.entries)


def test_cocycle_invariant_rejects_non_cocycle():
    rep = make_conj_rep(permutation_rep_r3(3))
    r3 = make_dihedral(3)
    bad = Cochain(2, 3, 3, {(0, 1): [1, 0, 0]})
    with pytest.raises(CheckFailed):
        cocycle_invariant(rep, bad, braid_or_knot("3_1"))


def test_cocycle_invariant_needs_rho_before_cocycle_check(monkeypatch):
    """A rep without rho, the core Wada rep of Z3, is rejected before the
    size^3 cocycle check runs."""
    from quandlekit import invariants

    def cocycle_check(*args, **kwargs):
        raise AssertionError("cocycle checked before the rep's rho")

    monkeypatch.setattr(invariants, "_cocycle_verdict", cocycle_check)
    z3 = cyclic_group(3)
    rep = make_wada_rep(regular_group_rep(z3, make_core(z3), range(3), 5), "core")
    assert rep.rho is None
    kappa = Cochain(2, 5, 3, {})
    w = braid_or_knot("3_1")
    with pytest.raises(InputError):
        cocycle_invariant(rep, kappa, w)
    with pytest.raises(InputError):
        boltzmann_weight(rep, kappa, w, (0, 0), 0)


def test_a_cochain_outside_the_reps_module_is_refused_without_the_check():
    """cocycle_invariant with check=False once summed a dimension-1 cochain
    on the dimension-3 conj-rep into entries; it and boltzmann_weight refuse
    a cochain outside the rep's module, checked or not."""
    rep = make_conj_rep(permutation_rep_r3(3))
    narrow = Cochain(2, 3, 1, {(0, 1): [1], (1, 2): [2]})
    w = braid_or_knot("3_1")
    for check in (False, True):
        with pytest.raises(InputError, match=r"\(Z_3\)\^1, not in the rep's \(Z_3\)\^3$"):
            cocycle_invariant(rep, narrow, w, check=check)
        with pytest.raises(InputError, match=r"\(Z_3\)\^1, not in the rep's \(Z_3\)\^3$"):
            boltzmann_weight(rep, narrow, w, (0, 1), 0, check=check)


def test_boltzmann_weight_sums_to_invariant_entry():
    rep, kappa = nontrivial_kappa()
    r3 = make_dihedral(3)
    w = braid_or_knot("3_1")
    coloring = (0, 1)
    total = [0, 0, 0]
    for c in range(len(w.letters)):
        wt = boltzmann_weight(rep, kappa, w, coloring, c, check=False)
        total = [(a + b) % 3 for a, b in zip(total, wt)]
    inv = cocycle_invariant(rep, kappa, w)
    assert tuple(total) in inv.entries


def test_dynamical_extension_cocycle_gate():
    t2 = make_trivial(2)
    rep = make_alexander_rep(t2, 2, 1)
    cfg = ComplexConfig(rep=rep, variant="quandle")
    keys = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for vals in itertools.product(range(2), repeat=4):
        kappa = Cochain(2, 2, 1, {k: [v] for k, v in zip(keys, vals) if v})
        table, report, quandle = dynamical_extension(rep, kappa)
        assert bool(report) == is_cocycle_2(cfg, kappa)
        if report:
            assert quandle is not None and quandle.size == 4
        else:
            assert quandle is None


def test_dynamical_extension_of_zero_cocycle():
    """With kappa = 0 and the trivial action, the extension of T2 by Z/2 is
    the trivial quandle on 4 elements."""
    t2 = make_trivial(2)
    rep = make_alexander_rep(t2, 2, 1)
    _, report, quandle = dynamical_extension(rep)
    assert report.passed
    assert quandle.size == 4
    for a, row in enumerate(quandle.table):
        assert row == (a,) * 4


def test_dynamical_extension_needs_a_2_cochain_on_the_rep():
    """A cochain of another degree, modulus or dimension is refused, not
    read as zero."""
    rep = make_conj_rep(permutation_rep_r3(3))
    for degree, modulus, dim, key in ((1, 3, 3, (0,)), (3, 3, 3, (0, 1, 2)),
                                      (2, 9, 3, (0, 1)), (2, 3, 1, (0, 1))):
        kappa = Cochain(degree=degree, modulus=modulus, dim=dim,
                        values={key: [1] + [0] * (dim - 1)})
        with pytest.raises(InputError):
            dynamical_extension(rep, kappa)
    zero = Cochain(degree=2, modulus=3, dim=3, values={})
    assert dynamical_extension(rep, zero)[1].passed


def test_dynamical_extension_guard():
    q = make_dihedral(3)
    rep = make_alexander_rep(q, 5, mat_scale(2, identity(3), 5))
    with guarded(100), pytest.raises(GuardExceeded):
        dynamical_extension(rep)


def test_dynamical_extension_guard_bounds_axiom_checks():
    """The guard bounds the size^3 axiom checks, not the size: a 15-element
    extension needs 3375 checks."""
    rep = make_alexander_rep(make_dihedral(5), 3, 2)
    with guarded(1000), pytest.raises(GuardExceeded):
        dynamical_extension(rep)
    with guarded(15 ** 3):
        table, _, _ = dynamical_extension(rep)
    assert len(table) == 15


def test_dynamical_extension_guard_before_enumeration(monkeypatch):
    """The guard fires before the N^dim module vectors are enumerated."""
    def enumerate_module(*args, **kwargs):
        raise AssertionError("module vectors enumerated before the guard")

    rep = make_alexander_rep(make_trivial(1), 10 ** 6, identity(3))
    monkeypatch.setattr(itertools, "product", enumerate_module)
    with pytest.raises(GuardExceeded):
        dynamical_extension(rep)


def test_multiset_containment():
    a = InvariantMultiset(entries=((0, 0), (1, 2)), modulus=3, dim=2)
    b = InvariantMultiset(entries=((0, 0), (0, 0), (1, 2), (2, 2)), modulus=3, dim=2)
    assert multiset_contained(a, b)
    assert not multiset_contained(b, a)
    c = InvariantMultiset(entries=((0, 0),), modulus=5, dim=2)
    with pytest.raises(InputError):
        multiset_contained(a, c)


def test_boltzmann_weight_cocycle_check_is_held_to_the_guard():
    """boltzmann_weight's cocycle check counts the 360 steps of the degree-2
    check of conj-rep:perm3 on R3 (2 * 2^2 tuples, 5 terms each, 3^2 steps
    per term)."""
    rep, w = load_rep("conj-rep:perm3"), braid_or_knot("3_1")
    zero = Cochain(2, 3, 3, {})
    with guarded(359), pytest.raises(GuardExceeded,
                                     match="^360 boundary-term steps .* exceed the "
                                           "guard of 359$"):
        boltzmann_weight(rep, zero, w, (0, 0), 0)
    with guarded(360):
        assert boltzmann_weight(rep, zero, w, (0, 0), 0) == [0, 0, 0]


def test_a_rep_off_the_conjugation_rule_has_no_cocycle_invariant():
    """The m = 2 Wada rep of Z2 has eta = I in every cell but a tau that is
    not I - I, and the core Wada rep of Z3 an eta that depends on x: neither
    has a rho, however it was built.  The state sum of the first with the
    rho of its GroupRep, (I, swap), would give {(0,0)^2, (1,0)^2} on
    k=2; 1 1 and {(0,0)^2, (0,1), (1,0)} on the stabilization k=3; 1 1 2,
    so it is refused, checked or not."""
    z2, z3 = cyclic_group(2), cyclic_group(3)
    wada = make_wada_rep(regular_group_rep(z2, make_conj(z2, power=2), [0, 1], 3), 2)
    core = make_wada_rep(regular_group_rep(z3, make_core(z3), range(3), 5), "core")
    assert all(m == ((1, 0), (0, 1)) for row in wada.eta for m in row)
    assert wada.rho is None and core.rho is None
    kappa = Cochain(2, 3, 2, {(1, 0): [1, 0]})
    for w in (parse_braid("k=2; 1 1"), parse_braid("k=3; 1 1 2")):
        for check in (True, False):
            with pytest.raises(InputError, match="conjugation-type"):
                cocycle_invariant(wada, kappa, w, check=check)


@functools.lru_cache(maxsize=None)
def _conj_type_case(i: int):
    """The i-th Alexander-type or trivial-action rep and its cocycle
    generators over the quandle complex.  Most of their state sums are zero
    on every coloring; those of alexander-rep:4:3 on R4 and of the trivial
    action on T2 and T3 are not, on some braids."""
    r3 = make_dihedral(3)
    rep = [make_alexander_rep(r3, 3, 2), make_alexander_rep(r3, 9, 2),
           make_alexander_rep(make_dihedral(5), 5, 2),
           make_alexander_rep(make_alexander(5, 2), 5, 3),
           make_alexander_rep(r3, 3, [[2, 1], [0, 2]]),
           make_alexander_rep(make_dihedral(4), 4, 3),
           make_alexander_rep(r3, 3, 1), make_alexander_rep(make_dihedral(5), 5, 1),
           make_alexander_rep(make_trivial(3), 3, 1),
           make_alexander_rep(make_trivial(2), 2, 1)][i]
    return rep, tuple(cocycle_space(ComplexConfig(rep=rep, variant="quandle"), 2))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(i=st.integers(0, 9), j=st.integers(0, 2 ** 16),
       w=_braid_words(max_strands=3, max_letters=8))
def test_alexander_and_trivial_action_invariants_survive_markov_moves(i, j, w):
    """The state sum of an Alexander-type or trivial-action rep, rho = t,
    is unchanged under every Markov move of the braid, for a cocycle
    generator of the rep."""
    rep, basis = _conj_type_case(i)
    assert rep.is_conj_type and basis
    kappa = basis[j % len(basis)]
    base = cocycle_invariant(rep, kappa, w).entries
    for v in markov_moves(w):
        assert cocycle_invariant(rep, kappa, v, check=False).entries == base, v
