"""The exhaustive checks and the extension table against their plain loops.

`verify_axioms`, `verify_relations` and `dynamical_extension` do each
distinct piece of work once; `verify_axioms` checks axiom III, and
`verify_relations` relations (1)-(3), only on a generating set, and
`dynamical_extension` builds its table by linearity and decides its axioms
from X, the rep and kappa.  The loops below are the direct forms they
replaced, kept as references: the reports must be identical, failures and
their order included, and so must the extension tables.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quandlekit import algebra, invariants
from quandlekit import io as qio
from quandlekit.algebra import (
    make_alexander_rep,
    make_conj_rep,
    make_group_rep,
    make_rep,
    make_wada_rep,
    regular_group_rep,
    verify_relations,
)
from quandlekit.errors import InputError
from quandlekit.groups import small_groups, symmetric_group
from quandlekit.homology import Cochain, ComplexConfig, cocycle_space
from quandlekit.invariants import dynamical_extension
from quandlekit.linalg import (identity, is_invertible_mod, mat_add, mat_mul, mat_scale,
                               mat_vec)
from quandlekit.quandles import (
    FiniteQuandle,
    make_alexander,
    make_conj,
    make_core,
    make_dihedral,
    generating_set,
    make_trivial,
    verify_axioms,
)
from test_algebra import _conj_tables


def _reference_axioms(table):
    """Axioms I-III by the a, b, c scan; first violation of each."""
    n = len(table)
    failures = []
    for a in range(n):
        if table[a][a] != a:
            failures.append(f"axiom I fails at a={a}: {a}*{a}={table[a][a]}")
            break
    for b in range(n):
        col = [table[a][b] for a in range(n)]
        if len(set(col)) != n:
            failures.append(f"axiom II fails at b={b}: column {col} is not a permutation")
            break
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[table[a][c]][table[b][c]]:
            failures.append(
                f"axiom III fails at (a,b,c)=({a},{b},{c}): "
                f"({a}*{b})*{c} != ({a}*{c})*({b}*{c})")
            break
    return not failures, failures


def _reference_relations(rep):
    """Identities (1)-(4) with six products per (x, y, z); first failure of
    each."""
    q, n = rep.quandle, rep.modulus
    failures = []
    for x in range(q.size):
        for y in range(q.size):
            if not is_invertible_mod(rep.eta[x][y], n):
                failures.append(f"eta[{x}][{y}] is not invertible mod {n}")
                return False, failures
    found = [False] * 4
    for x in range(q.size):
        for y in range(q.size):
            for z in range(q.size):
                xy, xz, yz = q.op(x, y), q.op(x, z), q.op(y, z)
                if not found[0]:
                    lhs = mat_mul(rep.eta[xy][z], rep.eta[x][y], n)
                    rhs = mat_mul(rep.eta[xz][yz], rep.eta[x][z], n)
                    if lhs != rhs:
                        found[0] = True
                        failures.append(f"relation (1) fails at (x,y,z)=({x},{y},{z})")
                if not found[1]:
                    lhs = mat_mul(rep.eta[xy][z], rep.tau[x][y], n)
                    rhs = mat_mul(rep.tau[xz][yz], rep.eta[y][z], n)
                    if lhs != rhs:
                        found[1] = True
                        failures.append(f"relation (2) fails at (x,y,z)=({x},{y},{z})")
                if not found[2]:
                    rhs = mat_add(mat_mul(rep.eta[xz][yz], rep.tau[x][z], n),
                                  mat_mul(rep.tau[xz][yz], rep.tau[y][z], n), n)
                    if [list(r) for r in rep.tau[xy][z]] != rhs:
                        found[2] = True
                        failures.append(f"relation (3) fails at (x,y,z)=({x},{y},{z})")
        if not found[3]:
            one = [[v % n for v in r] for r in identity(rep.dim)]
            if mat_add(rep.tau[x][x], rep.eta[x][x], n) != one:
                found[3] = True
                failures.append(f"relation (4) fails at x={x}")
    return not failures, failures


def _reference_extension(rep, kappa):
    """The extension table with two products per cell."""
    q, N, m = rep.quandle, rep.modulus, rep.dim
    total = N ** m * q.size
    vectors = [list(v) for v in itertools.product(range(N), repeat=m)]
    vindex = {tuple(v): i for i, v in enumerate(vectors)}
    table = [[0] * total for _ in range(total)]
    for ai, a in enumerate(vectors):
        for x in range(q.size):
            row = table[ai * q.size + x]
            for bi, b in enumerate(vectors):
                for y in range(q.size):
                    val = mat_vec(rep.eta[x][y], a, N)
                    tb = mat_vec(rep.tau[x][y], b, N)
                    val = [(s + t) % N for s, t in zip(val, tb)]
                    if kappa is not None:
                        val = [(s + t) % N for s, t in zip(val, kappa.value((x, y)))]
                    row[bi * q.size + y] = vindex[tuple(val)] * q.size + q.op(x, y)
    return table


def _same_relations(rep):
    report = verify_relations(rep)
    assert (report.passed, report.failures) == _reference_relations(rep)
    return report


def _same_axioms(table):
    report = verify_axioms(table)
    assert (report.passed, report.failures) == _reference_axioms(table)
    return report


def _shorthand_rep(quandle, rep):
    return qio.load_rep(rep, quandle=qio.load_quandle(quandle))


def test_regular_conjugation_reps_match_reference():
    """The 12 reps the benchmark checks.  From Z2 on, a cache that kept
    products and relation (3) sums under one operand-pair key reports a
    false relation (3) failure."""
    for g in small_groups(8):
        grep = regular_group_rep(g, make_conj(g), list(range(g.size)), modulus=7)
        assert _same_relations(make_conj_rep(grep)).passed


def test_wada_and_alexander_reps_match_reference():
    for g in small_groups(6):
        for m in (1, 2):
            grep = regular_group_rep(g, make_conj(g, power=m), list(range(g.size)),
                                     modulus=5)
            assert _same_relations(make_wada_rep(grep, m)).passed
        grep = regular_group_rep(g, make_core(g), list(range(g.size)), modulus=5)
        assert _same_relations(make_wada_rep(grep, "core")).passed
    for q in (make_dihedral(3), make_dihedral(4), make_trivial(2), make_alexander(5, 3)):
        for n, t in ((3, 2), (5, 4), (9, 2), (4, 3)):
            assert _same_relations(make_alexander_rep(q, n, t)).passed
    assert _same_relations(make_alexander_rep(make_trivial(2), 5, [[0, 1], [1, 1]])).passed


def _mutant(rep, changes, unreduced=()):
    """rep with entry (i, j) of table[x][y] raised by delta mod N, for each
    (table, x, y, i, j, delta) in changes, and then written as its residue
    minus N, outside 0..N-1, for each (table, x, y, i, j) in unreduced."""
    tables = {"eta": [[[list(r) for r in m] for m in row] for row in rep.eta],
              "tau": [[[list(r) for r in m] for m in row] for row in rep.tau]}
    for name, x, y, i, j, delta in changes:
        cell = tables[name][x][y]
        cell[i][j] = (cell[i][j] + delta) % rep.modulus
    for name, x, y, i, j in unreduced:
        cell = tables[name][x][y]
        cell[i][j] = cell[i][j] % rep.modulus - rep.modulus
    return make_rep(rep.quandle, rep.modulus, tables["eta"], tables["tau"],
                    check=False)


def test_unreduced_tau_outside_generators_matches_reference():
    """The Alexander rep t = 2 mod 5 on R3 (S = {0, 1}) with tau[0][2]
    written as -1, at a y outside S: make_rep reduces it, so the tables are
    the Alexander rep's and the relations pass, as the reference scan says.
    Mod 1, where the identity is the zero matrix, relation (4) passes too."""
    alexander = make_alexander_rep(make_dihedral(3), 5, 2)
    rep = _mutant(alexander, [], [("tau", 0, 2, 0, 0)])
    assert (rep.eta, rep.tau) == (alexander.eta, alexander.tau)
    assert rep.tau[0][2] == ((4,),)
    assert _same_relations(rep).passed
    for q in (make_trivial(1), make_dihedral(3)):
        assert _same_relations(make_alexander_rep(q, 1, 1)).passed


def test_mutated_reps_match_reference():
    """One entry of eta or tau changed per rep: every relation, and the
    invertibility test, is the first failure somewhere."""
    base = [_shorthand_rep("dihedral:3", "conj-rep:perm3"),
            _shorthand_rep("dihedral:5", "alexander-rep:5:2"),
            _shorthand_rep("trivial:2", "trivial-action:3"),
            _shorthand_rep("alexander:5:2", "alexander-rep:7:3")]
    rng = random.Random(5)
    first = set()
    for _ in range(200):
        rep = rng.choice(base)
        n, size, dim = rep.modulus, rep.quandle.size, rep.dim
        name = rng.choice(["eta", "tau"])
        x, y = rng.randrange(size), rng.randrange(size)
        i, j = rng.randrange(dim), rng.randrange(dim)
        failures = _same_relations(
            _mutant(rep, [(name, x, y, i, j, rng.randrange(1, n))])).failures
        if failures:
            first.add("eta" if failures[0].startswith("eta") else failures[0][:12])
    assert first == {"eta", "relation (1)", "relation (2)", "relation (3)",
                     "relation (4)"}


def _fresh(table):
    """The table with a new tuple for every row of every cell: equal by
    value, sharing no matrix or row object."""
    return tuple(tuple(tuple([tuple(list(r)) for r in m]) for m in row) for row in table)


def test_unshared_equal_matrices_match_reference():
    """verify_relations numbers each distinct matrix object once; on an
    AlgebraRep built directly from tables in which no two cells share an
    object, equal values still get one number, so its report is the
    reference scan's and the shared rep's: the 12 reps the benchmark
    checks, failing reps of conjugation type, and reps with a singular eta
    in two unshared cells, of which the first in scan order is named."""
    reps = [make_conj_rep(regular_group_rep(g, make_conj(g), list(range(g.size)),
                                            modulus=7)) for g in small_groups(8)]
    reps += [_negated(rep, rep.quandle.size - 1) for rep in reps[9:]]   # S3, D4, Q8
    reps += [_shorthand_rep("dihedral:3", "conj-rep:perm3"),
             _shorthand_rep("dihedral:5", "alexander-rep:5:2")]
    zero = ((0,) * 4,) * 4
    z4 = reps[3]
    for cells in (((2, 1), (0, 3)), ((1, 1), (3, 0))):
        eta = [list(row) for row in z4.eta]
        for x, y in cells:
            eta[x][y] = tuple(map(tuple, map(list, zero)))
        reps.append(algebra.AlgebraRep(z4.quandle, 7, 4, tuple(map(tuple, eta)), z4.tau))
    outcomes = set()
    for rep in reps:
        fresh = algebra.AlgebraRep(rep.quandle, rep.modulus, rep.dim,
                                   _fresh(rep.eta), _fresh(rep.tau))
        cells = [m for table in (fresh.eta, fresh.tau) for row in table for m in row]
        assert len({id(m) for m in cells}) == len(cells)
        report = _same_relations(fresh)
        assert report == verify_relations(rep)
        outcomes.add(report.failures[0][:12] if report.failures else "passed")
    assert outcomes == {"passed", "relation (1)", "eta[0][3] is", "eta[1][1] is"}


def _affine_group_rep(q, n, t):
    """On Aff(Z_n, t), where a*b = t a + (1 - t) b, x -> the matrix of
    v -> t v + (1 - t) x acting on (v, 1) mod n: a*b is b's conjugate of a."""
    return make_group_rep(q, n, [[[t % n, (1 - t) * x % n], [0, 1]]
                                 for x in range(q.size)], label=f"aff({t})")


def _generator_rule_reps():
    """Alexander, conjugation and Wada reps over quandles whose greedy
    generating set S is smaller than X: R5-R9 and alexander:8:3 (|S| = 2)
    and Conj(S3) (|S| = 4)."""
    reps = []
    for n in range(5, 10):
        q = make_dihedral(n)
        reflections = _affine_group_rep(q, n, -1)
        translations = make_group_rep(q, n, [[[1, x], [0, 1]] for x in range(n)])
        reps += [make_alexander_rep(q, n, [[0, 1], [1, 1]]), make_conj_rep(reflections),
                 make_wada_rep(reflections, 1), make_wada_rep(translations, "core")]
    q = make_alexander(8, 3)
    reps += [make_alexander_rep(q, 8, 3), make_conj_rep(_affine_group_rep(q, 8, 3)),
             make_wada_rep(_affine_group_rep(q, 8, 3), 1)]
    s3 = symmetric_group(3)
    regular = regular_group_rep(s3, make_conj(s3), list(range(6)), modulus=5)
    reps += [make_alexander_rep(make_conj(s3), 5, 2), make_conj_rep(regular),
             make_wada_rep(regular, 1)]
    return reps


_GENERATOR_RULE_REPS = _generator_rule_reps()


@st.composite
def _generator_rule_mutants(draw):
    """One to three entries of a rep changed; half the time in a cell (x, y)
    with y outside S, where the scan can meet a failure at a z outside S
    before any at a z in S.  A quarter of the entries are not raised but
    written outside 0..N-1, which changes no residue."""
    rep = draw(st.sampled_from(_GENERATOR_RULE_REPS))
    size, n, dim = rep.quandle.size, rep.modulus, rep.dim
    outside = [y for y in range(size) if y not in generating_set(rep.quandle.table)]
    changes, unreduced = [], []
    for _ in range(draw(st.integers(1, 3))):
        y = draw(st.sampled_from(outside) if draw(st.booleans())
                 else st.integers(0, size - 1))
        entry = (draw(st.sampled_from(["eta", "tau"])),
                 draw(st.integers(0, size - 1)), y,
                 draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1)))
        if draw(st.integers(0, 3)):
            changes.append((*entry, draw(st.integers(1, n - 1))))
        else:
            unreduced.append(entry)
    return _mutant(rep, changes, unreduced)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(rep=_generator_rule_mutants())
def test_generator_rule_matches_reference(rep):
    """Relations (1)-(3) on the generating set, with the full scan after a
    failure, give the (x, y, z) scan's report, failures and their order
    included."""
    _same_relations(rep)


def _failing_z(failure):
    # "relation (k) fails at (x,y,z)=(x,y,z)" -> z
    return int(failure.rsplit(",", 1)[1].rstrip(")"))


def _negated(rep, y):
    """The rep of conjugation type whose rho is rep's with rho(y) negated,
    its tau rebuilt from that rho."""
    n = rep.modulus
    return _conj_tables(make_group_rep(rep.quandle, n, [
        mat_scale(-1, m, n) if x == y else m for x, m in enumerate(rep.rho)]))


def test_full_scan_runs_only_after_a_failure(monkeypatch):
    """A passing rep of conjugation type is passed by the conjugation rule
    and never scanned, any other passing rep is scanned on S alone, and a
    failing one on S, then on all of X.  Each rep fails when mutated at
    tau[x][y] for a y outside S, and each rep of conjugation type also
    when rho(y) is negated and tau rebuilt, which keeps it of conjugation
    type; some relations first fail at a z outside S, which only the full
    scan reports."""
    calls = []
    scan = algebra._relation_failures

    def recorded(*args):
        calls.append(list(args[-1]))
        return scan(*args)

    monkeypatch.setattr(algebra, "_relation_failures", recorded)
    outside_first = conj_failing = 0
    for rep in _GENERATOR_RULE_REPS:
        size = rep.quandle.size
        gens = generating_set(rep.quandle.table)
        calls.clear()
        assert verify_relations(rep).passed
        assert calls == ([] if rep.rho is not None else [gens])
        y = next(y for y in range(size) if y not in gens)
        mutants = [_mutant(rep, [("tau", 1, y, 0, 0, 1)])]
        if rep.rho is not None:
            mutants.append(_negated(rep, y))
            assert mutants[-1].rho is not None
            conj_failing += 1
        for mutant in mutants:
            calls.clear()
            failures = _same_relations(mutant).failures
            assert failures and calls == [gens, list(range(size))]
            outside_first += sum(_failing_z(f) not in gens for f in failures
                                 if f.startswith("relation (") and "(x,y,z)" in f)
    assert outside_first and conj_failing


def _conjugation_rule_bases():
    """Group reps whose tables of conjugation type pass: regular reps mod 5
    and mod 6 on the trivial quandles Conj(Z3), Conj(Z4) and Conj(V4),
    where S = X, and on Conj(S3) and Conj(D4), and affine reps on R5-R9 and
    alexander:8:3 (|S| = 2) mod their order."""
    groups = {g.label: g for g in small_groups(8)}
    bases = [regular_group_rep(groups[label], make_conj(groups[label]),
                               list(range(groups[label].size)), modulus=n)
             for label in ("Z3", "Z4", "V4", "S3", "D4") for n in (5, 6)]
    bases += [_affine_group_rep(make_dihedral(n), n, -1) for n in range(5, 10)]
    return bases + [_affine_group_rep(make_alexander(8, 3), 8, 3)]


_CONJUGATION_RULE_BASES = _conjugation_rule_bases()


@st.composite
def _conjugation_rule_mutants(draw):
    """Tables of conjugation type from a base rho with 0-2 of its matrices
    changed: one entry raised, which can leave the matrix singular, or the
    matrix replaced by another element's."""
    g = draw(st.sampled_from(_CONJUGATION_RULE_BASES))
    size, n, dim = g.quandle.size, g.modulus, g.dim
    rho = [[list(r) for r in m] for m in g.rho]
    for _ in range(draw(st.integers(0, 2))):
        y = draw(st.integers(0, size - 1))
        if draw(st.booleans()):
            i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
            rho[y][i][j] = (rho[y][i][j] + draw(st.integers(1, n - 1))) % n
        else:
            rho[y] = [list(r) for r in g.rho[draw(st.integers(0, size - 1))]]
    return _conj_tables(make_group_rep(g.quandle, n, rho))


def test_conjugation_rule_matches_reference():
    """On tables of conjugation type, the conjugation rule on S, with the
    scans of the generator rule after a failure, gives the (x, y, z) scan's
    report, failures and their order included.  Some cases pass, some fail
    a relation and some have a singular eta."""
    seen = set()

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(rep=_conjugation_rule_mutants())
    def check(rep):
        assert rep.rho is not None
        failures = _same_relations(rep).failures
        seen.add(failures[0][:3] if failures else "passed")

    check()
    assert seen == {"passed", "rel", "eta"}


def _quandle_tables():
    for n in range(3, 7):
        yield [list(r) for r in make_dihedral(n).table]
    for n in (2, 5):
        yield [list(r) for r in make_trivial(n).table]
    yield [list(r) for r in make_alexander(5, 2).table]
    for g in small_groups(6):
        yield [list(r) for r in make_conj(g).table]
        yield [list(r) for r in make_core(g).table]


def test_tables_match_reference():
    """Quandles pass; mutants of them (one entry changed, or two entries of
    a column swapped off the diagonal) and random tables of size <= 6 break
    each axiom somewhere, and axiom III alone; size 1 passes, and size 0 is
    refused, since a quandle has at least one element."""
    with pytest.raises(InputError, match="must be a non-empty list of rows$"):
        verify_axioms([])
    assert _same_axioms([[0]]).passed
    rng = random.Random(7)
    seen = set()
    only_three = False
    for table in _quandle_tables():
        assert _same_axioms(table).passed
        n = len(table)
        for _ in range(12 if n > 1 else 0):
            mutant = [row[:] for row in table]
            a, a2, b = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if rng.random() < 0.5:
                mutant[a][b] = (mutant[a][b] + rng.randrange(1, n)) % n
            elif b not in (a, a2):   # a column stays a permutation
                mutant[a][b], mutant[a2][b] = mutant[a2][b], mutant[a][b]
            failures = _same_axioms(mutant).failures
            seen.update(f.split(" fails")[0] for f in failures)
            only_three |= [f.split(" fails")[0] for f in failures] == ["axiom III"]
    for _ in range(100):
        n = rng.randrange(1, 7)
        _same_axioms([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    assert seen == {"axiom I", "axiom II", "axiom III"}
    assert only_three


# quandles whose greedy generating sets have 2 to 8 elements
_PROPERTY_TABLES = [*_quandle_tables(),
                    *([list(r) for r in make_dihedral(n).table] for n in (7, 8, 9)),
                    [list(r) for r in make_alexander(8, 3).table],
                    [list(r) for r in make_trivial(4).table]]


@st.composite
def _perturbed_tables(draw):
    """A quandle table with 0-2 swaps within a column, which keep axiom II
    and so take the generating-set route, and sometimes one arbitrary entry."""
    table = [row[:] for row in draw(st.sampled_from(_PROPERTY_TABLES))]
    index = st.integers(0, len(table) - 1)
    for _ in range(draw(st.integers(0, 2))):
        a, a2, b = draw(index), draw(index), draw(index)
        table[a][b], table[a2][b] = table[a2][b], table[a][b]
    if draw(st.booleans()):
        table[draw(index)][draw(index)] = draw(index)
    return table


_arbitrary_tables = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(table=st.one_of(_perturbed_tables(), _arbitrary_tables))
def test_generating_set_check_matches_reference(table):
    """Axiom III on a greedy generating set gives the a, b, c scan's report,
    failures and their order included, on perturbed quandles and on
    arbitrary tables."""
    _same_axioms(table)


EXTENSIONS = [  # the benchmark's extend configurations
    ("trivial:2", "trivial-action:2"), ("dihedral:3", "alexander-rep:3:2"),
    ("dihedral:4", "alexander-rep:3:2"), ("dihedral:5", "alexander-rep:5:2")]


@pytest.mark.parametrize("quandle,rep", EXTENSIONS)
def test_extension_matches_reference(quandle, rep):
    rep = _shorthand_rep(quandle, rep)
    table, report, ext = dynamical_extension(rep)
    assert table == _reference_extension(rep, None)
    assert (report.passed, report.failures) == _reference_axioms(table)
    assert report.passed and ext.size == len(table)


def test_cocycle_extension_matches_reference():
    """The 81-element extension of R3 by perm3 mod 3 with the first cocycle
    of the searched basis, and with a cochain that is no cocycle."""
    rep = _shorthand_rep("dihedral:3", "conj-rep:perm3")
    kappa = cocycle_space(ComplexConfig(rep=rep, variant="quandle"), 2)[0]
    broken = Cochain(2, 3, 3, {(0, 1): [1, 0, 0]})
    for k, passes in ((kappa, True), (broken, False)):
        table, report, ext = dynamical_extension(rep, k)
        assert len(table) == 81
        assert table == _reference_extension(rep, k)
        assert (report.passed, report.failures) == _reference_axioms(table)
        assert report.passed is passes and (ext is not None) is passes


def test_extension_has_ten_greedy_generators():
    """The 81-element extension of R3 by perm3 with a cocycle is a quandle
    that 10 greedy generators generate, so `verify_axioms` on its table
    checks axiom III on 10 of its 81 columns and passes, as the criterion
    that `dynamical_extension` decides it by says."""
    rep = _shorthand_rep("dihedral:3", "conj-rep:perm3")
    kappa = cocycle_space(ComplexConfig(rep=rep, variant="quandle"), 2)[0]
    table, report, _ = dynamical_extension(rep, kappa)
    assert report.passed and len(generating_set(table)) == 10
    assert verify_axioms(table).passed


# quandles, and tables that fail axiom I, axiom II, and axiom III alone
_EXTENSION_BASES = [make_trivial(1), make_trivial(2), make_dihedral(3), make_trivial(3),
                    FiniteQuandle(((1, 0), (0, 1))), FiniteQuandle(((0, 0), (0, 1))),
                    FiniteQuandle(((0, 2, 0), (2, 1, 1), (1, 0, 2)))]
# matrices invertible over every Z_N
_UNIT_MATRICES = {1: [[[1]], [[-1]]],
                  2: [[[1, 0], [0, 1]], [[0, 1], [1, 1]], [[1, 1], [0, 1]], [[2, 1], [1, 1]]]}


@st.composite
def _extension_inputs(draw):
    """A rep over Z_N of dimension m, N in {1, 2, 4, 6, 9} and m in {1, 2},
    on a quandle or a non-quandle table, with |E| <= 36: an Alexander rep,
    a conjugation-type table of a drawn rho (singular or not), random
    tables, or a mutant of a valid rep; and kappa None, a quandle or rack
    2-cocycle (kappa(x, x) may be nonzero), a cocycle written unreduced, or
    a random 2-cochain."""
    n, m = draw(st.sampled_from([(n, m) for n in (1, 2, 4, 6, 9) for m in (1, 2)
                                 if n ** m <= 36]))
    q = draw(st.sampled_from([q for q in _EXTENSION_BASES if n ** m * q.size <= 36]))
    size = q.size
    entries = st.integers(-n, 2 * n)

    def matrix():
        return [[draw(entries) for _ in range(m)] for _ in range(m)]

    unit = st.sampled_from(_UNIT_MATRICES[m])
    kind = draw(st.sampled_from(["alexander", "conj", "random", "mutant"]))
    if kind == "random":
        rep = make_rep(q, n, [[matrix() for _ in range(size)] for _ in range(size)],
                       [[matrix() for _ in range(size)] for _ in range(size)], check=False)
    elif kind == "conj":
        rho = [draw(unit) if draw(st.booleans()) else matrix() for _ in range(size)]
        eta = [rho] * size
        tau = [[mat_add(identity(m), mat_scale(-1, rho[q.op(x, y)], n), n)
                for y in range(size)] for x in range(size)]
        rep = make_rep(q, n, eta, tau, check=False)
    else:
        rep = make_alexander_rep(q, n, draw(unit))
        if kind == "mutant":
            rep = _mutant(rep, [(draw(st.sampled_from(["eta", "tau"])),
                                 draw(st.integers(0, size - 1)),
                                 draw(st.integers(0, size - 1)),
                                 draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)),
                                 draw(st.integers(0, n)))])
    kappa_kind = draw(st.sampled_from(["none", "cocycle", "rack", "random"]))
    if kappa_kind == "none":
        return rep, None
    values = {}
    if kappa_kind == "random" or n == 1 or not verify_axioms(q.table):
        for key in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                           st.integers(0, size - 1)), max_size=4)):
            values[key] = [draw(st.integers(-2 * n, 2 * n)) for _ in range(m)]
    else:
        variant = "quandle" if kappa_kind == "cocycle" else "rack"
        basis = cocycle_space(ComplexConfig(rep=rep, variant=variant), 2)
        for c in draw(st.lists(st.sampled_from(basis), max_size=2)) if basis else []:
            for key, v in c.values.items():
                old = values.get(key, [0] * m)
                values[key] = [a + b for a, b in zip(old, v)]
        if draw(st.booleans()):         # the same cochain, written unreduced
            values = {k: [e + n * draw(st.integers(-2, 2)) for e in v]
                      for k, v in values.items()}
    return rep, Cochain(degree=2, modulus=n, dim=m, values=values)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(case=_extension_inputs())
# a rack cocycle with kappa(0, 0) != 0 over the trivial action: E fails axiom I
@example(case=(make_alexander_rep(make_trivial(2), 2, 1), Cochain(2, 2, 1, {(0, 0): [1]})))
def test_extension_matches_reference_route(case):
    """The extension table by linearity, and the report of the criterion
    with E's scan after a failure, are the reference route's: the table
    with two matrix-vector products per cell and the a, b, c scan of it,
    failures and their order included, and the same quandle."""
    rep, kappa = case
    table, report, ext = dynamical_extension(rep, kappa)
    reference = _reference_extension(rep, kappa)
    assert table == reference
    passed, failures = _reference_axioms(reference)
    assert (report.passed, report.failures) == (passed, failures)
    if passed:
        assert ext == FiniteQuandle(tuple(map(tuple, reference)),
                                    label=f"ext({rep.quandle.label},{rep.label})")
    else:
        assert ext is None


def test_extension_scans_its_table_only_after_a_failure(monkeypatch):
    """A passing extension is decided on X's table, the rep and kappa:
    `verify_axioms` sees X's table only.  If X, the rep or kappa fails, E's
    table is scanned too, and its report is the one returned.  Over N = 1,
    where E is X, only E's table is scanned.  No matrix meets a vector."""
    seen = []

    def spy(table):
        seen.append(table)
        return verify_axioms(table)

    def refused(*args):
        raise AssertionError("a matrix-vector product per module vector")

    monkeypatch.setattr(invariants, "verify_axioms", spy)
    monkeypatch.setattr(invariants, "mat_vec", refused)
    perm3 = _shorthand_rep("dihedral:3", "conj-rep:perm3")
    kappa = cocycle_space(ComplexConfig(rep=perm3, variant="quandle"), 2)[0]
    broken = Cochain(2, 3, 3, {(0, 1): [1, 0, 0]})
    singular = _mutant(perm3, [("eta", 0, 1, 0, 0, 1)])
    not_a_quandle = FiniteQuandle(((0, 2, 0), (2, 1, 1), (1, 0, 2)))
    cases = [(perm3, kappa, True), (perm3, None, True), (perm3, broken, False),
             (singular, None, False),
             (make_alexander_rep(not_a_quandle, 2, 1), None, False)]
    for rep, k, passes in cases:
        seen.clear()
        table, report, ext = dynamical_extension(rep, k)
        assert seen[0] is rep.quandle.table
        if passes:
            assert len(seen) == 1 and report.passed and ext is not None
        else:
            assert len(seen) == 2 and seen[1] is table
            expected = verify_axioms(table)
            assert not report.passed and report.failures == expected.failures
    for passes, rep in ((True, make_alexander_rep(make_dihedral(3), 1, 1)),
                        (False, make_alexander_rep(not_a_quandle, 1, 1))):
        seen.clear()
        table, report, _ = dynamical_extension(rep)
        assert len(seen) == 1 and seen[0] is table and report.passed is passes
