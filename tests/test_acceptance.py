"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines as
they print).  Every criterion is exact; the runtime bounds are asserted
with a generous margin below the stated limits.
"""

import itertools
import json
import math
import random
import sys
import time

from quandlekit.algebra import (
    make_alexander_rep,
    make_conj_rep,
    make_rep,
    make_wada_rep,
    permutation_rep_r3,
    regular_group_rep,
    verify_relations,
)
from quandlekit.braids import (
    BraidWord,
    braid_or_knot,
    colored_matrix,
    colorings_of_closure,
    crossing_data,
    diagram_two_chain,
    markov_moves,
    parse_braid,
)
from quandlekit.cli import main as cli_main
from quandlekit.fox import alexander_polynomial
from quandlekit.homology import (
    Cochain,
    ComplexConfig,
    _basis,
    boundary_matrix,
    coboundary,
    cocycle_space,
    is_cocycle_2,
)
from quandlekit.invariants import (
    cocycle_invariant,
    dynamical_extension,
    module_invariant,
)
from quandlekit.linalg import mat_mul, mat_vec
from quandlekit.quandles import (
    make_alexander,
    make_conj,
    make_core,
    make_dihedral,
    make_trivial,
    verify_axioms,
)
from quandlekit.groups import cyclic_group, small_groups

from fox_calculus import fox_derivative

random.seed(2026)


def report(num: int, label: str, ok: bool, started: float, limit: float):
    elapsed = time.monotonic() - started
    status = "PASS" if ok else "FAIL"
    print(f"[PRIMARY] criterion {num:2d} ({label}): {status}  "
          f"[{elapsed:.2f}s / {limit:.0f}s]", file=sys.stderr)
    assert ok, f"criterion {num} failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def chain_pairings_match(rep, kappa, w, entries) -> bool:
    """On every coloring the per-crossing sum equals the pairing of kappa
    with the diagram 2-chain, and those sums are the invariant's entries."""
    N = rep.modulus

    def pairing(terms):
        total = [0] * rep.dim
        for sign, coef, key in terms:
            vec = mat_vec(coef, kappa.value(key), N)
            total = [(t + sign * c) % N for t, c in zip(total, vec)]
        return tuple(total)

    sums = []
    for coloring in colorings_of_closure(rep.quandle, w):
        data = crossing_data(rep, w, coloring)
        per_crossing = pairing((e, path, (x, y)) for e, path, x, y in data)
        chain = diagram_two_chain(rep, w, coloring).items()
        if per_crossing != pairing((1, coef, key) for key, coef in chain):
            return False
        sums.append(per_crossing)
    return tuple(sorted(sums)) == entries


def test_criterion_01_quandle_constructors():
    t0 = time.monotonic()
    ok = True
    for n in range(2, 13):
        ok &= verify_axioms([list(r) for r in make_dihedral(n).table]).passed
        for t in range(1, n):
            if math.gcd(t, n) == 1:
                ok &= verify_axioms(
                    [list(r) for r in make_alexander(n, t).table]).passed
    for g in small_groups(8):
        ok &= verify_axioms([list(r) for r in make_conj(g).table]).passed
    for n in range(2, 9):
        ok &= verify_axioms(
            [list(r) for r in make_core(cyclic_group(n)).table]).passed
    for n in range(2, 13):
        ok &= make_dihedral(n).table == make_alexander(n, n - 1).table
    report(1, "constructors and axioms", ok, t0, 5)


def test_criterion_02_representation_relations():
    t0 = time.monotonic()
    ok = True
    for q in (make_dihedral(3), make_dihedral(4), make_trivial(2)):
        for n, t in ((3, 2), (5, 4)):
            ok &= verify_relations(make_alexander_rep(q, n, t)).passed
    ok &= verify_relations(make_conj_rep(permutation_rep_r3(3))).passed
    for g in small_groups(8):
        grep = regular_group_rep(g, make_conj(g), list(range(g.size)), modulus=7)
        ok &= verify_relations(make_conj_rep(grep)).passed
    for g in small_groups(8):
        for m in (1, 2):
            gq = make_conj(g, power=m)
            grep = regular_group_rep(g, gq, list(range(g.size)), modulus=5)
            ok &= verify_relations(make_wada_rep(grep, m)).passed
        gc = make_core(g)
        grep = regular_group_rep(g, gc, list(range(g.size)), modulus=5)
        ok &= verify_relations(make_wada_rep(grep, "core")).passed
    report(2, "algebra relations incl. Wada variants", ok, t0, 5)


def test_criterion_03_boundary_squares_to_zero():
    t0 = time.monotonic()
    ok = True
    perm3 = make_conj_rep(permutation_rep_r3(3))
    for q in (make_dihedral(3), make_dihedral(4), make_trivial(2)):
        reps = [make_alexander_rep(q, 3, 2)]
        if q.size == 3 and q.label == "R3":
            reps.append(perm3)
        for rep in reps:
            cfg = ComplexConfig(rep=rep, variant="rack")
            for n in (0, 1, 2):
                prod = mat_mul(boundary_matrix(cfg, n),
                               boundary_matrix(cfg, n + 1), rep.modulus)
                ok &= all(all(x == 0 for x in row) for row in prod)
    report(3, "boundary squares to zero", ok, t0, 10)


def test_criterion_04_solver_vs_exhaustive():
    t0 = time.monotonic()
    ok = True
    q = make_dihedral(3)
    offdiag = [(x, y) for x in range(3) for y in range(3) if x != y]
    for p in (2, 3):
        rep = make_alexander_rep(q, p, 1)
        cfg = ComplexConfig(rep=rep, variant="quandle")
        dim = len(cocycle_space(cfg, 2))
        count = 0
        for vals in itertools.product(range(p), repeat=6):
            values = {k: [v] for k, v in zip(offdiag, vals) if v}
            if is_cocycle_2(cfg, Cochain(2, p, 1, values)):
                count += 1
        ok &= p ** dim == count
    report(4, "cocycle solver vs exhaustive oracle", ok, t0, 5)


def test_criterion_05_coloring_counts():
    t0 = time.monotonic()
    ok = True
    cases = [("3_1", 3, 9), ("4_1", 3, 3), ("4_1", 5, 25), ("5_1", 5, 25)]
    for name, p, want in cases:
        q = make_dihedral(p)
        w = braid_or_knot(name)
        ok &= len(colorings_of_closure(q, w)) == want
        variants = markov_moves(w)
        ok &= len(variants) >= 5
        for v in variants:
            ok &= len(colorings_of_closure(q, v)) == want
    report(5, "coloring counts and Markov variants", ok, t0, 2)


def test_criterion_06_two_chains_are_cycles():
    t0 = time.monotonic()
    ok = True
    q = make_dihedral(3)
    rep = make_conj_rep(permutation_rep_r3(3))
    cfg = ComplexConfig(rep=rep, variant="rack")
    b1 = boundary_matrix(cfg, 1)
    basis = _basis(cfg, 2)
    m, N = rep.dim, rep.modulus
    for name in ("3_1", "4_1"):
        w = braid_or_knot(name)
        for coloring in colorings_of_closure(q, w):
            chain = diagram_two_chain(rep, w, coloring)
            for j in range(m):
                vec = [0] * (len(basis) * m)
                for key, coef in chain.items():
                    base = basis[key] * m
                    for i in range(m):
                        vec[base + i] = coef[i][j]
                ok &= not any(mat_vec(b1, vec, N))
    report(6, "colored diagrams give 2-cycles", ok, t0, 2)


def test_criterion_07_cocycle_invariant_well_defined():
    t0 = time.monotonic()
    ok = True
    q = make_dihedral(3)
    rep = make_conj_rep(permutation_rep_r3(3))
    cfg = ComplexConfig(rep=rep, variant="quandle")
    basis = cocycle_space(cfg, 2)
    values: dict = {}
    for wgt, b in zip((1, 2, 1, 0, 2, 1, 1), basis):
        for key, v in b.values.items():
            cur = values.get(key, [0, 0, 0])
            nxt = [(a + wgt * c) % 3 for a, c in zip(cur, v)]
            if any(nxt):
                values[key] = nxt
            else:
                values.pop(key, None)
    kappa = Cochain(2, 3, 3, values)
    for name in ("3_1", "4_1"):
        w = braid_or_knot(name)
        # (c) the per-crossing sums equal the chain pairing on every coloring
        base = cocycle_invariant(rep, kappa, w)
        ok &= chain_pairings_match(rep, kappa, w, base.entries)
        # (a) Markov variants
        for v in markov_moves(w):
            ok &= cocycle_invariant(rep, kappa, v,
                                    check=False).entries == base.entries
        # (b) kappa + delta(phi) for 20 random phi
        for _ in range(20):
            phi = Cochain(1, 3, 3,
                          {(x,): [random.randrange(3) for _ in range(3)]
                           for x in range(3)})
            dphi = coboundary(cfg, phi)
            shifted = {}
            for key in itertools.product(range(3), repeat=2):
                v = [(a + b) % 3
                     for a, b in zip(kappa.value(key), dphi.value(key))]
                if any(v):
                    shifted[key] = v
            k2 = Cochain(2, 3, 3, shifted)
            ok &= cocycle_invariant(rep, k2, w,
                                    check=False).entries == base.entries
    report(7, "cocycle invariant well-defined", ok, t0, 10)


def test_criterion_08_module_invariant():
    t0 = time.monotonic()
    ok = True
    t1 = make_trivial(1)
    burau = make_alexander_rep(t1, 5, 2)
    ok &= module_invariant(burau, braid_or_knot("3_1")).entries == ((5,),)
    r3 = make_dihedral(3)
    for rep in (make_alexander_rep(r3, 3, 2),
                make_conj_rep(permutation_rep_r3(3))):
        for name in ("3_1", "4_1"):
            w = braid_or_knot(name)
            base = module_invariant(rep, w).entries
            for v in markov_moves(w):
                ok &= module_invariant(rep, v).entries == base
    rep = make_conj_rep(permutation_rep_r3(3))
    lhs, rhs = parse_braid("k=3; 1 2 1"), parse_braid("k=3; 2 1 2")
    for bottom in itertools.product(range(3), repeat=3):
        ok &= colored_matrix(rep, lhs, bottom) == colored_matrix(rep, rhs, bottom)
    report(8, "module invariant and braid relations", ok, t0, 5)


def test_criterion_09_extension_biconditional():
    t0 = time.monotonic()
    ok = True
    t2 = make_trivial(2)
    rep = make_alexander_rep(t2, 2, 1)
    cfg = ComplexConfig(rep=rep, variant="quandle")
    keys = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for vals in itertools.product(range(2), repeat=4):
        kappa = Cochain(2, 2, 1, {k: [v] for k, v in zip(keys, vals) if v})
        _, rpt, quandle = dynamical_extension(rep, kappa)
        ok &= bool(rpt) == is_cocycle_2(cfg, kappa)
        ok &= (quandle is not None) == bool(rpt)
    report(9, "dynamical extension biconditional", ok, t0, 5)


def test_criterion_10_fox_alexander():
    t0 = time.monotonic()
    ok = True
    X, Y = ((0, 1),), ((1, 1),)
    w = Y + X + ((1, -1),)
    ok &= fox_derivative(w, 0) == {Y: 1}
    ok &= fox_derivative(w, 1) == {(): 1, w: -1}
    ok &= alexander_polynomial(braid_or_knot("3_1")) == {0: 1, 1: -1, 2: 1}
    ok &= alexander_polynomial(braid_or_knot("4_1")) == {0: 1, 1: -3, 2: 1}
    for name in ("3_1", "4_1", "5_1"):
        word = braid_or_knot(name)
        det = abs(sum(c * (-1) ** e for e, c in alexander_polynomial(word).items()))
        for p in (3, 5, 7):
            count = len(colorings_of_closure(make_dihedral(p), word))
            ok &= count == (p * p if det % p == 0 else p)
    report(10, "Fox calculus and Alexander polynomial", ok, t0, 5)


def test_criterion_11_cli_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    ok = True
    runs = [
        ["colorings", "dihedral:5", "4_1"],
        ["search", "2", "dihedral:3", "conj-rep:perm3", "3"],
        ["invariant", "module", "--quandle", "dihedral:3",
         "--rep", "alexander-rep:3:2", "--knot", "3_1"],
        ["invariant", "alexander", "--knot", "5_1"],
    ]
    for argv in runs:
        outputs = []
        for jobs in (1, 1, 2, 4):
            code = cli_main(argv + ["--jobs", str(jobs)])
            ok &= code == 0
            outputs.append(capsys.readouterr().out)
        ok &= all(o == outputs[0] for o in outputs)
        json.loads(outputs[0])   # and each document is valid JSON
    report(11, "CLI byte-identical across runs and --jobs", ok, t0, 30)
