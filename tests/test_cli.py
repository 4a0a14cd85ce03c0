import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandlekit.cli as cli
import quandlekit.homology as homology
from quandlekit import io as qio
from quandlekit.algebra import make_alexander_rep, make_wada_rep, regular_group_rep
from quandlekit.cli import main
from quandlekit.errors import GuardExceeded, guarded, quoted
from quandlekit.groups import cyclic_group
from quandlekit.quandles import generating_set, make_core

from argparse_oracle import oracle_parse


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_quandle_ok(capsys):
    code, out = run(capsys, "check", "quandle", "dihedral:5")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_check_quandle_fail(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"size": 2, "table": [[1, 1], [0, 0]]}')
    code, out = run(capsys, "check", "quandle", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["failures"]


def test_input_error_exit_code(capsys):
    assert main(["check", "quandle", "dihedral:x"]) == 2
    assert main(["colorings", "dihedral:3", "not-a-braid"]) == 2


def test_quandle_constructor_message_shows(capsys):
    """The constructor's own complaint reaches the user, not only 'bad shorthand'."""
    assert main(["check", "quandle", "dihedral:0"]) == 2
    assert "quandle size must be positive" in capsys.readouterr().err
    assert main(["check", "quandle", "alexander:6:2"]) == 2
    assert "not a unit mod 6" in capsys.readouterr().err


def test_guard_exit_code(capsys):
    code = main(["colorings", "dihedral:3", "k=20; 1", "--guard", "100"])
    assert code == 3
    code = main(["check", "cocycle", "zero", "--quandle", "dihedral:20",
                 "--rep", "alexander-rep:5:2", "--degree", "3", "--guard", "1000"])
    assert code == 3


def test_degree_3_cocycle_check_on_dihedral_20(capsys, tmp_path):
    """`check cocycle` walks the 4-tuples that end in R20's generating set
    {0, 1}: the zero cochain passes, and the indicator of (3, 4, 5) fails,
    although its coboundary is nonzero at tuples that end elsewhere too.
    The guard counts what the check walks: 2 * 19^3 tuples of the quandle
    complex, 7 boundary terms each, 96,026 steps."""
    base = ["--quandle", "dihedral:20", "--rep", "trivial-action:9", "--degree", "3"]
    q = qio.load_quandle("dihedral:20")
    assert generating_set(q.table) == [0, 1]
    kappa = {(3, 4, 5): 1}

    def delta_at(t):
        # trivial coefficients, eta = I and tau = 0: each entry after the
        # first is removed, or acts on the entries before it
        terms = ((t[:i] + t[i + 1:], tuple(q.op(x, t[i]) for x in t[:i]) + t[i + 1:])
                 for i in range(1, len(t)))
        return sum((-1) ** i * (kappa.get(a, 0) - kappa.get(b, 0))
                   for i, (a, b) in enumerate(terms)) % 9

    assert [y for y in range(20) if delta_at((3, 4, 5, y))] == [
        y for y in range(20) if y != 5]
    path = tmp_path / "kappa.json"
    path.write_text(json.dumps({"degree": 3, "modulus": 9, "dim": 1,
                                "values": {"3,4,5": [1]}}))
    code, out = run(capsys, "check", "cocycle", str(path), *base)
    assert code == 1 and json.loads(out)["passed"] is False
    code, out = run(capsys, "check", "cocycle", "zero", *base, "--guard", "96026")
    assert code == 0 and json.loads(out)["passed"] is True
    assert main(["check", "cocycle", "zero", *base, "--guard", "96025"]) == 3
    assert capsys.readouterr().err == (
        "guard exceeded: 96026 boundary-term steps of the cocycle check (degree "
        "3: 7 terms of weight 1 on each tuple ending in 2 generators) exceed the "
        "guard of 96025\n")


def test_invariant_guard_exit_code(capsys):
    """`invariant` bounds its colorings and its cocycle check by --guard:
    3^5 = 243 candidate colorings, and in the degree-2 check of
    conj-rep:perm3 2 * 2^2 tuples of 5 boundary terms with 3 x 3 blocks,
    360 steps, checked before the colorings are listed.  `invariant module`
    also bounds the block walk of its colored matrix: 4 letters * 5 strands
    * 3^3 = 540 steps with the 3-dimensional rep."""
    argv = ["invariant", "module", "--quandle", "dihedral:3", "--rep",
            "conj-rep:perm3", "--braid", "k=5; 1 2 3 4", "--cocycle", "zero"]
    assert main(argv + ["--guard", "100"]) == 3
    assert "243 candidate colorings" in capsys.readouterr().err
    assert main(argv + ["--guard", "539"]) == 3
    assert "540 steps" in capsys.readouterr().err
    assert main(argv + ["--guard", "540"]) == 0
    argv[1] = "cocycle"
    assert main(argv + ["--guard", "359"]) == 3
    assert "360 boundary-term steps" in capsys.readouterr().err
    assert main(argv + ["--guard", "360"]) == 0


def test_search_and_homology_build_no_dense_matrix(capsys, monkeypatch):
    """delta reaches the elimination as sparse rows: with the dense
    coboundary_matrix and boundary_matrix refused, `search` and `homology`
    print what they print with them, over prime and composite moduli."""
    argvs = [["search", "3", "dihedral:3", "conj-rep:perm3", "3"],
             ["search", "2", "dihedral:4", "alexander-rep:8:3", "8"],
             ["homology", "3", "--quandle", "dihedral:5", "--rep", "trivial-action:5"],
             ["homology", "2", "--quandle", "dihedral:3", "--rep", "alexander-rep:9:2"],
             ["homology", "1", "--quandle", "dihedral:3", "--rep", "alexander-rep:6:5",
              "--variant", "rack"]]
    want = [run(capsys, *argv) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("a dense matrix was built")
    monkeypatch.setattr(homology, "coboundary_matrix", refuse)
    monkeypatch.setattr(homology, "boundary_matrix", refuse)
    assert [run(capsys, *argv) for argv in argvs] == want
    assert all(code == 0 for code, _ in want)
    assert json.loads(want[2][1])["invariant_factors"] == [5]


def test_coboundary_guard_comes_before_the_matrix(capsys, monkeypatch):
    """`search` and `homology` compare the |basis(d+1)| |basis(d)| m^2 cells
    of delta^d in the chosen complex with --guard before building it: in
    the quandle complex, s (s-1)^(n-1) n-tuples.  R20 with degree 3 is
    137,180 x 7,220 = 990,439,600 cells, which passes every other guard of
    `search`."""
    def refuse(*args, **kwargs):
        raise AssertionError("delta was built")
    monkeypatch.setattr(homology, "_assemble", refuse)
    assert main(["search", "3", "dihedral:20", "alexander-rep:5:2", "5"]) == 3
    assert "990439600 coboundary cells" in capsys.readouterr().err
    # delta^2 on R5 with m = 1 is 80 x 20 = 1600 cells
    argv = ["homology", "2", "--quandle", "dihedral:5", "--rep", "alexander-rep:5:2"]
    assert main(argv + ["--guard", "1599"]) == 3
    assert "1600 coboundary cells" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(argv + ["--guard", "1600"]) == 0
    # conj-rep:perm3 has dim 3: delta^2 on R3 has 12 x 6 x 3^2 = 648 cells,
    # and 3^5 x 3^2 = 2187 in the rack complex
    argv = ["search", "2", "dihedral:3", "conj-rep:perm3", "3", "--guard"]
    assert main(argv + ["647"]) == 3
    assert main(argv + ["648"]) == 0
    argv = ["homology", "2", "--quandle", "dihedral:3", "--rep", "conj-rep:perm3",
            "--guard"]
    assert main(argv + ["648"]) == 0
    assert main(argv + ["2186", "--variant", "rack"]) == 3
    assert main(argv + ["2187", "--variant", "rack"]) == 0


def test_alexander_guard_exit_code(capsys):
    """T(2, 11): 11 letters on 2 strands make 11 * 2 * 12 = 264 coefficient
    steps of the Burau walk and 1^3 * 12^2 = 144 of its 1 x 1 minor, 408 in
    all: it passes the default guard and a guard of 408, and exits 3 below
    that."""
    argv = ["invariant", "alexander", "--braid", "k=2; " + " ".join(["1"] * 11)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["display"].startswith("t^10 - t^9")
    assert main(argv + ["--guard", "408"]) == 0
    for guard in ("407", "100"):
        assert main(argv + ["--guard", guard]) == 3
        assert "408 Laurent coefficient steps" in capsys.readouterr().err


def test_alexander_of_a_105_crossing_knot(capsys):
    """T(8, 15), 105 crossings on 8 strands, passes the default guard, which
    the arcs^4 estimate of the Wirtinger minor refused, and exits 3 one step
    below its bound of 105 * 8 * 106 + 7^3 * 106^2 = 3,942,988."""
    torus = "k=8; " + " ".join(["1 2 3 4 5 6 7"] * 15)
    assert main(["invariant", "alexander", "--braid", torus]) == 0
    poly = json.loads(capsys.readouterr().out)["polynomial"]
    assert max(map(int, poly)) == 98 and poly["0"] == poly["98"] == 1
    assert main(["invariant", "alexander", "--braid", torus,
                 "--guard", "3942988"]) == 0
    capsys.readouterr()
    assert main(["invariant", "alexander", "--braid", torus,
                 "--guard", "3942987"]) == 3
    assert "3942988 Laurent coefficient steps" in capsys.readouterr().err


def test_alexander_refuses_many_strands_before_building(capsys):
    """A knot on k strands needs at least k - 1 letters, so k = 10^9 with one
    letter is a link, refused without a list of k entries."""
    t0 = time.monotonic()
    assert main(["invariant", "alexander", "--braid", "k=1000000000; 1"]) == 2
    assert time.monotonic() - t0 < 1
    assert "closure is a link" in capsys.readouterr().err
    # k = letters + 1 still reaches the component count
    assert main(["invariant", "alexander", "--braid", "k=3; 1 2"]) == 0
    assert main(["invariant", "alexander", "--braid", "k=3; 1 1"]) == 2


def test_check_rep(capsys):
    code, out = run(capsys, "check", "rep", "conj-rep:perm3")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_json_rep_verifies_once(capsys, tmp_path, monkeypatch):
    """`check rep` runs the relations once; a failing JSON rep prints its
    check document and exits 1, as `check quandle` does."""
    from quandlekit import algebra, cli
    from quandlekit.io import load_rep, rep_to_doc
    verify, calls = algebra.verify_relations, []

    def counted(rep, *args):
        calls.append(rep)
        return verify(rep, *args)

    monkeypatch.setattr(algebra, "verify_relations", counted)
    monkeypatch.setattr(cli, "verify_relations", counted)
    doc = rep_to_doc(load_rep("conj-rep:perm3"))
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(doc))
    eta = [[[list(r) for r in m] for m in row] for row in doc["eta"]]
    eta[0][1] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    bad.write_text(json.dumps({**doc, "eta": eta}))
    code, out = run(capsys, "check", "rep", str(good))
    assert code == 0 and json.loads(out)["passed"] is True
    assert len(calls) == 1
    code, out = run(capsys, "check", "rep", str(bad))
    report = json.loads(out)
    assert code == 1 and report["passed"] is False and report["failures"]
    assert len(calls) == 2


def test_check_rep_with_singular_eta_prints_report(capsys, tmp_path):
    """A mod-6 rep with eta = 3 fails `check rep` with its JSON document."""
    from quandlekit.algebra import make_rep
    from quandlekit.io import rep_to_doc
    from quandlekit.quandles import make_trivial
    rep = make_rep(make_trivial(1), 6, [[[[3]]]], [[[[4]]]], check=False)
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(rep_to_doc(rep)))
    code, out = run(capsys, "check", "rep", str(path))
    report = json.loads(out)
    assert code == 1 and report["passed"] is False
    assert report["failures"] == ["eta[0][0] is not invertible mod 6"]


def test_json_rep_with_tau_minus_one_is_the_alexander_rep(capsys, tmp_path):
    """R3 with eta = 2 and tau = -1 mod 5, as JSON, is alexander-rep:5:2
    with 1 - t written unreduced: `check rep` passes, and `homology` and
    `search` give the shorthand's factors and basis."""
    path = tmp_path / "tau.json"
    path.write_text(json.dumps({"modulus": 5, "dim": 1, "eta": [[[[2]]] * 3] * 3,
                                "tau": [[[[-1]]] * 3] * 3}))
    code, out = run(capsys, "check", "rep", str(path), "--quandle", "dihedral:3")
    assert code == 0 and json.loads(out)["passed"] is True
    for key, argv in (("invariant_factors", ["homology", "2", "--quandle",
                                             "dihedral:3", "--rep", "{}"]),
                      ("basis", ["search", "2", "dihedral:3", "{}", "5"])):
        docs = []
        for rep in (str(path), "alexander-rep:5:2"):
            code, out = run(capsys, *(a.format(rep) for a in argv))
            assert code == 0
            docs.append(json.loads(out)[key])
        assert docs[0] == docs[1]
    assert docs[0]


@pytest.mark.parametrize("quandle", ["trivial:1", "dihedral:3"])
def test_check_rep_mod_1_passes(capsys, quandle):
    """Mod 1 the identity is the zero matrix, so relation (4) holds."""
    code, out = run(capsys, "check", "rep", "trivial-action:1", "--quandle", quandle)
    assert code == 0 and json.loads(out)["passed"] is True


_SHIFTED_BASES = [("dihedral:3", "alexander-rep:5:2"), ("dihedral:3", "conj-rep:perm3"),
                  ("trivial:2", [[0, 1], [1, 1]])]


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(base=st.sampled_from(_SHIFTED_BASES), seed=st.integers(0, 2 ** 16))
def test_shifted_json_rep_gives_the_same_documents(tmp_path_factory, base, seed):
    """A JSON rep whose entries are shifted by random multiples of N, some
    negative, gives byte for byte the documents of the reduced rep from
    `check rep`, `homology`, `invariant module` and `extend`."""
    quandle, spec = base
    q = qio.load_quandle(quandle)
    rep = (qio.load_rep(spec, q) if isinstance(spec, str)
           else make_alexander_rep(q, 3, spec))
    doc, n, rng = qio.rep_to_doc(rep), rep.modulus, random.Random(seed)
    shifted = {**doc, **{k: [[[[e + n * rng.randint(-3, 3) for e in r] for r in m]
                              for m in row] for row in doc[k]] for k in ("eta", "tau")}}
    tmp = tmp_path_factory.mktemp("shifted")
    path, out = tmp / "rep.json", tmp / "out.json"
    argvs = [["check", "rep", str(path)],
             ["homology", "2", "--rep", str(path)],
             ["invariant", "module", "--rep", str(path), "--knot", "3_1"],
             ["extend", "--rep", str(path)]]
    documents = []
    for tables in (doc, shifted):
        path.write_text(json.dumps(tables))
        for argv in argvs:
            code = main([*argv, "--quandle", quandle, "--out", str(out)])
            documents.append((code, out.read_bytes()))
    assert shifted != doc
    assert documents[:4] == documents[4:]
    assert [code for code, _ in documents] == [0] * 8


def test_colorings_document(capsys):
    code, out = run(capsys, "colorings", "dihedral:3", "3_1")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 9
    assert len(doc["colorings"]) == 9


def test_colorings_deterministic_across_jobs(capsys):
    _, a = run(capsys, "colorings", "dihedral:5", "4_1")
    _, b = run(capsys, "colorings", "dihedral:5", "4_1", "--jobs", "4")
    _, c = run(capsys, "colorings", "dihedral:5", "4_1", "--jobs", "2")
    assert a == b == c
    # a 5-strand braid over R7 (343 colorings): the slices of the first
    # bottom color that two workers search join to one process's JSON
    braid = "k=5; 3 4 -4 -2 4 4 -1 -3 1"
    _, a = run(capsys, "colorings", "dihedral:7", braid, "--jobs", "1")
    _, b = run(capsys, "colorings", "dihedral:7", braid, "--jobs", "2")
    assert a == b
    assert json.loads(a)["count"] == 343


def test_search_and_check_cocycle(capsys, tmp_path):
    code, out = run(capsys, "search", "2", "dihedral:3", "conj-rep:perm3", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == len(doc["basis"]) > 0
    kappa_path = tmp_path / "kappa.json"
    kappa_path.write_text(json.dumps(doc["basis"][0]))
    code2, out2 = run(capsys, "check", "cocycle", str(kappa_path),
                      "--rep", "conj-rep:perm3")
    assert code2 == 0
    assert json.loads(out2)["passed"] is True


def test_search_over_composite_modulus(capsys, tmp_path):
    """Over Z_9 `search` gives generators, each a cocycle by `check cocycle`,
    that span a group of the order of ker(delta) from ker_mod_im."""
    import math
    from quandlekit.homology import ComplexConfig, coboundary_matrix
    from quandlekit.io import load_quandle, load_rep
    from quandlekit.linalg import cokernel_mod
    from dense_linalg import ker_mod_im
    args = ["dihedral:3", "alexander-rep:9:2", "9"]
    code, out = run(capsys, "search", "2", *args)
    assert code == 0
    doc = json.loads(out)
    assert doc["prime"] == 9 and doc["dimension"] == len(doc["basis"]) > 0
    for i, kappa in enumerate(doc["basis"]):
        path = tmp_path / f"kappa{i}.json"
        path.write_text(json.dumps(kappa))
        code, out = run(capsys, "check", "cocycle", str(path),
                        "--quandle", args[0], "--rep", args[1])
        assert code == 0 and json.loads(out)["passed"] is True
    keys = [f"{x},{y}" for x in range(3) for y in range(3)]
    cols = [[k["values"].get(key, [0])[0] for k in doc["basis"]] for key in keys]
    span = 9 ** len(keys) // math.prod(cokernel_mod(cols, 9))
    rep = load_rep(args[1], quandle=load_quandle(args[0]))
    block = coboundary_matrix(ComplexConfig(rep=rep), 2)
    # |Z^2| = |H^2| |B^2| = 9 * 9^3 / |ker delta^1| = 9 * 27
    assert span == math.prod(ker_mod_im(block, [[] for _ in block[0]], 9)) == 243


def test_invariant_alexander(capsys):
    code, out = run(capsys, "invariant", "alexander", "--knot", "4_1")
    assert code == 0
    doc = json.loads(out)
    assert doc["polynomial"] == {"0": 1, "1": -3, "2": 1}
    assert doc["display"] == "t^2 - 3t + 1"


def test_invariant_module(capsys):
    code, out = run(capsys, "invariant", "module", "--quandle", "trivial:1",
                    "--rep", "alexander-rep:5:2", "--knot", "3_1")
    assert code == 0
    doc = json.loads(out)
    assert doc["multiset"] == [[5]]


def test_invariant_module_mod_1_both_mirrors(capsys):
    """Mod 1 t = 2 is 0, a matrix singular over Q but invertible mod 1; the
    negative crossings invert it, so the mirror once exited 2."""
    docs = []
    for braid in ("k=2; 1 1 1", "k=2; -1 -1 -1"):
        code, out = run(capsys, "invariant", "module", "--quandle", "dihedral:3",
                        "--rep", "alexander-rep:1:2", "--braid", braid)
        assert code == 0
        docs.append(json.loads(out))
    assert docs[0]["multiset"] == docs[1]["multiset"] == [[]] * 9


def test_invariant_cocycle_and_compare(capsys, tmp_path):
    _, search_out = run(capsys, "search", "2", "dihedral:3", "conj-rep:perm3", "3")
    basis = json.loads(search_out)["basis"]
    kappa_path = tmp_path / "kappa.json"
    kappa_path.write_text(json.dumps(basis[1]))
    a_path = tmp_path / "a.json"
    code, _ = run(capsys, "invariant", "cocycle", "--quandle", "dihedral:3",
                  "--rep", "conj-rep:perm3", "--cocycle", str(kappa_path),
                  "--knot", "3_1", "--out", str(a_path))
    assert code == 0
    code2, _ = run(capsys, "invariant", "cocycle", "--quandle", "dihedral:3",
                   "--rep", "conj-rep:perm3", "--cocycle", str(kappa_path),
                   "--knot", "3_1", "--jobs", "3", "--out", str(tmp_path / "b.json"))
    assert code2 == 0
    assert a_path.read_text() == (tmp_path / "b.json").read_text()
    code3, out3 = run(capsys, "compare", str(a_path), str(a_path))
    assert code3 == 0
    assert json.loads(out3)["contained"] is True


def test_homology_command(capsys):
    code, out = run(capsys, "homology", "2", "--quandle", "dihedral:3",
                    "--rep", "conj-rep:perm3")
    assert code == 0
    assert json.loads(out)["invariant_factors"] == [3]


def test_homology_rack_degree_3_finishes(capsys):
    """Once over 100 s, when cohomology lifted its matrices to Z."""
    code, out = run(capsys, "homology", "3", "--quandle", "dihedral:3",
                    "--rep", "alexander-rep:5:2", "--variant", "rack")
    assert code == 0
    assert json.loads(out)["invariant_factors"] == []


def test_homology_is_bounded_by_its_cells_and_its_degrees(capsys):
    """`homology` takes a quandle of any size within the coboundary-cells
    guard, as `search` does: H^3_Q(R7; Z7) = Z7, while R12's 23,191,344
    cells exit 3.  A degree outside 0-3 exits 2."""
    code, out = run(capsys, "homology", "3", "--quandle", "dihedral:7",
                    "--rep", "trivial-action:7")
    assert code == 0 and json.loads(out)["invariant_factors"] == [7]
    assert main(["homology", "3", "--quandle", "dihedral:12",
                 "--rep", "alexander-rep:3:2"]) == 3
    assert capsys.readouterr().err == ("guard exceeded: 23191344 coboundary "
                                       "cells exceed the guard of 10000000\n")
    for degree in ("4", "-1"):
        assert main(["homology", degree, "--quandle", "dihedral:3",
                     "--rep", "alexander-rep:3:2"]) == 2
        assert capsys.readouterr().err == (f"input error: cohomology supports "
                                           f"degrees 0 to 3, got {degree}\n")


def test_search_over_a_composite_modulus_keeps_its_dimension(capsys):
    """Every modulus eliminates the rows at the tuples ending in the
    generating set; over Z_8 the generators changed, their number did not."""
    code, out = run(capsys, "search", "2", "dihedral:4", "alexander-rep:8:3", "8")
    assert code == 0 and json.loads(out)["dimension"] == 6


def test_extend_command(capsys):
    code, out = run(capsys, "extend", "--quandle", "trivial:2",
                    "--rep", "trivial-action:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["size"] == 4


def test_every_document_is_the_stdlib_encoding(capsys, tmp_path):
    """Each subcommand writes the bytes that json.dumps gives for its parsed
    document with sorted keys and an indent of one space, passing and
    failing checks, empty multiset entries and JSON input included."""
    _, out = run(capsys, "search", "2", "dihedral:3", "conj-rep:perm3", "3")
    kappa = tmp_path / "kappa.json"
    kappa.write_text(json.dumps(json.loads(out)["basis"][1]))
    bad = tmp_path / "bad.json"
    bad.write_text('{"size": 2, "table": [[1, 1], [0, 0]]}')
    cocycle = ["invariant", "cocycle", "--quandle", "dihedral:3", "--rep",
               "conj-rep:perm3", "--cocycle", str(kappa), "--knot", "3_1"]
    a = tmp_path / "a.json"
    assert main(cocycle + ["--out", str(a)]) == 0
    commands = [
        (0, ["check", "quandle", "dihedral:5"]),
        (1, ["check", "quandle", str(bad)]),
        (0, ["check", "rep", "conj-rep:perm3"]),
        (0, ["check", "cocycle", str(kappa), "--rep", "conj-rep:perm3"]),
        (0, ["colorings", "dihedral:5", "4_1"]),
        (0, ["colorings", "trivial:1", "k=3; 1 -2"]),
        (0, ["search", "3", "dihedral:3", "alexander-rep:3:2", "3"]),
        (0, ["search", "3", "dihedral:7", "alexander-rep:7:3", "7"]),
        (0, ["invariant", "alexander", "--knot", "4_1"]),
        (0, ["invariant", "module", "--quandle", "dihedral:3", "--rep",
             "alexander-rep:5:2", "--knot", "3_1"]),
        (0, ["invariant", "module", "--quandle", "dihedral:3", "--rep",
             "alexander-rep:1:2", "--knot", "3_1"]),
        (0, ["invariant", "module", "--quandle", "dihedral:7", "--rep",
             "alexander-rep:7:2", "--braid", "k=5; 1 1 1 2 -1 2 3 3 3 4 -3 4"]),
        (0, cocycle),
        (0, ["homology", "2", "--quandle", "dihedral:3", "--rep", "conj-rep:perm3"]),
        (0, ["compare", str(a), str(a)]),
        (0, ["extend", "--quandle", "dihedral:3", "--rep", "conj-rep:perm3",
             "--cocycle", str(kappa)]),
        (0, ["extend", "--quandle", "dihedral:3", "--rep", "alexander-rep:3:2"]),
    ]
    for want, argv in commands:
        code, out = run(capsys, *argv)
        assert code == want, argv
        assert out == json.dumps(json.loads(out), sort_keys=True,
                                 separators=(",", ": "), indent=1) + "\n", argv
    assert a.read_text() == run(capsys, *cocycle)[1]


@pytest.mark.parametrize("argv", [
    ["check", "quandle", "{empty}"],
    ["colorings", "{empty}", "k=2; 1"],
    ["invariant", "module", "--quandle", "{empty}", "--rep", "alexander-rep:5:2",
     "--braid", "k=2; 1"],
], ids=lambda argv: argv[0])
def test_empty_quandle_table_exits_2(capsys, tmp_path, argv):
    """A quandle has at least one element: an empty table is refused by
    `verify_axioms`, the one rule of a table's form, wherever it is read."""
    path = tmp_path / "empty.json"
    path.write_text('{"size": 0, "table": []}')
    code = main([a.format(empty=path) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == "input error: a quandle table must be a non-empty list of rows\n"
    assert out == ""


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_out_to_unwritable_path_is_input_error(capsys, tmp_path, where):
    """A missing directory or a directory itself exits 2, naming the path."""
    path = tmp_path / where
    code = main(["colorings", "dihedral:3", "3_1", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert repr(str(path)) in captured.err


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out = run(capsys, "colorings", "dihedral:3", "3_1", "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["count"] == 9


def _write_inputs(tmp_path):
    """A mod-3, dim-3 cochain, ones with a key outside R3, a key that is not
    integers, a value that is not a list, a value entry that is not an
    integer, modulus 0 and 'values' that is not an object, JSON reps of
    conj-rep:perm3 without a 'quandle' key and with a broken 'eta', a file
    holding the number 5 and an invariant document whose 'multiset' is 5.
    Then documents of each kind holding JSON true where an integer belongs,
    a quandle whose 'size' disagrees with its valid R3 table and one whose
    'table' is not a list of rows."""
    from quandlekit.io import load_rep, rep_to_doc
    doc = rep_to_doc(load_rep("conj-rep:perm3"))
    del doc["quandle"]
    paths = {"rep_noq": doc, "rep_bad_eta": {**doc, "eta": doc["eta"][:2]},
             "kappa3": {"degree": 2, "modulus": 3, "dim": 3,
                        "values": {"0,1": [1, 0, 0]}},
             "kappa_deg1": {"degree": 1, "modulus": 3, "dim": 3,
                            "values": {"0": [1, 0, 0]}},
             "kappa_deg3": {"degree": 3, "modulus": 3, "dim": 3,
                            "values": {"0,1,2": [1, 0, 0]}},
             "kappa_key": {"degree": 2, "modulus": 3, "dim": 3,
                           "values": {"0,5": [1, 0, 0]}},
             "kappa_text_key": {"degree": 2, "modulus": 3, "dim": 3,
                                "values": {"a,b": [1, 0, 0]}},
             "kappa_scalar": {"degree": 2, "modulus": 3, "dim": 3,
                              "values": {"0,1": 1}},
             "kappa_entry": {"degree": 2, "modulus": 3, "dim": 3,
                             "values": {"0,1": ["x", 0, 0]}},
             "kappa_mod0": {"degree": 2, "modulus": 0, "dim": 3,
                            "values": {"0,1": [1, 0, 0]}},
             "kappa_list": {"degree": 2, "modulus": 3, "dim": 3,
                            "values": [[1, 0, 0]]},
             "num": 5, "ms5": {"multiset": 5},
             "q_bool": {"table": [[0, 0], [True, 1]]},
             "q_size_bool": {"size": True, "table": [[0]]},
             "q_size": {"size": 5, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]},
             "q_rows": {"table": [1, 2]},
             "rep_bool_mod": {**doc, "modulus": True},
             "rep_bool_eta": {**doc, "eta": json.loads(
                 json.dumps(doc["eta"]).replace("1", "true"))},
             "kappa_bool": {"degree": 2, "modulus": 3, "dim": 3,
                            "values": {"0,1": [True, 0, 0]}},
             "kappa_bool_dim": {"degree": 2, "modulus": 5, "dim": True,
                                "values": {"0,1": [0]}},
             "ms_bool": {"multiset": [[True]], "modulus": 3, "dim": 1},
             "ms_bool_mod": {"multiset": [[1]], "modulus": True, "dim": 1}}
    for name, content in paths.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
        paths[name] = str(tmp_path / f"{name}.json")
    return paths


MISMATCH = ["--quandle", "trivial:3", "--rep", "conj-rep:perm3"]


@pytest.mark.parametrize("argv", [
    ["invariant", "module", *MISMATCH, "--knot", "3_1"],
    ["invariant", "cocycle", *MISMATCH, "--cocycle", "zero", "--knot", "3_1"],
    ["homology", "2", *MISMATCH],
    ["search", "2", "trivial:3", "conj-rep:perm3", "3"],
    ["extend", *MISMATCH],
    ["check", "rep", "conj-rep:perm3", "--quandle", "dihedral:5"],
    ["invariant", "module", "--rep", "conj-rep:perm3", "--knot", "3_1"],
    ["invariant", "module", "--quandle", "dihedral:3", "--knot", "3_1"],
    ["invariant", "cocycle", "--quandle", "dihedral:3", "--rep", "conj-rep:perm3",
     "--knot", "3_1"],
    ["check", "rep", "{rep_noq}", "--quandle", "dihedral:5"],
    ["check", "rep", "{rep_noq}", "--quandle", "trivial:2"],
    ["check", "rep", "{rep_bad_eta}", "--quandle", "dihedral:3"],
    ["check", "cocycle", "{kappa3}", "--quandle", "dihedral:3",
     "--rep", "alexander-rep:5:2"],
    ["extend", "--quandle", "dihedral:3", "--rep", "alexander-rep:5:2",
     "--cocycle", "{kappa3}"],
    ["check", "cocycle", "{kappa_key}", "--rep", "conj-rep:perm3"],
    ["check", "cocycle", "{kappa_text_key}", "--rep", "conj-rep:perm3"],
    ["check", "cocycle", "{kappa_scalar}", "--rep", "conj-rep:perm3"],
    ["check", "cocycle", "{kappa_entry}", "--rep", "conj-rep:perm3"],
    ["check", "cocycle", "{kappa_mod0}", "--rep", "conj-rep:perm3"],
    ["check", "cocycle", "{kappa_list}", "--rep", "conj-rep:perm3"],
    ["check", "rep", "alexander-rep:x:2", "--quandle", "dihedral:3"],
    ["check", "rep", "alexander-rep:0:2", "--quandle", "dihedral:3"],
    ["check", "rep", "conj-rep:perm3:-3"],
    ["check", "quandle", "{num}"],
    ["check", "rep", "{num}", "--quandle", "dihedral:3"],
    ["compare", "{ms5}", "{ms5}"],
    ["homology", "-1", "--quandle", "dihedral:3", "--rep", "alexander-rep:3:2"],
    ["search", "4", "dihedral:3", "conj-rep:perm3", "3"],
    ["check", "quandle", "{q_bool}"],
    ["colorings", "{q_bool}", "3_1"],
    ["check", "quandle", "{q_size_bool}"],
    ["check", "quandle", "{q_size}"],
    ["colorings", "{q_size}", "3_1"],
    ["check", "quandle", "{q_rows}"],
    ["colorings", "{q_rows}", "3_1"],
    ["check", "rep", "{rep_bool_mod}", "--quandle", "dihedral:3"],
    ["check", "rep", "{rep_bool_eta}", "--quandle", "dihedral:3"],
    ["check", "cocycle", "{kappa_bool}", "--rep", "conj-rep:perm3"],
    ["check", "cocycle", "{kappa_bool_dim}", "--quandle", "dihedral:3",
     "--rep", "alexander-rep:5:2"],
    ["compare", "{ms_bool}", "{ms_bool}"],
    ["compare", "{ms_bool_mod}", "{ms_bool_mod}"],
    # kappa(x, y) of another degree would read as zero: the untwisted table
    ["extend", "--quandle", "dihedral:3", "--rep", "conj-rep:perm3",
     "--cocycle", "{kappa_deg1}"],
    ["extend", "--quandle", "dihedral:3", "--rep", "conj-rep:perm3",
     "--cocycle", "{kappa_deg3}"],
    # --degree names the degree to check, so it must be the file's
    ["check", "cocycle", "{kappa3}", "--quandle", "dihedral:3",
     "--rep", "conj-rep:perm3", "--degree", "3"],
], ids=lambda argv: " ".join(argv))
def test_inconsistent_input_exits_2(capsys, tmp_path, argv):
    paths = _write_inputs(tmp_path)
    code = main([a.format(**paths) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("input error:")
    assert "Traceback" not in out + err


def test_cocycle_invariant_without_rho_exits_2_unchecked(capsys, monkeypatch, tmp_path):
    """A JSON rep whose eta depends on x, the core Wada rep of Z3 on R3, has
    no rho, and is refused before the cocycle check runs."""
    from quandlekit import invariants

    def cocycle_check(*args, **kwargs):
        raise AssertionError("cocycle checked before the rep's rho")

    z3 = cyclic_group(3)
    wada = make_wada_rep(regular_group_rep(z3, make_core(z3), range(3), 5), "core")
    assert wada.eta[0][0] != wada.eta[1][0]
    path = tmp_path / "wada.json"
    path.write_text(json.dumps(qio.rep_to_doc(wada)))
    monkeypatch.setattr(invariants, "_cocycle_verdict", cocycle_check)
    code = main(["invariant", "cocycle", "--quandle", "dihedral:3",
                 "--rep", str(path), "--cocycle", "zero", "--knot", "3_1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "conjugation-type" in err and "Traceback" not in out + err


def test_cocycle_check_names_supported_degrees(capsys):
    """`check cocycle` takes every degree from 0 up, and the fit rule names
    that floor.  A walk with no tuples, as in the quandle complex of T1,
    ends at once in any degree; a tuple of d + 1 entries weighs one unit
    more per 16 entries past 16, so the two tuples of T2 in degree 10^6 are
    refused, not walked."""
    for degree in ("0", "1", "4"):
        code, out = run(capsys, "check", "cocycle", "zero", "--rep", "conj-rep:perm3",
                        "--degree", degree)
        assert code == 0 and json.loads(out)["passed"] is True, degree
    assert main(["check", "cocycle", "zero", "--rep", "conj-rep:perm3",
                 "--degree", "-1"]) == 2
    assert capsys.readouterr().err == (
        "input error: the cochain is of degree -1, not of degree >= 0\n")
    base = ["check", "cocycle", "zero", "--rep", "trivial-action:3", "--quandle"]
    code, out = run(capsys, *base, "trivial:1", "--degree", str(10 ** 9))
    assert code == 0 and json.loads(out)["passed"] is True
    assert main(base + ["trivial:2", "--degree", str(10 ** 6)]) == 3
    assert capsys.readouterr().err.startswith(
        "guard exceeded: 250004125002 boundary-term steps of the cocycle check "
        "(degree 1000000: 2000001 terms of weight 62501 on each tuple ending in 2 "
        "generators)")


def test_rep_on_matching_quandle(capsys):
    code, out = run(capsys, "invariant", "cocycle", "--quandle", "dihedral:3",
                    "--rep", "conj-rep:perm3", "--cocycle", "zero", "--knot", "3_1")
    assert code == 0
    doc = json.loads(out)
    assert doc["colorings"] == len(doc["multiset"]) == 9


REFERENCE_ONLY = {"laurent": ("laurent_gcd_of_minors", "lp_gcd"),
                  "linalg": ("smith_normal_form", "int_kernel", "lattice_basis",
                             "solve_exact", "quotient_invariant_factors",
                             "mat_frac_inverse")}


def test_no_command_reaches_the_reference_only_code(capsys, tmp_path, monkeypatch):
    """The gcd of minors and the lattice route are test references only: with
    each replaced by a raising stub, wherever a quandlekit module binds it,
    one command of every kind still exits 0."""
    import importlib
    import sys

    for layer, names in REFERENCE_ONLY.items():
        home = importlib.import_module(f"quandlekit.{layer}")
        for name in names:
            orig = getattr(home, name)

            def stub(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} was called")

            for mod in [m for n, m in sys.modules.items()
                        if n == "quandlekit" or n.startswith("quandlekit.")]:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, attr, stub)
    code, basis = run(capsys, "search", "2", "dihedral:3", "conj-rep:perm3", "3")
    assert code == 0
    kappa = tmp_path / "kappa.json"
    kappa.write_text(json.dumps(json.loads(basis)["basis"][1]))
    a = str(tmp_path / "a.json")
    for argv in (
            ["check", "quandle", "dihedral:5"],
            ["check", "rep", "alexander-rep:9:2", "--quandle", "dihedral:3"],
            ["check", "cocycle", str(kappa), "--rep", "conj-rep:perm3"],
            ["colorings", "dihedral:5", "4_1"],
            ["search", "2", "dihedral:3", "alexander-rep:9:2", "9"],
            ["invariant", "cocycle", "--quandle", "dihedral:3", "--rep",
             "conj-rep:perm3", "--cocycle", str(kappa), "--knot", "3_1", "--out", a],
            ["invariant", "module", "--quandle", "dihedral:3", "--rep",
             "alexander-rep:4:3", "--knot", "4_1"],
            ["invariant", "alexander", "--braid", "k=4; 1 -2 3 -2 1 -2 3"],
            ["homology", "2", "--quandle", "dihedral:3", "--rep", "conj-rep:perm3"],
            ["homology", "2", "--quandle", "dihedral:3", "--rep", "alexander-rep:9:2"],
            ["extend", "--quandle", "dihedral:3", "--rep", "conj-rep:perm3",
             "--cocycle", str(kappa)],
            ["compare", a, a]):
        assert main(argv) == 0, argv
        capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["colorings", "dihedral:3", "k=10000; 1"],
    ["invariant", "module", "--quandle", "dihedral:3", "--rep", "alexander-rep:3:2",
     "--braid", "k=10000; 1"],
    ["extend", "--quandle", "trivial:1", "--rep", f"trivial-action:{10 ** 1500}"],
], ids=["colorings", "module", "extend"])
def test_refused_counts_are_written_as_powers(capsys, argv):
    """A count too long to read is written as a power, never in full: one
    line on stderr, and no int-to-string ValueError (4300 digits at most)."""
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("guard exceeded:") and err.count("\n") == 1
    assert len(err) < 120 and "^" in err


def test_colorings_guard_does_not_build_the_power(capsys):
    """3^(10^7) takes seconds to build; the guard compares 3^25 instead."""
    import time
    start = time.perf_counter()
    assert main(["colorings", "dihedral:3", "k=10000000; 1"]) == 3
    assert time.perf_counter() - start < 1
    assert "3^10000000 candidate colorings" in capsys.readouterr().err


def test_colorings_guard_bounds_the_search_plan(capsys):
    """The guard bounds the plan's k * (letters + 1)^2 steps, which |X|^k
    does not: over trivial:2 on 3 strands and 16 letters |X|^k = 8, and the
    plan's 3 * 17^2 = 867 steps need a guard of 867.  Over a one-element
    quandle no plan is made, and the guard bounds the one coloring's
    k * (letters + 1) entries instead: 2000 * 2 passes the default guard and
    finishes within a second, 20 * 31 = 620 passes a guard of 19219 below
    the 20 * 31^2 = 19220 steps a plan would take, and k = 10^9 strands are
    refused before the coloring is built."""
    argv = ["colorings", "trivial:2", "k=3; " + " ".join(["1 -2"] * 8)]
    assert main(argv + ["--guard", "866"]) == 3
    assert "search plan" in capsys.readouterr().err
    assert main(argv + ["--guard", "867"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2
    start = time.perf_counter()
    assert main(["colorings", "trivial:1", "k=2000; 1"]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["colorings"] == [[0] * 2000]
    argv = ["colorings", "trivial:1", "k=20; " + " ".join(["1 -2"] * 15)]
    assert main(argv + ["--guard", "19219"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1
    assert main(argv + ["--guard", "619"]) == 3
    assert "620 entries of the one coloring" in capsys.readouterr().err
    assert main(argv + ["--guard", "620"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1
    start = time.perf_counter()
    assert main(["colorings", "trivial:1", "k=1000000000; "]) == 3
    assert time.perf_counter() - start < 1
    assert "1000000000 entries" in capsys.readouterr().err


def test_search_guards_over_a_non_affine_quandle(capsys, tmp_path):
    """Over an affine quandle the colorings are a kernel, found with no
    search; Conj(S3), not affine, is searched, and both guards keep their
    boundaries there.  4_1 has 6^3 = 216 candidates and its plan 3 * 5^2 =
    75 steps; k=2 with 8 letters has 36 candidates and 2 * 9^2 = 162 plan
    steps.  The file's axiom check takes 4 * 6^2 = 144 steps."""
    from quandlekit.groups import symmetric_group
    from quandlekit.quandles import make_conj
    path = tmp_path / "conj_s3.json"
    path.write_text(json.dumps(qio.quandle_to_doc(make_conj(symmetric_group(3)))))
    argv = ["colorings", str(path), "4_1", "--guard"]
    assert main(argv + ["215"]) == 3
    assert "216 candidate colorings" in capsys.readouterr().err
    code, out = run(capsys, *argv, "216")
    assert code == 0 and json.loads(out)["count"] == 6
    argv = ["colorings", str(path), "k=2; " + "1 " * 8, "--guard"]
    assert main(argv + ["161"]) == 3
    assert "162 steps" in capsys.readouterr().err
    code, out = run(capsys, *argv, "162")
    assert code == 0 and json.loads(out)["count"] == 30


def test_shorthand_tables_are_bounded_by_the_guard(capsys):
    """A shorthand quandle's N x N table is refused before it is built when
    its N^2 cells exceed --guard, in every command that loads one, so a huge
    N exits 3 at once.  Library callers get the default guard."""
    start = time.perf_counter()
    assert main(["colorings", f"dihedral:{10 ** 22}", "3_1"]) == 3
    assert time.perf_counter() - start < 1
    assert "table cells" in capsys.readouterr().err
    for argv in (["check", "quandle", "alexander:100000:3"],
                 ["invariant", "module", "--quandle", "trivial:100000",
                  "--rep", "alexander-rep:5:2", "--knot", "3_1"],
                 ["check", "quandle", "dihedral:4", "--guard", "15"]):
        assert main(argv) == 3, argv
        assert "table cells" in capsys.readouterr().err
    # `check quandle` holds a shorthand's axiom check to --guard too: R4's
    # axiom III on its 2 generators takes 2 * 4^2 = 32 steps, and T1000 is
    # its own generating set, 1000^3 steps
    assert main(["check", "quandle", "dihedral:4", "--guard", "31"]) == 3
    assert "2 generators" in capsys.readouterr().err
    assert main(["check", "quandle", "dihedral:4", "--guard", "32"]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["check", "quandle", "trivial:1000"]) == 3
    assert time.perf_counter() - start < 1
    assert "1000 generators" in capsys.readouterr().err
    with pytest.raises(GuardExceeded):
        qio.load_quandle("trivial:3163")
    with guarded(24), pytest.raises(GuardExceeded):
        qio.load_table("dihedral:5")
    with guarded(25):
        assert len(qio.load_table("dihedral:5")) == 5


def test_module_guard_bounds_the_colored_matrix(capsys):
    """The module invariant's km x km colored matrix is refused when its
    (k m)^2 cells exceed the guard, after the colorings guard: k = 20 strands
    with m = 1 make 400 cells, and k = 10^5 over the one-element quandle,
    which passes the colorings guard, is refused within seconds."""
    argv = ["invariant", "module", "--quandle", "trivial:1", "--rep",
            "alexander-rep:5:2", "--braid"]
    assert main(argv + ["k=20; 1", "--guard", "399"]) == 3
    assert "400 colored-matrix cells" in capsys.readouterr().err
    assert main(argv + ["k=20; 1", "--guard", "400"]) == 0
    assert json.loads(capsys.readouterr().out)["multiset"] == [[5] * 19]
    start = time.perf_counter()
    assert main(argv + ["k=100000; 1"]) == 3
    assert time.perf_counter() - start < 5
    assert "10000000000 colored-matrix cells" in capsys.readouterr().err


def _write_table(path, n, op):
    path.write_text(json.dumps({"size": n, "table": [[op(i, j) for j in range(n)]
                                                     for i in range(n)]}))
    return str(path)


def test_json_quandles_are_bounded_by_the_guard(capsys, tmp_path):
    """A JSON quandle's axiom check is bounded by --guard in every command
    that loads one.  R1000 passes on its 2 generators (2 * 10^6 steps,
    where composing all 10^6 column pairs would take 10^9), T300 is
    its own generating set and its 300^3 steps exceed the default guard,
    and a failing R9 needs 9^3 = 729 steps for the scan that finds its
    first failing triple."""
    r1000 = _write_table(tmp_path / "r1000.json", 1000, lambda i, j: (2 * j - i) % 1000)
    start = time.perf_counter()
    assert qio.load_quandle(r1000).size == 1000
    assert time.perf_counter() - start < 10
    t300 = _write_table(tmp_path / "t300.json", 300, lambda i, j: i)
    with pytest.raises(GuardExceeded):
        qio.load_quandle(t300)
    for argv in (["check", "quandle", t300],
                 ["colorings", t300, "3_1"]):
        assert main(argv) == 3, argv
        assert "300 generators" in capsys.readouterr().err
    bad = [[(2 * j - i) % 9 for j in range(9)] for i in range(9)]
    bad[1][0], bad[2][0] = bad[2][0], bad[1][0]
    path = tmp_path / "bad9.json"
    path.write_text(json.dumps({"size": 9, "table": bad}))
    assert main(["check", "quandle", str(path), "--guard", "728"]) == 3
    assert "729 steps" in capsys.readouterr().err
    code, out = run(capsys, "check", "quandle", str(path), "--guard", "729")
    assert code == 1 and json.loads(out)["failures"][0].startswith("axiom III")


def test_json_rep_relations_are_bounded_by_the_guard(capsys, tmp_path):
    """`check rep` and every command that loads a JSON rep refuse its |X|^3
    relation triples over --guard, and hold the rep's own quandle to it:
    on R9, 9^3 = 729 triples exceed a guard of 500, while the quandle's
    2 * 81 generator steps do not."""
    from quandlekit.algebra import make_alexander_rep
    from quandlekit.quandles import make_dihedral
    path = tmp_path / "r9rep.json"
    path.write_text(json.dumps(qio.rep_to_doc(make_alexander_rep(make_dihedral(9), 9, 2))))
    assert main(["check", "rep", str(path), "--guard", "500"]) == 3
    assert "729 relation triples" in capsys.readouterr().err
    assert main(["invariant", "module", "--quandle", "dihedral:9", "--rep", str(path),
                 "--knot", "3_1", "--guard", "500"]) == 3
    assert "729 relation triples" in capsys.readouterr().err
    assert main(["check", "rep", str(path), "--guard", "161"]) == 3
    assert "2 generators" in capsys.readouterr().err
    code, out = run(capsys, "check", "rep", str(path), "--guard", "729")
    assert code == 0 and json.loads(out)["passed"] is True


def _one_element_rep(path, m):
    """A dense m x m rep mod 7 on the one-element quandle: eta = I + J, with
    J the matrix of ones, which is invertible mod 7 for m < 6 and for
    m = 126, and tau = I - eta, so the relations hold."""
    eta = [[int(i == j) + 1 for j in range(m)] for i in range(m)]
    tau = [[(int(i == j) - e) % 7 for j, e in enumerate(row)] for i, row in enumerate(eta)]
    path.write_text(json.dumps({"quandle": {"table": [[0]]}, "modulus": 7, "dim": m,
                                "eta": [[eta]], "tau": [[tau]]}))
    return str(path)


def test_json_rep_relations_are_bounded_by_their_matrix_size(capsys, tmp_path):
    """The relation check is refused before any product or inversion when
    (e + min(d^2, 6 |S| |X|^2)) m^3 exceeds --guard, e distinct eta among d
    distinct m x m matrices: on the one-element quandle with m = 5,
    (1 + min(4, 6)) 125 = 625 steps, and at the default guard m = 126 is
    refused, (1 + 4) 126^3 = 10,001,880 steps, however few the triples."""
    small = _one_element_rep(tmp_path / "m5.json", 5)
    code, out = run(capsys, "check", "rep", small, "--guard", "625")
    assert code == 0 and json.loads(out)["passed"] is True
    assert main(["check", "rep", small, "--guard", "624"]) == 3
    assert ("625 steps of the relations at 1 of 1 elements z (1 distinct eta "
            "among 2 distinct 5 x 5 matrices) exceed the guard of 624"
            in capsys.readouterr().err)
    big = _one_element_rep(tmp_path / "m126.json", 126)
    start = time.perf_counter()
    assert main(["check", "rep", big]) == 3
    assert time.perf_counter() - start < 10
    assert "10001880 steps of the relations" in capsys.readouterr().err


def test_a_failing_rep_is_bounded_before_its_full_scan(capsys, tmp_path):
    """On R3 (S = {0, 1}) a 1 x 1 rep mod 101 with 18 distinct matrices, 9
    of them eta, takes 9 + min(18^2, 6 * 2 * 9) = 117 steps on S; it fails,
    and the scan of all 27 triples is held to 9 + min(18^2, 6 * 27) = 171."""
    eta = [[[[2 + 3 * x + y]] for y in range(3)] for x in range(3)]
    tau = [[[[50 + 3 * x + y]] for y in range(3)] for x in range(3)]
    path = tmp_path / "r3.json"
    path.write_text(json.dumps({"quandle": qio.quandle_to_doc(qio.load_quandle("dihedral:3")),
                                "modulus": 101, "dim": 1, "eta": eta, "tau": tau}))
    assert main(["check", "rep", str(path), "--guard", "116"]) == 3
    assert "relations at 2 of 3 elements z" in capsys.readouterr().err
    assert main(["check", "rep", str(path), "--guard", "170"]) == 3
    assert "relations at 3 of 3 elements z" in capsys.readouterr().err
    code, out = run(capsys, "check", "rep", str(path), "--guard", "171")
    assert code == 1 and "relation (3) fails at (x,y,z)=(0,0,0)" in json.loads(out)["failures"]


def test_main_parses_each_call_once_and_does_not_leak_arguments(capsys, tmp_path,
                                                                monkeypatch):
    """An interleaved sequence of calls in one process gives the exit codes
    and outputs of fresh processes run in the same order, so an option given
    to one call (--quandle, --guard) does not reach the next.  Each call
    walks its argv once, by `cli.parse`, and leaves the table COMMANDS as
    it was; an unrecognized argument is reported with the subcommand's
    usage line."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    module = ["invariant", "module", "--rep", "alexander-rep:5:2", "--knot", "3_1"]
    sequence = [
        ["check", "quandle", "dihedral:3"],
        module + ["--quandle", "dihedral:3", "--guard", "40", "--out", str(a)],
        ["invariant", "alexander", "--braid", "k=2; 1 1 1 1 1 1 1"],
        module,
        module + ["--quandle", "trivial:1", "--out", str(b)],
        ["colorings", "dihedral:3", "3_1"],
        ["colorings"],
        ["compare", str(a), str(b)],
        ["search", "2", "dihedral:3", "conj-rep:perm3", "3", "--quandle"],
        ["search", "2", "dihedral:3", "alexander-rep:3:2", "3"],
        ["homology", "2", "--quandle", "dihedral:3", "--rep", "alexander-rep:3:2"],
        ["extend", "--quandle", "dihedral:3", "--rep", "alexander-rep:3:2"],
        ["invariant", "alexander", "--knot", "5_1"],
        ["colorings", "--help"],
        ["colorings", "dihedral:3", "3_1", "--frobnicate"],
    ]
    parse, parsed = cli.parse, []

    def counted(argv):
        parsed.append(list(argv))
        return parse(argv)

    table = repr(cli.COMMANDS)
    monkeypatch.setattr(cli, "parse", counted)
    seen = []
    for argv in sequence:
        seen.append((main(argv), *capsys.readouterr()))
    assert parsed == sequence and repr(cli.COMMANDS) == table
    assert [code for code, _, _ in seen] == [0, 0, 0, 2, 0, 0, 2, 0, 2, 0, 0,
                                             0, 0, 0, 2]
    assert seen[-1][2].startswith("usage: quandlekit colorings ")
    assert "unrecognized arguments: --frobnicate" in seen[-1][2]
    a.unlink()
    b.unlink()
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    fresh = [subprocess.run([sys.executable, "-m", "quandlekit.cli", *argv], env=env,
                            capture_output=True, text=True) for argv in sequence]
    assert [(p.returncode, p.stdout, p.stderr) for p in fresh] == seen


def test_importing_the_command_line_leaves_argparse_out():
    """The package parses its command line itself: `import quandlekit.cli`
    loads no argparse."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", "import sys, quandlekit.cli; "
                           "print('argparse' in sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


# Values the grammar below draws for a str argument: a negative number, a
# decimal and a text with a space that start with "-" are values too.
_TEXTS = ["dihedral:3", "3_1", "k=3; 1 -2 1 -2", "a.json", "=x", "-7", "-1.5", "-1 -1 -1"]
_BAD_INTS = ["x", "1.5", "1e3", "-1.5", "3_1"]


@st.composite
def _argv(draw):
    """A command line from a grammar of the forms argparse reads alike on
    Python 3.10 to 3.13: for a subcommand, valid and bad ints, valid and bad
    choices, too few or too many positionals, options before, between and
    after them as --name value, --name=value or a unique prefix of either,
    repeated options, an option with no value, an unknown option, help
    flags, negative numbers as values, and one "--" before the last
    positionals, after every option; at the top, no argv, help or an unknown
    subcommand.  Most draws are valid, so that about a third of the command
    lines are accepted.

    Left out: single-dash options other than -h, a help flag with an `=`
    value, "--" as an option's value or more than once, an option after
    "--", an empty `=` value, negative numbers other than -<digits> and
    decimals, options before the subcommand's name, and a negative --guard
    (refused, unlike argparse; pinned by its own test)."""
    top = draw(st.sampled_from([None] * 16 + [[], ["--help"], ["-h"], ["--he"], ["frob", "x"]]))
    if top is not None:
        return top
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, positionals_of, options_of = cli.COMMANDS[name]
    rarely = st.integers(0, 9).map(lambda n: n == 0)

    def value(key, spec):
        if spec.choices:
            return draw(st.sampled_from(spec.choices)) if not draw(rarely) else "frob"
        if spec.type is int:
            if draw(rarely):
                return draw(st.sampled_from(_BAD_INTS))
            return str(draw(st.integers(0 if key == "guard" else -30, 10 ** 8)))
        return draw(st.sampled_from(_TEXTS))

    positionals = [value(k, a) for k, a in positionals_of.items()]
    if draw(rarely):
        positionals = positionals[:draw(st.integers(0, len(positionals)))]
    if draw(rarely) and len(positionals) == len(positionals_of):
        positionals += draw(st.lists(st.sampled_from(_TEXTS), min_size=1, max_size=2))
    options = []
    for _ in range(draw(st.integers(0, 5))):
        key = draw(st.sampled_from(list(options_of)))
        if draw(rarely):
            key = draw(st.sampled_from(["frobnicate", "help"]))
        flag = "--" + key[:draw(st.integers(1, len(key)))] if key != "frobnicate" else "--frobnicate"
        if key == "help":
            options.append([draw(st.sampled_from(["-h", flag]))])
            continue
        text = value(key, options_of.get(key, cli.Arg()))
        form = draw(st.sampled_from([[flag, text], [f"{flag}={text}"]]))
        options.append([flag] if draw(rarely) else form)
    dashes = draw(st.integers(0, len(positionals)))
    slots = sorted(draw(st.integers(0, dashes)) for _ in options)
    bare = {group[0] for group in options if len(group) == 1}
    argv = [name]
    for i, text in enumerate(positionals + [None]):
        argv += [t for slot, group in zip(slots, options) if slot == i for t in group]
        if i == dashes and text is not None and argv[-1] not in bare and draw(st.booleans()):
            argv.append("--")
        argv += [text] if text is not None else []
    return argv


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(argv=_argv())
def test_the_command_line_reads_argv_as_argparse_did(argv):
    """`cli.parse` against the argparse parser it replaced
    (tests/argparse_oracle.py): the same exit code (help 0, usage error 2)
    for every drawn argv, and for an accepted one the same fields, which
    are every field a cmd_* function reads."""
    code, expected = oracle_parse(argv)
    try:
        ours, fields = None, vars(cli.parse(argv))
    except cli.Usage as exc:
        ours, fields = exc.args[0], None
    assert ours == code
    assert fields == (vars(expected) if expected else None)


def test_usage_errors_name_the_argument(capsys):
    """Our own error texts, each after the subcommand's usage line, for an
    unrecognized argument, a missing option value, a bad int and a missing
    required option; a negative --guard is refused at parse time, one step
    below a guard of 0, which the colorings exceed."""
    usage = ("usage: quandlekit colorings [-h] [--out OUT] [--jobs JOBS] "
             "[--guard GUARD] quandle braid\n")
    cases = [
        (["colorings", "dihedral:3", "3_1", "--frobnicate"],
         usage + "quandlekit colorings: error: unrecognized arguments: --frobnicate\n"),
        (["colorings", "dihedral:3", "3_1", "--guard"],
         usage + "quandlekit colorings: error: argument --guard: expected one argument\n"),
        (["colorings", "dihedral:3", "--gu=x", "3_1"],
         usage + "quandlekit colorings: error: argument --guard: invalid int value: 'x'\n"),
        (["colorings", "dihedral:3", "3_1", "--guard", "-1"],
         usage + "quandlekit colorings: error: argument --guard: must be >= 0, got -1\n"),
    ]
    for argv, err in cases:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", err)
    # a long value is quoted cut, with its type and length, not whole
    long = "x" * 100_000
    cut = quoted(long)
    assert cut.endswith(" (str of length 100000)") and len(cut) < 80
    cases = [
        (["colorings", "dihedral:3", "3_1", "--guard", long],
         usage + f"quandlekit colorings: error: argument --guard: invalid int value: {cut}\n"),
        (["colorings", "dihedral:3", "3_1", long],
         usage + f"quandlekit colorings: error: unrecognized arguments: {cut}\n"),
        ([long], "usage: quandlekit [-h] {check,colorings,search,invariant,homology,"
                 "compare,extend} ...\nquandlekit: error: argument command: invalid "
                 f"choice: {cut}\n"),
        (["colorings", "dihedral:3", "3_1", "--guard", "-" + "9" * 4000],
         usage + "quandlekit colorings: error: argument --guard: must be >= 0, got "
                 "<int of 13288 bits> (int)\n"),
    ]
    for argv, err in cases:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", err)
    assert main(["check", long, "x"]) == 2
    assert capsys.readouterr().err.endswith(
        f"quandlekit check: error: argument kind: invalid choice: {cut} (choose from "
        "'quandle', 'rep', 'cocycle')\n")
    assert main(["homology", "2", "--rep", "trivial-action:3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: quandlekit homology [-h] --quandle QUANDLE --rep REP ")
    assert err.endswith("\nquandlekit homology: error: the following arguments "
                        "are required: --quandle\n")
    assert main(["colorings", "dihedral:3", "3_1", "--guard", "0"]) == 3
    assert capsys.readouterr().err == ("guard exceeded: 9 table cells of "
                                       "'dihedral:3' exceed the guard of 0\n")
    assert main(["invariant", "module", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: quandlekit invariant [-h] ") and err == ""


def test_factoring_a_modulus_is_bounded(capsys):
    """N is the product of two 20-digit primes, about 10^9.5 steps of
    Pollard's rho; factoring gives up after RHO_STEPS and exits 3."""
    import time
    n = 100000000000000001380000000000000004437
    start = time.perf_counter()
    assert main(["check", "rep", f"trivial-action:{n}", "--quandle", "trivial:1"]) == 3
    assert time.perf_counter() - start < 10
    assert "Pollard's rho" in capsys.readouterr().err


def test_strand_count_over_the_digit_limit_exits_2(capsys):
    """int() refuses strings of over 4300 digits with a plain ValueError."""
    assert main(["colorings", "dihedral:3", "k=1" + "0" * 5000 + "; 1"]) == 2
    err = capsys.readouterr().err
    assert err == "input error: strand count of 5001 digits is too long\n"


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """Input files for `test_command_results`: a quandle document whose
    'size' disagrees with its R3 table, a degree-1 cochain, R600 as a JSON
    table, the regular rep of Conj(S3) mod 7 as written by rep_to_doc, and
    the first cocycle that `search 2 dihedral:3 conj-rep:perm3 3` lists."""
    import contextlib
    import io
    from quandlekit import (make_conj, make_conj_rep, regular_group_rep,
                            symmetric_group)
    tmp = tmp_path_factory.mktemp("inputs")
    s3 = symmetric_group(3)
    n = 600
    docs = {
        "mismatch": {"size": 5, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]},
        "k1": {"degree": 1, "modulus": 3, "dim": 3, "values": {"0": [1, 0, 0]}},
        "r600": {"size": n, "table": [[(2 * j - i) % n for j in range(n)]
                                      for i in range(n)]},
        "s3rep": qio.rep_to_doc(make_conj_rep(
            regular_group_rep(s3, make_conj(s3), range(6), 7)))}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["search", "2", "dihedral:3", "conj-rep:perm3", "3"]) == 0
    docs["kappa"] = json.loads(out.getvalue())["basis"][0]
    paths = {"missing": str(tmp / "missing" / "x.json")}
    for name, doc in docs.items():
        (tmp / f"{name}.json").write_text(json.dumps(doc))
        paths[name] = str(tmp / f"{name}.json")
    return paths


TREFOIL = ["invariant", "cocycle", "--quandle", "dihedral:3", "--rep",
           "conj-rep:perm3", "--cocycle", "{kappa}"]


COMMAND_RESULTS = [
    (2, ["check", "quandle", "{mismatch}"],
     lambda doc, err: "'size' disagrees with the table" in err),
    (0, ["check", "quandle", "{r600}"], lambda doc, err: doc["passed"] is True),
    (0, ["check", "rep", "{s3rep}"], lambda doc, err: doc["passed"]),
    (3, ["colorings", "dihedral:100000000000", "3_1"],
     lambda doc, err: "table cells" in err),
    (0, ["colorings", "trivial:1", "k=200000; 1"],
     lambda doc, err: doc["count"] == 1 and doc["colorings"] == [[0] * 200000]),
    # strands in no crossing take every color
    (0, ["colorings", "dihedral:3", "k=4; 1 1 1"], lambda doc, err: doc["count"] == 81),
    # the kernel's Z_8-span is listed without repeats
    (0, ["colorings", "alexander:8:3", "k=3; 1 -2 1 -2 1 -2"],
     lambda doc, err: doc["count"] == 128 == len(set(map(tuple, doc["colorings"])))),
    (2, ["colorings", "dihedral:3", "3_1", "--out", "{missing}"],
     lambda doc, err: "cannot write --out" in err),
    (0, ["invariant", "alexander", "--knot", "5_1"],
     lambda doc, err: doc["polynomial"] == {"0": 1, "1": -1, "2": 1, "3": -1, "4": 1}),
    # negative crossings: 4_1 and the mirror trefoil
    (0, ["invariant", "module", "--quandle", "dihedral:5", "--rep",
         "alexander-rep:5:2", "--knot", "4_1"],
     lambda doc, err: doc["colorings"] == 25 and doc["multiset"] == [[5]] * 25),
    (0, TREFOIL + ["--knot", "3_1"],
     lambda doc, err: doc["multiset"] == [[0, 0, 0]] * 3 + [[1, 1, 1]] * 6),
    (0, TREFOIL + ["--braid", "k=2; -1 -1 -1"],
     lambda doc, err: doc["multiset"] == [[0, 0, 0]] * 3 + [[2, 2, 2]] * 6),
    # extend refuses a cochain that is not of degree 2
    (2, ["extend", "--quandle", "dihedral:3", "--rep", "conj-rep:perm3",
         "--cocycle", "{k1}"], lambda doc, err: err == "input error: the cochain "
         "is of degree 1, not a degree-2 cochain\n"),
]


@pytest.mark.parametrize("want, argv, holds", COMMAND_RESULTS,
                         ids=[" ".join(argv) for _, argv, _ in COMMAND_RESULTS])
def test_command_results(capsys, command_inputs, want, argv, holds):
    """Each command exits as documented, and its document or its message
    says what it found."""
    code = main([a.format(**command_inputs) for a in argv])
    out, err = capsys.readouterr()
    assert code == want
    assert holds(json.loads(out) if out else None, err)


@pytest.fixture(scope="module")
def guard_inputs(tmp_path_factory):
    """Input files for `test_every_guard_has_one_message_form`: R9 as a JSON
    table, R9 with two entries of a column swapped (axiom II holds, axiom
    III fails), the Alexander rep alexander-rep:9:2 on R9, the dense m = 5
    rep of `_one_element_rep`, and the failing 1 x 1 rep on R3 of
    `test_a_failing_rep_is_bounded_before_its_full_scan`."""
    from quandlekit.quandles import make_dihedral
    tmp = tmp_path_factory.mktemp("guards")
    bad = [[(2 * j - i) % 9 for j in range(9)] for i in range(9)]
    bad[1][0], bad[2][0] = bad[2][0], bad[1][0]
    docs = {
        "r9": {"size": 9, "table": [[(2 * j - i) % 9 for j in range(9)]
                                    for i in range(9)]},
        "bad9": {"size": 9, "table": bad},
        "rep9": qio.rep_to_doc(make_alexander_rep(make_dihedral(9), 9, 2)),
        "rep3": {"quandle": qio.quandle_to_doc(make_dihedral(3)), "modulus": 101,
                 "dim": 1,
                 "eta": [[[[2 + 3 * x + y]] for y in range(3)] for x in range(3)],
                 "tau": [[[[50 + 3 * x + y]] for y in range(3)] for x in range(3)]}}
    paths = {"m5": _one_element_rep(tmp / "m5.json", 5)}
    for name, doc in docs.items():
        (tmp / f"{name}.json").write_text(json.dumps(doc))
        paths[name] = str(tmp / f"{name}.json")
    return paths


# one case per errors.charge call: its command one unit below the count,
# and the one stderr line "guard exceeded: <count> <what> exceed the guard
# of <guard>"
GUARD_CASES = [
    (["check", "quandle", "dihedral:9", "--guard", "80"],
     "81 table cells of 'dihedral:9'"),
    (["check", "quandle", "{r9}", "--guard", "80"],
     "81 table cells of a quandle of size 9"),
    (["check", "quandle", "dihedral:9", "--guard", "161"],
     "162 steps of axiom III on 2 generators of a quandle of size 9"),
    (["check", "quandle", "{bad9}", "--guard", "728"],
     "729 steps of the axiom III scan of a table of size 9"),
    (["check", "rep", "{rep9}", "--guard", "500"], "729 relation triples"),
    (["check", "rep", "{m5}", "--guard", "624"],
     "625 steps of the relations at 1 of 1 elements z (1 distinct eta among 2 "
     "distinct 5 x 5 matrices)"),
    (["check", "rep", "{rep3}", "--guard", "170"],
     "171 steps of the relations at 3 of 3 elements z (9 distinct eta among 18 "
     "distinct 1 x 1 matrices)"),
    (["colorings", "dihedral:3", "k=5; 1 2 3 4", "--guard", "242"],
     "243 candidate colorings"),
    (["colorings", "trivial:1", "k=20; " + " ".join(["1 -2"] * 15), "--guard",
      "619"], "620 entries of the one coloring on 20 strands through 30 letters"),
    (["colorings", "trivial:2", "k=3; " + " ".join(["1 -2"] * 8), "--guard",
      "866"], "867 steps of the search plan on 3 strands and 16 letters"),
    (["invariant", "module", "--quandle", "trivial:1", "--rep", "alexander-rep:5:2",
      "--braid", "k=20; 1", "--guard", "399"], "400 colored-matrix cells"),
    (["invariant", "module", "--quandle", "dihedral:3", "--rep", "conj-rep:perm3",
      "--braid", "k=5; 1 2 3 4", "--guard", "539"],
     "540 steps of the colored matrix's block walk (letters * k * m^3, with 4 "
     "letters, k = 5 and m = 3)"),
    (["extend", "--quandle", "dihedral:3", "--rep", "alexander-rep:3:2",
      "--guard", "728"], "729 axiom checks of an extension of size 9"),
    (["check", "cocycle", "zero", "--quandle", "dihedral:3", "--rep",
      "trivial-action:3", "--degree", "2", "--guard", "39"],
     "40 boundary-term steps of the cocycle check (degree 2: 5 terms of weight 1 "
     "on each tuple ending in 2 generators)"),
    (["search", "2", "dihedral:3", "conj-rep:perm3", "3", "--guard", "647"],
     "648 coboundary cells"),
    (["homology", "2", "--quandle", "dihedral:5", "--rep", "alexander-rep:5:2",
      "--guard", "1599"], "1600 coboundary cells"),
    (["invariant", "alexander", "--braid", "k=2; " + " ".join(["1"] * 11),
      "--guard", "407"],
     "408 Laurent coefficient steps of the 2-strand Burau matrix and its first "
     "minor"),
]


@pytest.mark.parametrize("argv, what", GUARD_CASES,
                         ids=[what.split(" (")[0] for _, what in GUARD_CASES])
def test_every_guard_has_one_message_form(capsys, guard_inputs, argv, what):
    """Every guarded stage refuses through errors.charge: exit 3, nothing on
    stdout, and one stderr line naming the count, the stage and the guard."""
    code = main([a.format(**guard_inputs) for a in argv])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == f"guard exceeded: {what} exceed the guard of {argv[-1]}\n"


def test_a_guard_holds_for_its_own_command_only(capsys):
    """main sets --guard for one command: in-process calls, as the bench
    worker makes them, find the default bound again after a refusal."""
    assert main(["check", "quandle", "dihedral:9", "--guard", "161"]) == 3
    assert capsys.readouterr().err == (
        "guard exceeded: 162 steps of axiom III on 2 generators of a quandle "
        "of size 9 exceed the guard of 161\n")
    assert main(["check", "quandle", "dihedral:9"]) == 0
    assert main(["check", "quandle", "dihedral:9", "--guard", "162"]) == 0


@pytest.mark.parametrize("kind, options", [
    ("alexander", []),
    ("module", ["--quandle", "dihedral:3", "--rep", "alexander-rep:3:2"]),
    ("cocycle", ["--quandle", "dihedral:3", "--rep", "conj-rep:perm3",
                 "--cocycle", "zero"]),
])
def test_knot_and_braid_together_exit_2(capsys, kind, options):
    """--knot and --braid each take a knot name or braid text, so one alone
    runs, and both together are refused rather than one silently dropped."""
    for flag in ("--knot", "--braid"):
        for word in ("3_1", "k=3; 1 -2 1 -2"):
            assert main(["invariant", kind, *options, flag, word]) == 0
    capsys.readouterr()
    assert main(["invariant", kind, *options, "--knot", "3_1",
                 "--braid", "k=3; 1 -2 1 -2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "input error: give --knot or --braid, not both\n"


def _call(argv):
    """main(argv) as (exit code, stdout, stderr), without pytest's capture,
    so that a hypothesis example may run it."""
    import contextlib
    import io
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def shared_shorthand_runs(tmp_path_factory):
    """A mixed list of commands over shared shorthands, and the outcome of
    each with every shorthand built afresh for it, as in its own process:
    a 2-cocycle of conj-rep:perm3 and one of trivial-action:3 on R3 are
    written by `search` first."""
    tmp = tmp_path_factory.mktemp("shared")
    kappas = {}
    for rep in ("conj-rep:perm3", "trivial-action:3"):
        code, out, _ = _call(["search", "2", "dihedral:3", rep, "3"])
        assert code == 0
        kappas[rep] = tmp / f"{rep.split(':')[0]}.json"
        kappas[rep].write_text(json.dumps(json.loads(out)["basis"][0]))
    r3 = ["--quandle", "dihedral:3"]
    perm3 = r3 + ["--rep", "conj-rep:perm3"]
    argvs = [
        ["colorings", "dihedral:3", "k=4; 1 1 1 -3 -3 -3"],
        ["colorings", "dihedral:5", "4_1"],
        ["colorings", "dihedral:5", "4_1", "--guard", "24"],
        ["invariant", "module", *perm3, "--knot", "4_1"],
        ["invariant", "module", *perm3, "--braid", "k=3; -1 2 -1 2 2"],
        ["invariant", "module", "--quandle", "dihedral:5", "--rep",
         "alexander-rep:5:2", "--knot", "4_1"],
        ["invariant", "module", "--quandle", "trivial:1", "--rep",
         "alexander-rep:7:3", "--knot", "5_1"],
        ["invariant", "cocycle", *perm3, "--cocycle", str(kappas["conj-rep:perm3"]),
         "--braid", "k=4; 1 1 1 -3 -3 -3"],
        ["invariant", "cocycle", *perm3, "--cocycle", str(kappas["conj-rep:perm3"]),
         "--knot", "4_1"],
        ["invariant", "cocycle", *r3, "--rep", "trivial-action:3", "--cocycle",
         str(kappas["trivial-action:3"]), "--knot", "3_1"],
        ["search", "2", "dihedral:3", "conj-rep:perm3", "3"],
        ["search", "2", "dihedral:5", "alexander-rep:5:2", "5"],
        ["homology", "2", *perm3],
        ["homology", "2", "--quandle", "dihedral:3", "--rep", "trivial-action:3"],
        ["extend", *perm3, "--cocycle", str(kappas["conj-rep:perm3"])],
        ["check", "rep", "conj-rep:perm3"],
        ["check", "rep", "conj-rep:perm3:9"],
        ["check", "rep", "alexander-rep:5:2", "--quandle", "dihedral:5"],
    ]
    fresh = []
    for argv in argvs:
        qio._built.cache_clear()
        fresh.append(_call(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 3] + [0] * (len(argvs) - 3)
    return argvs, fresh


def test_shared_shorthands_give_each_command_its_own_bytes(shared_shorthand_runs):
    """One process runs the mixed list in order, each shorthand built once
    and its rep's memos shared from command to command: every exit code,
    stdout and stderr is that of the command run with fresh shorthands."""
    argvs, fresh = shared_shorthand_runs
    qio._built.cache_clear()
    assert [_call(argv) for argv in argvs] == fresh


@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@given(order=st.permutations(range(18)))
def test_shared_shorthands_give_the_same_bytes_in_any_order(shared_shorthand_runs,
                                                             order):
    """The same list shuffled, on the shorthands and memos left by the
    commands before it: every outcome is still the fresh one."""
    argvs, fresh = shared_shorthand_runs
    assert len(argvs) == len(order)
    for i in order:
        assert _call(argvs[i]) == fresh[i], argvs[i]


def test_a_kept_shorthand_is_still_charged_its_cells(capsys):
    """A shorthand quandle built under the default guard is charged its N^2
    table cells again on every call, before it is looked up: the same
    dihedral:N exits 3 under a --guard below N^2, with the same message."""
    for argv in (["colorings", "dihedral:7", "3_1"],
                 ["invariant", "module", "--quandle", "dihedral:7", "--rep",
                  "alexander-rep:7:2", "--knot", "3_1"]):
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--guard", "48"]) == 3
        assert capsys.readouterr().err == ("guard exceeded: 49 table cells of "
                                           "'dihedral:7' exceed the guard of 48\n")
        assert main(argv + ["--guard", "49"]) == 0
        capsys.readouterr()


def test_an_interrupted_command_leaves_the_kept_rep_sound(capsys, monkeypatch):
    """An interrupt while a kept rep's negative block is inverted (a SIGALRM
    or Ctrl-C in `bar`) leaves the rep's numbering as it was: the
    next call prints the bytes of a fresh process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    from quandlekit import braids
    argv = ["invariant", "module", "--quandle", "dihedral:3", "--rep",
            "conj-rep:perm3", "--braid", "k=3; 1 -2 1 -2 -2 1 -1 2"]
    bar, calls = braids.bar, []

    def interrupted(*args):
        calls.append(args)
        if len(calls) == 1:
            raise KeyboardInterrupt
        return bar(*args)

    qio._built.cache_clear()
    monkeypatch.setattr(braids, "bar", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    capsys.readouterr()
    assert main(argv) == 0
    kept = capsys.readouterr().out
    src = str(Path(qio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "quandlekit.cli", *argv], env=env,
                          capture_output=True, text=True, check=True)
    assert kept == proc.stdout


@pytest.fixture
def perm3_cocycle_argv(tmp_path):
    """`invariant cocycle` of conj-rep:perm3 on R3 with basis[0] of its
    `search`, and the same argv with that kappa changed at one value."""
    code, out, _ = _call(["search", "2", "dihedral:3", "conj-rep:perm3", "3"])
    assert code == 0
    kappa = json.loads(out)["basis"][0]
    good, bad = tmp_path / "kappa.json", tmp_path / "bad.json"
    good.write_text(json.dumps(kappa))
    key = next(iter(kappa["values"]))
    kappa["values"][key] = [(kappa["values"][key][0] + 1) % 3] + kappa["values"][key][1:]
    bad.write_text(json.dumps(kappa))
    argv = ["invariant", "cocycle", "--quandle", "dihedral:3", "--rep",
            "conj-rep:perm3", "--knot", "3_1", "--cocycle"]
    return argv + [str(good)], argv + [str(bad)]


def test_a_kept_cochain_is_still_checked_and_charged(perm3_cocycle_argv):
    """On the kept perm3 rep, a kappa changed at one value after the good
    one is refused (exit 1), and the good one again, a hit on the kept
    verdict, is still charged the 360 boundary-term steps of its check: a
    --guard of 359 exits 3 with the message of a fresh process."""
    good, bad = perm3_cocycle_argv
    qio._built.cache_clear()
    fresh = _call(good + ["--guard", "359"])
    assert fresh == (3, "", "guard exceeded: 360 boundary-term steps of the cocycle "
                     "check (degree 2: 5 terms of weight 9 on each tuple ending in "
                     "2 generators) exceed the guard of 359\n")
    assert _call(good)[0] == 0
    assert _call(bad) == (1, "", "validation failed: cochain is not a generalized "
                          "quandle 2-cocycle\n")
    assert _call(good)[0] == 0
    assert _call(good + ["--guard", "359"]) == fresh


@pytest.mark.parametrize("stage", ["invariants.mat_vec",
                                   "homology._coboundary_values"])
def test_an_interrupted_state_sum_leaves_the_kept_cochain_sound(
        perm3_cocycle_argv, monkeypatch, stage):
    """An interrupt while the kept rep forms its weights, or while its
    cocycle check walks, leaves the rep sound: the next call prints the
    bytes of a fresh process."""
    import importlib
    import os
    import subprocess
    import sys
    from pathlib import Path

    good, _ = perm3_cocycle_argv
    module, name = stage.split(".")
    module = importlib.import_module(f"quandlekit.{module}")
    f, calls = getattr(module, name), []

    def interrupted(*args):         # the second weight, the one check walk
        calls.append(args)
        if len(calls) == (2 if name == "mat_vec" else 1):
            raise KeyboardInterrupt
        return f(*args)

    qio._built.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(module, name, interrupted)
        with pytest.raises(KeyboardInterrupt):
            _call(good)
    kept = _call(good)
    src = str(Path(qio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "quandlekit.cli", *good], env=env,
                          capture_output=True, text=True, check=True)
    assert kept == (0, proc.stdout, proc.stderr)


def test_every_quoted_input_value_is_bounded(capsys, tmp_path):
    """Each reader that quotes a bad input value in its error quotes a short
    value in full and a long one cut, with its type and length: a large bad
    value gives exit 2 and a message line of at most 300 bytes, where the
    whole value once went to stderr.  So does a long path, cut with its
    length where a path of at most 80 characters stays as given."""
    big, long, deep = list(range(100000)), "x" * 100000, []
    for _ in range(900):
        deep = [deep]
    r3 = {"size": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}

    def doc(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    twice = tmp_path / "twice.json"
    twice.write_text('{"%s": 1, "%s": 2}' % (long, long))
    cochain = {"degree": 2, "modulus": 3, "dim": 3, "values": {}}
    rep = {"quandle": r3, "modulus": 5, "dim": 1,
           "eta": [[[[2]]] * 3] * 3, "tau": [[[[4]]] * 3] * 3}
    perm3 = ["--rep", "conj-rep:perm3", "--quandle", "dihedral:3"]
    cases = [
        (["check", "quandle", doc("entry.json", {"table": [[0, big], [1, 1]]})],
         "table entry [0, 1, 2, 3, ...] (list of length 100000) is not"),
        (["check", "quandle", doc("deep.json", {"table": [[0, deep], [1, 1]]})],
         "table entry [[[...]]] (list of length 1) is not"),
        (["check", "cocycle", doc("value.json", {**cochain, "values": {"0,1": big}}),
          *perm3], "the cochain has the value [0, 1, 2, 3, ...] (list of length"),
        (["check", "cocycle", doc("key.json", {**cochain, "values": {long: [0] * 3}}),
          *perm3], "cochain key 'xxx"),
        (["check", "cocycle", doc("modulus.json", {**cochain, "modulus": big}),
          *perm3], "the cochain takes values in (Z_[0, 1, 2, 3, ...] (list of"),
        (["check", "cocycle", doc("degree.json", {**cochain, "degree": long}),
          *perm3], "the cochain is of degree 'xxx"),
        (["check", "quandle", str(twice)], "twice.json: key 'xxx"),
        (["check", "rep", doc("repmod.json", {**rep, "modulus": long})], "modulus 'xxx"),
        (["check", "rep", doc("repdim.json", {**rep, "dim": big})], "rep 'dim' [0, 1,"),
        (["invariant", "alexander", "--braid", long], "cannot parse braid text 'xxx"),
        (["invariant", "alexander", "--braid", "k=2; 1 " + long], "letter 1: 'xxx"),
        (["check", "quandle", "dihedral:" + long], "bad shorthand 'dihedral:xxx"),
        (["check", "quandle", "dihedral:1:" + long], "bad quandle shorthand 'dih"),
        (["check", "rep", "alexander-rep:5:" + long, "--quandle", "dihedral:3"],
         "bad shorthand 'alexander-rep:5:x..."),
        (["check", "rep", "alexander-rep:" + long, "--quandle", "dihedral:3"],
         "bad rep shorthand 'alexander-rep:xxx..."),
        (["invariant", "alexander", "--knot", "3_1", "--out", str(tmp_path / long)],
         "cannot write --out '"),
        (["check", "quandle", long], "'xxxxxxxxxxxxxxxxx...xxxxxxxxxxxxxxxxxx' (str of "
         "length 100000): not a readable file"),
        (["homology", "2", "--quandle", "dihedral:3", "--rep", long],
         "(str of length 100000)"),
        (["extend", "--quandle", "dihedral:3", "--rep", "conj-rep:perm3", "--cocycle",
          long], "(str of length 100000)"),
        (["check", "cocycle", "x" * 81, *perm3], "no such file: 'xxxxxxxxxxxxxxxxx..."
         "xxxxxxxxxxxxxxxxxx' (str of length 81)"),
        (["check", "rep", doc("t3rep.json", {**rep, "quandle": {
            "table": [[0, 0, 0], [1, 1, 1], [2, 2, 2]]}}), "--quandle",
          doc("label.json", {**r3, "label": long})],
         "rep document lives on a quandle other than 'xxx"),
    ]
    for argv, start in cases:
        assert main(argv) == 2, argv[:2]
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and start in err, err[:300]
        assert max(map(len, err.encode().splitlines())) <= 300, err[:300]
    assert main(["check", "cocycle", "x" * 80, *perm3]) == 2
    assert capsys.readouterr().err == f"input error: no such file: {'x' * 80}\n"


def test_library_refusals_quote_bounded_values():
    """The group-element and braid-word refusals of library calls quote a
    long value cut, and a short one in full, as before."""
    from quandlekit.braids import BraidWord
    from quandlekit.errors import InputError
    from quandlekit.groups import symmetric_group
    from quandlekit.quandles import make_conj
    big = list(range(100000))
    s3 = symmetric_group(3)
    calls = [lambda: make_conj(s3, [0, big]),
             lambda: regular_group_rep(s3, make_conj(s3), [big], 5),
             lambda: BraidWord(2, (1, tuple(big))),
             lambda: BraidWord(big, ())]
    for call in calls:
        with pytest.raises(InputError, match=r"\((list|tuple) of length 100000\)") as refused:
            call()
        assert len(str(refused.value)) <= 200
    with pytest.raises(InputError, match=r"^\[0, 99\] is not an element of the group"):
        make_conj(s3, [0, [0, 99]])
