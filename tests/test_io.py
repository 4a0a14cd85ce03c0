import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quandlekit import io as qio
from quandlekit.algebra import make_alexander_rep, make_conj_rep, permutation_rep_r3
from quandlekit.errors import InputError
from quandlekit.homology import Cochain, _require_module
from quandlekit.quandles import (FiniteQuandle, make_dihedral, make_trivial, quandle_from_table,
                                 verify_axioms)


def test_quandle_round_trip(tmp_path):
    q = make_dihedral(5)
    doc = qio.quandle_to_doc(q)
    path = tmp_path / "r5.json"
    path.write_text(qio.dumps_document(doc))
    q2 = qio.load_quandle(str(path))
    assert q2.table == q.table


def test_quandle_shorthands():
    assert qio.load_quandle("dihedral:4").size == 4
    assert qio.load_quandle("alexander:5:2").op(0, 1) == 4
    assert qio.load_quandle("trivial:3").op(1, 2) == 1
    with pytest.raises(InputError):
        qio.load_quandle("dihedral:x")
    with pytest.raises(InputError):
        qio.load_quandle("no-such-file.json")


def test_quandle_doc_validation():
    with pytest.raises(InputError):
        qio.quandle_from_doc({"size": 2})
    with pytest.raises(InputError):
        qio.quandle_from_doc({"size": 3, "table": [[0, 0], [1, 1]]})
    for table in ([], ()):
        for refuse in (lambda: qio.quandle_from_doc({"size": 0, "table": table}),
                       lambda: verify_axioms(qio.table_from_doc({"table": table})),
                       lambda: quandle_from_table(table)):
            with pytest.raises(InputError, match="must be a non-empty list of rows$"):
                refuse()


def test_rep_round_trip(tmp_path):
    rep = make_conj_rep(permutation_rep_r3(3))
    path = tmp_path / "rep.json"
    path.write_text(qio.dumps_document(qio.rep_to_doc(rep)))
    rep2 = qio.load_rep(str(path))
    assert rep2.eta == rep.eta
    assert rep2.tau == rep.tau
    assert rep2.modulus == 3


def test_rep_shorthands():
    q = make_trivial(2)
    rep = qio.load_rep("alexander-rep:5:2", quandle=q)
    assert rep.modulus == 5
    rep2 = qio.load_rep("conj-rep:perm3")
    assert rep2.is_conj_type
    rep3 = qio.load_rep("trivial-action:7", quandle=q)
    assert rep3.eta[0][1] == ((1,),)
    assert rep3.tau[0][1] == ((0,),)
    with pytest.raises(InputError):
        qio.load_rep("alexander-rep:5:2")   # needs a quandle


def test_a_rebound_constructor_keeps_the_built_shorthands(monkeypatch):
    """`_built` is keyed by the shorthand's kind and arguments, not by the
    constructor object: with `io.make_alexander_rep` rebound to a counting
    wrapper, as a tracer wraps it, the kept quandle and reps come back as
    the same objects with no new entry, and only a shorthand not yet built
    calls the wrapper."""
    qio._built.cache_clear()
    r5 = qio.load_quandle("dihedral:5")
    kept = qio.load_rep("alexander-rep:5:2", quandle=r5)
    trivial = qio.load_rep("trivial-action:5", quandle=r5)
    make, calls = qio.make_alexander_rep, []

    def counted(*args):
        calls.append(args)
        return make(*args)

    monkeypatch.setattr(qio, "make_alexander_rep", counted)
    entries = len(qio._kept)
    assert qio.load_quandle("dihedral:5") is r5
    assert qio.load_rep("alexander-rep:5:2", quandle=r5) is kept
    assert qio.load_rep("trivial-action:5", quandle=r5) is trivial
    assert qio.load_rep("alexander-rep:5:1", quandle=r5) is trivial
    assert (calls, len(qio._kept)) == ([], entries)
    new = qio.load_rep("alexander-rep:5:3", quandle=r5)
    assert new.label == "alexander-rep(N=5,t=3)" and len(calls) == 1
    assert len(qio._kept) == entries + 1


def test_a_kept_rep_hashes_its_quandle_once():
    """`_built` keys a rep by its arguments, the quandle among them: a table
    whose rows count their hashes and compares is hashed once over repeated
    hits, and a hit on the same quandle object compares no row."""
    hashes, compares = [], []

    class Row(tuple):
        def __hash__(self):
            hashes.append(1)
            return tuple.__hash__(self)

        def __eq__(self, other):
            compares.append(1)
            return tuple.__eq__(self, other)

    qio._built.cache_clear()
    r5 = make_dihedral(5)
    counted = FiniteQuandle(tuple(Row(row) for row in r5.table), r5.label)
    kept = qio.load_rep("alexander-rep:7:2", quandle=counted)
    assert len(hashes) == counted.size and not compares
    for _ in range(5):
        assert qio.load_rep("alexander-rep:7:2", quandle=counted) is kept
    assert len(hashes) == counted.size and not compares
    assert hash(counted) == hash(r5) and counted == r5
    qio._built.cache_clear()


def test_the_built_shorthands_are_held_to_their_table_cells(monkeypatch):
    """`_built` keeps at most KEPT_CELLS table cells: under a bound of
    20,000 cells, loading 40 shorthand quandles of 1,600 to 6,241 cells and
    an Alexander rep on each (3 cells a quandle cell) keeps the cells under the bound after every
    load, pushes out the oldest results first and keeps the newest one; a
    quandle larger than the bound is built on every load and never kept."""
    monkeypatch.setattr(qio, "KEPT_CELLS", 20_000)
    qio._built.cache_clear()
    for n in range(40, 80):
        q = qio.load_quandle(f"dihedral:{n}")
        rep = qio.load_rep(f"alexander-rep:{n}:1", quandle=q)
        assert sum(cells for _, cells in qio._kept.values()) <= 20_000
        assert qio.load_rep(f"alexander-rep:{n}:1", quandle=q) is rep
        assert list(qio._kept)[-1] == ("alexander-rep", q, n, 1)
    assert ("dihedral", 40) not in qio._kept and len(qio._kept) < 10
    big = qio.load_quandle("dihedral:150")
    again = qio.load_quandle("dihedral:150")
    assert big == again and big is not again
    assert ("dihedral", 150) not in qio._kept


def test_malformed_rep_and_cochain_entries_exit_2(tmp_path, capsys):
    """The library's rules refuse, with exit 2, a JSON true or false where
    an integer belongs, a ragged row at any level and a table of the wrong
    depth: in a rep's eta or tau `algebra._freeze`, and in a cochain's
    values `homology._require_module`; and a 'dim' that disagrees with the
    matrices."""
    from quandlekit.cli import main
    doc = qio.rep_to_doc(make_conj_rep(permutation_rep_r3(3)))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc))
    assert main(["check", "rep", str(good)]) == 0
    capsys.readouterr()

    def edited(name, edit):
        table = json.loads(json.dumps(doc[name]))
        edit(table)
        return {**doc, name: table}

    def put(value):
        def edit(table):
            table[2][1][0][2] = value
        return edit

    reps = [edited("eta", put(True)), edited("tau", put(False)),
            edited("eta", put([0])),                          # one level too deep
            edited("tau", lambda t: t[1][2][2].pop()),        # a ragged matrix row
            edited("eta", lambda t: t[1][2].pop()),           # a matrix one row short
            edited("tau", lambda t: t[2].append(t[2][0])),    # a table row too long
            edited("eta", lambda t: t[0].__setitem__(1, 1)),  # a matrix that is an int
            {**doc, "tau": doc["tau"][0]}]                    # one level too shallow
    for i, rep in enumerate(reps):
        path = tmp_path / f"rep{i}.json"
        path.write_text(json.dumps(rep))
        assert main(["check", "rep", str(path)]) == 2, i
        assert capsys.readouterr().err == (
            "input error: 3 x 3 tables eta and tau must be 18 integer matrices, "
            "all square of one size >= 1\n"), i
    # 'dim' must agree with the matrices, and is tested before the relations:
    # with tau = eta relation (4) fails, an exit 1 once 'dim' agrees
    failing = {**doc, "tau": doc["eta"]}
    for dim, code in ((2, 2), (True, 2), (3, 1)):
        path = tmp_path / "dim.json"
        path.write_text(json.dumps({**failing, "dim": dim}))
        assert main(["check", "rep", str(path)]) == code, dim
        err = capsys.readouterr().err
        assert code == 1 or err == (f"input error: rep 'dim' {dim!r} disagrees "
                                    "with its 3 x 3 matrices\n"), dim
    for i, value in enumerate([[1, True, 0], [False, 0, 0], [1, 0], [[1], 0, 0], 1]):
        path = tmp_path / f"kappa{i}.json"
        path.write_text(json.dumps({"degree": 2, "modulus": 3, "dim": 3,
                                    "values": {"0,1": value}}))
        assert main(["check", "cocycle", str(path), "--rep", "conj-rep:perm3"]) == 2, i
        assert capsys.readouterr().err == (
            f"input error: the cochain has the value {value!r} at (0, 1), not a "
            "list of 3 integers\n"), i


def test_cochain_round_trip(tmp_path):
    kappa = Cochain(2, 3, 3, {(0, 1): [1, 0, 2], (2, 0): [0, 1, 0]})
    path = tmp_path / "kappa.json"
    path.write_text(qio.dumps_document(qio.cochain_to_doc(kappa)))
    back = qio.load_cochain(str(path), make_conj_rep(permutation_rep_r3(3)))
    assert back.values == kappa.values
    assert (back.degree, back.modulus, back.dim) == (2, 3, 3)


def test_cochain_doc_validation():
    """cochain_from_doc needs the header keys; a key of the wrong arity or a
    value of the wrong length parses, and the fit rule refuses it."""
    with pytest.raises(InputError):
        qio.cochain_from_doc({"degree": 2, "modulus": 3})
    rep = make_alexander_rep(make_dihedral(3), 3, 2)
    for values, fault in (({"0,1,2": [1]}, "key (0, 1, 2)"),
                          ({"0,1": [1, 0]}, "value [1, 0]")):
        kappa = qio.cochain_from_doc({"degree": 2, "modulus": 3, "dim": 1,
                                      "values": values})
        with pytest.raises(InputError, match=fr"^the cochain has the {re.escape(fault)}"):
            _require_module(rep, kappa)


def test_json_objects_with_a_repeated_key_are_refused(tmp_path, capsys):
    """json keeps the last of two equal keys; a document that gives one
    twice, at the top or further in, is ambiguous and exits 2."""
    from quandlekit.cli import main
    rep = make_alexander_rep(make_dihedral(3), 3, 2)
    files = {
        "cochain": '{"degree": 2, "modulus": 3, "dim": 1, "modulus": 5, "values": {}}',
        "values": '{"degree": 2, "modulus": 3, "dim": 1,'
                  ' "values": {"0,1": [1], "0,1": [2]}}',
        "quandle": '{"size": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]],'
                   ' "table": [[0, 0, 0], [1, 1, 1], [2, 2, 2]]}'}
    for name, text in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        load = qio.load_quandle if name == "quandle" else (
            lambda spec: qio.load_cochain(spec, rep))
        with pytest.raises(InputError, match=r"key '(modulus|0,1|table)' appears twice"):
            load(str(path))
        argv = (["check", "quandle", str(path)] if name == "quandle" else
                ["check", "cocycle", str(path), "--quandle", "dihedral:3",
                 "--rep", "alexander-rep:3:2"])
        assert main(argv) == 2, name
        assert "appears twice" in capsys.readouterr().err
    # one key per object, the same key in two objects, loads
    path = tmp_path / "ok.json"
    path.write_text('{"degree": 2, "modulus": 3, "dim": 1, "values": {"0,1": [1]},'
                    ' "label": {"modulus": 1}}')
    assert qio.load_cochain(str(path), rep).values == {(0, 1): [1]}


def test_cochain_keys_must_be_spelled_as_written(tmp_path):
    """int() takes " 0", "+1", "1_0" and other digits, so two spellings of
    one tuple once loaded as one key, the last silently; only the canonical
    spelling ",".join(map(str, parts)) is accepted."""
    for key in (" 0,1", "0, 1", "+0,1", "00,1", "1_0,1", "-0,1", "\u0660,1",
                "0,1,", ",0,1", "0,,1", "0;1", ""):
        doc = {"degree": 2, "modulus": 3, "dim": 1, "values": {key: [1]}}
        with pytest.raises(InputError, match="is not 'x,y"):
            qio.cochain_from_doc(doc)
    both = tmp_path / "both.json"
    both.write_text('{"degree": 2, "modulus": 3, "dim": 1,'
                    ' "values": {"0,1": [1], " 0,1": [2]}}')
    with pytest.raises(InputError, match="' 0,1' is not"):
        qio.load_cochain(str(both), make_alexander_rep(make_dihedral(3), 3, 2))
    canonical = {"degree": 2, "modulus": 3, "dim": 1,
                 "values": {"0,1": [1], "2,0": [2], "-1,10": [1]}}
    assert qio.cochain_from_doc(canonical).values == {(0, 1): [1], (2, 0): [2],
                                                      (-1, 10): [1]}


def test_zero_cochain_shorthand():
    rep = make_alexander_rep(make_trivial(2), 2, 1)
    kappa = qio.load_cochain("zero", rep=rep)
    assert kappa.values == {}


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"table\": [[0,\n}")
    with pytest.raises(InputError) as err:
        qio.load_quandle(str(path))
    assert "line" in str(err.value)
    # json hands a number of over 4300 digits to int(), which refuses it
    path.write_text('{"table": [[' + "9" * 5000 + "]]}")
    with pytest.raises(InputError, match="a number has too many digits$"):
        qio.load_quandle(str(path))


# a file that json cannot read: (how to make it, the message after its path)
_UNREADABLE = {
    "a directory": (lambda path: path.mkdir(), "not a readable file"),
    # ff fe opens a UTF-16 file; UnicodeDecodeError is a ValueError, which
    # once read as a number of too many digits
    "UTF-16 bytes": (lambda path: path.write_bytes(b"\xff\xfe{}"),
                     "the file is not UTF-8 text"),
    "a deep table": (lambda path: path.write_text(
        '{"size": 1, "table": ' + "[" * 100000 + "]" * 100000 + "}"),
        "the JSON is nested too deeply"),
}
_READERS = {
    "quandle": lambda bad: ["colorings", bad, "3_1"],
    "--rep": lambda bad: ["homology", "2", "--quandle", "dihedral:3", "--rep", bad],
    "--cocycle": lambda bad: ["invariant", "cocycle", "--quandle", "dihedral:3",
                              "--rep", "conj-rep:perm3", "--cocycle", bad,
                              "--knot", "3_1"],
    "compare": lambda bad: ["compare", bad, bad],
}


@pytest.mark.parametrize("fault", _UNREADABLE)
@pytest.mark.parametrize("reader", _READERS)
def test_a_file_json_cannot_read_exits_2(tmp_path, capsys, reader, fault):
    """A directory, bytes that are not UTF-8 and arrays nested past the
    recursion limit are one input error line that names the path, not a
    traceback, wherever a command reads a JSON file."""
    from quandlekit.cli import main
    make, message = _UNREADABLE[fault]
    bad = tmp_path / "bad.json"
    make(bad)
    assert main(_READERS[reader](str(bad))) == 2
    assert capsys.readouterr().err == f"input error: {bad}: {message}\n"


def test_dumps_document_is_stable():
    doc = {"b": 1, "a": [3, 2], "nested": {"z": 0, "y": 1}}
    assert qio.dumps_document(doc) == qio.dumps_document(dict(reversed(doc.items())))


def _stdlib(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


# strings and keys with non-ASCII, quote, backslash and control characters
_TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\t\u00e9\u20ac\U0001f600')
                | st.characters(), max_size=6)
_INTS = st.sampled_from([0, -1, 2 ** 64, 2 ** 64 + 1, -2 ** 70]) | st.integers()
_SCALARS = _INTS | st.booleans() | st.none() | _TEXT


def _seq(items, **kwargs):
    return st.lists(items, **kwargs) | st.lists(items, **kwargs).map(tuple)


# flat int lists and int rows (empty, of unequal length, or holding true,
# false or null among the ints), in lists and in dicts keyed by strings
# (a '%' among them), as the documents' payloads are, in any tree
_ROWS = _seq(_INTS, max_size=4)
_MIXED_ROWS = _seq(_INTS | st.booleans() | st.none(), max_size=3)
_KEYS = _TEXT | st.sampled_from(["%", "%d", "0,1", "%%s"])
_PAYLOADS = (_seq(_INTS) | _seq(_ROWS, max_size=4) | _seq(_MIXED_ROWS, max_size=3)
             | st.dictionaries(_KEYS, _ROWS, max_size=4)
             | st.dictionaries(_KEYS, _MIXED_ROWS, max_size=3)
             | st.dictionaries(_KEYS, st.integers(0, 3).flatmap(
                 lambda n: _seq(_INTS, min_size=n, max_size=n)), max_size=4))
_TREES = st.recursive(_SCALARS | _PAYLOADS,
                      lambda kids: _seq(kids, max_size=4)
                      | st.dictionaries(_TEXT, kids, max_size=4),
                      max_leaves=10)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(doc=st.dictionaries(_TEXT, _TREES, max_size=4))
# dicts of int rows, written by one template: equal and mixed lengths, empty
# rows, keys holding '%', and a true or null among the ints
@example(doc={"degree": 2, "values": {"0,1": [1, 0, 2], "1,0": [0, 0, 0],
                                      "2,1": (5, 6, 7), "%d": [1, 2, 2 ** 70]}})
@example(doc={"a": {"x": [], "y": []}, "b": {"x": [1], "y": [], "z": [2, -3]},
              "c": {"%%": [3, 4], "%s%": []}})
@example(doc={"a": {"x": [1, True], "y": [False, 0]}, "b": {"x": [1], "y": [None]}})
def test_dumps_document_is_the_stdlib_encoding(doc):
    assert qio.dumps_document(doc) == _stdlib(doc)


def test_dumps_document_refuses_what_json_refuses():
    for doc in ({"a": {1, 2}}, {"a": [[1], object()]}):
        with pytest.raises(TypeError):
            _stdlib(doc)
        with pytest.raises(TypeError):
            qio.dumps_document(doc)
