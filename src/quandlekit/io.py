"""File formats and name shorthands used by the command line.

Everything is JSON with sorted keys: quandles ({"size", "table"}), reps
({"quandle", "modulus", "dim", "eta", "tau"}), cochains ({"degree",
"modulus", "dim", "values"}) with tuple keys spelled "x,y[,z]".  Every
document is written by `dumps_document`, whose bytes are those of the
standard `json` module with sorted keys and an indent of one space.  On
reading, this module parses and cross-checks fields only: JSON syntax, a
key given twice in one object, the required keys, a cochain key spelled
other than as `cochain_to_doc` writes it (such as " 0,1"), the shorthand
grammar, and agreement between two fields (a quandle's 'size' and table, a
rep's 'dim' and matrices, a rep's quandle and the one supplied).  Values
are refused by the rules of the types they build (`verify_axioms`,
`algebra._freeze`, `_require_module`).

Shorthand quandles and reps are built once per process (`_built`), within
a bound of KEPT_CELLS table cells, so a process that runs many commands, as
`cli.main` may, builds and checks conj-rep:perm3 once.  JSON
quandles, reps and cochains are read and checked on every call.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from . import _deferred
from .errors import GUARD, CheckFailed, InputError, charge, quoted, shown
from .quandles import (FiniteQuandle, make_alexander, make_dihedral,
                       make_trivial, quandle_from_table)

if TYPE_CHECKING:
    from .algebra import AlgebraRep

# what only reps and cochains need, imported by its first call, so that a
# command that reads a quandle alone loads no `algebra` or `homology`
make_alexander_rep = _deferred(globals(), "algebra", "make_alexander_rep")
make_conj_rep = _deferred(globals(), "algebra", "make_conj_rep")
make_rep = _deferred(globals(), "algebra", "make_rep")
permutation_rep_r3 = _deferred(globals(), "algebra", "permutation_rep_r3")
verify_relations = _deferred(globals(), "algebra", "verify_relations")
Cochain = _deferred(globals(), "homology", "Cochain")
_require_module = _deferred(globals(), "homology", "_require_module")
_require_modulus = _deferred(globals(), "linalg", "_require_modulus")

_INT = {int}
_ROW = {list, tuple}

# the bound of `_built`: the table cells of the results it keeps, |X|^2 for
# a quandle and |X|^2 (1 + 2 dim^2) for a rep (its quandle, eta and tau),
# each plus 64 for the objects around them (a tiny rep takes 600 bytes)
KEPT_CELLS = GUARD
_kept: dict = {}                # (kind, *args) -> (result, cells), oldest first


def _built(kind: str, *args):
    """The shorthand quandle or rep `kind` (a key of QUANDLE_SHORTHANDS,
    "alexander-rep" or "conj-rep") on `args`, formed on the first call with
    them and returned again, by one dict lookup, while it is kept; a call
    that raises keeps nothing.  Every shorthand quandle and rep is built
    here.  The constructor is looked up only to build, so a tracer that
    rebinds it keeps every entry.  No shorthand constructor charges the
    guard, so a hit skips no refusal.

    The kept results hold at most KEPT_CELLS table cells: a new one pushes
    out the oldest until it fits, and one larger than the bound is not
    kept.  At about 40 bytes a cell (dihedral:1000 and its inverse take
    40 MB on CPython 3.11) that is about 400 MB, with the memos a kept rep's
    invariants fill, which grow only with the work already done on it."""
    if (hit := _kept.get((kind, *args))) is not None:
        return hit[0]
    if kind == "alexander-rep":         # trivial-action:N too, as t = 1
        built = make_alexander_rep(*args)
    elif kind == "conj-rep":            # perm3, the one conj-rep shorthand
        built = make_conj_rep(permutation_rep_r3(*args))
    else:
        built = QUANDLE_SHORTHANDS[kind][0](*args)
    q = getattr(built, "quandle", built)
    cells = q.size ** 2 * (1 + 2 * getattr(built, "dim", 0) ** 2) + 64
    if cells <= KEPT_CELLS:
        total = sum(c for _, c in _kept.values()) + cells
        while total > KEPT_CELLS:
            total -= _kept.pop(next(iter(_kept)))[1]
        _kept[(kind, *args)] = built, cells
    return built


_built.cache_clear = _kept.clear


def dumps_document(doc: dict) -> str:
    """`doc` as the bytes of json.dumps(doc, sort_keys=True,
    separators=(",", ": "), indent=1) + "\\n": every non-empty list and
    dict opens a line per item, indented one space per level.

    With an indent, `json` leaves its C encoder for a Python generator per
    value, which was the largest single cost of a round of colorings and
    module invariants.  So the document is written here: strings by the C
    escaper that `json` uses, a list of plain ints (`type(x) is int`, so
    JSON true stays true) by one join, and a list of rows of them by one %d
    template per row length and one format, with the types checked by C-level
    passes; so is a dict of such rows, its keys in the template.  Those are
    the colorings, multisets, braids, tables and cochain values that make up
    most documents.  Dicts take string keys;
    values are dicts, lists, tuples, strings, ints, booleans and None, and
    anything else, a float or a non-string key included, raises TypeError."""
    return _encode(doc, "") + "\n"


def _encode(o, indent: str) -> str:
    """o as `dumps_document` writes it at a nesting of `indent`."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = indent + " "
    sep = ",\n" + inner
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = sorted(o.items())
        if set(map(type, o.values())) <= _ROW and set(map(type, flat := tuple(
                chain.from_iterable([v for _, v in items])))) <= _INT:
            # a dict of int rows, as a cochain's values: one %d template
            forms = _row_forms(o.values(), inner)
            body = sep.join([encode_basestring_ascii(k).replace("%", "%%") + ": "
                             + forms[len(v)] for k, v in items]) % flat
        else:
            body = sep.join([encode_basestring_ascii(k) + ": " + _encode(v, inner)
                             for k, v in items])
        return "{\n" + inner + body + "\n" + indent + "}"
    if not isinstance(o, (list, tuple)):
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not o:
        return "[]"
    types = set(map(type, o))
    if types == _INT:
        body = sep.join(map(int.__repr__, o))
    elif types <= _ROW and set(map(type, flat := tuple(chain.from_iterable(o)))) <= _INT:
        forms = _row_forms(o, inner)
        body = sep.join(map(forms.__getitem__, map(len, o))) % flat
    else:
        body = sep.join([_encode(x, inner) for x in o])
    return "[\n" + inner + body + "\n" + indent + "]"


def _row_forms(rows, indent: str) -> dict:
    """The %d template of a list of n ints at a nesting of `indent`, for
    each length n in `rows`."""
    inner = indent + " "
    row_sep, close = ",\n" + inner, "\n" + indent + "]"
    return {n: "[\n" + inner + row_sep.join(["%d"] * n) + close if n else "[]"
            for n in set(map(len, rows))}


def _load_json(path: str) -> dict:
    """The JSON object in the file at `path`; an object that gives one key
    twice is refused, where `json` would keep the last value silently.  Each
    refusal names the path, cut past QUOTED characters (`errors.shown`)."""
    name = shown(path)

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            raise InputError(f"{name}: key {quoted(key)} appears twice in one "
                             "object")
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique)
    except FileNotFoundError:
        raise InputError(f"no such file: {name}") from None
    except OSError:                 # a directory, or a file it may not read
        raise InputError(f"{name}: not a readable file") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{name}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from None
    except InputError:              # a key given twice, from `unique`
        raise
    except UnicodeDecodeError:      # a ValueError too, so caught before it
        raise InputError(f"{name}: the file is not UTF-8 text") from None
    except ValueError:              # an integer of more digits than int() reads
        raise InputError(f"{name}: a number has too many digits") from None
    except RecursionError:
        raise InputError(f"{name}: the JSON is nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError(f"{name}: the top-level JSON value is not an object")
    return doc


def quandle_to_doc(q: FiniteQuandle) -> dict:
    return {"size": q.size, "table": [list(r) for r in q.table],
            "label": q.label}


def table_from_doc(doc: dict) -> list:
    """The operation table of a quandle document, not yet checked by
    `quandles.verify_axioms`; its 'size', if given, must count the rows."""
    if not isinstance(doc, dict) or "table" not in doc:
        raise InputError("quandle document is missing 'table'")
    table = doc["table"]
    # type(...) is int: a JSON true is an int to isinstance; a table that is
    # not a list has no rows to count, and verify_axioms refuses it
    if "size" in doc and (type(doc["size"]) is not int or isinstance(table, list)
                          and doc["size"] != len(table)):
        raise InputError("quandle document 'size' disagrees with the table")
    return table


def quandle_from_doc(doc: dict, label: str = "") -> FiniteQuandle:
    """The quandle of a document; the guard bounds the work of its axiom check."""
    return quandle_from_table(table_from_doc(doc), label=doc.get("label", label))


# shorthand name -> (constructor, number of integer arguments)
QUANDLE_SHORTHANDS = {"dihedral": (make_dihedral, 1),
                      "alexander": (make_alexander, 2),
                      "trivial": (make_trivial, 1)}


def load_quandle(spec: str) -> FiniteQuandle:
    """A quandle by shorthand (dihedral:3, alexander:5:2, trivial:4) or by
    JSON file path.  A shorthand's N x N table is refused, before it is
    built, when its N^2 cells exceed the guard; a JSON table's axiom check
    is bounded by the guard (see verify_axioms)."""
    kind, *args = spec.split(":")
    if kind not in QUANDLE_SHORTHANDS:
        return quandle_from_doc(_load_json(spec), label=os.path.basename(spec))
    if len(args) != QUANDLE_SHORTHANDS[kind][1]:
        raise InputError(f"bad quandle shorthand {quoted(spec)}")
    ints = _ints(spec, args)
    if ints[0] > 0:
        charge(ints[0], f"table cells of {quoted(spec)}", 2)
    return _built(kind, *ints)


def load_table(spec: str) -> list:
    """The operation table of a quandle shorthand or JSON file, before its
    axioms are checked, so that a table failing them can be reported."""
    if spec.split(":")[0] in QUANDLE_SHORTHANDS:
        return [list(r) for r in load_quandle(spec).table]
    return table_from_doc(_load_json(spec))


def rep_to_doc(rep: AlgebraRep) -> dict:
    return {
        "quandle": quandle_to_doc(rep.quandle),
        "modulus": rep.modulus,
        "dim": rep.dim,
        "eta": [[[list(r) for r in mat] for mat in row] for row in rep.eta],
        "tau": [[[list(r) for r in mat] for mat in row] for row in rep.tau],
        "label": rep.label,
    }


def _check_quandle(own: FiniteQuandle, given: FiniteQuandle | None, what: str):
    if given is not None and own.table != given.table:
        raise InputError(f"{what} lives on a quandle other than {shown(given.label)}")


def rep_from_doc(doc: dict, quandle: FiniteQuandle | None = None,
                 check: bool = True) -> AlgebraRep:
    """A rep document on its 'quandle' or on `quandle`; both must agree if
    given, and so must 'dim' and the matrices.  With `check`, a rep that
    fails the relations then raises CheckFailed.  The guard bounds the
    checks of the document's own quandle and of the relations."""
    for key in ("modulus", "dim", "eta", "tau"):
        if key not in doc:
            raise InputError(f"rep document is missing {key!r}")
    if "quandle" in doc:
        own = quandle_from_doc(doc["quandle"])
        _check_quandle(own, quandle, "rep document")
        quandle = quandle or own
    elif quandle is None:
        raise InputError("rep document has no quandle and none was supplied")
    rep = make_rep(quandle, doc["modulus"], doc["eta"], doc["tau"],
                   label=doc.get("label", ""), check=False)
    # type(...) is int: a JSON true is an int to isinstance
    if (type(doc["dim"]), doc["dim"]) != (int, rep.dim):
        raise InputError(f"rep 'dim' {quoted(doc['dim'])} disagrees with its "
                         f"{rep.dim} x {rep.dim} matrices")
    if check:
        report = verify_relations(rep)
        if not report:
            raise CheckFailed("; ".join(report.failures))
    return rep


def _ints(spec: str, texts) -> list[int]:
    try:
        return [int(x) for x in texts]
    except ValueError:
        raise InputError(f"bad shorthand {quoted(spec)}") from None


def load_rep(spec: str, quandle: FiniteQuandle | None = None,
             modulus: int | None = None, check: bool = True) -> AlgebraRep:
    """A rep by shorthand or JSON file path: the one place a rep meets a quandle.

    alexander-rep:N:t and trivial-action[:N] (eta = I, tau = 0; N defaults to
    `modulus`) are built on `quandle`; conj-rep:perm3[:N] (R3 permuting
    coordinates, mod 3 by default) and JSON reps must live on it if it is given.
    `check` is passed to rep_from_doc for JSON reps.  A shorthand rep is
    built once per process for each quandle and arguments (`_built`).
    """
    parts = spec.split(":")
    kind = parts[0]
    if kind not in ("alexander-rep", "conj-rep", "trivial-action"):
        return rep_from_doc(_load_json(spec), quandle=quandle, check=check)
    if kind != "conj-rep" and quandle is None:
        raise InputError(f"{kind} shorthand needs a quandle")
    if kind == "alexander-rep" and len(parts) == 3:
        n, t = _ints(spec, parts[1:])
        return _built(kind, quandle, n, t)
    if kind == "conj-rep" and len(parts) in (2, 3) and parts[1] == "perm3":
        (n,) = _ints(spec, parts[2:]) or [3]
        rep = _built(kind, n)
        _check_quandle(rep.quandle, quandle, f"rep {quoted(spec)}")
        return rep
    if kind == "trivial-action" and len(parts) <= 2:
        (n,) = _ints(spec, parts[1:]) or [modulus]
        if n is None:
            raise InputError("trivial-action shorthand needs a modulus")
        _require_modulus(n)             # a list would fail `_built`'s lookup
        return _built("alexander-rep", quandle, n, 1)
    raise InputError(f"bad rep shorthand {quoted(spec)}")


def cochain_to_doc(kappa: Cochain) -> dict:
    values = {",".join(map(str, k)): list(v) for k, v in sorted(kappa.values.items())}
    return {"degree": kappa.degree, "modulus": kappa.modulus, "dim": kappa.dim,
            "values": values}


def cochain_from_doc(doc: dict) -> Cochain:
    """The cochain of a document, its keys parsed and its values as given."""
    for key in ("degree", "modulus", "dim"):
        if key not in doc:
            raise InputError(f"cochain document is missing {key!r}")
    if not isinstance(doc.get("values", {}), dict):
        raise InputError("cochain 'values' must map keys to value lists")
    values = {}
    for key, vec in doc.get("values", {}).items():
        try:
            parts = tuple(int(x) for x in key.split(","))
        except ValueError:
            parts = None
        # int() also takes " 0", "+1", "1_0" and other digits, so that two
        # spellings of one tuple could both load: only the one that
        # cochain_to_doc writes is accepted
        if parts is None or key != ",".join(map(str, parts)):
            raise InputError(f"cochain key {quoted(key)} is not 'x,y[,z]' with "
                             "integer parts")
        values[parts] = vec
    return Cochain(degree=doc["degree"], modulus=doc["modulus"], dim=doc["dim"],
                   values=values)


def load_cochain(spec: str, rep: AlgebraRep, degree: int | None = None) -> Cochain:
    """A cochain from a JSON file, or the shorthand 'zero' (of degree 2 if
    `degree` is None); it must fit the rep and have `degree`, if one is
    given (`homology._require_module`)."""
    if spec == "zero":
        return Cochain(degree=2 if degree is None else degree, modulus=rep.modulus,
                       dim=rep.dim, values={})
    kappa = cochain_from_doc(_load_json(spec))
    _require_module(rep, kappa, degree)
    return kappa
