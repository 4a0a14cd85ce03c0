"""Command-line front end.

Subcommands: check, colorings, search, invariant, homology, compare,
extend.  All output is a single JSON document with sorted keys, so runs
are byte-for-byte reproducible.  --jobs is accepted and selects nothing.

A rep lives on --quandle: alexander-rep and trivial-action are built on it,
and conj-rep and JSON reps must carry an equal quandle table.  A rep or
cochain that disagrees, a missing --quandle, --rep or --cocycle, an `extend`
cochain not of degree 2, or an --out path that cannot be written exits 2.
`check cocycle` tests delta kappa = 0 for a cochain of any degree d >= 0 on
any rep at the boundary tuples whose last entry is in the quandle's
generating set, which is enough (the generator rule of `homology`).  A
degree below 0 exits 2, as do a --degree that disagrees with the cochain
file, a `search` degree other than 2 and 3 and a `homology` degree outside
0-3, each refused by the library.  `search` takes any modulus N and lists
generators of the cocycles over Z_N, with N under the key "prime" and their
number under "dimension"; for prime N they are a basis.  For every N the
elimination takes delta's rows at the tuples ending in the generating set
and picks its pivots by sparsity, so for composite N the generators may
differ from those of earlier versions, with the same number and span.

--guard bounds the work of each command, stage by stage, through
`errors.charge` (README.md's `--guard` table gives each count).  `main`
sets the bound once per command, with `errors.guarded`, and the outer bound
is back in force when the command returns or raises.  It charges: every
command the cells of a shorthand quandle's table, the axiom check of a JSON
quandle and the relation check of a JSON rep; `check quandle` the axiom
check of any table; `check rep` the relation check; `colorings`,
`invariant cocycle` and `invariant module` the candidate colorings and the
search plan; `invariant module` also the cells and block walk of its
colored matrix; `check cocycle` and `invariant cocycle` the boundary-term
steps of the cocycle check; `invariant alexander` the Laurent coefficient
steps; `search` and `homology` the coboundary cells; `extend` the axiom
checks of the extension.

Exit codes: 0 success, 1 validation failure, 2 input error, 3 guard
exceeded.

`main(argv)` may be called many times in one process: the argparse parser
is built on the first call and reused, and a call parses its argv once, an
argv that starts with a subcommand's name by that subcommand's parser alone,
so a call costs its command and one parse.  Shorthand quandles and reps are
built once per process, within the fixed bound `io.SHORTHANDS_KEPT`, and
their memos are shared by later calls; a shorthand quandle's table cells
are charged against --guard on every call all the same.  JSON inputs are
read and checked on every call.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import io as qio
from .algebra import verify_relations
from .braids import braid_or_knot, colorings_of_closure
from .errors import GUARD, CheckFailed, GuardExceeded, InputError, guarded
from .fox import alexander_polynomial
from .homology import ComplexConfig, cocycle_space, cohomology, is_cocycle
from .invariants import (cocycle_invariant, dynamical_extension,
                         module_invariant, multiset_contained)
from .quandles import ValidationReport, verify_axioms


def _emit(doc: dict, out_path: str | None) -> None:
    text = qio.dumps_document(doc)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --out {out_path!r}: "
                             f"{exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _load_word(args):
    knot, braid = getattr(args, "knot", None), getattr(args, "braid", None)
    if knot and braid:
        raise InputError("give --knot or --braid, not both")
    if not (knot or braid):
        raise InputError("no braid word or knot name given")
    return braid_or_knot(knot or braid)


def _rep_on_quandle(args, spec: str | None, **options):
    """The rep `spec` on --quandle, if one is given; `options` go to load_rep."""
    if spec is None:
        raise InputError("no --rep given")
    quandle = qio.load_quandle(args.quandle) if args.quandle else None
    return qio.load_rep(spec, quandle=quandle, **options)


def cmd_check(args) -> int:
    kind = args.kind
    if kind == "quandle":
        # verify the raw table so a failing table is a check failure, not an
        # input error; every table's check is bounded by --guard
        table = qio.load_table(args.target)
        report = verify_axioms(table)
    elif kind == "rep":
        # a rep that fails the relations prints its report and exits 1
        report = verify_relations(_rep_on_quandle(args, args.target, check=False))
    elif kind == "cocycle":
        rep = _rep_on_quandle(args, args.rep)
        # 'zero' takes --degree (2 without it); a file must be of it, if given
        kappa = qio.load_cochain(args.target, rep=rep, degree=args.degree)
        ok = is_cocycle(ComplexConfig(rep=rep, variant=args.variant), kappa)
        report = ValidationReport(
            ok, [] if ok else [f"degree-{kappa.degree} cocycle condition fails"])
    else:
        raise InputError(f"unknown check kind {kind!r}")
    _emit({"check": kind, "target": args.target, "passed": report.passed,
           "failures": list(report.failures)}, args.out)
    if not report.passed:
        raise CheckFailed("; ".join(report.failures) or "check failed")
    return 0


def cmd_colorings(args) -> int:
    q = qio.load_quandle(args.quandle)
    w = _load_word(args)
    cols = colorings_of_closure(q, w)
    _emit({"quandle": args.quandle, "braid": w.letters,
           "strands": w.strands, "count": len(cols),
           "colorings": cols}, args.out)
    return 0


def cmd_search(args) -> int:
    rep = _rep_on_quandle(args, args.rep, modulus=args.prime)
    if rep.modulus != args.prime:
        raise InputError(
            f"rep modulus {rep.modulus} disagrees with search modulus {args.prime}")
    cfg = ComplexConfig(rep=rep, variant=args.variant)
    basis = cocycle_space(cfg, args.degree)
    _emit({"degree": args.degree, "quandle": args.quandle, "rep": args.rep,
           "prime": args.prime, "variant": args.variant,
           "dimension": len(basis),
           "basis": [qio.cochain_to_doc(k) for k in basis]}, args.out)
    return 0


def cmd_invariant(args) -> int:
    w = _load_word(args)
    if args.kind == "alexander":
        poly = alexander_polynomial(w)
        _emit({"invariant": "alexander", "braid": w.letters,
               "strands": w.strands,
               "polynomial": {str(e): c for e, c in sorted(poly.items())},
               "display": _poly_str(poly)}, args.out)
        return 0
    if args.quandle is None:
        raise InputError("no --quandle given")
    rep = _rep_on_quandle(args, args.rep)
    meta = {"quandle": args.quandle, "rep": args.rep,
            "braid": w.letters, "strands": w.strands}
    if args.kind == "module":
        inv = module_invariant(rep, w)
        _emit({"invariant": "module", **meta,
               "colorings": len(inv.entries),
               "multiset": inv.entries}, args.out)
        return 0
    if args.kind == "cocycle":
        if args.cocycle is None:
            raise InputError("no --cocycle given")
        kappa = qio.load_cochain(args.cocycle, rep=rep)
        inv = cocycle_invariant(rep, kappa, w)
        _emit({"invariant": "cocycle", **meta, "cocycle": args.cocycle,
               "modulus": inv.modulus, "dim": inv.dim,
               "colorings": len(inv.entries),
               "multiset": inv.entries}, args.out)
        return 0
    raise InputError(f"unknown invariant kind {args.kind!r}")


def cmd_homology(args) -> int:
    rep = _rep_on_quandle(args, args.rep)
    cfg = ComplexConfig(rep=rep, variant=args.variant, basepoint=args.basepoint)
    factors = cohomology(cfg, args.degree)
    _emit({"degree": args.degree, "quandle": args.quandle, "rep": args.rep,
           "variant": args.variant, "invariant_factors": factors}, args.out)
    return 0


def cmd_compare(args) -> int:
    from .invariants import InvariantMultiset
    docs = []
    for path in (args.a, args.b):
        doc = qio._load_json(path)
        if "multiset" not in doc:
            raise InputError(f"{path} is not an invariant document")
        entries = doc["multiset"]
        modulus, dim = doc.get("modulus", 0), doc.get("dim", 0)
        rows_ok = isinstance(entries, list) and all(
            isinstance(e, list) and all(type(x) is int for x in e) for e in entries)
        if not (rows_ok and type(modulus) is int and type(dim) is int):
            raise InputError(f"{path}: 'multiset' must be a list of integer lists "
                             "and 'modulus' and 'dim' integers")
        docs.append(InvariantMultiset(tuple(tuple(e) for e in entries), modulus, dim))
    contained = multiset_contained(docs[0], docs[1])
    _emit({"contained": contained, "a": args.a, "b": args.b}, args.out)
    return 0


def cmd_extend(args) -> int:
    rep = _rep_on_quandle(args, args.rep)
    kappa = qio.load_cochain(args.cocycle, rep=rep) if args.cocycle else None
    table, report, _ = dynamical_extension(rep, kappa)
    _emit({"quandle": args.quandle, "rep": args.rep,
           "size": len(table), "passed": report.passed,
           "failures": list(report.failures),
           "table": table}, args.out)
    if not report.passed:
        raise CheckFailed("extension does not satisfy the quandle axioms")
    return 0


def _poly_str(poly) -> str:
    if not poly:
        return "0"
    terms = []
    for e in sorted(poly, reverse=True):
        c = poly[e]
        mono = "1" if e == 0 else ("t" if e == 1 else f"t^{e}")
        if e != 0 and abs(c) == 1:
            coef = "-" if c < 0 else ""
        else:
            coef = str(c)
        terms.append(coef + ("" if e == 0 else mono))
    return " + ".join(terms).replace("+ -", "- ")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The quandlekit parser, built on the first call and shared after it.

    Parsing leaves the parser unchanged (every argv gets a fresh Namespace),
    the subcommands' `func` defaults are the module's cmd_* functions, and
    its `commands` default maps each subcommand's name to its parser."""
    parser = argparse.ArgumentParser(
        prog="quandlekit",
        description="quandle cocycle and module invariants of closed braids")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.set_defaults(commands=sub.choices)

    def common(p):
        p.add_argument("--out", default=None, help="write the output document here")
        p.add_argument("--jobs", type=int, default=1, help="accepted; no effect")
        p.add_argument("--guard", type=int, default=GUARD)

    p = sub.add_parser("check", help="validate a quandle, rep, or cocycle")
    p.add_argument("kind", choices=["quandle", "rep", "cocycle"])
    p.add_argument("target")
    p.add_argument("--quandle", default=None)
    p.add_argument("--rep", default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--variant", choices=["rack", "quandle"], default="quandle")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("colorings", help="enumerate closure colorings")
    p.add_argument("quandle")
    p.add_argument("braid", help="braid text or knot name")
    common(p)
    p.set_defaults(func=cmd_colorings)

    p = sub.add_parser("search", help="generators of the cocycles over Z_N")
    p.add_argument("degree", type=int)
    p.add_argument("quandle")
    p.add_argument("rep")
    p.add_argument("prime", type=int, metavar="modulus",
                   help="N, any positive modulus; the JSON key is 'prime'")
    p.add_argument("--variant", choices=["rack", "quandle"], default="quandle")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("invariant", help="compute a link invariant")
    p.add_argument("kind", choices=["cocycle", "module", "alexander"])
    p.add_argument("--quandle", default=None)
    p.add_argument("--rep", default=None)
    p.add_argument("--cocycle", default=None)
    p.add_argument("--knot", default=None)
    p.add_argument("--braid", default=None)
    common(p)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("homology", help="cohomology invariant factors")
    p.add_argument("degree", type=int)
    p.add_argument("--quandle", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--variant", choices=["rack", "quandle"], default="quandle")
    p.add_argument("--basepoint", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("compare", help="multiset containment of two invariants")
    p.add_argument("a")
    p.add_argument("b")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("extend", help="dynamical extension quandle")
    p.add_argument("--quandle", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--cocycle", default=None)
    common(p)
    p.set_defaults(func=cmd_extend)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    commands = parser.get_default("commands")
    if argv and argv[0] in commands:
        parser, argv = commands[argv[0]], argv[1:]
    args = parser.parse_args(argv)
    try:
        with guarded(args.guard):
            return args.func(args)
    except CheckFailed as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
