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

`parse` reads argv in one walk, from the table COMMANDS.  It takes --name
value, --name=value and unique prefixes of --name, the last of a repeated
option, options before, between and after the positionals, negative numbers
as values, and "--" to end the options.  A usage error (a negative --guard
too) prints the usage line and the error and returns 2; -h or --help prints
help from the table and returns 0.  `main(argv)` may be called many times
in one process: shorthand quandles and reps are built once and kept within
`io.KEPT_CELLS` table cells, though a shorthand quandle's cells are charged
against --guard on every call, and JSON inputs are read on every call.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import io as qio
from .algebra import verify_relations
from .braids import braid_or_knot, colorings_of_closure
from .errors import (GUARD, CheckFailed, GuardExceeded, InputError, guarded,
                     quoted, shown)
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
            raise InputError(f"cannot write --out {quoted(out_path)}: "
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
        raise InputError(f"unknown check kind {quoted(kind)}")
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
    raise InputError(f"unknown invariant kind {quoted(args.kind)}")


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
            raise InputError(f"{shown(path)} is not an invariant document")
        entries = doc["multiset"]
        modulus, dim = doc.get("modulus", 0), doc.get("dim", 0)
        rows_ok = isinstance(entries, list) and all(
            isinstance(e, list) and all(type(x) is int for x in e) for e in entries)
        if not (rows_ok and type(modulus) is int and type(dim) is int):
            raise InputError(f"{shown(path)}: 'multiset' must be a list of integer lists "
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


# a positional or option: its type (str or int), default, choices, whether
# it must be given, least int value, and its name in usage and errors
Arg = namedtuple("Arg", "type default choices required low metavar",
                 defaults=(str, None, (), False, None, ""))


class Usage(Exception):
    """A command line that ends its call, with args (code, text): help (0,
    for stdout) or a usage error (2, for stderr)."""


_ON = {"quandle": Arg(), "rep": Arg()}
_NEEDS = {"quandle": Arg(required=True), "rep": Arg(required=True)}
_VARIANT = {"variant": Arg(default="quandle", choices=("rack", "quandle"))}
_COMMON = {"out": Arg(), "jobs": Arg(int, 1), "guard": Arg(int, GUARD, low=0)}
# subcommand -> (its function, help line, positionals, options)
COMMANDS = {
    "check": (cmd_check, "validate a quandle, rep, or cocycle",
              {"kind": Arg(choices=("quandle", "rep", "cocycle")), "target": Arg()},
              {**_ON, "degree": Arg(int), **_VARIANT, **_COMMON}),
    "colorings": (cmd_colorings, "enumerate closure colorings",
                  {"quandle": Arg(), "braid": Arg()}, _COMMON),
    "search": (cmd_search, "generators of the cocycles over Z_N",
               {"degree": Arg(int), "quandle": Arg(), "rep": Arg(),
                "prime": Arg(int, metavar="modulus")}, {**_VARIANT, **_COMMON}),
    "invariant": (cmd_invariant, "compute a link invariant",
                  {"kind": Arg(choices=("cocycle", "module", "alexander"))},
                  {**_ON, "cocycle": Arg(), "knot": Arg(), "braid": Arg(), **_COMMON}),
    "homology": (cmd_homology, "cohomology invariant factors", {"degree": Arg(int)},
                 {**_NEEDS, **_VARIANT, "basepoint": Arg(int, 0), **_COMMON}),
    "compare": (cmd_compare, "multiset containment of two invariants",
                {"a": Arg(), "b": Arg()}, _COMMON),
    "extend": (cmd_extend, "dynamical extension quandle", {},
               {**_NEEDS, "cocycle": Arg(), **_COMMON}),
}
# subcommand -> {"--name": name} over its options, read before `_option`
_FULL = {name: {"--" + k: k for k in options}
         for name, (*_, options) in COMMANDS.items()}
# a negative number: a value, since no option looks like one
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def parse(argv) -> SimpleNamespace:
    """argv's subcommand function as `func` and every field it reads, from
    one walk of argv in the forms of this module's docstring; raises Usage."""
    if not argv or argv[0] not in COMMANDS:
        if argv and _option(argv[0], {})[0] == "help":
            raise Usage(0, _help(None))
        _fail(None, f"argument command: invalid choice: {argv[0]!r}" if argv
              else "the following arguments are required: command")
    name, (func, _, positionals, options) = argv[0], COMMANDS[argv[0]]
    ns = SimpleNamespace(func=func, **{k: a.default for k, a in options.items()})
    waiting, extras, given, args = [*positionals][::-1], [], set(), iter(argv[1:])
    full = _FULL[name]

    def take(arg: str) -> None:
        if not waiting:
            return extras.append(arg)
        key = waiting.pop()
        spec = positionals[key]
        setattr(ns, key, _value(name, spec.metavar or key, spec, arg))

    for arg in args:
        key, text = (full[arg], None) if arg in full else _option(arg, options)
        if arg == "--":
            for arg in args:
                take(arg)
        elif key is None:
            take(arg)
        elif key == "help":
            raise Usage(0, _help(name))
        elif not key:
            extras.append(arg)
        else:                       # its value: after "=", or the next value
            if text is None and ((text := next(args, "--")) == "--"
                                 or _option(text, options)[0] is not None):
                _fail(name, f"argument --{key}: expected one argument")
            setattr(ns, key, _value(name, "--" + key, options[key], text))
            given.add(key)
    missing = [positionals[k].metavar or k for k in waiting[::-1]] + [
        "--" + k for k, a in options.items() if a.required and k not in given]
    if missing:
        _fail(name, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _fail(name, "unrecognized arguments: " + " ".join(extras))
    return ns


def _option(arg: str, options: dict) -> tuple:
    """(name, `=` value or None) of the option, or "help", that `arg` names
    in full or by a unique prefix; (None, None) for a value and ("", None)
    for an unknown option."""
    if arg[:1] != "-" or arg == "-":
        return None, None
    if arg == "-h" or len(arg) > 2 and "--help".startswith(arg):
        return "help", None
    head, eq, text = arg.partition("=")
    hits = [head[2:]] if head[:2] == "--" and head[2:] in options else [
        k for k in options if len(head) > 2 and ("--" + k).startswith(head)]
    if len(hits) == 1:
        return hits[0], text if eq else None
    return None if _NUMBER.match(arg) or " " in arg else "", None


def _value(name: str, label: str, spec: Arg, text: str):
    """`text` read as argument `label` of subcommand `name`."""
    try:
        value = spec.type(text)
    except ValueError:
        _fail(name, f"argument {label}: invalid int value: {text!r}")
    if spec.choices and value not in spec.choices:
        _fail(name, f"argument {label}: invalid choice: {text!r} (choose from "
              f"{', '.join(map(repr, spec.choices))})")
    if spec.low is not None and value < spec.low:
        _fail(name, f"argument {label}: must be >= {spec.low}, got {value}")
    return value


def _fail(name: str | None, message: str):
    prog = f"quandlekit {name}" if name else "quandlekit"
    raise Usage(2, f"{_usage(name)}\n{prog}: error: {message}\n")


def _usage(name: str | None) -> str:
    """The usage line of subcommand `name`, or of the program for None."""
    if name is None:
        return "usage: quandlekit [-h] {%s} ..." % ",".join(COMMANDS)
    _, _, positionals, options = COMMANDS[name]
    names = {k: "{%s}" % ",".join(a.choices) if a.choices else
             a.metavar or (k.upper() if k in options else k)
             for k, a in {**positionals, **options}.items()}
    return " ".join(["usage: quandlekit", name, "[-h]"] + [
        ("--%s %s" if a.required else "[--%s %s]") % (k, names[k])
        for k, a in options.items()] + [names[k] for k in positionals])


def _help(name: str | None) -> str:
    """The usage line and the help lines of subcommand `name`, or of all."""
    rows = COMMANDS.items() if name is None else [(name, COMMANDS[name])]
    return _usage(name) + "\n\n" + "".join(f"  {k:<11}{c[1]}\n" for k, c in rows)


def main(argv=None) -> int:
    try:
        args = parse(sys.argv[1:] if argv is None else list(argv))
        with guarded(args.guard):
            return args.func(args)
    except Usage as exc:
        code, text = exc.args
        (sys.stderr if code else sys.stdout).write(text)
        return code
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
