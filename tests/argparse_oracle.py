"""The command line's parser before `cli.COMMANDS`, kept as a test oracle.

`build_parser` is the argparse tree that `cli.main` used to build, copied
unchanged; `oracle_parse` reads argv as `cli.main` then did, by the
subcommand's own parser when argv starts with a subcommand's name.  The
package itself imports no argparse."""

import argparse
import contextlib
import functools
import io

from quandlekit.cli import (cmd_check, cmd_colorings, cmd_compare, cmd_extend,
                            cmd_homology, cmd_invariant, cmd_search)
from quandlekit.errors import GUARD


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


def oracle_parse(argv):
    """(exit code, namespace) of argv read by `build_parser`: (None, the
    namespace) when it is accepted, (0, None) for help and (2, None) for a
    usage error.  What argparse prints is dropped."""
    parser = build_parser()
    commands = parser.get_default("commands")
    if argv and argv[0] in commands:
        parser, argv = commands[argv[0]], argv[1:]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return None, parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, None
