"""What each process imports.  `import quandlekit` loads no submodule, and a
one-shot command loads only the modules it runs, so its cost is the
interpreter's start and those modules; each command's set is pinned here,
so that the one-shot cost cannot grow back unnoticed.  After a command's
first run in a process, its later runs execute no import statement."""

import ast
import builtins
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quandlekit
from quandlekit import cli

SRC = Path(__file__).resolve().parents[1] / "src"
# every command that reads a quandle loads BASE, and one that reads a rep
# REPS; no command loads `groups`, which only annotations name
BASE = {"cli", "errors", "io", "quandles"}
REPS = BASE | {"algebra", "laurent", "linalg"}
INVARIANTS = REPS | {"braids", "homology", "invariants"}


def _loaded(code: str) -> tuple:
    """The quandlekit submodules a fresh interpreter holds after `code`, and
    whether it loaded `fractions`."""
    probe = (code + "\nimport json, sys\nprint(json.dumps([sorted(m[11:] for m in "
             "sys.modules if m.startswith('quandlekit.')), 'fractions' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True, timeout=60)
    names, fractions = json.loads(proc.stdout)
    return set(names), fractions


def _one_shot(argv) -> set:
    mods, fractions = _loaded(
        "import contextlib, io\nfrom quandlekit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0")
    assert not fractions
    return mods


def test_import_quandlekit_loads_no_submodule():
    assert _loaded("import quandlekit") == (set(), False)


def test_help_loads_only_the_command_line():
    mods, _ = _loaded("from quandlekit import cli\n"
                      "import contextlib, io\n"
                      "with contextlib.redirect_stdout(io.StringIO()):\n"
                      "    assert cli.main(['--help']) == 0")
    assert mods == {"cli", "errors"}


@pytest.mark.parametrize("argv, modules", [
    (["check", "quandle", "dihedral:5"], BASE),
    (["colorings", "dihedral:3", "3_1"], BASE | {"braids", "laurent", "linalg"}),
    (["invariant", "alexander", "--knot", "4_1"],
     BASE | {"braids", "fox", "laurent", "linalg"}),
    (["check", "rep", "conj-rep:perm3"], REPS),
    (["search", "2", "dihedral:3", "conj-rep:perm3", "3"], REPS | {"homology"}),
    (["homology", "2", "--quandle", "dihedral:3", "--rep", "alexander-rep:9:2"],
     REPS | {"homology"}),
    (["check", "cocycle", "zero", "--rep", "conj-rep:perm3"], REPS | {"homology"}),
    (["invariant", "module", "--quandle", "dihedral:3", "--rep", "alexander-rep:3:2",
      "--knot", "3_1"], INVARIANTS),
    (["extend", "--quandle", "dihedral:3", "--rep", "alexander-rep:3:2"], INVARIANTS),
])
def test_each_command_loads_only_what_it_runs(argv, modules):
    """No command loads `fractions`; colorings and the Alexander polynomial
    load neither `homology` nor `invariants`, and `search`, as the bench's
    set-up runs it, loads no `braids`, `fox` or `invariants`."""
    assert _one_shot(argv) == modules


def test_the_exports_resolve_lazily():
    """Each name of the export table is its defining module's own object,
    `dir` lists every one, and a submodule resolves as an attribute after a
    bare `import quandlekit`."""
    for name, module in quandlekit._EXPORTS.items():
        home = importlib.import_module(f"quandlekit.{module}")
        value = getattr(quandlekit, name)
        assert value is getattr(home, name)
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
    assert set(quandlekit._EXPORTS) <= set(dir(quandlekit))
    assert sorted(quandlekit.__all__) == sorted(quandlekit._EXPORTS)
    with pytest.raises(AttributeError):
        quandlekit.no_such_name
    mods, _ = _loaded("import quandlekit\nassert quandlekit.braids.KNOT_TABLE\n"
                      "from quandlekit import cocycle_space, make_dihedral")
    assert mods == {"algebra", "braids", "errors", "homology", "laurent", "linalg",
                    "quandles"}


def test_a_warm_command_runs_no_import(tmp_path, monkeypatch):
    """Each command's second run in a process executes no import statement
    and no importlib.import_module, and prints the bytes of its first: every
    stand-in it called has given way to the function itself."""
    _, basis, _ = _call(["search", "2", "dihedral:3", "conj-rep:perm3", "3"])
    kappa, inv = tmp_path / "kappa.json", str(tmp_path / "inv.json")
    kappa.write_text(json.dumps(json.loads(basis)["basis"][0]))
    rep = ["--quandle", "dihedral:3", "--rep", "conj-rep:perm3"]
    argvs = [
        ["colorings", "dihedral:3", "3_1"],
        ["invariant", "alexander", "--knot", "4_1"],
        ["invariant", "module", *rep, "--braid", "k=3; 1 -2 1 -2 -2"],
        ["invariant", "module", "--quandle", "dihedral:3", "--rep",
         "alexander-rep:3:2", "--knot", "3_1"],
        ["invariant", "cocycle", *rep, "--cocycle", str(kappa), "--knot", "3_1",
         "--out", inv],
        ["compare", inv, inv],
        ["search", "2", "dihedral:3", "alexander-rep:9:2", "9"],
        ["homology", "2", "--quandle", "dihedral:3", "--rep", "alexander-rep:9:2"],
        ["check", "quandle", "dihedral:5"],
        ["check", "rep", "trivial-action:3", "--quandle", "dihedral:3"],
        ["check", "cocycle", str(kappa), *rep],
        ["extend", *rep, "--cocycle", str(kappa)],
        ["colorings", "dihedral:3", "3_1", "--frobnicate"],
    ]
    imports = []
    real_import, real_module = builtins.__import__, importlib.import_module

    def counted_import(name, *args, **kwargs):
        imports.append(name)
        return real_import(name, *args, **kwargs)

    def counted_module(name, *args, **kwargs):
        imports.append(name)
        return real_module(name, *args, **kwargs)

    for argv in argvs:
        first = _call(argv)
        with monkeypatch.context() as m:
            m.setattr(builtins, "__import__", counted_import)
            m.setattr(importlib, "import_module", counted_module)
            imports.clear()         # monkeypatch's own imports
            second = _call(argv)
        assert (second, imports) == (first, []), argv


def test_a_stand_in_keeps_only_its_modules_own_function(monkeypatch):
    """A `_deferred` stand-in whose module holds a wrapper, as a tracer or a
    test sets one, calls the wrapper and stays; once the module's own
    function is back, the next call puts that in the stand-in's place."""
    from quandlekit import _deferred, braids
    namespace, calls = {}, []
    real = braids.braid_or_knot

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    stand_in = namespace["braid_or_knot"] = _deferred(namespace, "braids",
                                                       "braid_or_knot")
    with monkeypatch.context() as m:
        m.setattr(braids, "braid_or_knot", wrapper)
        assert namespace["braid_or_knot"]("3_1") == real("3_1")
        assert calls == [("3_1",)] and namespace["braid_or_knot"] is stand_in
    assert namespace["braid_or_knot"]("4_1") == real("4_1")
    assert namespace["braid_or_knot"] is real and len(calls) == 1


def test_every_stand_in_names_its_modules_own_object():
    """Each `_deferred(globals(), module, name)` in the package names an
    object that `module` defines, so its first untraced call puts the object
    in its place and no later call imports."""
    stand_ins = []
    for path in sorted((SRC / "quandlekit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_deferred":
                stand_ins.append([arg.value for arg in node.args[1:]])
    assert len(stand_ins) > 30
    for module, name in stand_ins:
        value = getattr(importlib.import_module(f"quandlekit.{module}"), name)
        assert value.__module__ == f"quandlekit.{module}", (module, name)


def _call(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()
