"""Quandle cocycle and quandle module invariants of links given as closed
braids, with the supporting quandle algebra, (co)homology, exact linear
algebra, and Fox-calculus Alexander machinery.

`import quandlekit` loads no submodule: each public name below is imported
from its defining module on first access (PEP 562), and so is each
submodule, `quandlekit.braids` say, that no import has loaded yet."""

import importlib

__version__ = "0.1.0"

# public name -> its defining module
_EXPORTS = {name: module for module, names in {
    "quandles": "FiniteQuandle ValidationReport make_alexander make_conj make_core "
                "make_dihedral make_trivial quandle_from_table verify_axioms",
    "groups": "FiniteGroup cyclic_group dihedral_group group_from_table "
              "quaternion_group symmetric_group",
    "algebra": "AlgebraRep GroupRep bar make_alexander_rep make_conj_rep make_group_rep "
               "make_rep make_wada_rep permutation_rep_r3 regular_group_rep "
               "verify_relations",
    "homology": "Cochain ComplexConfig boundary_matrix coboundary coboundary_matrix "
                "cocycle_space cohomology is_cocycle_2 is_cocycle_3",
    "braids": "BraidWord KNOT_TABLE act braid_or_knot colored_matrix "
              "colorings_of_closure diagram_two_chain markov_moves parse_braid",
    "invariants": "InvariantMultiset ModuleInvariant boltzmann_weight cocycle_invariant "
                  "dynamical_extension module_invariant multiset_contained",
    "fox": "WirtingerPresentation alexander_polynomial twisted_matrix "
           "wirtinger_from_braid",
    "linalg": "cokernel_mod kernel_mod kernel_mod_p",
}.items() for name in names.split()}
_MODULES = frozenset(_EXPORTS.values()) | {"cli", "errors", "io", "laurent"}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})


def _deferred(namespace: dict, module: str, name: str):
    """A stand-in for function or class `name` of quandlekit.`module`, to be
    bound as `name` in the module whose globals are `namespace`.  Its first
    call imports `module` and calls the real one, which then takes the
    stand-in's place, so later calls run no import and no stand-in.  What
    the module holds then is kept only if `module` defines it, so a wrapper
    set there by a tracer or a test is called but not kept."""
    def first_call(*args, **kwargs):
        real = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        if (namespace.get(name) is first_call
                and getattr(real, "__module__", None) == f"{__name__}.{module}"):
            namespace[name] = real
        return real(*args, **kwargs)
    return first_call
