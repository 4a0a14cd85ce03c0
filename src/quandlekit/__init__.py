"""Quandle cocycle and quandle module invariants of links given as closed
braids, with the supporting quandle algebra, (co)homology, exact linear
algebra, and Fox-calculus Alexander machinery."""

from .quandles import (FiniteQuandle, ValidationReport, make_alexander,
                       make_conj, make_core, make_dihedral, make_trivial,
                       quandle_from_table, verify_axioms)
from .groups import (FiniteGroup, cyclic_group, dihedral_group,
                     group_from_table, quaternion_group, symmetric_group)
from .algebra import (AlgebraRep, GroupRep, bar, make_alexander_rep,
                      make_conj_rep, make_group_rep, make_rep, make_wada_rep,
                      permutation_rep_r3, regular_group_rep, verify_relations)
from .homology import (Cochain, ComplexConfig, boundary_matrix, coboundary,
                       coboundary_matrix, cocycle_space, cohomology,
                       is_cocycle_2, is_cocycle_3)
from .braids import (BraidWord, KNOT_TABLE, act, braid_or_knot,
                     colored_matrix, colorings_of_closure, diagram_two_chain,
                     markov_moves, parse_braid)
from .invariants import (InvariantMultiset, ModuleInvariant, boltzmann_weight,
                         cocycle_invariant, dynamical_extension,
                         module_invariant, multiset_contained)
from .fox import (WirtingerPresentation, alexander_polynomial, twisted_matrix,
                  wirtinger_from_braid)
from .linalg import cokernel_mod, kernel_mod, kernel_mod_p

__version__ = "0.1.0"
