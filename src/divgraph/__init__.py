"""Finite-group computation engine built around division graphs.

The package computes, for a concrete finite group: its subgroup lattice,
its divisions (the classes of elements generating conjugate cyclic
subgroups), the layered orbit digraph that records how an unramified prime
with a given Frobenius class would split through every intermediate field,
and canonical certificates that compare those digraphs across groups.
"""

from .errors import (
    CanonicalizationBudgetExceeded,
    DegreeMismatch,
    DivgraphError,
    InternalInvariantError,
    LatticeCapExceeded,
    MalformedGraph,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
    NotEvenClass,
    NotSplitClass,
    OrderCapExceeded,
    TypeMismatch,
    UnknownDescriptor,
)
from .perms import Permutation
from .groups import (
    Group,
    alternating,
    are_isomorphic,
    catalog,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    from_permutation_generators,
    group_from_json,
    group_to_json,
    heisenberg27,
    klein4,
    quaternion8,
    quotient_group,
    relabeled_copy,
    standard_groups,
    subgroup_as_group,
    symmetric,
    validate_cayley_table,
)
from .lattice import (
    Subgroup,
    SubgroupLattice,
    all_subgroups,
    center,
    centralizer,
    commutator_subgroup,
    is_normal,
    join,
    lattice_to_dot,
    lattice_to_json,
    meet,
    normalizer,
)
from .divisions import (
    ConjugacyClass,
    Division,
    alternating_divisions_by_type,
    ambivalent_alternating,
    class_splits_in_alternating,
    conjugacy_classes,
    division_of,
    divisions,
    golomb_classes,
    same_class_in_alternating,
    split_class_inverse_closed,
)
from .ust import (
    CosetSpace,
    DivisionGraph,
    Orbit,
    USTComponent,
    division_graph,
    division_graph_to_dot,
    division_graph_to_json,
    orbit_decomposition,
    right_cosets,
    ust_component,
    verify_lagarias,
)
from .analysis import (
    AnalysisReport,
    analyze,
    certificate,
    compare,
    conjecture_scan,
    recover_cyclic_colors,
    recover_lattice,
    recover_normal_colors,
    recover_order,
)

__all__ = [name for name in dir() if not name.startswith("_")]
