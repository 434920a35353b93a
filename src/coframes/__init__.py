"""Finite-model engine for convergence, adherence and topological structures
on finite coframes.

Everything is exact and finite: lattices are bitmask-backed index structures,
filters are principal, and every law the engine exposes is checked by direct
computation (with brute-force oracles cross-checking the optimized paths in
the test suite).
"""

from .errors import (
    AxiomViolation,
    BudgetExceeded,
    ConjectureError,
    CyclicCovers,
    DocumentError,
    EngineError,
    LatticeMismatch,
    NotALattice,
    NotAMorphism,
    NotASublattice,
    NotComplemented,
    NotDistributive,
    NotPretopological,
    StarFormulaMismatch,
    UnknownKind,
    UnknownLabel,
)
from .lattice import (
    FiniteLattice,
    FinitePoset,
    LatticeMorphism,
    LatticeReport,
    analyze,
    build_lattice,
    check_morphism,
    compose,
    cover_pairs,
    downset_lattice,
    dualize,
    identity_morphism,
    left_adjoint,
    morphism_violation,
    poset_from_covers,
    powerset_lattice,
    pseudocomplement,
    sublattice,
)
from .filters import (
    Filter,
    UpSet,
    all_filters,
    grill,
    intersection,
    is_proper,
    mesh,
    preimage_filter,
    preimage_upset,
    refines,
    restrict_complemented,
)
from .convergence import (
    ContinuityReport,
    ConvergenceStructure,
    StructureClass,
    check_continuity,
    classify,
    convergence_structure,
    final_lift,
    lim,
    points,
    s1,
    s_infinity,
)
from .adherence import (
    AdherenceStructure,
    ClosedReport,
    adh,
    adh0,
    adh_structure_of,
    adherence_structure,
    adherence_violation,
    check_adh_continuity,
    closed_sets,
    complemented_atoms,
    enumerate_adherence_structures,
    final_lift_adh,
    lim_of_nu,
    random_adherence_structure,
)
from .topology import (
    SublocaleLattice,
    TopologicalStructure,
    C_of_nu,
    enumerate_topologies,
    is_strong,
    is_topological,
    lim_of_C,
    maps_closed_to_closed,
    nu_of_C,
    star,
    sublocale_counit,
    sublocale_lattice,
    sublocale_map,
    topological_modification,
    topological_structure,
    wedge_C,
)
from .duality import (
    FiniteAdherenceSpace,
    FiniteConvergenceSpace,
    FiniteTopologicalSpace,
    P_map,
    P_space,
    SpaceMap,
    adherence_continuous,
    all_point_maps,
    bullet,
    classify_space,
    convergence_space,
    enumerate_spaces,
    epsilon,
    eta,
    is_continuous,
    is_isomorphism,
    kow,
    modify_space,
    phi_dagger,
    pt_adh,
    pt_map,
    pt_space,
    pt_top,
    space_lattice,
    space_map,
    to_adherence,
    to_pretop,
    top_space_convergence,
)
from .documents import (
    canonical_json,
    document_kind,
    load_document,
    structure_from_doc,
    structure_to_doc,
)
from .laws import SuiteReport, Violation, run_all, run_suite, suite_names
from .search import (
    Conjecture,
    SearchResult,
    parse_conjecture,
    search_counterexample,
    small_coframes,
)

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

# The compatibility surface: every name re-exported above, without modules.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
