"""Finite-matroid computation on small ground sets.

Matroids are stored as explicit rank tables over bitmask-indexed subsets
(at most 16 elements), so every derived notion -- closure, circuits,
flats, cyclic flats, Hamiltonian flats, duality, minors -- is computed by
direct subset scan and can be cross-checked against independent oracles.

On top of the core representation the package provides:

* ``constructions``: uniform, graphic, laminar, transversal matroids,
  truncation, direct sum, parallel connection, circuit-hyperplane
  relaxation, synthesis from a cyclic-flat lattice, and a catalog of
  named matroids (M_n(k), N_n(k), P_n(k), Fano, wheels, ...).
* ``laminar``: the nested / laminar / k-laminar / k-closure-laminar
  class predicates with violating witnesses.
* ``minors``: deletion, contraction, isomorphism, minor containment,
  excluded-minor certification, binary/ternary membership.
* ``checks``: a registry of machine-checked claims about these classes,
  runnable through the ``lamina verify`` command line.
"""

from .core import (
    MAX_ELEMENTS,
    AxiomViolation,
    Matroid,
    MatroidError,
    validate_rank_axioms,
)
from .constructions import (
    CyclicFlatFamily,
    LaminarCapacitySystem,
    Multigraph,
    NestedPresentation,
    ZAxiomError,
    ZViolation,
    cycle_matroid,
    direct_sum,
    from_cyclic_flats,
    laminar_matroid,
    matroid_from_circuits,
    named_matroid,
    parallel_connection,
    relax_circuit_hyperplane,
    transversal_matroid,
    truncate,
    uniform,
    validate_z_axioms,
)
from .laminar import (
    ClassVerdict,
    is_k_closure_laminar,
    is_k_closure_laminar_circuit_form,
    is_k_laminar,
    is_laminar,
    is_nested,
    is_paving,
    min_closure_laminar_k,
    min_laminar_k,
)
from .minors import (
    MinorSpec,
    contract,
    delete,
    find_isomorphism,
    has_minor,
    is_binary,
    is_excluded_minor,
    is_isomorphic,
    is_ternary,
    minor,
)
from .formats import ParseError, parse_matroid, serialize_matroid
from .corpus import CorpusSpec, generate_corpus

__all__ = [
    "MAX_ELEMENTS",
    "AxiomViolation",
    "Matroid",
    "MatroidError",
    "validate_rank_axioms",
    "CyclicFlatFamily",
    "LaminarCapacitySystem",
    "Multigraph",
    "NestedPresentation",
    "ZAxiomError",
    "ZViolation",
    "cycle_matroid",
    "direct_sum",
    "from_cyclic_flats",
    "laminar_matroid",
    "matroid_from_circuits",
    "named_matroid",
    "parallel_connection",
    "relax_circuit_hyperplane",
    "transversal_matroid",
    "truncate",
    "uniform",
    "validate_z_axioms",
    "ClassVerdict",
    "is_k_closure_laminar",
    "is_k_closure_laminar_circuit_form",
    "is_k_laminar",
    "is_laminar",
    "is_nested",
    "is_paving",
    "min_closure_laminar_k",
    "min_laminar_k",
    "MinorSpec",
    "contract",
    "delete",
    "find_isomorphism",
    "has_minor",
    "is_binary",
    "is_excluded_minor",
    "is_isomorphic",
    "is_ternary",
    "minor",
    "ParseError",
    "parse_matroid",
    "serialize_matroid",
    "CorpusSpec",
    "generate_corpus",
]
