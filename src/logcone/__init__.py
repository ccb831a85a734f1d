"""Combinatorial invariants of decorated dual graphs over normal-crossings
divisors: validation, lattice invariants, tropical feasibility, gluing
cones, binomial presentations, obstruction tests and dimension formulas."""

__version__ = "1.0.0"

from .cone import (
    BinomialSystem,
    ConeDescription,
    ObstructionInput,
    ObstructionVerdict,
    eliminate_unit_entries,
    gluing_equations,
    obstruction_test,
    sigma_cone,
    toric_ideal_generators,
)
from .corpus import CorpusEntry, corpus_list, corpus_load
from .dims import (
    DimensionReport,
    expected_dim_main,
    expected_dim_smooth_depth,
    expected_dim_stratum,
)
from .graph import (
    DecoratedDualGraph,
    EdgeData,
    GeometryContext,
    LegData,
    PartialOrderResult,
    StructuralError,
    ValidationReport,
    VertexData,
    arithmetic_genus,
    enumerate_edge_decorations,
    restrict_graph,
    smooth_divisor_partial_order,
    validate_graph,
)
from .lattice import IndexedBasis, LatticeSummary, build_rho, component_count, lattice_summary
from .serialize import FormatError, load_context, load_eta, load_graph, load_witness
from .tropical import (
    InfeasibilityCertificate,
    TropicalWitness,
    decide,
    integralize_witness,
    tropical_certificate,
    tropical_feasibility,
    verify_certificate,
    verify_witness,
)

__all__ = [
    "BinomialSystem",
    "ConeDescription",
    "CorpusEntry",
    "DecoratedDualGraph",
    "DimensionReport",
    "EdgeData",
    "FormatError",
    "GeometryContext",
    "IndexedBasis",
    "InfeasibilityCertificate",
    "LatticeSummary",
    "LegData",
    "ObstructionInput",
    "ObstructionVerdict",
    "PartialOrderResult",
    "StructuralError",
    "TropicalWitness",
    "ValidationReport",
    "VertexData",
    "arithmetic_genus",
    "build_rho",
    "component_count",
    "corpus_list",
    "corpus_load",
    "decide",
    "eliminate_unit_entries",
    "enumerate_edge_decorations",
    "expected_dim_main",
    "expected_dim_smooth_depth",
    "expected_dim_stratum",
    "gluing_equations",
    "integralize_witness",
    "lattice_summary",
    "load_context",
    "load_eta",
    "load_graph",
    "load_witness",
    "obstruction_test",
    "restrict_graph",
    "sigma_cone",
    "smooth_divisor_partial_order",
    "toric_ideal_generators",
    "tropical_certificate",
    "tropical_feasibility",
    "validate_graph",
    "verify_certificate",
    "verify_witness",
]
