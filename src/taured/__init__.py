"""Support tau-tilting pairs, Hasse quivers and socle-quotient reduction
for finite dimensional bound quiver algebras, over exact arithmetic.

Quick start::

    from taured import Arrow, Quiver, Relation, build_algebra, build_inventory
    from taured import enumerate_stpairs, hasse, verify_reduction

    quiver = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
    algebra = build_algebra(quiver, [Relation.monomial(("a", "b"))])
    inv = build_inventory(algebra)
    pairs = enumerate_stpairs(inv)          # 12 support tau-tilting pairs
    report = verify_reduction(algebra)      # all reduction claims, checked
"""

from .algebra import (
    Algebra,
    Arrow,
    Quiver,
    Relation,
    build_algebra,
    extract_presentation,
    quotient_by_elements,
    vertex_subalgebra_quotient,
)
from .linalg import Matrix, PrimeField, QQ, field_from_name, nullspace, rank_and_rowbasis
from .reduction import (
    Check,
    ReductionContext,
    ReductionSets,
    Report,
    compute_nsets,
    find_proj_injectives,
    reconstruct_tau_tilt,
    socle_quotient,
    verify_reduction,
)
from .reps import (
    Morphism,
    PresentationMap,
    Representation,
    bar,
    direct_sum,
    hom_basis,
    inflate,
    injective,
    is_iso,
    is_sincere,
    minimal_presentation,
    projective,
    simple,
    tau,
)
from .series import closed_form, series_algebra, series_counts, tau_tilt_count
from .strings import StringWord, enumerate_strings, is_string_algebra, string_to_rep
from .tilting import (
    BlockProduct,
    IndecRecord,
    Inventory,
    PosetQuiver,
    STPair,
    build_inventory,
    compatible,
    enumerate_stpairs,
    full_subquiver,
    hasse,
    oracle_stpairs_via_quotients,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra", "Arrow", "Quiver", "Relation", "build_algebra",
    "extract_presentation", "quotient_by_elements", "vertex_subalgebra_quotient",
    "Matrix", "PrimeField", "QQ", "field_from_name", "nullspace", "rank_and_rowbasis",
    "Check", "ReductionContext", "ReductionSets", "Report", "compute_nsets",
    "find_proj_injectives", "reconstruct_tau_tilt", "socle_quotient", "verify_reduction",
    "Morphism", "PresentationMap", "Representation", "bar", "direct_sum",
    "hom_basis", "inflate", "injective", "is_iso", "is_sincere",
    "minimal_presentation", "projective", "simple", "tau",
    "closed_form", "series_algebra", "series_counts", "tau_tilt_count",
    "StringWord", "enumerate_strings", "is_string_algebra", "string_to_rep",
    "BlockProduct", "IndecRecord", "Inventory", "PosetQuiver", "STPair",
    "build_inventory", "compatible", "enumerate_stpairs", "full_subquiver", "hasse",
    "oracle_stpairs_via_quotients",
]
