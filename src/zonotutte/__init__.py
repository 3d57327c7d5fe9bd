"""Exact Tutte/Ehrhart toolkit for integer zonotopes.

Computes the multiplicity-weighted Tutte polynomial of a list of integer
vectors exactly, by dynamic programming over the lattices its sublists
span (keyed by Hermite normal form), derives the Ehrhart polynomial,
lattice-point counts, volume and interior counts of the zonotope the list
generates, and cross-checks every identity against an independent
brute-force geometric oracle.
"""

__version__ = "0.1.0"

from .errors import (
    BoxTooLarge,
    DegreeMismatch,
    DegreeTooHigh,
    DimensionDeficient,
    ListTooLarge,
    RankDeficient,
    UnboundedCone,
    ZonotutteError,
)
from .exact_linalg import (
    IntMatrix,
    VectorList,
    determinant,
    gcd_maximal_minors,
    multiplicity,
    rank,
)
from .polynomials import (
    BiPoly,
    UniPoly,
    bipoly_from_json,
    bipoly_to_json,
    expand_shifted_basis,
    negate_argument,
    reverse_coefficients,
    unipoly_from_json,
    unipoly_to_json,
)
from .tutte_core import (
    TutteResult,
    check_dilation_identity,
    classical_tutte,
    dilate_list,
    dilation_identity_sides,
    multiplicity_tutte,
)
from .ehrhart import (
    EhrhartResult,
    ehrhart_summary,
    ehrhart_via_independent_sets,
    ehrhart_via_theorem,
    interior_polynomial,
    scalar_corollaries,
)
from .geometry_oracle import (
    CountMode,
    HRep,
    brute_force_count,
    closed_open_counts,
    find_positive_functional,
    partition_function,
    zonotope_hrep,
)

__all__ = [
    "BiPoly",
    "BoxTooLarge",
    "CountMode",
    "DegreeMismatch",
    "DegreeTooHigh",
    "DimensionDeficient",
    "EhrhartResult",
    "HRep",
    "IntMatrix",
    "ListTooLarge",
    "RankDeficient",
    "TutteResult",
    "UnboundedCone",
    "UniPoly",
    "VectorList",
    "ZonotutteError",
    "bipoly_from_json",
    "bipoly_to_json",
    "brute_force_count",
    "check_dilation_identity",
    "classical_tutte",
    "closed_open_counts",
    "determinant",
    "dilate_list",
    "dilation_identity_sides",
    "ehrhart_summary",
    "ehrhart_via_independent_sets",
    "ehrhart_via_theorem",
    "expand_shifted_basis",
    "find_positive_functional",
    "gcd_maximal_minors",
    "interior_polynomial",
    "multiplicity",
    "multiplicity_tutte",
    "negate_argument",
    "partition_function",
    "rank",
    "reverse_coefficients",
    "scalar_corollaries",
    "unipoly_from_json",
    "unipoly_to_json",
    "zonotope_hrep",
]
