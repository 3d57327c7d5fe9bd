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
    UnboundedCone,
    ZonotutteError,
)
from .exact_linalg import (
    IntMatrix,
    VectorList,
    multiplicity,
    rank,
)
from .polynomials import (
    BiPoly,
    UniPoly,
    expand_shifted_basis,
    poly_to_json,
    reverse_coefficients,
)
from .tutte_core import (
    TutteResult,
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
    HRep,
    closed_open_counts,
    find_positive_functional,
    partition_function,
    zonotope_hrep,
)

__all__ = [
    "BiPoly",
    "BoxTooLarge",
    "DegreeMismatch",
    "DegreeTooHigh",
    "DimensionDeficient",
    "EhrhartResult",
    "HRep",
    "IntMatrix",
    "ListTooLarge",
    "TutteResult",
    "UnboundedCone",
    "UniPoly",
    "VectorList",
    "ZonotutteError",
    "classical_tutte",
    "closed_open_counts",
    "dilate_list",
    "dilation_identity_sides",
    "ehrhart_summary",
    "ehrhart_via_independent_sets",
    "ehrhart_via_theorem",
    "expand_shifted_basis",
    "find_positive_functional",
    "interior_polynomial",
    "multiplicity",
    "multiplicity_tutte",
    "partition_function",
    "poly_to_json",
    "rank",
    "reverse_coefficients",
    "scalar_corollaries",
    "zonotope_hrep",
]
