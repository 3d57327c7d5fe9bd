"""Exact Tutte/Ehrhart toolkit for integer zonotopes.

Computes the multiplicity-weighted Tutte polynomial of a list of integer
vectors exactly, by dynamic programming over the lattices its sublists
span (keyed by Hermite normal form), derives the Ehrhart polynomial,
lattice-point counts, volume and interior counts of the zonotope the list
generates, and cross-checks every identity against an independent
brute-force geometric oracle.

The public names resolve lazily (PEP 562): importing the package loads
none of its modules, and a name's module loads on its first use, so
``from zonotutte import VectorList`` does not load the oracle and
``import zonotutte.cli`` loads only what the CLI imports.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CapExceeded", "DimensionDeficient", "ZonotutteError"),
    "exact_linalg": ("IntMatrix", "VectorList", "multiplicity", "rank"),
    "polynomials": (
        "BiPoly",
        "UniPoly",
        "expand_shifted_basis",
        "poly_to_json",
        "reverse_coefficients",
    ),
    "tutte_core": (
        "TutteResult",
        "classical_tutte",
        "dilate_list",
        "dilation_identity_sides",
        "multiplicity_tutte",
    ),
    "ehrhart": (
        "ehrhart_via_independent_sets",
        "ehrhart_via_theorem",
        "interior_polynomial",
        "scalar_corollaries",
    ),
    "geometry_oracle": ("HRep", "closed_open_counts", "zonotope_hrep"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
