"""Ehrhart and interior polynomials of the zonotope of a vector list.

Two independent routes produce the lattice-point counting polynomial E(q)
of the zonotope generated by X:

  * a specialization of the multiplicity-weighted Tutte polynomial,
    E(q) = q^n M(1 + 1/q, 1): the coefficient of q^k is the coefficient
    c_(n-k),0 of (x-1)^(n-k) in M's shifted basis, read straight off the
    Tutte sum;
  * a direct sum m(A) q^|A| over the linearly independent sublists A,
    with m(A) the gcd of the |A| x |A| minors of A (0 when A is
    dependent).  The sum reads no Hermite normal form, so it does not
    share the lattice kernel the Tutte sum is built on; only the input
    check, common to both routes, ranks X with that kernel.

The interior counting polynomial is I(q) = (-1)^n E(-q) (reciprocity),
which as a specialization reads q^n M(1 - 1/q, 1), so its coefficient of
q^k is (-1)^(n+k) c_(n-k),0.  Closed count, volume and interior count of
the unscaled zonotope are M(2,1), M(1,1), M(0,1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import DegreeMismatch
from .exact_linalg import VectorList, minor_gcd
from .polynomials import UniPoly
from .tutte_core import MAX_LIST_SIZE, TutteResult, check_input


@dataclass(frozen=True)
class EhrhartResult:
    """Counting polynomials and volume of a zonotope."""

    ehrhart: UniPoly
    interior: UniPoly
    volume: int
    ambient_dim: int


def ehrhart_via_theorem(M: TutteResult) -> UniPoly:
    """Ehrhart polynomial from a weighted Tutte polynomial.

    q^n M(1 + 1/q, 1) = sum_i c_i0 q^(n-i), where c_ij is the coefficient
    of (x-1)^i (y-1)^j: every term with j > 0 vanishes at y = 1.  So the
    coefficient of q^k is the shifted coefficient c_(n-k),0, the sum of
    m(A) over the independent sublists A of size k.
    """
    n = M.ambient_dim
    return UniPoly([M.shifted_terms.get((n - k, 0), 0) for k in range(n + 1)])


def ehrhart_via_independent_sets(
    X: VectorList, *, max_list_size: int = MAX_LIST_SIZE
) -> UniPoly:
    """Ehrhart polynomial summed directly over independent sublists of X."""
    check_input(X, max_list_size)
    n = X.dim
    return UniPoly(
        [
            sum(minor_gcd(A, n, size) for A in combinations(X.vectors, size))
            for size in range(n + 1)
        ]
    )


def interior_polynomial(E: UniPoly, n: int) -> UniPoly:
    """Interior counting polynomial (-1)^n E(-q) for a degree-n Ehrhart E."""
    if E.degree != n:
        raise DegreeMismatch(f"expected degree {n}, got {E.degree}")
    return UniPoly([(-1) ** (n + k) * c for k, c in enumerate(E.coefficients)])


def scalar_corollaries(M: TutteResult) -> tuple[int, int, int]:
    """(lattice points, volume, interior points) of the unscaled zonotope.

    Evaluates the weighted Tutte polynomial at (2,1), (1,1) and (0,1).
    """
    values = []
    for point in ((2, 1), (1, 1), (0, 1)):
        v = M.polynomial.evaluate(*point)
        if v < 0:
            raise AssertionError(f"specialization at {point} gave {v}")
        values.append(v)
    return values[0], values[1], values[2]


def ehrhart_summary(M: TutteResult) -> EhrhartResult:
    """Bundle Ehrhart polynomial, interior polynomial and volume for M."""
    n = M.ambient_dim
    ehrhart = ehrhart_via_theorem(M)
    if ehrhart.coefficient(0) != 1:
        raise AssertionError("Ehrhart constant term must be 1")
    return EhrhartResult(
        ehrhart=ehrhart,
        interior=interior_polynomial(ehrhart, n),
        volume=ehrhart.coefficient(n),
        ambient_dim=n,
    )
