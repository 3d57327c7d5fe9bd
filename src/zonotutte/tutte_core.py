"""Tutte-type polynomials of a vector list, by dynamic programming.

For a list X of vectors spanning Z^n, the weighted polynomial is the sum
over all 2^|X| sublists A of

    m(A) * (x-1)^(n - r(A)) * (y-1)^(|A| - r(A))

where r(A) is the rank of A and m(A) its lattice-index multiplicity.  The
classical (unweighted) variant replaces every m(A) by 1.  Both reduce to
the same polynomial when X is unimodular, i.e. when every n x n minor of
X is 0 or +-1.

A term depends on A only through |A| and the lattice A spans, which fixes
r(A) and m(A).  So the sum is taken without visiting sublists: one pass
over X keeps, for every lattice spanned by a sublist of the vectors seen
so far, how many sublists of each size span it.  Each vector either
leaves a sublist's lattice as it is (skipped) or extends it (added).
Lattices are keyed by their canonical Hermite normal form, and m(L) is
computed once per lattice at the end.

At y = 1 only independent sublists contribute; the Ehrhart side sums
those alone, by their k-vectors (ehrhart module), and shares no lattice
arithmetic with this pass.
"""

from __future__ import annotations

from math import comb

from .errors import CapExceeded
from .exact_linalg import (
    Lattice,
    VectorList,
    check_full_rank,
    hnf_insert,
    lattice_multiplicity,
)
from .polynomials import BiPoly, expand_shifted_basis

MAX_LIST_SIZE = 24


class TutteResult:
    """A Tutte-type polynomial together with the data it was built from.

    polynomial is the monomial-basis form; shifted_terms maps (i, j) to
    the coefficient of (x-1)^i (y-1)^j and is the exact accumulator of
    the defining sum (all entries nonnegative for the weighted variant).
    """

    __slots__ = ("polynomial", "shifted_terms", "ambient_dim", "list_size", "is_unimodular")
    polynomial: BiPoly
    shifted_terms: dict[tuple[int, int], int]
    ambient_dim: int
    list_size: int
    is_unimodular: bool

    def __init__(
        self,
        polynomial: BiPoly,
        shifted_terms: dict[tuple[int, int], int],
        ambient_dim: int,
        list_size: int,
        is_unimodular: bool,
    ):
        self.polynomial = polynomial
        self.shifted_terms = shifted_terms
        self.ambient_dim = ambient_dim
        self.list_size = list_size
        self.is_unimodular = is_unimodular


def check_input(X: VectorList, max_list_size: int) -> None:
    """Reject lists longer than max_list_size (CapExceeded), then lists
    that do not span Z^n (DimensionDeficient)."""
    if len(X) > max_list_size:
        raise CapExceeded(
            f"list has {len(X)} vectors; enumeration cap is {max_list_size}"
        )
    check_full_rank(X)


def _tutte_sum(X: VectorList, weighted: bool, max_list_size: int) -> TutteResult:
    check_input(X, max_list_size)
    n = X.dim
    # counts[L] holds, for each size s, the number of sublists of size s
    # spanning L, packed into bits [s*width, (s+1)*width) of one integer.
    # A count is at most 2^|X| < 2^width, so fields never carry into each
    # other, and adding a vector to every sublist is a shift by width.
    width = len(X) + 1
    counts: dict[Lattice, int] = {(): 1}
    for v in X.vectors:
        extended: dict[Lattice, int] = {}
        for L, packed in counts.items():
            extended[L] = extended.get(L, 0) + packed
            grown = hnf_insert(L, v)
            extended[grown] = extended.get(grown, 0) + (packed << width)
        counts = extended

    mask = (1 << width) - 1
    shifted: dict[tuple[int, int], int] = {}
    unimodular = True
    for L, packed in counts.items():
        r = len(L)
        mult = lattice_multiplicity(L)
        if mult != 1 and r == n and packed >> (n * width) & mask:
            unimodular = False
        size = 0
        while packed:
            c = packed & mask
            if c:
                key = (n - r, size - r)
                shifted[key] = shifted.get(key, 0) + (mult * c if weighted else c)
            packed >>= width
            size += 1
    return TutteResult(
        polynomial=expand_shifted_basis(shifted),
        shifted_terms=shifted,
        ambient_dim=n,
        list_size=len(X),
        is_unimodular=unimodular,
    )


def multiplicity_tutte(X: VectorList, *, max_list_size: int = MAX_LIST_SIZE) -> TutteResult:
    """Multiplicity-weighted Tutte polynomial of X (X must span Z^n)."""
    return _tutte_sum(X, weighted=True, max_list_size=max_list_size)


def classical_tutte(X: VectorList, *, max_list_size: int = MAX_LIST_SIZE) -> TutteResult:
    """Classical Tutte polynomial of X: the same sum with unit weights."""
    return _tutte_sum(X, weighted=False, max_list_size=max_list_size)


def dilate_list(X: VectorList, q: int) -> VectorList:
    """Scale every vector of X componentwise by q >= 1, preserving order."""
    if q < 1:
        raise ValueError(f"dilation factor must be >= 1, got {q}")
    return VectorList(X.dim, [tuple(q * x for x in v) for v in X.vectors])


def dilation_identity_sides(
    X: VectorList,
    q: int,
    *,
    max_list_size: int = MAX_LIST_SIZE,
    base: TutteResult | None = None,
) -> tuple[BiPoly, BiPoly]:
    """Both sides of the dilation identity, computed independently.

    The left side is the weighted polynomial of qX from scratch; at q = 1
    that is base itself, the same sum on the same list.  The right side is
    q^n M_X(1 + (x-1)/q, y), expanded from the monomial form sum a_ab x^a
    y^b of M_X as sum a_ab q^(n-a) (x+q-1)^a y^b, so it does not pass
    through the shifted-basis expansion that built the left side.  base,
    when given, must be multiplicity_tutte(X); it saves recomputing the
    right side's source when several q are checked.
    """
    dilated = dilate_list(X, q)
    if base is None:
        base = multiplicity_tutte(X, max_list_size=max_list_size)
    if q == 1:
        lhs = base.polynomial
    else:
        lhs = multiplicity_tutte(dilated, max_list_size=max_list_size).polynomial
    n = base.ambient_dim
    rhs: dict[tuple[int, int], int] = {}
    for (a, b), c in base.polynomial.sorted_terms():
        scaled = c * q ** (n - a)
        for k in range(a + 1):
            rhs[(k, b)] = rhs.get((k, b), 0) + scaled * comb(a, k) * (q - 1) ** (a - k)
    return lhs, BiPoly(rhs)
