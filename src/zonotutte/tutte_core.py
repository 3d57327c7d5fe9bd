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
leaves a sublist's lattice as it is (skipped) or extends it (added), so
the state table is updated in place: a skipped vector moves no state,
and each state's counts from before the vector, read off a snapshot of
the table, are added to the lattice it grows to.  Lattices are keyed by
their canonical Hermite normal form, and m(L) is computed once per
lattice at the end, with one exception.  A full-rank lattice whose form
has at most one pivot != 1 is cyclic, { x : c . x = 0 mod m } with
m = m(L), and a second table keys it by (m, c) (exact_linalg.cyclic_key):
a vector enters it by one dot product and one gcd instead of a Hermite
insert, the lattice it grows to is cyclic again, and m is read off the
key.  A Hermite insert whose result has that form moves it to the second
table, so each lattice is in exactly one of the two.  X is walked sorted
by the last nonzero coordinate of each vector, zero vectors first: the
sum does not depend on the order, and sparse lists such as root systems
keep fewer lattices in the early steps that way.

The counts of one lattice are packed into one integer, a field of
|X| + 1 bits per size s; the sublists of size s number
C(|X|, s) < 2^(|X|+1), however they are grouped, so the packed counts of
all lattices with one (rank, m) pair are summed without any field
carrying into the next, and each pair is unpacked once.

At y = 1 only independent sublists contribute; the Ehrhart side sums
those alone, by their k-vectors (ehrhart module), and shares no lattice
arithmetic with this pass.
"""

from __future__ import annotations

from math import comb

from .errors import CapExceeded
from .exact_linalg import (
    CyclicKey,
    Lattice,
    VectorList,
    check_full_rank,
    cyclic_insert,
    cyclic_key,
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


def _last_nonzero(v: tuple[int, ...]) -> int:
    return max((i for i, x in enumerate(v) if x), default=-1)


def _lattice_tables(X: VectorList) -> tuple[dict[Lattice, int], dict[CyclicKey, int]]:
    """The states of the sum: every lattice spanned by a sublist of X,
    with its packed counts, keyed by cyclic_key where it has one (second
    table) and by its Hermite basis otherwise (first table)."""
    n = X.dim
    # counts[L] holds, for each size s, the number of sublists of size s
    # spanning L, packed into bits [s*width, (s+1)*width) of one integer.
    # A count is at most C(|X|, s) < 2^width, so fields never carry into
    # each other, and adding a vector to every sublist is a shift by width.
    width = len(X) + 1
    counts: dict[Lattice, int] = {(): 1}
    cyclic: dict[CyclicKey, int] = {}
    for v in sorted(X.vectors, key=_last_nonzero):
        # a skipped vector leaves every state where it is; the snapshots
        # keep the counts from before v, which are the ones v extends
        cyclic_items = list(cyclic.items())
        for L, packed in list(counts.items()):
            grown = hnf_insert(L, v)
            # a lattice v leaves as it is stays in its table
            if grown is not L and len(grown) == n:
                key = cyclic_key(grown)
                if key is not None:
                    cyclic[key] = cyclic.get(key, 0) + (packed << width)
                    continue
            counts[grown] = counts.get(grown, 0) + (packed << width)
        for key, packed in cyclic_items:
            grown = cyclic_insert(key, v)
            cyclic[grown] = cyclic.get(grown, 0) + (packed << width)
    return counts, cyclic


def _tutte_sum(X: VectorList, weighted: bool, max_list_size: int) -> TutteResult:
    check_input(X, max_list_size)
    n = X.dim
    width = len(X) + 1
    counts, cyclic = _lattice_tables(X)

    # summing the packed counts of the lattices of one (rank, m) carries
    # no field: the group's field for size s counts at most C(|X|, s)
    # sublists, as one lattice's does
    groups: dict[tuple[int, int], int] = {}
    for L, packed in counts.items():
        key = (len(L), lattice_multiplicity(L))
        groups[key] = groups.get(key, 0) + packed
    for (m, _), packed in cyclic.items():
        groups[n, m] = groups.get((n, m), 0) + packed

    mask = (1 << width) - 1
    shifted: dict[tuple[int, int], int] = {}
    unimodular = True
    for (r, mult), packed in groups.items():
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
