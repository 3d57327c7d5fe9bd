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
lattice at the end, with one exception.  A full-rank lattice whose
quotient Z^n / L is cyclic is { x : c . x = 0 mod m } with m = m(L), and
the table keys it by (m, c) instead (exact_linalg.cyclic_key, c in a
normal form that makes the pair unique), whose first entry is an int
where a Hermite basis has a row: a vector enters it by one dot product
and one gcd instead of a Hermite insert, the lattice it grows to is
cyclic again, and m is read off the key.  A Hermite insert whose result
has full rank and a cyclic quotient stores it under its (m, c) key, so
every lattice has exactly one key.  cyclic_key rejects many other
results at once (every full-rank lattice of qX, q >= 2, among them),
and folds the rest each time it meets them.  A state of rank n - 1
takes its hyperplane's normal z (exact_linalg.hyperplane_normal) once
per call, in a dict that the walk and the last step share; the walk
skips the states whose last Hermite row has a common factor, which are
not saturated.  When a state is saturated, gcd(z) = 1, it is every
integer point of its hyperplane, so v with z . v = 0 lies in it and
leaves it as it is, and any other v grows it to
{ x : z . x = 0 mod |z . v| }, keyed by
exact_linalg.character_key(|z . v|, z), with no Hermite insert.
X is walked sorted by the last nonzero coordinate of each vector, zero
vectors first: the sum does not depend on the order, and sparse lists
such as root systems keep fewer lattices in the early steps that way.

The last vector v walked is summed, not stored: no later step reads the
lattices it makes, so each state L adds its counts straight to the
(rank, m) groups below, once for the sublists that skip v, under
(rank L, m(L)), and once, one size up, for those that add it, under
(rank(L + Zv), m(L + Zv)), in one pass that reads each basis once.  A
cyclic state (m, c) gives (n, gcd(c . v, m)); a full-rank Hermite state,
with D = m(L) the product of its pivots and D v = y . L, gives
(n, gcd(D, y)) (exact_linalg.insert_multiplicity); a state of rank n - 1
has m(L) = gcd(z) and gives (n, |z . v|) when v leaves its span.  Every
other state, a rank-(n - 1) one whose span holds v among them, and the
lattice a Hermite insert of v makes from it, go to one table, where m is
computed once per lattice.

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

from collections import namedtuple
from collections.abc import Sequence
from math import comb, gcd
from operator import mul

from .errors import CapExceeded
from .exact_linalg import (
    CyclicKey,
    Lattice,
    VectorList,
    character_key,
    check_full_rank,
    cyclic_insert,
    cyclic_key,
    hnf_insert,
    hyperplane_normal,
    insert_multiplicity,
    lattice_multiplicity,
)
from .polynomials import BiPoly, expand_shifted_basis

MAX_LIST_SIZE = 24


class TutteResult(
    namedtuple("TutteResult", "polynomial shifted_terms generators is_unimodular")
):
    """A Tutte-type polynomial together with the data it was built from.

    polynomial is the monomial-basis form; shifted_terms maps (i, j) to
    the coefficient of (x-1)^i (y-1)^j and is the exact accumulator of
    the defining sum (all entries nonnegative for the weighted variant);
    generators is the list X it was summed from, whose dim is n.
    """

    __slots__ = ()


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


def _walk_order(X: VectorList) -> list[tuple[int, ...]]:
    return sorted(X.vectors, key=_last_nonzero)


def _lattice_tables(
    X: VectorList, vectors: Sequence[tuple[int, ...]], normals: dict
) -> dict[Lattice | CyclicKey, int]:
    """The states of the sum after walking vectors, a sequence drawn from
    X: every lattice spanned by a sublist of them, with its packed counts,
    keyed by cyclic_key where it has one and by its Hermite basis
    otherwise.  normals collects the hyperplane normals the walk takes,
    for the last step to read."""
    n = X.dim
    hyper = n - 1
    # states[L] holds, for each size s, the number of sublists of size s
    # spanning L, packed into bits [s*width, (s+1)*width) of one integer.
    # A count is at most C(|X|, s) < 2^width, so fields never carry into
    # each other, and adding a vector to every sublist is a shift by width.
    width = len(X) + 1
    states: dict[Lattice | CyclicKey, int] = {(): 1}
    for v in vectors:
        # a skipped vector leaves every state where it is; the snapshot
        # keeps the counts from before v, which are the ones v extends
        for L, packed in list(states.items()):
            # a cyclic key (m, c) starts with an int, a Hermite basis with a
            # row; a Hermite lattice v leaves as it is keeps its key, and a
            # saturated one of rank n - 1 holds every integer v of its span.
            # Every Hermite row of a saturated lattice is primitive, so a
            # last row with a common factor (most rank-(n - 1) states that
            # are not saturated, and every one of qX, q >= 2) rules
            # saturation out without a lookup of the normal
            if L and type(L[0]) is int:
                grown = cyclic_insert(L, v)
            elif len(L) == hyper and L and gcd(*L[-1]) == 1 and gcd(
                *(z := normals.get(L) or normals.setdefault(L, hyperplane_normal(L, n)))
            ) == 1:
                grown = character_key(abs(w), z) if (w := sum(map(mul, z, v))) else L
            elif (grown := hnf_insert(L, v)) is not L and len(grown) == n:
                grown = cyclic_key(grown) or grown
            states[grown] = states.get(grown, 0) + (packed << width)
    return states


def _last_step_groups(
    states: dict[Lattice | CyclicKey, int], v: tuple[int, ...], width: int, normals: dict
) -> dict[tuple[int, int], int]:
    """The packed counts of the whole sum by (rank, m), from the states
    left before the last vector v: each state adds its counts under its
    own (rank, m), for the sublists that skip v, and one size up under
    those of L + Zv, for the sublists that add it; no lattice of the
    last step is stored (see the module docstring).  normals holds the
    hyperplane normals the walk took."""
    n = len(v)
    # summing the packed counts of the lattices of one (rank, m) carries
    # no field: the group's field for size s counts at most C(|X|, s)
    # sublists, as one lattice's does
    groups: dict[tuple[int, int], int] = {}
    # (rank, m) of L + Zv is read off L's key, off its basis at rank n, and
    # at rank n - 1 off its normal z when v leaves its span; every other
    # state, and a lattice v grows it to, go to rest, so m is computed once
    # per lattice there
    rest: dict[Lattice, int] = {}
    for L, packed in states.items():
        if L and type(L[0]) is int:
            r, (m, c) = n, L
            grown = (n, gcd(sum(map(mul, c, v)), m))
        elif (r := len(L)) == n:
            m = lattice_multiplicity(L)
            grown = (n, insert_multiplicity(L, m, v))
        elif r + 1 == n and (
            w := sum(map(mul, (z := normals.get(L) or hyperplane_normal(L, n)), v))
        ):
            m = gcd(*z)
            grown = (n, abs(w))
        else:
            rest[L] = rest.get(L, 0) + packed
            grown = hnf_insert(L, v)
            rest[grown] = rest.get(grown, 0) + (packed << width)
            continue
        groups[r, m] = groups.get((r, m), 0) + packed
        groups[grown] = groups.get(grown, 0) + (packed << width)
    for L, packed in rest.items():
        key = (len(L), lattice_multiplicity(L))
        groups[key] = groups.get(key, 0) + packed
    return groups


def _tutte_sum(X: VectorList, weighted: bool, max_list_size: int) -> TutteResult:
    check_input(X, max_list_size)
    n = X.dim
    width = len(X) + 1
    ordered = _walk_order(X)
    if ordered:
        normals: dict[Lattice, list[int]] = {}
        states = _lattice_tables(X, ordered[:-1], normals)
        groups = _last_step_groups(states, ordered[-1], width, normals)
    else:
        # the empty list spans Z^0: one sublist, of rank 0 and m = 1
        groups = {(0, 1): 1}

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
        generators=X,
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


def dilation_identity_sides(M: TutteResult, q: int) -> tuple[BiPoly, BiPoly]:
    """Both sides of the dilation identity for M = multiplicity_tutte(X).

    The left side is the weighted polynomial of qX from scratch; at q = 1
    that is M itself, the same sum on the same list.  X passed the list
    cap when M was built, and qX is as long.  The right side is
    q^n M_X(1 + (x-1)/q, y), expanded from the monomial form sum a_ab x^a
    y^b of M_X as sum a_ab q^(n-a) (x+q-1)^a y^b, so for q > 1 it does
    not pass through the shifted-basis expansion that built the left side.
    At q = 1 that expansion is M's own monomial form, so both sides are M
    and compare equal for any M: the q = 1 identity cannot fail.
    """
    X = M.generators
    if q == 1:
        lhs = M.polynomial
    else:
        lhs = multiplicity_tutte(dilate_list(X, q), max_list_size=len(X)).polynomial
    n = X.dim
    rhs: dict[tuple[int, int], int] = {}
    for (a, b), c in M.polynomial.sorted_terms():
        scaled = c * q ** (n - a)
        for k in range(a + 1):
            rhs[(k, b)] = rhs.get((k, b), 0) + scaled * comb(a, k) * (q - 1) ** (a - k)
    return lhs, BiPoly(rhs)
