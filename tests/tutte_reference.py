"""Test-only reference for the Tutte sum: one Smith normal form per sublist.

This is the direct enumeration of the defining sum over all 2^|X|
sublists.  The library computes the same sum by dynamic programming over
lattices (tutte_core); the property tests compare the two.
"""

import math

from zonotutte import exact_linalg
from zonotutte.exact_linalg import IntMatrix, VectorList


def sublist_profiles(X: VectorList):
    """Yield (size, rank, multiplicity) for every sublist, in counter order
    (index 0 is the least significant bit)."""
    vectors = X.vectors
    for mask in range(1 << len(vectors)):
        columns = [vectors[b] for b in range(len(vectors)) if mask >> b & 1]
        snf = exact_linalg.smith_normal_form(IntMatrix.from_columns(columns, X.dim))
        yield len(columns), snf.rank, math.prod(snf.invariant_factors)


def reference_tutte_sums(X: VectorList):
    """(weighted shifted_terms, classical shifted_terms, is_unimodular)."""
    n = X.dim
    weighted: dict[tuple[int, int], int] = {}
    classical: dict[tuple[int, int], int] = {}
    unimodular = True
    for size, r, mult in sublist_profiles(X):
        if size == r == n and mult != 1:
            unimodular = False
        key = (n - r, size - r)
        weighted[key] = weighted.get(key, 0) + mult
        classical[key] = classical.get(key, 0) + 1
    return weighted, classical, unimodular
