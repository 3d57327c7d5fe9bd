"""Test-only references for the Tutte and Ehrhart sums: minors per sublist.

These are the direct enumerations of the defining sums over sublists.
Rank and multiplicity of each sublist come from its minors: r(A) is the
largest k with a nonzero k x k minor, and m(A) is the gcd of the r x r
minors (minor_gcd, the reference for the lattice kernel's m).  Each minor
is a Bareiss elimination, the geometric oracle's own; no Hermite normal
form is built, so the references are independent of the lattice DP in
tutte_core, of lattice_multiplicity, and of the k-vector DP in ehrhart
that the property tests compare them with.
"""

import math
from itertools import combinations

from zonotutte import UniPoly
from zonotutte.exact_linalg import VectorList
from zonotutte.geometry_oracle import _bareiss


def minor_gcd(vectors, dim, k):
    """gcd of the absolute k x k minors of the dim-row matrix whose columns
    are vectors.

    It is 0 exactly when the vectors have rank < k, and at k = rank it is
    their multiplicity.  k = 0 gives 1 (the empty minor).
    """
    g = 0
    for cols in combinations(vectors, k):
        for rows in combinations(range(dim), k):
            g = math.gcd(g, _bareiss([[v[i] for v in cols] for i in rows]))
            if g == 1:
                return 1
    return g


def rank_and_multiplicity(vectors, dim):
    """(r, m) of the vectors in Z^dim from their determinantal divisors."""
    r, m = 0, 1
    for k in range(1, min(dim, len(vectors)) + 1):
        g = minor_gcd(vectors, dim, k)
        if g == 0:
            break
        r, m = k, g
    return r, m


def sublist_profiles(X: VectorList):
    """Yield (size, rank, multiplicity) for every sublist, in counter order
    (index 0 is the least significant bit)."""
    vectors = X.vectors
    for mask in range(1 << len(vectors)):
        columns = [vectors[b] for b in range(len(vectors)) if mask >> b & 1]
        yield (len(columns), *rank_and_multiplicity(columns, X.dim))


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


def ehrhart_reference(X: VectorList) -> UniPoly:
    """E(q) = sum of m(A) q^|A| over the independent sublists A, each
    visited: the gcd of A's |A| x |A| minors is m(A), or 0 when A is
    dependent."""
    n = X.dim
    return UniPoly(
        [sum(minor_gcd(A, n, k) for A in combinations(X.vectors, k)) for k in range(n + 1)]
    )
