"""Test-only references for the Tutte and Ehrhart sums: minors per sublist.

These are the direct enumerations of the defining sums over sublists.
Rank and multiplicity of each sublist come from its minors: r(A) is the
largest k with a nonzero k x k minor, and m(A) is the gcd of the r x r
minors (minor_gcd, the reference for the lattice kernel's m).  Each minor
is a Bareiss elimination, the geometric oracle's own; these sums build
no Hermite normal form, so they are independent of the lattice DP in
tutte_core, of lattice_multiplicity, and of the k-vector DP in ehrhart
that the property tests compare them with.

reference_lattice_sum is the lattice DP with one table, every lattice
keyed by its Hermite basis.  It uses the kernel (hnf_insert,
lattice_multiplicity) and checks only the DP's split of its states into
a Hermite table and a cyclic (m, c) table, state count included.

reference_hnf_insert is the lattice kernel's plain Hermite insert: one
leading-column scan per row, a row subtraction before every step, a
copy of the basis on every call and a back-reduction of every row.  The
kernel's hnf_insert, which skips all of these where it can, is checked
against it key for key.
"""

import math
from itertools import combinations

from zonotutte import UniPoly
from zonotutte.exact_linalg import VectorList, _step, hnf_insert, lattice_multiplicity
from zonotutte.geometry_oracle import _bareiss


def _leading(row):
    return next(j for j, x in enumerate(row) if x)


def reference_hnf_insert(basis, v):
    """Canonical row Hermite normal form of the lattice spanned by basis and v."""
    n = len(v)
    rows = list(basis)
    # at full rank the pivots sit on the diagonal
    pivots = list(range(n)) if len(rows) == n else [_leading(row) for row in rows]
    v = list(v)
    changed = False
    k = 0
    for col in range(n):
        if not v[col]:
            continue
        while k < len(rows) and pivots[k] < col:
            k += 1
        if k == len(rows) or pivots[k] > col:
            rows.insert(k, v if v[col] > 0 else [-x for x in v])
            pivots.insert(k, col)
            changed = True
            break
        a = rows[k]
        q = v[col] // a[col]
        v = [x - q * y for x, y in zip(v, a)]
        if v[col]:
            # 0 < v[col] < a[col]: the step leaves the gcd as the pivot
            rows[k], v = _step(a, v, col)
            changed = True
        k += 1
    if not changed:
        return basis
    for k, p in enumerate(pivots):
        row = rows[k]
        for j in range(k):
            q = rows[j][p] // row[p]
            if q:
                rows[j] = [x - q * y for x, y in zip(rows[j], row)]
    return tuple(tuple(row) for row in rows)


def reference_lattice_sum(X: VectorList, weighted: bool):
    """(shifted_terms, is_unimodular, states) of the lattice DP with one
    table: every lattice spanned by a sublist of X, in the given order,
    keyed by its Hermite basis."""
    n = X.dim
    # the counts of L by sublist size s, packed into bits [s*width, (s+1)*width)
    width = len(X) + 1
    counts = {(): 1}
    for v in X.vectors:
        for L, packed in list(counts.items()):
            grown = hnf_insert(L, v)
            counts[grown] = counts.get(grown, 0) + (packed << width)
    mask = (1 << width) - 1
    shifted = {}
    unimodular = True
    for L, packed in counts.items():
        r, mult = len(L), lattice_multiplicity(L)
        if mult != 1 and r == n and packed >> (n * width) & mask:
            unimodular = False
        for size in range(len(X) + 1):
            c = packed >> (size * width) & mask
            if c:
                key = (n - r, size - r)
                shifted[key] = shifted.get(key, 0) + (mult * c if weighted else c)
    return shifted, unimodular, len(counts)


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
