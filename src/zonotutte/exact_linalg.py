"""Exact integer linear algebra for lists of lattice vectors.

Everything here runs on arbitrary-precision Python integers; no floating
point or rational arithmetic is used anywhere.  The central quantity is
the multiplicity of a sublist A of vectors in Z^n: the index of the
integer span of A inside the sublattice of Z^n contained in the real span
of A.  It equals the gcd of the r x r minors of the matrix whose columns
are A, with r the rank of A.

Two exact algorithms serve every caller:

  * Hermite normal form.  A lattice is represented by its canonical row
    Hermite normal form (hnf_insert, span), so two lists span the same
    lattice exactly when their keys are equal; rank is the number of rows
    of that key and lattice_multiplicity reads m(A) off it.
  * Minors (Bareiss determinants).  minor_gcd is the gcd of all k x k
    minors, 0 exactly when the rank is below k; lattice_multiplicity uses
    it below full rank.  The independent-set Ehrhart sum (ehrhart
    module) uses none of this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DimensionDeficient


def _check_int(value) -> int:
    # bool is an int subclass; reject it along with everything non-integral
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer entry, got {value!r}")
    return value


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix; entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        for e in self.entries:
            _check_int(e)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        data = [tuple(r) for r in rows]
        width = len(data[0]) if data else 0
        if any(len(r) != width for r in data):
            raise ValueError("rows have inconsistent lengths")
        flat = tuple(e for r in data for e in r)
        return cls(len(data), width, flat)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], dim: int) -> "IntMatrix":
        """Matrix whose j-th column is columns[j]; dim rows even when empty."""
        cols = [tuple(c) for c in columns]
        if any(len(c) != dim for c in cols):
            raise ValueError("column length does not match ambient dimension")
        flat = tuple(cols[j][i] for i in range(dim) for j in range(len(cols)))
        return cls(dim, len(cols), flat)

    def to_rows(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]


@dataclass(frozen=True)
class VectorList:
    """An ordered list of integer vectors in Z^dim.

    Duplicates and zero vectors are permitted; order is preserved.
    """

    dim: int
    vectors: tuple[tuple[int, ...], ...]

    def __init__(self, dim: int, vectors: Iterable[Sequence[int]]):
        vecs = tuple(tuple(_check_int(x) for x in v) for v in vectors)
        if dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        for v in vecs:
            if len(v) != dim:
                raise ValueError(f"vector {v} does not have length {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vectors", vecs)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def sublist(self, indices: Iterable[int]) -> "VectorList":
        return VectorList(self.dim, [self.vectors[i] for i in indices])


def determinant(A: IntMatrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    if A.rows != A.cols:
        raise ValueError("determinant requires a square matrix")
    return _bareiss(A.to_rows())


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of the square matrix m (list of rows, modified in place)."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division: Bareiss guarantees prev divides this
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor_gcd(vectors: Sequence[Sequence[int]], dim: int, k: int) -> int:
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


Lattice = tuple[tuple[int, ...], ...]


def _leading(row: Sequence[int]) -> int:
    return next(j for j, x in enumerate(row) if x)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def hnf_insert(basis: Lattice, v: Sequence[int]) -> Lattice:
    """Canonical row Hermite normal form of the lattice spanned by basis and v.

    basis must itself be canonical (the empty tuple is the zero lattice):
    rows in echelon form with strictly increasing leading columns, every
    leading entry (pivot) positive, and every entry above a pivot in
    [0, pivot).  That form is unique for a lattice, so the result is a
    key that depends only on the lattice spanned, not on the generators.
    """
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
        b = v[col]
        if b:
            # 0 < b < a[col]: replace (a, v) by the unimodular combination
            # (s*a + t*v, a/g*v - b/g*a), whose pivots are g = gcd and 0
            g, s, t = _xgcd(a[col], b)
            ag, bg = a[col] // g, b // g
            rows[k] = [s * x + t * y for x, y in zip(a, v)]
            v = [ag * y - bg * x for x, y in zip(a, v)]
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


def lattice_multiplicity(basis: Lattice) -> int:
    """Multiplicity of the lattice with canonical basis (see hnf_insert).

    The index of the lattice in the integer points of its real span: the
    gcd of the r x r minors of the r x n basis, which at rank n is the
    product of the pivots.  The zero lattice gives 1.
    """
    r = len(basis)
    if r and r == len(basis[0]):
        return math.prod(basis[i][i] for i in range(r))
    return minor_gcd(basis, len(basis[0]) if basis else 0, r)


def span(vectors: Iterable[Sequence[int]]) -> Lattice:
    """Canonical Hermite basis of the lattice the vectors span."""
    basis: Lattice = ()
    for v in vectors:
        basis = hnf_insert(basis, v)
    return basis


def rank(X: VectorList) -> int:
    """Dimension of the rational span of the vectors of X (0 if empty)."""
    return len(span(X.vectors))


def multiplicity(A: VectorList) -> int:
    """Index of the integer span of A in the lattice points of its real span.

    The empty sublist and sublists of zero vectors give 1.
    """
    return lattice_multiplicity(span(A.vectors))


def check_full_rank(X: VectorList) -> None:
    """Raise DimensionDeficient unless X spans its ambient space."""
    r = rank(X)
    if r < X.dim:
        raise DimensionDeficient(
            f"list spans a rank-{r} subspace of Z^{X.dim}; full rank required"
        )
