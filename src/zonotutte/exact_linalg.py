"""Exact integer linear algebra for lists of lattice vectors.

Everything here runs on arbitrary-precision Python integers (with exact
Fractions where a division cannot be avoided); no floating point is used
anywhere.  The central quantity is the multiplicity of a sublist A of
vectors in Z^n: the index of the integer span of A inside the sublattice
of Z^n contained in the real span of A.  It equals the product of the
invariant factors of the matrix whose columns are A, and, when A has full
rank n, also the gcd of the absolute n x n minors of that matrix.

A lattice is represented by its canonical row Hermite normal form
(hnf_insert), so two lists span the same lattice exactly when their keys
are equal; lattice_multiplicity reads m(A) off that key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import RankDeficient


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
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = [tuple(r) for r in rows]
        if data:
            width = len(data[0])
        elif cols is not None:
            width = cols
        else:
            width = 0
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

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))


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

    def column_matrix(self) -> IntMatrix:
        return IntMatrix.from_columns(self.vectors, self.dim)

    def sublist(self, indices: Iterable[int]) -> "VectorList":
        return VectorList(self.dim, [self.vectors[i] for i in indices])


@dataclass(frozen=True)
class SNFResult:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix."""

    invariant_factors: tuple[int, ...]
    rank: int


def rank(A: IntMatrix) -> int:
    """Dimension of the rational span of the columns of A (0 if empty)."""
    m = [[Fraction(A.entry(i, j)) for j in range(A.cols)] for i in range(A.rows)]
    r = 0
    for col in range(A.cols):
        pivot = next((i for i in range(r, A.rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        for i in range(r + 1, A.rows):
            factor = m[i][col] * inv
            if factor:
                for j in range(col, A.cols):
                    m[i][j] -= factor * m[r][j]
        r += 1
        if r == A.rows:
            break
    return r


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


def smith_normal_form(A: IntMatrix) -> SNFResult:
    """Invariant factors of A by exact elementary row/column operations.

    The pivot at each stage is the entry of smallest nonzero absolute
    value in the remaining submatrix, which keeps the intermediate
    entries small at the scale this package targets.
    """
    m = A.to_rows()
    n_rows, n_cols = A.rows, A.cols
    factors: list[int] = []
    t = 0
    while t < n_rows and t < n_cols:
        pivot = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                v = m[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            m[pi], m[t] = m[t], m[pi]
        if pj != t:
            for row in m:
                row[pj], row[t] = row[t], row[pj]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
        p = m[t][t]

        dirty = False
        for i in range(n_rows):
            if i == t or m[i][t] == 0:
                continue
            q = m[i][t] // p
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[t])]
            if m[i][t] != 0:
                dirty = True
        for j in range(n_cols):
            if j == t or m[t][j] == 0:
                continue
            q = m[t][j] // p
            if q:
                for row in m:
                    row[j] -= q * row[t]
            if m[t][j] != 0:
                dirty = True
        if dirty:
            continue

        # the invariant-factor chain requires the pivot to divide the rest
        offender = None
        for i in range(t + 1, n_rows):
            if any(m[i][j] % p for j in range(t + 1, n_cols)):
                offender = i
                break
        if offender is not None:
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
            continue

        factors.append(p)
        t += 1
    return SNFResult(tuple(factors), len(factors))


def multiplicity(A: VectorList) -> int:
    """Index of the integer span of A in the lattice points of its real span.

    Computed as the product of the invariant factors of the column matrix
    of A; the empty sublist and sublists of zero vectors give 1.
    """
    snf = smith_normal_form(A.column_matrix())
    return math.prod(snf.invariant_factors)


def gcd_maximal_minors(A: VectorList) -> int:
    """gcd of the absolute n x n minors of the column matrix of A.

    Requires A to have rank n; equals multiplicity(A) in that case.
    """
    n = A.dim
    mat = A.column_matrix()
    if rank(mat) < n:
        raise RankDeficient(f"sublist has rank {rank(mat)} < ambient dimension {n}")
    g = 0
    for idxs in combinations(range(len(A)), n):
        sub = IntMatrix.from_columns([A.vectors[i] for i in idxs], n)
        g = math.gcd(g, abs(determinant(sub)))
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
    if r == 0:
        return 1
    n = len(basis[0])
    if r == n:
        return math.prod(basis[i][i] for i in range(n))
    g = 0
    for cols in combinations(range(n), r):
        g = math.gcd(g, _bareiss([[row[c] for c in cols] for row in basis]))
        if g == 1:
            break
    return g
