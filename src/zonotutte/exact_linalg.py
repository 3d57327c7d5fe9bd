"""Exact integer linear algebra for lists of lattice vectors.

Everything here runs on arbitrary-precision Python integers; no floating
point or rational arithmetic is used anywhere.  The central quantity is
the multiplicity of a sublist A of vectors in Z^n: the index of the
integer span of A inside the sublattice of Z^n contained in the real span
of A.  It equals the gcd of the r x r minors of the matrix whose columns
are A, with r the rank of A.

One exact algorithm serves every caller: the Hermite normal form.  A
lattice is represented by its canonical row Hermite normal form
(hnf_insert, span), so two lists span the same lattice exactly when their
keys are equal; rank is the number of rows of that key, and
lattice_multiplicity reads m(A) off it by unimodular column steps.  No
minor is computed here: the geometric oracle computes its own minors,
and the independent-set Ehrhart sum (ehrhart module) uses none of this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    def from_columns(cls, columns: Sequence[Sequence[int]], dim: int) -> "IntMatrix":
        """Matrix whose j-th column is columns[j]; dim rows even when empty."""
        cols = [tuple(c) for c in columns]
        if any(len(c) != dim for c in cols):
            raise ValueError("column length does not match ambient dimension")
        flat = tuple(cols[j][i] for i in range(dim) for j in range(len(cols)))
        return cls(dim, len(cols), flat)


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


Lattice = tuple[tuple[int, ...], ...]


def _leading(row: Sequence[int]) -> int:
    return next(j for j, x in enumerate(row) if x)


def _step(a: Sequence[int], f: Sequence[int], i: int) -> tuple[list[int], list[int]]:
    """The unimodular step (s*a + t*f, a[i]/g*f - f[i]/g*a) on two rows or
    columns with a[i] > 0 and f[i] != 0, where g = gcd(a[i], f[i]) =
    s*a[i] + t*f[i]: the results hold g and 0 at i and span what a and f
    span.  The longer of a and f is cut to the length of the other."""
    g = math.gcd(a[i], f[i])
    ag, bg = a[i] // g, f[i] // g
    s = pow(ag, -1, abs(bg))
    t = (1 - s * ag) // bg
    return [s * x + t * y for x, y in zip(a, f)], [ag * y - bg * x for x, y in zip(a, f)]


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


def lattice_multiplicity(basis: Lattice) -> int:
    """Multiplicity of the lattice with canonical basis (see hnf_insert).

    The index of the lattice in the integer points of its real span, which
    is the index in Z^r of the lattice spanned by the n columns of the
    r x n basis.  At rank n that is the product of the pivots.  Below it,
    each row i, from the last up, has its pivot column a gather the row-i
    entries of the column lattice: every non-pivot column f with f[i] != 0
    is folded into a by one unimodular step (_step), after which a[i] is
    their gcd and f[i] = 0.  The rows below i are already zero in every
    column left, so the index is the product of the a[i]; at rank 1 it is
    the gcd of the row.  The zero lattice gives 1.
    """
    r = len(basis)
    if not r:
        return 1
    n = len(basis[0])
    if r == n:
        return math.prod(basis[i][i] for i in range(r))
    pivots = [_leading(row) for row in basis]
    free = [[row[j] for row in basis] for j in set(range(n)).difference(pivots)]
    m = 1
    for i in range(r - 1, -1, -1):
        # the rows of a and of the folded columns below i are zero; drop them
        a = [basis[k][pivots[i]] for k in range(i + 1)]
        for k, f in enumerate(free):
            if f[i]:
                a, free[k] = _step(a, f, i)
        m *= a[i]
    return m


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
