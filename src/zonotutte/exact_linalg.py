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
lattice_multiplicity reads m(A) off it (by unimodular column steps, or
at rank n - 1 as the gcd of hyperplane_normal, the signed maximal
minors); rank stops inserting once the key has full rank.  No
determinant is taken here: the geometric oracle computes its own
minors, and the independent-set Ehrhart sum (ehrhart module) uses none
of this.

A full-rank lattice L whose quotient Z^n / L is cyclic is
{ x : c . x = 0 mod m }, with m its index and c a character of order m,
unique up to a unit mod m.  cyclic_key gives the pair (m, c), with c in
the normal form of character_key, so the pair is as unique as the
Hermite key: read off the key when it has at most one pivot != 1, None
at once when the subgroup its first two pivots != 1 give is not cyclic,
and otherwise found by folding the characters that the columns of
m H^-1 define.  cyclic_insert adds a vector to such a lattice by one dot product and
one gcd, no elimination, and keeps the normal form; the Tutte sum keys
those lattices by the pair.  A lattice of rank n - 1 whose normal z has
gcd 1 and a vector v with z . v != 0 span { x : z . x = 0 mod |z . v| },
whose key is character_key(|z . v|, z), with no Hermite insert.

The Tutte sum stores no lattice for the last vector v it walks.  At
full rank, insert_multiplicity reads m(L + Zv) = gcd(D, y) off one
exact elimination D v = y . L, with D the product of the pivots; at
rank n - 1, with v outside the span, m(L + Zv) = |z . v| for
z = hyperplane_normal(L).

The kernel functions are called once per lattice state of the Tutte
sum, so each spends as few Python operations as it can.  At full rank
the pivots are the diagonal and need no scan (below it, one running pass
finds them); a pivot that divides the entry it meets costs one row
subtraction rather than a unimodular step; a basis is copied only when
it changes and re-reduced only from its first changed row; and a vector
already in the lattice returns the basis object itself.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from operator import mul

from .errors import DimensionDeficient


def _check_int(value) -> int:
    # bool is an int subclass; reject it along with everything non-integral
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer entry, got {value!r}")
    return value


class IntMatrix:
    """Dense integer matrix; entries stored row-major."""

    __slots__ = ("rows", "cols", "entries")
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        for e in entries:
            _check_int(e)
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], dim: int) -> "IntMatrix":
        """Matrix whose j-th column is columns[j]; dim rows even when empty."""
        cols = [tuple(c) for c in columns]
        if any(len(c) != dim for c in cols):
            raise ValueError("column length does not match ambient dimension")
        flat = tuple(cols[j][i] for i in range(dim) for j in range(len(cols)))
        return cls(dim, len(cols), flat)


class VectorList:
    """An ordered list of integer vectors in Z^dim.

    Duplicates and zero vectors are permitted; order is preserved.  Two
    lists are equal, and hash alike, when dim and vectors are.
    """

    __slots__ = ("dim", "vectors")
    dim: int
    vectors: tuple[tuple[int, ...], ...]

    def __init__(self, dim: int, vectors: Iterable[Sequence[int]]):
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise TypeError(f"ambient dimension must be an integer, got {dim!r}")
        if dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        vecs = tuple(tuple(_check_int(x) for x in v) for v in vectors)
        for v in vecs:
            if len(v) != dim:
                raise ValueError(f"vector {v} does not have length {dim}")
        self.dim = dim
        self.vectors = vecs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dim == other.dim and self.vectors == other.vectors

    def __hash__(self) -> int:
        return hash((self.dim, self.vectors))

    def __repr__(self) -> str:
        return f"VectorList(dim={self.dim!r}, vectors={self.vectors!r})"

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def sublist(self, indices: Iterable[int]) -> "VectorList":
        return VectorList(self.dim, [self.vectors[i] for i in indices])


Lattice = tuple[tuple[int, ...], ...]


def _pivots(basis: Lattice) -> list[int]:
    """Leading columns of a basis in echelon form, in one running pass."""
    pivots = []
    col = 0
    for row in basis:
        while not row[col]:
            col += 1
        pivots.append(col)
        col += 1
    return pivots


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

    v is cleared column by column: a pivot that divides v's entry takes
    one row subtraction, any other entry one unimodular step (_step) that
    leaves the gcd as the pivot, and an entry in a column without a pivot
    makes v a new row.  At full rank the pivots sit on the diagonal and
    no scan is needed.  basis is copied at its first change, and the
    entries above the pivots are reduced again only from the first
    changed row on; if nothing changed (v already lies in the lattice, as
    every v does in Z^n), basis itself is returned.
    """
    n = len(v)
    r = len(basis)
    pivots = range(n) if r == n else _pivots(basis)
    rows = basis
    k = 0
    for col in range(n):
        x = v[col]
        if not x:
            continue
        while k < r and pivots[k] < col:
            k += 1
        if k < r and pivots[k] == col and not x % rows[k][col]:
            a = rows[k]
            q = x // a[col]
            v = [y - q * z for y, z in zip(v, a)]
        else:
            if rows is basis:
                rows, first = list(basis), k
            if k == r or pivots[k] > col:
                rows.insert(k, v if x > 0 else [-y for y in v])
                pivots.insert(k, col)
                break
            rows[k], v = _step(rows[k], v, col)
        k += 1
    if rows is basis:
        return basis
    for k in range(first, len(rows)):
        row = rows[k]
        p = pivots[k]
        for j in range(k):
            q = rows[j][p] // row[p]
            if q:
                rows[j] = [x - q * y for x, y in zip(rows[j], row)]
    return tuple(map(tuple, rows))


def insert_multiplicity(basis: Lattice, m: int, v: Sequence[int]) -> int:
    """Multiplicity of L + Zv, for L with a full-rank canonical basis (see
    hnf_insert) and m = D, the product of its diagonal, from one scaled
    elimination and without a basis of L + Zv.

    D * Z^n lies in L, so eliminating w = D * v row by row divides
    exactly: y_k = w[k] // basis[k][k], w -= y_k * basis[k], until
    D * v = y . basis.  L + Zv / L is then cyclic of order D / gcd(D, y),
    so the index of L + Zv in Z^n is gcd(D, y).
    """
    w = [m * x for x in v]
    g = m
    for k, row in enumerate(basis):
        if y := w[k] // row[k]:
            g = math.gcd(g, y)
            w = [x - y * z for x, z in zip(w, row)]
    return g


def hyperplane_normal(basis: Lattice, n: int) -> list[int]:
    """The normal z of the hyperplane spanned by a canonical basis (see
    hnf_insert) of rank n - 1 in Z^n: its signed maximal minors, up to one
    common sign.  The empty basis in Z^1 gives [1].

    z . row = 0 for every row, and z_q = D, the product of the pivots, at
    the one column q without a pivot; back-substitution from the last row
    up gives each z[p] by one exact division.  gcd(z) is the multiplicity
    of the lattice, and |z . v| = |det[basis; v]| is that of the lattice
    basis and v span, when v lies outside the hyperplane.
    """
    pivots = _pivots(basis)
    z = [0] * n
    q = next((j for j, p in enumerate(pivots) if j != p), n - 1)
    z[q] = math.prod(row[p] for row, p in zip(basis, pivots))
    for row, p in zip(reversed(basis), reversed(pivots)):
        z[p] = -sum(map(mul, row, z)) // row[p]
    return z


def lattice_multiplicity(basis: Lattice) -> int:
    """Multiplicity of the lattice with canonical basis (see hnf_insert).

    The index of the lattice in the integer points of its real span, which
    is the index in Z^r of the lattice spanned by the n columns of the
    r x n basis.  At rank n that is the product of the pivots, at rank 1
    the gcd of the row, and at rank n - 1 the gcd of the signed maximal
    minors (hyperplane_normal).  Otherwise each row i, from the last up,
    has its pivot column a gather the row-i entries of the column
    lattice: a non-pivot column f whose f[i] is a multiple of a[i] is
    cleared by one subtraction, any other f with f[i] != 0 is folded into
    a by one unimodular step (_step), after which a[i] is their gcd and
    f[i] = 0.  The rows below i are already zero in every column left, so
    the index is the product of the a[i].  The zero lattice gives 1.
    """
    r = len(basis)
    if not r:
        return 1
    n = len(basis[0])
    if r == n:
        return math.prod(basis[i][i] for i in range(r))
    if r == 1:
        return math.gcd(*basis[0])
    if r == n - 1:
        return math.gcd(*hyperplane_normal(basis, n))
    pivots = _pivots(basis)
    free = [[row[j] for row in basis] for j in set(range(n)).difference(pivots)]
    m = 1
    for i in range(r - 1, -1, -1):
        # the rows of a and of the folded columns below i are zero; drop them
        a = [basis[k][pivots[i]] for k in range(i + 1)]
        for k, f in enumerate(free):
            x = f[i]
            if not x:
                continue
            if x % a[i]:
                a, free[k] = _step(a, f, i)
            else:
                q = x // a[i]
                free[k] = [y - q * z for y, z in zip(f, a)]
        m *= a[i]
    return m


CyclicKey = tuple[int, tuple[int, ...]]


def character_key(m: int, c: Sequence[int]) -> CyclicKey:
    """The key (m, c') of the lattice { x : c . x = 0 mod m }, for m >= 1
    and c with gcd(m, *c) = 1, so that x -> c . x mod m maps Z^n onto Z/m
    and the lattice has index m.

    The characters with that kernel are the u c for the units u mod m.  c'
    is the one in normal form: entries in [0, m), and for every prime
    p | m the last entry prime to p is 1 mod p^e, p^e the power of p in
    m.  m is not factored: from the last entry x up, the part b of the
    modulus left that is prime to x (the primes for which x is that last
    entry) is split off by repeated gcds, and one CRT step makes u = 1/x
    mod b.
    """
    u, done, left = 0, 1, m
    for x in reversed(c):
        if left == 1:
            break
        b, g = left, math.gcd(left, x)
        while g != 1:
            b //= g
            g = math.gcd(b, g)
        if b != 1:
            u += done * ((pow(x, -1, b) - u) * pow(done, -1, b) % b)
            done *= b
            left //= b
    return m, tuple([u * x % m for x in c])


def cyclic_key(basis: Lattice) -> CyclicKey | None:
    """The key (m, c) of a full-rank canonical basis H (see hnf_insert)
    whose quotient Z^n / L is cyclic, or None when it is not (when the gcd
    of the (n - 1) x (n - 1) minors is not 1).

    A cyclic L is { x : c . x = 0 mod m }, with m its index in Z^n, for a
    character c unique up to a unit mod m; the key takes c in the normal
    form of character_key, so it is as unique as the basis, and Z^n is
    (1, (0, ..., 0)).  With at most one pivot != 1, at column p, c is read
    off the basis: c_p = 1, c_i = -basis[i][p] mod m for i < p (the rows
    with pivot 1 above p are zero in the other pivot-1 columns) and 0
    after p, already in normal form.  A column of H whose pivot is 1 is a
    unit vector, so e_j = 0 in Z^n / L for it.  With the first two
    pivots != 1 at p < i, the subgroup that e_0, ..., e_i generate is
    then e_p and e_i with h_pp e_p = 0 and h_pi e_p + h_ii e_i = 0, which
    is cyclic exactly when gcd(h_pp, h_pi, h_ii) = 1.  When it is not,
    neither is the quotient: None, at once.  That covers every basis
    whose entries share a factor, as every full-rank lattice of qX,
    q >= 2, does.

    Otherwise the columns y_k = m H^-1 e_k of the pivots != 1, each one
    back-substitution, are characters of orders o_k = m / gcd(m, y_k);
    those with k <= j generate the characters of the subgroup that
    e_0, ..., e_j generate in Z^n / L, whose order is the product of the
    pivots up to j.  They are folded, k = 0 up, into one character of
    order lcm(o_k), by splitting each lcm into coprime parts a | o and
    b | o_k by repeated gcds.  A cyclic group has cyclic subgroups only,
    so L is cyclic exactly when the order reached equals the product of
    the pivots so far at every k, and the fold stops at the first k where
    it does not.
    """
    n = len(basis)
    p = -1
    for i, row in enumerate(basis):
        if row[i] != 1:
            if p >= 0:
                break
            p = i
    else:
        if p < 0:
            return 1, (0,) * n
        m = basis[p][p]
        return m, tuple([-row[p] % m for row in basis[:p]] + [1] + [0] * (n - 1 - p))
    # the first two pivots != 1 sit at p < i (see the docstring)
    if math.gcd(basis[p][p], basis[p][i], basis[i][i]) != 1:
        return None
    big = [k for k in range(n) if basis[k][k] != 1]
    m = math.prod(basis[k][k] for k in big)
    c, order, size = [0] * n, 1, 1
    for k in big:
        # H y = m e_k by back-substitution from row k up, as in
        # hyperplane_normal: y is 0 after k, and row i is 0 before i
        y = [0] * n
        y[k] = m // basis[k][k]
        for i in range(k - 1, -1, -1):
            y[i] = -sum(map(mul, basis[i], y)) // basis[i][i]
        o = m // math.gcd(m, *y)
        # a | order and b | o, coprime, with a * b = lcm(order, o)
        a, b = order, o // math.gcd(order, o)
        while (g := math.gcd(a, b)) != 1:
            a, b = a // g, b * g
        size *= basis[k][k]
        if a * b != size:
            return None
        c = [(order // a * s + o // b * t) % m for s, t in zip(c, y)]
        order = size
    return character_key(m, c)


def cyclic_insert(key: CyclicKey, v: Sequence[int]) -> CyclicKey:
    """cyclic_key of the lattice spanned by the one keyed (m, c) and v.

    Z^n / L is Z/m through x -> c . x mod m, so L + Zv is the preimage of
    the subgroup that a = c . v mod m generates, { x : c . x = 0 mod g }
    with g = gcd(a, m).  Its key is (g, c mod g), in normal form again
    (see character_key): for a prime p | g the entries of c mod g are
    prime to p where those of c are, so the last such entry is the same
    one, and 1 mod p^e for the power p^e in m is 1 mod the power in g;
    g = 1 gives Z^n.  If a = 0, key itself is returned.
    """
    m, c = key
    a = sum(map(mul, c, v)) % m
    if not a:
        return key
    g = math.gcd(a, m)
    return g, tuple([x % g for x in c])


def span(vectors: Iterable[Sequence[int]]) -> Lattice:
    """Canonical Hermite basis of the lattice the vectors span."""
    basis: Lattice = ()
    for v in vectors:
        basis = hnf_insert(basis, v)
    return basis


def rank(X: VectorList) -> int:
    """Dimension of the rational span of the vectors of X (0 if empty).

    The vectors are inserted only until the basis has X.dim rows."""
    basis: Lattice = ()
    for v in X.vectors:
        if len(basis) == X.dim:
            break
        basis = hnf_insert(basis, v)
    return len(basis)


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
