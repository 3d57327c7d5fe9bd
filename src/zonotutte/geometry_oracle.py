"""Brute-force geometric verification, independent of the polynomial side.

The zonotope of a list X in Z^n, scaled by a positive integer q, is
q Z(X) = { sum_i t_i (q x_i) : 0 <= t_i <= 1 }.  This module reads its
facets off the generators, one pair of opposite facets per hyperplane
spanned by n - 1 of them (zonotope_hrep), then counts the lattice points
of the coordinate bounding box that satisfy the inequalities (closed) or
satisfy them strictly (interior).  The facet normals are signed
(n - 1) x (n - 1) minors of the generators, which this module takes by
its own Bareiss elimination (_bareiss); it shares no elimination with the
lattice kernel of the polynomial side.

Why strictness against possibly redundant inequalities classifies interiors
correctly: the zonotope here is full-dimensional (rank X = n), so any valid
inequality c.p <= d satisfies c.p < d on interior points — an interior
point p has a ball around it inside the body, and c.p = d would place half
of that ball outside the half-space.  Redundant valid inequalities can
therefore never demote an interior point to the boundary.

The count walks the lines of the bounding box along its longest axis, on
exact Python integers: each row c.p <= d bounds a line's interval of
integers by one floor division, or keeps or drops the whole line where c
is 0 on that axis.  Interior points are bounded on the same line with
every offset lowered by 1, since c.p < d is c.p <= d - 1 on integer
points; a line with no closed point has no interior one, so that bound is
taken only where the closed interval is nonempty.

Every zonotope is centrally symmetric (Shephard 1974): p -> q sum(X) - p
maps q Z(X) onto itself, and swaps each facet row (c, d) with its opposite
(-c, d - q sum_i c.x_i).  The bounding box, from lo_j = q sum_i min(0, x_ij)
to hi_j = q sum_i max(0, x_ij), has the same centre, since lo_j + hi_j =
q sum_i x_ij, and twice that centre is an integer vector, so the map
pairs integer points with integer points and each line with a line that
holds as many closed and interior points.  The walk therefore visits only
the lines whose coordinates off the axis are lexicographically at most
their mirror's: a line strictly below its mirror counts twice, and a line
equal to its mirror, which exists only where every lo_j + hi_j off the
axis is even, counts once.

The same hyperplane normals decide whether some functional is strictly
positive on a list (find_positive_functional): on the pivot coordinates of
the list's span, every extreme ray of the dual cone { c : c.x >= 0 } is
such a normal up to sign, so the sum of the signed normals inside that
cone is strictly positive on the list whenever any functional is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import floordiv, sub
from typing import Sequence

from . import exact_linalg
from .errors import BoxTooLarge, UnboundedCone
from .exact_linalg import VectorList

MAX_BOX_POINTS = 10_000_000
MAX_BRUTE_FORCE_DIM = 4

Row = tuple[tuple[int, ...], int]  # coeffs . v <= rhs


@dataclass(frozen=True)
class HRep:
    """Inequality description normal . p <= offset of a rational polytope.

    Rows are normalized to primitive integer form (gcd of the normal is 1)
    and sorted, so equal polytopes compare equal.  Redundant valid rows are
    harmless for classification (module docstring); zonotope_hrep
    nevertheless emits exactly the facets.
    """

    dim: int
    inequalities: tuple[tuple[tuple[int, ...], int], ...]


def _bareiss(m: list[list[int]]) -> int:
    """det(m) of the square matrix m (list of rows, modified in place), by
    fraction-free Bareiss elimination."""
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


def _normals(vectors: Sequence[Sequence[int]], n: int) -> set[tuple[int, ...]]:
    """Primitive normals of the hyperplanes of Z^n spanned by n - 1 of the
    vectors, each with the sign its subset gives.

    Each (n - 1)-subset's normal c is its vector of signed
    (n - 1) x (n - 1) minors, so c . v is the n x n minor det(v, subset);
    subsets of rank < n - 1 give c = 0 and are skipped.  n = 1
    takes the empty subset, whose empty minor 1 gives the normal (1,); n = 0
    takes it too and gets no normal.
    """
    normals: set[tuple[int, ...]] = set()
    for subset in combinations(vectors, max(n - 1, 0)):
        c = [
            (-1) ** j * _bareiss([[v[i] for v in subset] for i in range(n) if i != j])
            for j in range(n)
        ]
        g = math.gcd(*c)
        if g:
            normals.add(tuple(x // g for x in c))
    return normals


def zonotope_hrep(X: VectorList, q: int) -> HRep:
    """Facet description of the q-fold dilated zonotope of X.

    Every facet of a full-dimensional zonotope is parallel to a hyperplane
    spanned by n - 1 of its generators, and each such hyperplane carries
    two opposite facets (Shephard 1974, McMullen 1971).  _normals gives
    a primitive normal c of each such hyperplane; c and -c are both kept,
    and the facet on the side of c has offset q * sum_i max(0, c . x_i).
    """
    if q < 1:
        raise ValueError(f"dilation factor must be >= 1, got {q}")
    n = X.dim
    exact_linalg.check_full_rank(X)

    normals = _normals(X.vectors, n)
    normals |= {tuple(-x for x in c) for c in normals}

    inequalities = sorted(
        (c, q * sum(max(0, sum(a * x for a, x in zip(c, v))) for v in X.vectors))
        for c in normals
    )
    return HRep(dim=n, inequalities=tuple(inequalities))


def _box_ranges(X: VectorList, q: int) -> list[tuple[int, int]]:
    ranges = []
    for j in range(X.dim):
        lo = q * sum(min(v[j], 0) for v in X.vectors)
        hi = q * sum(max(v[j], 0) for v in X.vectors)
        ranges.append((lo, hi))
    return ranges


def _closed_open_walk(
    rows: Sequence[Row], ranges: Sequence[tuple[int, int]]
) -> tuple[int, int]:
    """Integer points p of the box with c . p <= d on every row (c, d), and
    those with c . p <= d - 1, from one walk over the lines up to their
    mirrors (module docstring).  The rows must bound a body inside the box
    that is centrally symmetric about the box's centre."""
    axis = max(range(len(ranges)), key=lambda j: ranges[j][1] - ranges[j][0])
    others = [j for j in range(len(ranges)) if j != axis]
    # on a line with slack s = d - (c.p without its axis term), a row caps the
    # axis coordinate at s // c_axis if c_axis > 0, floors it at
    # -(s // -c_axis) if c_axis < 0, and keeps or drops the line if c_axis = 0
    caps = [(c, d) for c, d in rows if c[axis] > 0]
    floors = [(c, d) for c, d in rows if c[axis] < 0]
    rows = caps + floors + [(c, d) for c, d in rows if c[axis] == 0]
    u, v = len(caps), len(caps) + len(floors)
    cap_div = [c[axis] for c, _ in caps]
    floor_div = [-c[axis] for c, _ in floors]

    def line(slacks: list[int]) -> tuple[int, int]:
        flat = min(slacks[v:], default=1)
        if flat < 0:
            return 0, 0
        hi = min(map(floordiv, slacks[:u], cap_div))
        lo = -min(map(floordiv, slacks[u:v], floor_div))
        if hi < lo:
            return 0, 0
        if flat == 0:  # the line lies on a facet parallel to the axis
            return hi - lo + 1, 0
        # the interior interval: every slack lowered by 1
        inner = [s - 1 for s in slacks[:v]]
        inner_hi = min(map(floordiv, inner[:u], cap_div))
        inner_lo = -min(map(floordiv, inner[u:], floor_div))
        return hi - lo + 1, max(0, inner_hi - inner_lo + 1)

    def walk(depth: int, slacks: list[int], tied: bool) -> tuple[int, int]:
        # tied: the coordinates fixed so far are their own mirror's, so the
        # walk stops at the centre, and lines strictly below it stand for
        # their mirrors too
        if depth == len(others):
            return line(slacks)
        lo_j, hi_j = ranges[others[depth]]
        step = [c[others[depth]] for c, _ in rows]
        slacks = [s - c * lo_j for s, c in zip(slacks, step)]
        closed = opened = 0
        for _ in range(lo_j, (lo_j + hi_j + 1) // 2 if tied else hi_j + 1):
            below = walk(depth + 1, slacks, False)
            closed += below[0]
            opened += below[1]
            slacks = list(map(sub, slacks, step))
        if not tied:
            return closed, opened
        if (lo_j + hi_j) % 2:
            return 2 * closed, 2 * opened
        centre = walk(depth + 1, slacks, True)
        return 2 * closed + centre[0], 2 * opened + centre[1]

    return walk(0, [d for _, d in rows], True)


def closed_open_counts(
    X: VectorList,
    q: int,
    *,
    max_box: int = MAX_BOX_POINTS,
) -> tuple[int, int]:
    """Count lattice points of the dilated zonotope: (closed hull, interior).

    One walk gives both counts (module docstring): it visits only the
    lines of the bounding box up to their mirror images through the
    centre, and on each line with a closed point it also bounds the
    interior interval, with every offset lowered by 1.  The walk's work is
    its lines times the facet rows; max_box caps the box's lines (its
    points over its longest side) times the rows.
    """
    if q < 1:
        raise ValueError(f"dilation factor must be >= 1, got {q}")
    exact_linalg.check_full_rank(X)
    if X.dim > MAX_BRUTE_FORCE_DIM:
        raise BoxTooLarge(
            f"brute-force counting supports dimension <= {MAX_BRUTE_FORCE_DIM}, got {X.dim}"
        )
    if not X.dim:
        return 1, 1  # Z^0 is one point, its own relative interior
    ranges = _box_ranges(X, q)
    H = zonotope_hrep(X, q)
    sides = [hi - lo + 1 for lo, hi in ranges]
    lines = math.prod(sides) // max(sides)
    work = lines * len(H.inequalities)
    if work > max_box:
        raise BoxTooLarge(
            f"bounding box has {lines} lines and the zonotope {len(H.inequalities)} "
            f"facets, {work} line-facet pairs; cap is {max_box}"
        )
    return _closed_open_walk(H.inequalities, ranges)


def find_positive_functional(X: VectorList) -> tuple[int, ...] | None:
    """An integer c with c . a > 0 for every vector a of X, or None.

    X is projected onto the pivot coordinates of its span, which is
    injective on the span, so the projected list spans Q^r.  The dual cone
    { c : c . y >= 0 } is then pointed, and each of its extreme rays is
    tight on r - 1 independent vectors: it is c or -c for a _normals entry
    c.  The sum of the signed normals that lie in the cone is therefore
    interior to it, and strictly positive on X exactly when some functional
    is.  The sum is lifted back with zeros off the pivot coordinates.  The
    empty list returns the first unit vector (vacuous condition); a zero
    vector gives None.
    """
    n = X.dim
    if len(X) == 0:
        return tuple(1 if j == 0 else 0 for j in range(n))
    pivots = [exact_linalg._leading(row) for row in exact_linalg.span(X.vectors)]
    projected = [tuple(v[j] for j in pivots) for v in X.vectors]
    total = [0] * len(pivots)
    for normal in _normals(projected, len(pivots)):
        for c in (normal, tuple(-x for x in normal)):
            if all(sum(a * y for a, y in zip(c, v)) >= 0 for v in projected):
                total = [a + b for a, b in zip(total, c)]
    lifted = [0] * n
    for j, t in zip(pivots, total):
        lifted[j] = t
    if any(sum(a * x for a, x in zip(lifted, v)) <= 0 for v in X.vectors):
        return None
    return tuple(lifted)


def _solutions_single(vector: tuple[int, ...], target: Sequence[int]) -> int:
    """Number of integers x >= 0 with x * vector == target (vector nonzero)."""
    j = next(i for i, c in enumerate(vector) if c)
    num, den = target[j], vector[j]
    if num % den:
        return 0
    x = num // den
    if x < 0:
        return 0
    return 1 if all(x * c == t for c, t in zip(vector, target)) else 0


def partition_function(X: VectorList, target: Sequence[int]) -> int:
    """Number of ways to write the target as a nonnegative integer
    combination of the list vectors.

    Finiteness requires a functional that is strictly positive on every
    vector; the search is a depth-first enumeration pruned by the integer
    bound x_a <= (c . target) // (c . a) for the integer functional c of
    find_positive_functional.  Target entries must be integers.
    """
    lam = tuple(exact_linalg._check_int(t) for t in target)
    if len(lam) != X.dim:
        raise ValueError(f"target has length {len(lam)}, expected {X.dim}")
    functional = find_positive_functional(X)
    if functional is None:
        raise UnboundedCone("no functional is strictly positive on the whole list")
    if len(X) == 0:
        return 1 if not any(lam) else 0

    vectors = list(X.vectors)
    weights = [sum(c * x for c, x in zip(functional, v)) for v in vectors]
    last = len(vectors) - 1

    def search(remaining: tuple[int, ...], budget: int, idx: int) -> int:
        if idx == last:
            return _solutions_single(vectors[idx], remaining)
        w = weights[idx]
        cap = budget // w
        if cap < 0:
            return 0
        vec = vectors[idx]
        total = 0
        current = list(remaining)
        for step in range(cap + 1):
            if step:
                for j in range(len(current)):
                    current[j] -= vec[j]
            total += search(tuple(current), budget - step * w, idx + 1)
        return total

    budget = sum(c * t for c, t in zip(functional, lam))
    if budget < 0:
        return 0
    return search(lam, budget, 0)
