"""Brute-force geometric verification, independent of the polynomial side.

The zonotope of a list X in Z^n, scaled by a positive integer q, is
q Z(X) = { sum_i t_i (q x_i) : 0 <= t_i <= 1 }.  This module reads its
facets off the generators, one pair of opposite facets per hyperplane
spanned by n - 1 of them (zonotope_hrep), then counts the lattice points
of the coordinate bounding box that satisfy the inequalities (closed) or
satisfy them strictly (interior).

Why strictness against possibly redundant inequalities classifies interiors
correctly: the zonotope here is full-dimensional (rank X = n), so any valid
inequality c.p <= d satisfies c.p < d on interior points — an interior
point p has a ball around it inside the body, and c.p = d would place half
of that ball outside the half-space.  Redundant valid inequalities can
therefore never demote an interior point to the boundary.

The count walks the lines of the bounding box along its longest axis, on
exact Python integers: each row c.p <= d bounds a line's interval of
integers by one floor division, or keeps or drops the whole line where c
is 0 on that axis.  Interior points take the same walk with every offset
lowered by 1, since c.p < d is c.p <= d - 1 on integer points.

Exact rational Fourier-Motzkin elimination (_reduce_rows, _eliminate_var)
serves only find_positive_functional, which decides a strict linear system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from operator import floordiv, sub
from typing import Iterable, Sequence

from . import exact_linalg
from .errors import BoxTooLarge, UnboundedCone
from .exact_linalg import VectorList, _bareiss

MAX_BOX_POINTS = 10_000_000
MAX_BRUTE_FORCE_DIM = 4

Row = tuple[tuple[int, ...], int]  # coeffs . v <= rhs


class PointClass(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class CountMode(Enum):
    CLOSED = "closed"
    OPEN = "open"


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


class _Infeasible(Exception):
    """Internal marker: elimination derived 0 <= negative."""


def _reduce_rows(rows: Iterable[Row]) -> list[Row]:
    """Normalize rows by their gcd, drop trivial ones, keep the tightest of
    any parallel family.  Raises _Infeasible on an all-zero row with a
    negative right-hand side."""
    best: dict[tuple[int, ...], Fraction] = {}
    for coeffs, rhs in rows:
        if not any(coeffs):
            if rhs < 0:
                raise _Infeasible
            continue
        g = math.gcd(*(abs(c) for c in coeffs))
        key = tuple(c // g for c in coeffs)
        bound = Fraction(rhs, g)
        prev = best.get(key)
        if prev is None or bound < prev:
            best[key] = bound
    out: list[Row] = []
    for key, bound in best.items():
        den = bound.denominator
        out.append((tuple(c * den for c in key), bound.numerator))
    return out


def _eliminate_var(rows: Sequence[Row], k: int) -> list[Row]:
    """One Fourier-Motzkin step: project away variable k."""
    pos = [r for r in rows if r[0][k] > 0]
    neg = [r for r in rows if r[0][k] < 0]
    out = [r for r in rows if r[0][k] == 0]
    for cp, dp in pos:
        a = cp[k]
        for cn, dn in neg:
            b = cn[k]
            coeffs = tuple(a * cn[i] - b * cp[i] for i in range(len(cp)))
            out.append((coeffs, a * dn - b * dp))
    return _reduce_rows(out)


def zonotope_hrep(X: VectorList, q: int) -> HRep:
    """Facet description of the q-fold dilated zonotope of X.

    Every facet of a full-dimensional zonotope is parallel to a hyperplane
    spanned by n - 1 of its generators, and each such hyperplane carries
    two opposite facets (Shephard 1974, McMullen 1971).  For each
    (n - 1)-subset of X the normal c is the vector of signed
    (n - 1) x (n - 1) minors, so c . v is the determinant of v followed
    by the subset; subsets of rank < n - 1 give c = 0 and are skipped.
    c is divided by the gcd of its entries, and the facet on the side of c
    has offset q * sum_i max(0, c . x_i).
    """
    if q < 1:
        raise ValueError(f"dilation factor must be >= 1, got {q}")
    n = X.dim
    exact_linalg.check_full_rank(X)

    normals: set[tuple[int, ...]] = set()
    # n = 1 takes the empty subset, whose empty minor 1 gives the normals +-1;
    # n = 0 takes it too and gets the empty description
    for subset in combinations(X.vectors, max(n - 1, 0)):
        c = [
            (-1) ** j * _bareiss([[v[i] for v in subset] for i in range(n) if i != j])
            for j in range(n)
        ]
        g = math.gcd(*c)
        if g:
            normal = tuple(x // g for x in c)
            normals.add(normal)
            normals.add(tuple(-x for x in normal))

    inequalities = sorted(
        (c, q * sum(max(0, sum(a * x for a, x in zip(c, v))) for v in X.vectors))
        for c in normals
    )
    return HRep(dim=n, inequalities=tuple(inequalities))


def classify_point(H: HRep, point: Sequence[int]) -> PointClass:
    """Trichotomy of an integer point against an inequality description."""
    if not H.inequalities:
        raise ValueError("cannot classify against an empty H-representation")
    tight = False
    for normal, rhs in H.inequalities:
        s = sum(c * x for c, x in zip(normal, point))
        if s > rhs:
            return PointClass.OUTSIDE
        if s == rhs:
            tight = True
    return PointClass.BOUNDARY if tight else PointClass.INTERIOR


def _box_ranges(X: VectorList, q: int) -> list[tuple[int, int]]:
    ranges = []
    for j in range(X.dim):
        lo = q * sum(min(v[j], 0) for v in X.vectors)
        hi = q * sum(max(v[j], 0) for v in X.vectors)
        ranges.append((lo, hi))
    return ranges


def _count_below(rows: Sequence[Row], ranges: Sequence[tuple[int, int]]) -> int:
    """Integer points p of the box with c . p <= d on every row (c, d); the
    rows must bound a body inside the box, so lines need no clipping."""
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

    def count(depth: int, slacks: list[int]) -> int:
        if depth == len(others):
            if min(slacks[v:], default=0) < 0:
                return 0
            hi = min(map(floordiv, slacks[:u], cap_div))
            lo = -min(map(floordiv, slacks[u:v], floor_div))
            return max(0, hi - lo + 1)
        lo_j, hi_j = ranges[others[depth]]
        step = [c[others[depth]] for c, _ in rows]
        slacks = [s - c * lo_j for s, c in zip(slacks, step)]
        total = 0
        for _ in range(lo_j, hi_j + 1):
            total += count(depth + 1, slacks)
            slacks = list(map(sub, slacks, step))
        return total

    return count(0, [d for _, d in rows])


def closed_open_counts(
    X: VectorList,
    q: int,
    *,
    max_box: int = MAX_BOX_POINTS,
) -> tuple[int, int]:
    """Count lattice points of the dilated zonotope: (closed hull, interior).

    Both counts walk the same lines of the bounding box, the interior with
    every offset lowered by 1 (module docstring); brute_force_count is the
    single-mode front end.
    """
    if q < 1:
        raise ValueError(f"dilation factor must be >= 1, got {q}")
    exact_linalg.check_full_rank(X)
    if X.dim > MAX_BRUTE_FORCE_DIM:
        raise BoxTooLarge(
            f"brute-force counting supports dimension <= {MAX_BRUTE_FORCE_DIM}, got {X.dim}"
        )
    ranges = _box_ranges(X, q)
    box_points = math.prod(hi - lo + 1 for lo, hi in ranges)
    if box_points > max_box:
        raise BoxTooLarge(f"bounding box holds {box_points} points; cap is {max_box}")
    H = zonotope_hrep(X, q)
    return (
        _count_below(H.inequalities, ranges),
        _count_below([(c, d - 1) for c, d in H.inequalities], ranges),
    )


def brute_force_count(
    X: VectorList,
    q: int,
    mode: CountMode,
    *,
    max_box: int = MAX_BOX_POINTS,
) -> int:
    """Number of lattice points in the dilated zonotope (CLOSED) or its
    interior (OPEN), counted line by line over the bounding box against the
    facets of zonotope_hrep."""
    closed, opened = closed_open_counts(X, q, max_box=max_box)
    return closed if mode is CountMode.CLOSED else opened


def find_positive_functional(X: VectorList) -> tuple[Fraction, ...] | None:
    """A rational c with c . a > 0 for every vector a of X, or None.

    The strict system is solvable iff { c : a . c >= 1 for all a } is
    nonempty, which is decided exactly by Fourier-Motzkin elimination with
    back-substitution.  The empty list returns the first unit vector
    (vacuous condition); any list containing a zero vector returns None.
    """
    n = X.dim
    if len(X) == 0:
        return tuple(Fraction(1 if j == 0 else 0) for j in range(n))
    if any(not any(v) for v in X.vectors):
        return None

    rows: list[Row] = [(tuple(-x for x in v), -1) for v in X.vectors]
    systems: list[list[Row]] = [[] for _ in range(n)]
    try:
        current = _reduce_rows(rows)
        systems[n - 1] = current
        for k in range(n - 1, 0, -1):
            current = _eliminate_var(current, k)
            systems[k - 1] = current
        # eliminating the last variable turns any contradiction into an
        # explicit 0 <= negative row; feasibility is decided here
        _eliminate_var(current, 0)
    except _Infeasible:
        return None

    point: list[Fraction] = []
    for k in range(n):
        lower = upper = None
        for coeffs, rhs in systems[k]:
            ck = coeffs[k]
            if ck == 0:
                continue
            bound = Fraction(rhs - sum(c * v for c, v in zip(coeffs, point)), ck)
            if ck > 0:
                upper = bound if upper is None else min(upper, bound)
            else:
                lower = bound if lower is None else max(lower, bound)
        if lower is not None and upper is not None:
            value = (lower + upper) / 2
        elif lower is not None:
            value = lower
        elif upper is not None:
            value = upper
        else:
            value = Fraction(0)
        point.append(value)

    result = tuple(point)
    for v in X.vectors:
        if sum(c * x for c, x in zip(result, v)) <= 0:
            raise AssertionError("back-substitution produced an invalid functional")
    return result


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
    vector; the search is a depth-first enumeration pruned by the bound
    x_a <= (c . target) / (c . a) for that functional c.
    """
    lam = tuple(int(t) for t in target)
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

    def search(remaining: tuple[int, ...], budget: Fraction, idx: int) -> int:
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
    return search(lam, Fraction(budget), 0)
