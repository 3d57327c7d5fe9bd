"""Test-only references for the oracle: Fourier-Motzkin facets, a
point-by-point count and a Fourier-Motzkin positive-functional search.

reference_hrep projects the box { (t, p) : p = sum t_i (q x_i),
0 <= t_i <= 1 } onto p by exact Fourier-Motzkin elimination of the t
variables, pruning rows that are redundant for the partially projected
body after every step.  It shares no minor or facet formula with
zonotope_hrep.

reference_counts classifies every integer point of the coordinate bounding
box on its own against reference_hrep, with its own classify_point.  No
line structure and no floor division is used, so it is independent of
both halves of the oracle's count: the facets of zonotope_hrep and the
line walk of closed_open_counts.

reference_positive_functional decides the strict system c . a > 0 by the
same elimination with back-substitution, sharing no minor formula with
find_positive_functional.
"""

import math
from enum import Enum
from fractions import Fraction
from itertools import product

from zonotutte.exact_linalg import span
from zonotutte.geometry_oracle import HRep, _box_ranges


class PointClass(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def classify_point(H, point):
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


class _Infeasible(Exception):
    """Internal marker: elimination derived 0 <= negative."""


def _reduce_rows(rows):
    """Normalize rows (coeffs, rhs), meaning coeffs . v <= rhs, by their
    gcd, drop trivial ones, keep the tightest of any parallel family.
    Raises _Infeasible on an all-zero row with a negative right-hand side."""
    best = {}
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
    out = []
    for key, bound in best.items():
        den = bound.denominator
        out.append((tuple(c * den for c in key), bound.numerator))
    return out


def _eliminate_var(rows, k):
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


def _prune_projection_rows(rows, scaled, m, eliminated):
    """Drop rows that are redundant for the partially projected body.

    After eliminating the box variables in `eliminated`, the remaining
    system describes the image B of the unit cube under the linear map
    t -> (t_rest, sum_i t_i g_i) with g_i the scaled generators.  Pulled
    back to the cube, a row (c, d) reads w . t <= d with
    w_i = c_i + c_p . g_i, so its exact support is sum_i max(0, w_i) and
    the face it touches has dimension

        |{i not eliminated : w_i = 0}| + rank{g_i : i eliminated, w_i = 0}.

    Rows are kept only when they are tight and touch a face of dimension
    >= dim(B) - 1: that retains every facet and every equality-type row,
    which together still describe B exactly, and it is what keeps the
    elimination from the usual combinatorial row explosion.
    """
    rank_cache = {}

    def rank_of(indices):
        if indices not in rank_cache:
            rank_cache[indices] = len(span(scaled[i] for i in indices))
        return rank_cache[indices]

    body_dim = (m - len(eliminated)) + rank_of(eliminated)
    kept = []
    for coeffs, rhs in rows:
        cp = coeffs[m:]
        support = 0
        rest_free = 0
        elim_free = []
        for i in range(m):
            w = coeffs[i] + sum(c * g for c, g in zip(cp, scaled[i]))
            if w > 0:
                support += w
            elif w == 0:
                if i in eliminated:
                    elim_free.append(i)
                else:
                    rest_free += 1
        if rhs < support:
            raise AssertionError("elimination produced an invalid inequality")
        if rhs > support:
            continue
        needed = body_dim - 1 - rest_free
        if needed > 0:
            if len(elim_free) < needed or rank_of(frozenset(elim_free)) < needed:
                continue
        kept.append((coeffs, rhs))
    return kept


def reference_hrep(X, q):
    """Facet description of q Z(X) by Fourier-Motzkin elimination."""
    n, m = X.dim, len(X)
    width = m + n
    scaled = [tuple(q * x for x in v) for v in X.vectors]
    rows = []
    for i in range(m):
        unit = tuple(1 if k == i else 0 for k in range(width))
        rows.append((unit, 1))
        rows.append((tuple(-c for c in unit), 0))
    for j in range(n):
        coeffs = [0] * width
        for i in range(m):
            coeffs[i] = -scaled[i][j]
        coeffs[m + j] = 1
        rows.append((tuple(coeffs), 0))
        rows.append((tuple(-c for c in coeffs), 0))

    rows = _reduce_rows(rows)
    remaining = set(range(m))
    eliminated = set()
    while remaining:
        def elimination_cost(k):
            p = sum(1 for row in rows if row[0][k] > 0)
            neg = sum(1 for row in rows if row[0][k] < 0)
            return (p * neg - p - neg, k)

        k = min(remaining, key=elimination_cost)
        rows = _eliminate_var(rows, k)
        remaining.discard(k)
        eliminated.add(k)
        rows = _prune_projection_rows(rows, scaled, m, frozenset(eliminated))

    inequalities = []
    for coeffs, rhs in rows:
        if any(coeffs[:m]):
            raise AssertionError("projection left a box variable behind")
        inequalities.append((coeffs[m:], rhs))
    return HRep(dim=n, inequalities=tuple(sorted(inequalities)))


def reference_counts(X, q):
    """(closed, interior) lattice points of q Z(X), point by point."""
    H = reference_hrep(X, q)
    closed = opened = 0
    for point in product(*(range(lo, hi + 1) for lo, hi in _box_ranges(X, q))):
        cls = classify_point(H, point)
        if cls is PointClass.OUTSIDE:
            continue
        closed += 1
        if cls is PointClass.INTERIOR:
            opened += 1
    return closed, opened


def reference_positive_functional(X):
    """A rational c with c . a > 0 for every vector a of X, or None.

    The strict system is solvable iff { c : a . c >= 1 for all a } is
    nonempty, which Fourier-Motzkin elimination decides exactly; a point
    of it is then built by back-substitution.  The empty list returns the
    first unit vector; any list containing a zero vector returns None.
    """
    n = X.dim
    if len(X) == 0:
        return tuple(Fraction(1 if j == 0 else 0) for j in range(n))
    if any(not any(v) for v in X.vectors):
        return None

    rows = [(tuple(-x for x in v), -1) for v in X.vectors]
    systems = [[] for _ in range(n)]
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

    point = []
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
