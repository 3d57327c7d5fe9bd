"""Test-only references for the oracle: Fourier-Motzkin facets, a
point-by-point count, and a line walk that takes every facet row on every
line.

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

reference_line_walk is the oracle's earlier line walk, kept as it was:
it visits the lines up to their mirrors, where closed_open_counts visits
whole slabs up to theirs, and bounds each line by one floor division per
facet row instead of by the per-slab envelopes of the rows, so the two
walks share only the mirror argument.
"""

import math
from enum import Enum
from fractions import Fraction
from itertools import product
from operator import floordiv, sub

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


def reference_line_walk(rows, ranges):
    """Integer points p of the box with c . p <= d on every row (c, d), and
    those with c . p <= d - 1, from one walk over the lines up to their
    mirrors through the box's centre, where geometry_oracle's walk mirrors
    whole slabs (its module docstring).  The rows must bound a
    body inside the box that is centrally symmetric about the box's
    centre."""
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

    def line(slacks):
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

    def walk(depth, slacks, tied):
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
