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

The count walks the lines of the bounding box along its longest axis t,
on exact Python integers, one slab at a time: a slab is the plane of t
and the last other coordinate b, at fixed values of the coordinates
before b.  On a slab each row c.p <= d reads c_t t + c_b b <= s, with s
the row's slack there.  A row with c_t > 0 (a cap) bounds t from above by
(s - c_b b) / c_t, one with c_t < 0 (a floor) bounds it from below, and
one with c_t = 0 (a flat) bounds b alone.  Each slab takes one pass over
the rows.  The flats give its range of b.  The caps, sorted once per
walk by c_b / c_t with integer cross-multiplication, go through one
stack pass that keeps their lower envelope: the bounds lowest at some b,
each with the stretch of b where it is lowest.  The floors get the same.
Walking b upward, a pointer into each envelope gives the line's lowest
cap and floor, so the line's closed interval of t costs one floor
division per end, whatever the number of rows.  Interior points satisfy
every row strictly, and c.p < d is c.p <= d - 1 on integer points: on a
line, the open interval is the closed one less each end whose bound is
an integer, and a line on which a flat is tight, a facet parallel to the
axis, has none.  A flat is tight only at an end of the slab's range of b
where it divides exactly, or on the whole slab when c_b = 0 and s = 0.

Every zonotope is centrally symmetric (Shephard 1974): p -> q sum(X) - p
maps q Z(X) onto itself, and swaps each facet row (c, d) with its opposite
(-c, d - q sum_i c.x_i).  The bounding box, from lo_j = q sum_i min(0, x_ij)
to hi_j = q sum_i max(0, x_ij), has the same centre, since lo_j + hi_j =
q sum_i x_ij, and twice that centre is an integer vector, so the map
pairs integer points with integer points and each slab with a slab that
holds as many closed and interior points.  The walk therefore visits only
the slabs whose coordinates before b are lexicographically at most their
mirror's: a slab strictly below its mirror counts twice, and a slab equal
to its mirror, which exists only where every lo_j + hi_j before b is
even, is walked whole and counts once.  In the plane (n = 2) the one slab
is its own mirror and is walked whole; a segment (n = 1) is one such
slab, of a zero-width range of b.

The same hyperplane normals decide whether some functional is strictly
positive on a list (find_positive_functional): on the pivot coordinates of
the list's span, every extreme ray of the dual cone { c : c.x >= 0 } is
such a normal up to sign, so the sum of the signed normals inside that
cone is strictly positive on the list whenever any functional is.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from functools import cmp_to_key
from itertools import combinations
from operator import sub

from . import exact_linalg
from .errors import MAX_BOX_POINTS, CapExceeded, UnboundedCone
from .exact_linalg import VectorList

MAX_BRUTE_FORCE_DIM = 4
MAX_PARTITION_NODES = 300_000  # calls of partition_function's search

Row = tuple[tuple[int, ...], int]  # coeffs . v <= rhs


class HRep(namedtuple("HRep", "dim inequalities")):
    """Inequality description normal . p <= offset of a rational polytope.

    Rows are normalized to primitive integer form (gcd of the normal is 1)
    and sorted, so equal polytopes compare equal.  Redundant valid rows are
    harmless for classification (module docstring); zonotope_hrep
    nevertheless emits exactly the facets.
    """

    __slots__ = ()


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


def zonotope_hrep(X: VectorList) -> HRep:
    """Facet description of the zonotope of X.

    Every facet of a full-dimensional zonotope is parallel to a hyperplane
    spanned by n - 1 of its generators, and each such hyperplane carries
    two opposite facets (Shephard 1974, McMullen 1971).  _normals gives
    a primitive normal c of each such hyperplane; c and -c are both kept,
    and the facet on the side of c has offset sum_i max(0, c . x_i).  The
    facets of q Z(X) are the same rows with every offset times q
    (closed_open_counts).  The oracle stops at dimension
    MAX_BRUTE_FORCE_DIM (CapExceeded), before the C(|X|, n - 1) subsets
    are visited.
    """
    n = X.dim
    exact_linalg.check_full_rank(X)
    if n > MAX_BRUTE_FORCE_DIM:
        raise CapExceeded(
            f"brute-force counting supports dimension <= {MAX_BRUTE_FORCE_DIM}, got {n}"
        )

    normals = _normals(X.vectors, n)
    normals |= {tuple(-x for x in c) for c in normals}

    inequalities = sorted(
        (c, sum(max(0, sum(a * x for a, x in zip(c, v))) for v in X.vectors))
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


def _envelope(
    lines: Sequence[tuple[int, int]], slacks: Sequence[int], stop: int
) -> list[tuple[int, int, int, int]]:
    """Lower envelope over b of the bounds (s - c_b b) / a, a > 0, of one slab.

    lines holds each bound's (c_b, a) in increasing order of c_b / a, so the
    bounds come in decreasing order of slope, the order in which they are
    lowest as b grows; slacks holds each bound's s.  One stack pass keeps
    the lowest of each family of parallel bounds, and drops a bound that is
    never strictly below both its neighbours: bound j, between i and k, is
    lowest from its crossing with i to its crossing with k, and drops when
    those do not come in that order.  Each kept bound is returned as
    (s, c_b, a, until): it is lowest at the integers b below until, and the
    last one up to stop.
    """
    hull: list[tuple[int, int, int]] = []
    for (c, a), s in zip(lines, slacks):
        if hull:
            s_j, c_j, a_j = hull[-1]
            if c_j * a == c * a_j:  # parallel: keep the lower
                if s * a_j >= s_j * a:
                    continue
                hull.pop()
        while len(hull) > 1:
            (s_i, c_i, a_i), (s_j, c_j, a_j) = hull[-2], hull[-1]
            # crossings of j with i and with the new bound, cross-multiplied
            # by their positive denominators
            if (s_j * a_i - s_i * a_j) * (c * a_j - c_j * a) < (s * a_j - s_j * a) * (
                c_j * a_i - c_i * a_j
            ):
                break
            hull.pop()
        hull.append((s, c, a))
    envelope = []
    for (s_i, c_i, a_i), (s_j, c_j, a_j) in zip(hull, hull[1:]):
        # the first integer b at or past the crossing, where j is as low as i
        until = -((s_i * a_j - s_j * a_i) // (c_j * a_i - c_i * a_j))
        envelope.append((s_i, c_i, a_i, until))
    s_i, c_i, a_i = hull[-1]
    envelope.append((s_i, c_i, a_i, stop + 1))
    return envelope


def _closed_open_walk(
    rows: Sequence[Row], ranges: Sequence[tuple[int, int]]
) -> tuple[int, int]:
    """Integer points p of the box with c . p <= d on every row (c, d), and
    those with c . p <= d - 1, from one walk over the slabs up to their
    mirrors, each line bounded by the facet envelopes of its slab (module
    docstring).  The rows must bound a body inside the box that is
    centrally symmetric about the box's centre."""
    if len(ranges) == 1:  # a segment: one slab of zero width
        rows = [(c + (0,), d) for c, d in rows]
        ranges = [*ranges, (0, 0)]
    axis = max(range(len(ranges)), key=lambda j: ranges[j][1] - ranges[j][0])
    *outer, b = (j for j in range(len(ranges)) if j != axis)
    # on the line at b of a slab where a row has slack s = d - (c.p without
    # its b and axis terms), the row bounds the axis coordinate t by
    # t <= (s - c_b b) / c_t if c_t > 0, by -t <= (s - c_b b) / -c_t if
    # c_t < 0, and bounds b alone if c_t = 0
    def by_slope(sign: int) -> list[Row]:
        # the rows with sign * c_t > 0, in increasing order of c_b / |c_t|,
        # compared by cross-multiplying with |c_t| = sign * c_t
        picked = [(c, d) for c, d in rows if sign * c[axis] > 0]
        return sorted(
            picked,
            key=cmp_to_key(lambda x, y: sign * (x[0][b] * y[0][axis] - y[0][b] * x[0][axis])),
        )

    caps, floors = by_slope(1), by_slope(-1)
    rows = caps + floors + [(c, d) for c, d in rows if c[axis] == 0]
    u, v = len(caps), len(caps) + len(floors)
    cap_lines = [(c[b], c[axis]) for c, _ in caps]
    floor_lines = [(c[b], -c[axis]) for c, _ in floors]
    flat_b = [c[b] for c, _ in rows[v:]]
    lo_b, hi_b = ranges[b]

    def slab(slacks: list[int]) -> tuple[int, int]:
        # the flats bound b to [start, stop]; a line lies on a facet
        # parallel to the axis where a flat's slack is 0: at start or stop
        # if that end is an exact quotient, or on the whole slab
        start, stop = lo_b, hi_b
        at_start = at_stop = whole = False
        for c, s in zip(flat_b, slacks[v:]):
            if c > 0:
                top, rem = divmod(s, c)
                if top <= stop:
                    at_stop = rem == 0 or (top == stop and at_stop)
                    stop = top
            elif c < 0:
                bottom, rem = divmod(s, -c)
                if -bottom >= start:
                    at_start = rem == 0 or (-bottom == start and at_start)
                    start = -bottom
            elif s <= 0:
                if s < 0:
                    return 0, 0
                whole = True
        if start > stop:
            return 0, 0
        cap_env = _envelope(cap_lines, slacks[:u], stop)
        floor_env = _envelope(floor_lines, slacks[u:v], stop)
        # the lines at b = y for y in start..stop; on each, the lowest cap
        # and floor give t's closed interval by one floor division each,
        # and the open one drops each end whose bound is an integer
        i = j = 0
        cs, cc, ca, cap_until = cap_env[0]
        fs, fc, fa, floor_until = floor_env[0]
        closed = opened = 0
        for y in range(start, stop + 1):
            while y >= cap_until:
                i += 1
                cs, cc, ca, cap_until = cap_env[i]
            while y >= floor_until:
                j += 1
                fs, fc, fa, floor_until = floor_env[j]
            hi, cap_rem = divmod(cs - cc * y, ca)
            neg_lo, floor_rem = divmod(fs - fc * y, fa)
            points = hi + neg_lo + 1
            if points <= 0:
                continue
            closed += points
            if whole or (y == start and at_start) or (y == stop and at_stop):
                continue
            opened += max(0, points - (cap_rem == 0) - (floor_rem == 0))
        return closed, opened

    def walk(depth: int, slacks: list[int], tied: bool) -> tuple[int, int]:
        # tied: the coordinates fixed so far are their own mirror's, so the
        # walk stops at the centre, and slabs strictly below it stand for
        # their mirrors too
        if depth == len(outer):
            return slab(slacks)
        lo_j, hi_j = ranges[outer[depth]]
        step = [c[outer[depth]] for c, _ in rows]
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
    base: HRep | None = None,
) -> tuple[int, int]:
    """Count lattice points of the dilated zonotope: (closed hull, interior).

    One walk gives both counts (module docstring): it visits only the
    slabs of the bounding box up to their mirror images through the
    centre, and every line of each.  Each slab takes one pass over the
    facet rows, which builds the lower envelopes of the rows that cap and
    that floor the walked axis; each line then reads its closed interval
    off the two envelopes by one floor division per end, and its interior
    interval drops each end whose bound is an integer.  max_box caps the box's
    lines (its points over its longest side) times the facet rows, an
    upper bound on the walk's work.  base, when given, must be
    zonotope_hrep(X), the facets of Z(X); the facets of q Z(X) are its
    rows with every offset times q, so several q share one facet
    enumeration.
    """
    if q < 1:
        raise ValueError(f"dilation factor must be >= 1, got {q}")
    if base is None:
        base = zonotope_hrep(X)
    if not X.dim:
        return 1, 1  # Z^0 is one point, its own relative interior
    ranges = _box_ranges(X, q)
    rows = [(c, q * d) for c, d in base.inequalities]
    sides = [hi - lo + 1 for lo, hi in ranges]
    lines = math.prod(sides) // max(sides)
    work = lines * len(rows)
    if work > max_box:
        raise CapExceeded(
            f"bounding box has {lines} lines and the zonotope {len(rows)} "
            f"facets, {work} line-facet pairs; cap is {max_box}"
        )
    return _closed_open_walk(rows, ranges)


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
    pivots = [next(j for j, x in enumerate(row) if x) for row in exact_linalg.span(X.vectors)]
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
    find_positive_functional.  Target entries must be integers.  A search
    that visits more than MAX_PARTITION_NODES nodes raises CapExceeded.
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

    nodes = 0

    def search(remaining: tuple[int, ...], budget: int, idx: int) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > MAX_PARTITION_NODES:
            raise CapExceeded(f"partition search passed {MAX_PARTITION_NODES} nodes")
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
