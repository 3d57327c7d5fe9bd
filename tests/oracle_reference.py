"""Test-only reference for the oracle's lattice-point count: one point at a time.

Every integer point of the coordinate bounding box is classified on its
own by classify_point.  No line structure and no floor division is used,
so the reference is independent of the line count in geometry_oracle
that the tests compare it with.
"""

from itertools import product

from zonotutte import PointClass, classify_point, zonotope_hrep
from zonotutte.geometry_oracle import _box_ranges


def reference_counts(X, q):
    """(closed, interior) lattice points of q Z(X), point by point."""
    H = zonotope_hrep(X, q)
    closed = opened = 0
    for point in product(*(range(lo, hi + 1) for lo, hi in _box_ranges(X, q))):
        cls = classify_point(H, point)
        if cls is PointClass.OUTSIDE:
            continue
        closed += 1
        if cls is PointClass.INTERIOR:
            opened += 1
    return closed, opened
