import math
import random
import time
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonotutte import (
    CapExceeded,
    DimensionDeficient,
    HRep,
    VectorList,
    closed_open_counts,
    dilate_list,
    ehrhart_via_independent_sets,
    interior_polynomial,
    rank,
    zonotope_hrep,
)
from zonotutte.geometry_oracle import _box_ranges, _closed_open_walk

from conftest import NEAR_1E20, random_full_rank_list
from oracle_reference import (
    PointClass,
    classify_point,
    reference_counts,
    reference_hrep,
    reference_line_walk,
)

WORKED = VectorList(2, [(3, 0), (0, 2), (1, 1)])
UNIT_SQUARE = VectorList(2, [(1, 0), (0, 1)])


@st.composite
def dilated_lists(draw, entries=st.integers(-10**3, 10**3)):
    """(X, q): X full rank in Z^n, n in 1..4, |X| <= 8 (7 at n = 4), with
    zero, repeated and parallel vectors; q in 1..3."""
    n = draw(st.integers(1, 4))
    max_size = 7 if n == 4 else 8
    base = draw(st.lists(st.tuples(*[entries] * n), min_size=1, max_size=max_size))
    # a pick (i, k) is k times base vector i; k = 0 is the zero vector
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(base) - 1), st.sampled_from((1, 1, -1, 2, 0))),
            min_size=n,
            max_size=max_size,
        )
    )
    X = VectorList(n, [tuple(k * x for x in base[i]) for i, k in picks])
    assume(rank(X) == n)
    return X, draw(st.integers(1, 3))


@st.composite
def walk_cases(draw):
    """(X, q): X full rank in Z^n, n in 1..4, n to n + 4 vectors, q in 1..4.
    Entries are in [-1, 1] to [-3, 3], so many facet rows share a slope,
    with zero and repeated vectors; one coordinate may take entries near
    10^20, which makes it the walked axis.  A unit vector is appended for
    each coordinate whose column sum has the wrong parity, so every pattern
    of centre parities is drawn.  The box has at most 4,000 lines."""
    n = draw(st.integers(1, 4))
    bound = (3, 2, 1, 1)[n - 1]
    distinct = draw(
        st.lists(st.tuples(*[st.integers(-bound, bound)] * n), min_size=1, max_size=n + 4)
    )
    # index len(distinct) is the zero vector
    picks = draw(st.lists(st.integers(0, len(distinct)), min_size=n, max_size=n + 4))
    vectors = [distinct[i] if i < len(distinct) else (0,) * n for i in picks]
    long, big, shift = draw(st.integers(0, n - 1)), draw(NEAR_1E20), draw(st.integers(-1, 1))
    vectors = [
        tuple(x * big + shift if j == long else x for j, x in enumerate(v)) for v in vectors
    ]
    for j, parity in enumerate(draw(st.tuples(*[st.integers(0, 1)] * n))):
        if sum(v[j] for v in vectors) % 2 != parity:
            vectors.append(tuple(int(k == j) for k in range(n)))
    X = VectorList(n, vectors)
    assume(rank(X) == n)
    q = draw(st.integers(1, 4))
    sides = sorted(hi - lo + 1 for lo, hi in _box_ranges(X, q))
    assume(math.prod(sides[:-1]) <= 4000)
    return X, q


def dilated_hrep(X, q):
    """The facets of q Z(X): the rows of zonotope_hrep(X), each offset
    times q, the scaling closed_open_counts applies."""
    H = zonotope_hrep(X)
    return HRep(dim=H.dim, inequalities=tuple((c, q * d) for c, d in H.inequalities))


def points_of(H, ranges):
    return {
        p: classify_point(H, p)
        for p in product(*(range(lo, hi + 1) for lo, hi in ranges))
    }


class TestZonotopeHrep:
    def test_equal_polytopes_compare_equal(self):
        # the rows are primitive and sorted, so the order and the choice of
        # generators do not show
        H = zonotope_hrep(VectorList(2, [(6, 0), (0, 4), (2, 2)]))
        assert H == zonotope_hrep(VectorList(2, [(2, 2), (0, 4), (6, 0)]))
        assert H == dilated_hrep(VectorList(2, reversed(WORKED.vectors)), 2)
        assert hash(H) == hash(HRep(dim=2, inequalities=H.inequalities))
        assert H != zonotope_hrep(WORKED)
        assert H != HRep(dim=3, inequalities=H.inequalities)
        assert H != H.inequalities
        assert H == (2, H.inequalities) and not hasattr(H, "__dict__")
        assert repr(H).startswith("HRep(dim=2, inequalities=(((-1, 0), 0), ((-1, 1), 4), ")

    def test_unit_square(self):
        H = zonotope_hrep(UNIT_SQUARE)
        assert set(H.inequalities) == {
            ((-1, 0), 0),
            ((0, -1), 0),
            ((1, 0), 1),
            ((0, 1), 1),
        }

    def test_segment(self):
        H = dilated_hrep(VectorList(1, [(2,)]), 3)
        assert set(H.inequalities) == {((-1,), 0), ((1,), 6)}

    def test_worked_example_contains_all_generator_sums(self):
        H = zonotope_hrep(WORKED)
        for mask in range(8):
            vertex = [0, 0]
            for b in range(3):
                if mask >> b & 1:
                    vertex = [a + c for a, c in zip(vertex, WORKED.vectors[b])]
            assert classify_point(H, vertex) is not PointClass.OUTSIDE

    def test_every_inequality_is_tight_somewhere(self):
        # facet description: each row is attained by some 0/1 generator sum
        H = zonotope_hrep(WORKED)
        for normal, rhs in H.inequalities:
            best = max(
                sum(n * v for n, v in zip(normal, vertex))
                for vertex in (
                    tuple(
                        sum(WORKED.vectors[b][j] for b in range(3) if mask >> b & 1)
                        for j in range(2)
                    )
                    for mask in range(8)
                )
            )
            assert best == rhs

    def test_rejects_rank_deficient(self):
        with pytest.raises(DimensionDeficient):
            zonotope_hrep(VectorList(2, [(1, 0)]))

    @settings(max_examples=40, deadline=None)
    @given(dilated_lists())
    def test_matches_fourier_motzkin_reference(self, case):
        X, q = case
        assert dilated_hrep(X, q) == reference_hrep(X, q)

    @settings(max_examples=8, deadline=None)
    @given(dilated_lists(entries=NEAR_1E20))
    def test_matches_reference_near_1e20(self, case):
        X, q = case
        assert dilated_hrep(X, q) == reference_hrep(X, q)

    @settings(max_examples=40, deadline=None)
    @given(dilated_lists(entries=st.integers(-5, 5)))
    def test_centrally_symmetric(self, case):
        # p -> q * sum(X) - p maps q Z(X) onto itself, so it swaps each
        # facet c . p <= d with its opposite -c . p <= d - q * sum_i c . x_i
        X, q = case
        rows = set(dilated_hrep(X, q).inequalities)
        total = [q * sum(column) for column in zip(*X.vectors)]
        for c, d in rows:
            mirror = (tuple(-a for a in c), d - sum(a * t for a, t in zip(c, total)))
            assert mirror in rows, (X, q, c, d)

    def test_dilation_scales_hrep(self, small_corpus):
        for X in small_corpus[:8]:
            H1 = zonotope_hrep(X)
            H3 = zonotope_hrep(dilate_list(X, 3))
            scaled = tuple(
                sorted((normal, 3 * rhs) for normal, rhs in H1.inequalities)
            )
            assert H3.inequalities == scaled


class TestClassifyPoint:
    def test_unit_square_corners_and_outside(self):
        H = zonotope_hrep(UNIT_SQUARE)
        assert classify_point(H, (0, 0)) is PointClass.BOUNDARY
        assert classify_point(H, (2, 2)) is PointClass.OUTSIDE

    def test_interior_point(self):
        H = dilated_hrep(UNIT_SQUARE, 2)
        assert classify_point(H, (1, 1)) is PointClass.INTERIOR

    def test_worked_example_interior_count(self):
        H = zonotope_hrep(WORKED)
        classes = points_of(H, _box_ranges(WORKED, 1))
        assert sum(1 for c in classes.values() if c is PointClass.INTERIOR) == 6

    def test_redundant_inequalities_do_not_reclassify(self):
        H = zonotope_hrep(WORKED)
        # a valid but slack inequality, then a valid tight one
        padded = HRep(
            dim=2,
            inequalities=H.inequalities + (((1, 1), 99), ((1, 1), 7)),
        )
        for p, expected in points_of(H, _box_ranges(WORKED, 1)).items():
            got = classify_point(padded, p)
            if expected is PointClass.INTERIOR:
                assert got is PointClass.INTERIOR
            elif expected is PointClass.BOUNDARY:
                assert got is PointClass.BOUNDARY
            else:
                assert got is PointClass.OUTSIDE

    def test_empty_hrep_rejected(self):
        with pytest.raises(ValueError):
            classify_point(HRep(dim=1, inequalities=()), (0,))


class TestBruteForceCount:
    def test_worked_example_counts(self):
        assert closed_open_counts(WORKED, 1) == (18, 6)
        assert closed_open_counts(WORKED, 2) == (57, 33)

    def test_unit_square_dilated(self):
        assert closed_open_counts(UNIT_SQUARE, 5) == (36, 16)

    def test_dimension_zero_is_one_point(self):
        # Z^0 is a point, its own relative interior: E = I = 1 at every q
        X = VectorList(0, [(), ()])
        for q in (1, 3):
            assert closed_open_counts(X, q) == (1, 1)
        E = ehrhart_via_independent_sets(X)
        assert (E.evaluate(3), interior_polynomial(E).evaluate(3)) == (1, 1)

    def test_box_cap(self):
        with pytest.raises(CapExceeded):
            closed_open_counts(WORKED, 2, max_box=10)

    def test_dimension_cap(self):
        X = VectorList(5, [tuple(1 if i == j else 0 for i in range(5)) for j in range(5)])
        with pytest.raises(CapExceeded):
            closed_open_counts(X, 1)

    def test_line_count_matches_point_scan(self, small_corpus):
        for X in small_corpus[:6]:
            assert closed_open_counts(X, 2) == reference_counts(X, 2)
        rng = random.Random(1102)
        # entry bounds keep the per-point reference's box small at q = 3
        for n, bound in ((1, 3), (2, 2), (3, 1), (4, 1)):
            for _ in range(12):
                X = random_full_rank_list(rng, n, max_size=n + 2, bound=bound)
                vectors = list(X.vectors)
                for _ in range(rng.randint(0, 2)):
                    vectors.insert(rng.randint(0, len(vectors)), (0,) * n)
                X = VectorList(n, vectors)
                q = rng.randint(1, 3)
                assert closed_open_counts(X, q) == reference_counts(X, q), (X, q)

    def test_line_axis_in_every_position(self):
        # the first coordinate spans the longest range; rotate it to each position
        base = [(3, 1, 0, -1), (2, -1, 1, 0), (0, 0, 0, 0), (-1, 0, 1, 1), (1, 1, -1, 1)]
        for n in (3, 4):
            for axis in range(n):
                vectors = [tuple(v[(j - axis) % n] for j in range(n)) for v in base]
                X = VectorList(n, vectors)
                widths = [hi - lo for lo, hi in _box_ranges(X, 1)]
                assert widths.index(max(widths)) == axis and widths.count(max(widths)) == 1
                for q in (1, 2, 3):
                    assert closed_open_counts(X, q) == reference_counts(X, q), (X, q)

    def test_half_walk_every_centre_parity_and_axis(self):
        # coordinate j of the box centre is (lo_j + hi_j) / 2 = q * sum_i x_ij / 2;
        # a slab is its own mirror, and is walked whole, only where every
        # lo_j + hi_j before its coordinate b is even.  Cover every parity
        # pattern off the walked axis, with the axis in every position; q = 2
        # makes every sum even.  Lines on facets parallel to the axis hold
        # closed points but no interior ones.
        rng = random.Random(1974)
        for n, bound in ((1, 3), (2, 2), (3, 1), (4, 1)):
            for axis in range(n):
                for parities in product((0, 1), repeat=n - 1):
                    while True:
                        X = random_full_rank_list(rng, n, max_size=n + 2, bound=bound)
                        ranges = _box_ranges(X, 1)
                        widths = [hi - lo for lo, hi in ranges]
                        sums = tuple((lo + hi) % 2 for lo, hi in ranges)
                        if widths.index(max(widths)) == axis and (
                            sums[:axis] + sums[axis + 1:] == parities
                        ):
                            break
                    for q in (1, 2):
                        assert closed_open_counts(X, q) == reference_counts(X, q), (X, q)

    @settings(max_examples=300, deadline=None)
    @given(walk_cases())
    def test_envelope_walk_matches_line_walk(self, case):
        # the per-slab envelopes against the walk that takes every facet row
        # on every line, on the same rows and box; and Z(X)'s facets with
        # each offset scaled by q against the facets of qX, enumerated
        # directly
        X, q = case
        rows, ranges = dilated_hrep(X, q).inequalities, _box_ranges(X, q)
        assert _closed_open_walk(rows, ranges) == reference_line_walk(rows, ranges)
        scaled = closed_open_counts(X, q, base=zonotope_hrep(X))
        assert scaled == closed_open_counts(dilate_list(X, q), 1)

    def test_dilation_compatibility(self, small_corpus):
        for X in small_corpus[:8]:
            for q in (2, 3):
                lhs = closed_open_counts(X, q)[0]
                rhs = closed_open_counts(dilate_list(X, q), 1)[0]
                assert lhs == rhs

    def test_boundary_count_at_least_vertex_count_floor(self, small_corpus):
        for X in small_corpus:
            closed, opened = closed_open_counts(X, 2)
            assert closed - opened >= X.dim + 1


class TestBigEntries:
    """Entries near 10^20: the box has about 10^20 points, the lines few."""

    def test_two_dimensional(self):
        X = VectorList(2, [(10**20, 1), (1, 0)])
        assert closed_open_counts(X, 1, max_box=10**22) == (4, 0)
        assert closed_open_counts(X, 3, max_box=10**22) == (16, 4)

    def test_three_dimensional_matches_ehrhart_polynomial(self):
        X = VectorList(3, [(1, 10**20, 0), (0, 2, 1), (1, 0, 1), (0, 1, -1)])
        E = ehrhart_via_independent_sets(X)
        interior = interior_polynomial(E)
        for q in (1, 2, 3):
            expected = (E.evaluate(q), interior.evaluate(q))
            assert closed_open_counts(X, q, max_box=10**24) == expected

    def test_box_cap_counts_lines_times_facets(self):
        # about 10^20 box points, but 2 lines against 4 facets: 8 pairs,
        # which a cap of 8 admits and one of 7 refuses
        X = VectorList(2, [(10**20, 1), (1, 0)])
        assert closed_open_counts(X, 1) == (4, 0)
        assert closed_open_counts(X, 1, max_box=8) == (4, 0)
        with pytest.raises(CapExceeded):
            closed_open_counts(X, 1, max_box=7)

    def test_box_cap_refuses_a_long_walk_quickly(self):
        # n = 4, |X| = 24, entries in [-3, 3]: 73,554 lines against 2,890
        # facets, a walk of tens of seconds; refused after zonotope_hrep alone
        rng = random.Random(24)
        X = VectorList(4, [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(24)])
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            closed_open_counts(X, 1)
        assert time.perf_counter() - start < 1
