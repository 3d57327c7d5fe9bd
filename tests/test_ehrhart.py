import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonotutte import (
    BiPoly,
    UniPoly,
    VectorList,
    closed_open_counts,
    dilate_list,
    ehrhart_via_independent_sets,
    ehrhart_via_theorem,
    interior_polynomial,
    multiplicity_tutte,
    rank,
    scalar_corollaries,
)
from conftest import spanning_lists
from known_answers import tutte_complete_graph
from tutte_reference import ehrhart_reference

WORKED = VectorList(2, [(3, 0), (0, 2), (1, 1)])
UNIT_SQUARE = VectorList(2, [(1, 0), (0, 1)])


class TestEhrhartViaTheorem:
    def test_worked_example(self):
        E = ehrhart_via_theorem(multiplicity_tutte(WORKED))
        assert E == UniPoly([1, 6, 11])

    def test_unit_square(self):
        E = ehrhart_via_theorem(multiplicity_tutte(UNIT_SQUARE))
        assert E == UniPoly([1, 2, 1])  # (q+1)^2

    def test_segment(self):
        E = ehrhart_via_theorem(multiplicity_tutte(VectorList(1, [(2,)])))
        assert E == UniPoly([1, 2])  # 2q + 1 points in [0, 2q]


class TestEhrhartViaIndependentSets:
    def test_worked_example(self):
        assert ehrhart_via_independent_sets(WORKED) == UniPoly([1, 6, 11])

    def test_unit_square(self):
        assert ehrhart_via_independent_sets(UNIT_SQUARE) == UniPoly([1, 2, 1])

    def test_even_list(self):
        # independent sublists carry multiplicities 1; 2,2,1; 4,2,2
        X = VectorList(2, [(2, 0), (0, 2), (1, 1)])
        assert ehrhart_via_independent_sets(X) == UniPoly([1, 5, 8])

    def test_agrees_with_theorem_route(self, small_corpus):
        for X in small_corpus:
            assert ehrhart_via_independent_sets(X) == ehrhart_via_theorem(
                multiplicity_tutte(X)
            )

    def test_agrees_with_theorem_route_on_zero_vectors_and_big_entries(self):
        rng = random.Random(61)

        def entry(big):
            if big and rng.random() < 0.6:
                return rng.choice((1, -1)) * (10**20 + rng.randint(-3, 3))
            return rng.randint(-3, 3)

        checked = 0
        while checked < 30:
            n = rng.randint(1, 4)
            big = checked % 2 == 1
            vecs = [
                tuple(entry(big) for _ in range(n)) for _ in range(rng.randint(n, n + 4))
            ]
            for _ in range(rng.randint(1, 2)):
                vecs.insert(rng.randint(0, len(vecs)), (0,) * n)
            X = VectorList(n, vecs)
            if rank(X) < n:
                continue
            assert ehrhart_via_independent_sets(X) == ehrhart_via_theorem(
                multiplicity_tutte(X)
            )
            checked += 1


class TestAgainstMinorsReference:
    """The two Ehrhart routes against the per-sublist minors enumeration:
    the k-vector DP and E read off the whole M_X."""

    @staticmethod
    def check(X):
        expected = ehrhart_reference(X)
        assert ehrhart_via_independent_sets(X) == expected
        assert ehrhart_via_theorem(multiplicity_tutte(X)) == expected

    @settings(max_examples=100, deadline=None)
    @given(spanning_lists(entries=st.integers(-6, 6)))
    def test_random_lists(self, X):
        self.check(X)

    @settings(max_examples=50, deadline=None)
    @given(spanning_lists(entries=st.integers(-3, 3), max_size=7, max_dim=6, min_dim=5))
    def test_random_lists_in_dimension_five_and_six(self, X):
        self.check(X)

    def test_entries_up_to_ten_to_the_twenty(self):
        big = 10**20
        X = VectorList(
            4,
            [
                (big, 1, 0, -3),
                (0, 0, 0, 0),
                (-big, big - 1, 2, 0),
                (1, -1, big, 1),
                (big, 1, 0, -3),
                (0, 7, -big, big),
                (2, 0, 0, big + 1),
                (-1, -1, -1, -1),
            ],
        )
        self.check(X)


def braid_list(n):
    """Pi_n: the positive roots e_i - e_j (i < j) of A_(n-1) with the last
    coordinate dropped, a unimodular list spanning Z^(n-1)."""
    vectors = []
    for i in range(n):
        for j in range(i + 1, n):
            v = [0] * n
            v[i], v[j] = 1, -1
            vectors.append(tuple(v[:-1]))
    return VectorList(n - 1, vectors)


def root_list(kind, n):
    """D_n = {e_i - e_j, e_i + e_j : i < j}; B_n adds the e_i, C_n the 2e_i."""
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    vectors = [
        tuple(a + s * b for a, b in zip(unit[i], unit[j]))
        for i in range(n)
        for j in range(i + 1, n)
        for s in (-1, 1)
    ]
    extra = {"B": unit, "C": [tuple(2 * x for x in e) for e in unit], "D": []}[kind]
    return VectorList(n, vectors + extra)


# E(1) of Pi_n counts the forests of K_n (OEIS A001858) and its volume the
# spanning trees, n^(n-2) (Cayley); the root systems as in Ardila-
# Castillo-Henley, IMRN 2015.  From B_5 (25 vectors) on the lists pass the
# default cap, and their sums merge many lattices below full rank
KNOWN_ANSWERS = {
    **{
        f"Pi_{n}": (braid_list(n), points, n ** (n - 2))
        for n, points in zip(range(2, 9), (2, 7, 38, 291, 2932, 36961, 561948))
    },
    "D_4": (root_list("D", 4), 1001, 636),
    "B_4": (root_list("B", 4), 2304, 1553),
    "B_5": (root_list("B", 5), 51936, 36145),
    "C_5": (root_list("C", 5), 98067, 69976),
    "D_6": (root_list("D", 6), 674637, 470680),
}


@pytest.mark.parametrize("name", KNOWN_ANSWERS)
def test_known_answers(name):
    X, points, volume = KNOWN_ANSWERS[name]
    cap = len(X)
    M = multiplicity_tutte(X, max_list_size=cap)
    for E in (ehrhart_via_independent_sets(X, max_list_size=cap), ehrhart_via_theorem(M)):
        assert (E.evaluate(1), E.coefficient(X.dim)) == (points, volume)
    if name.startswith("Pi_"):
        # Pi_n is unimodular and graphic, so M is the Tutte polynomial of
        # K_n, read whole (its y-side too) off a closed form
        assert M.polynomial == BiPoly(tutte_complete_graph(X.dim + 1))


class TestInteriorPolynomial:
    def test_worked_example(self):
        assert interior_polynomial(UniPoly([1, 6, 11])) == UniPoly([1, -6, 11])

    def test_unit_square(self):
        assert interior_polynomial(UniPoly([1, 2, 1])) == UniPoly([1, -2, 1])

    def test_even_list(self):
        assert interior_polynomial(UniPoly([1, 5, 8])) == UniPoly([1, -5, 8])

    def test_odd_dimension_sign(self):
        # segment [0, 2q] has 2q - 1 interior points
        assert interior_polynomial(UniPoly([1, 2])) == UniPoly([-1, 2])


class TestScalarCorollaries:
    def test_worked_example(self):
        assert scalar_corollaries(multiplicity_tutte(WORKED)) == (18, 11, 6)

    def test_unit_square(self):
        assert scalar_corollaries(multiplicity_tutte(UNIT_SQUARE)) == (4, 1, 0)

    def test_even_list(self):
        X = VectorList(2, [(2, 0), (0, 2), (1, 1)])
        assert scalar_corollaries(multiplicity_tutte(X)) == (14, 8, 4)
        assert closed_open_counts(X, 1) == (14, 4)


class TestSummaryAndInvariants:
    def test_constant_term_and_volume(self, small_corpus):
        for X in small_corpus:
            M = multiplicity_tutte(X)
            E = ehrhart_via_theorem(M)
            assert E.coefficient(0) == 1
            assert E.degree == X.dim
            v = M.polynomial.evaluate(1, 1)
            assert E.coefficient(X.dim) == v

    def test_dilating_list_equals_dilating_polytope(self, small_corpus):
        for X in small_corpus[:10]:
            E = ehrhart_via_theorem(multiplicity_tutte(X))
            for q in (1, 2, 3):
                Eq = ehrhart_via_theorem(multiplicity_tutte(dilate_list(X, q)))
                assert Eq.evaluate(1) == E.evaluate(q)

    def test_counts_match_oracle(self, small_corpus):
        for X in small_corpus[:9]:
            M = multiplicity_tutte(X)
            E = ehrhart_via_theorem(M)
            I = interior_polynomial(E)
            for q in (1, 2):
                assert (E.evaluate(q), I.evaluate(q)) == closed_open_counts(X, q)
