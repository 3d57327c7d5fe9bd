import random
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonotutte import (
    BiPoly,
    CapExceeded,
    DimensionDeficient,
    TutteResult,
    VectorList,
    classical_tutte,
    dilate_list,
    dilation_identity_sides,
    expand_shifted_basis,
    multiplicity_tutte,
    rank,
)
from zonotutte import tutte_core
from zonotutte.exact_linalg import cyclic_key, hnf_insert
from zonotutte.tutte_core import _lattice_tables, _walk_order
from conftest import NEAR_1E20, random_unimodular_list, spanning_lists
from tutte_reference import reference_lattice_sum, reference_tutte_sums

WORKED = VectorList(2, [(3, 0), (0, 2), (1, 1)])
UNIT_SQUARE = VectorList(2, [(1, 0), (0, 1)])


class TestMultiplicityTutte:
    def test_worked_example(self):
        M = multiplicity_tutte(WORKED)
        assert M.polynomial == BiPoly({(2, 0): 1, (1, 0): 4, (0, 1): 1, (0, 0): 5})
        assert M.shifted_terms == {(2, 0): 1, (1, 0): 6, (0, 0): 11, (0, 1): 1}
        assert M.generators is WORKED
        assert M.generators.dim == 2
        assert not M.is_unimodular

    def test_result_is_a_tuple_record(self):
        # a namedtuple with no instance dict: it builds by keyword, as the
        # sum builds it, unpacks in field order and compares by value, and
        # cannot be hashed, since shifted_terms is a dict
        M = multiplicity_tutte(WORKED)
        assert not hasattr(M, "__dict__")
        built = TutteResult(
            polynomial=M.polynomial,
            shifted_terms=dict(M.shifted_terms),
            generators=WORKED,
            is_unimodular=False,
        )
        assert built == M
        assert tuple(built) == (M.polynomial, M.shifted_terms, WORKED, False)
        with pytest.raises(TypeError):
            hash(M)

    def test_unit_square(self):
        M = multiplicity_tutte(UNIT_SQUARE)
        assert M.polynomial == BiPoly({(2, 0): 1})
        assert M.is_unimodular

    def test_even_list(self):
        # multiplicities: singletons 2,2,1; pairs 4,2,2; triple gcd(4,2,2)=2
        M = multiplicity_tutte(VectorList(2, [(2, 0), (0, 2), (1, 1)]))
        assert M.polynomial == BiPoly({(2, 0): 1, (1, 0): 3, (0, 1): 2, (0, 0): 2})

    def test_circuit_and_scaled_basis_in_high_dimension(self):
        # I_11 plus (1, ..., 1) is the circuit U_{11,12}: unimodular, with
        # Tutte polynomial x^11 + ... + x + y.  Its lattices below full rank
        # are many, so this times the kernel's m(L) off a wide Hermite basis
        n = 11
        identity = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        M = multiplicity_tutte(VectorList(n, identity + [(1,) * n]))
        assert M.polynomial == BiPoly({**{(k, 0): 1 for k in range(1, n + 1)}, (0, 1): 1})
        assert M.is_unimodular
        # 2 I_10: ten coloops of multiplicity 2, so M = (x - 1 + 2)^10
        n = 10
        doubled = [tuple(2 * int(i == j) for j in range(n)) for i in range(n)]
        M = multiplicity_tutte(VectorList(n, doubled))
        assert M.polynomial == BiPoly({(k, 0): comb(n, k) for k in range(n + 1)})
        assert not M.is_unimodular

    def test_rank_deficient_rejected(self):
        with pytest.raises(DimensionDeficient):
            multiplicity_tutte(VectorList(2, [(1, 0), (2, 0)]))

    def test_enumeration_cap(self):
        with pytest.raises(CapExceeded):
            multiplicity_tutte(WORKED, max_list_size=2)

    def test_permutation_invariance(self, small_corpus):
        rng = random.Random(23)
        for X in small_corpus[:10]:
            perm = list(X.vectors)
            rng.shuffle(perm)
            assert (
                multiplicity_tutte(VectorList(X.dim, perm)).polynomial
                == multiplicity_tutte(X).polynomial
            )

    def test_shifted_coefficients_nonnegative_and_degree_bounds(self, small_corpus):
        for X in small_corpus:
            M = multiplicity_tutte(X)
            assert all(c > 0 for c in M.shifted_terms.values())
            assert M.polynomial.degree_x <= X.dim
            # y-degree of the defining sum is at most |X| - rank(X)
            assert max(j for (_, j), _ in M.polynomial.sorted_terms()) <= len(X) - X.dim

    def test_specializations_are_nonnegative_integers(self, small_corpus):
        for X in small_corpus:
            M = multiplicity_tutte(X)
            for point in ((1, 1), (2, 1), (0, 1)):
                v = M.polynomial.evaluate(*point)
                assert v.denominator == 1 and v >= 0

    def test_zero_vector_multiplies_by_y(self, small_corpus):
        for X in small_corpus[:8]:
            padded = VectorList(X.dim, list(X.vectors) + [(0,) * X.dim])
            lhs = multiplicity_tutte(padded).polynomial
            rhs = BiPoly(
                {(i, j + 1): c for (i, j), c in multiplicity_tutte(X).polynomial.sorted_terms()}
            )
            assert lhs == rhs


class TestClassicalTutte:
    def test_unit_square_matches_weighted(self):
        assert classical_tutte(UNIT_SQUARE).polynomial == BiPoly({(2, 0): 1})

    def test_worked_example_with_unit_weights(self):
        T = classical_tutte(WORKED)
        assert T.polynomial == BiPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})  # x^2 + x + y

    def test_unimodular_triangle_list(self):
        X = VectorList(2, [(1, 0), (0, 1), (1, 1)])
        T = classical_tutte(X)
        M = multiplicity_tutte(X)
        assert T.polynomial == BiPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})
        assert T.polynomial == M.polynomial
        assert M.is_unimodular

    def test_equals_weighted_on_random_unimodular_lists(self):
        rng = random.Random(29)
        for _ in range(20):
            X = random_unimodular_list(rng, rng.randint(1, 3))
            M = multiplicity_tutte(X)
            T = classical_tutte(X)
            assert M.polynomial == T.polynomial
            assert M.shifted_terms == T.shifted_terms
            assert M.is_unimodular


class TestDilateList:
    def test_identity(self):
        assert dilate_list(WORKED, 1) == WORKED

    def test_componentwise_scaling(self):
        assert dilate_list(WORKED, 2) == VectorList(2, [(6, 0), (0, 4), (2, 2)])

    def test_single_vector(self):
        assert dilate_list(VectorList(2, [(1, 1)]), 3) == VectorList(2, [(3, 3)])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dilate_list(WORKED, 0)


class TestDilationIdentity:
    def test_worked_example(self):
        lhs, rhs = dilation_identity_sides(multiplicity_tutte(WORKED), 2)
        assert lhs == rhs

    def test_q_one_is_trivially_true(self, small_corpus):
        for X in small_corpus[:6]:
            M = multiplicity_tutte(X)
            lhs, rhs = dilation_identity_sides(M, 1)
            assert lhs == rhs
            assert lhs is M.polynomial

    def test_unit_square_tripled(self):
        lhs, rhs = dilation_identity_sides(multiplicity_tutte(UNIT_SQUARE), 3)
        assert lhs == rhs == BiPoly({(2, 0): 1, (1, 0): 4, (0, 0): 4})  # (x+2)^2

    def test_random_corpus(self, small_corpus):
        for X in small_corpus[:10]:
            M = multiplicity_tutte(X)
            for q in (2, 3, 5):
                lhs, rhs = dilation_identity_sides(M, q)
                assert lhs == rhs

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            dilation_identity_sides(multiplicity_tutte(WORKED), 0)


class TestAgainstSublistEnumeration:
    """The lattice DP against the per-sublist determinantal-divisor reference."""

    @staticmethod
    def check(X):
        weighted, classical, unimodular = reference_tutte_sums(X)
        M = multiplicity_tutte(X)
        T = classical_tutte(X)
        assert M.shifted_terms == weighted
        assert T.shifted_terms == classical
        assert M.polynomial == expand_shifted_basis(weighted)
        assert T.polynomial == expand_shifted_basis(classical)
        assert M.is_unimodular == T.is_unimodular == unimodular

    @settings(max_examples=100, deadline=None)
    @given(spanning_lists())
    def test_random_lists(self, X):
        self.check(X)

    @settings(max_examples=10, deadline=None)
    @given(spanning_lists(entries=NEAR_1E20, max_size=6))
    def test_entries_near_1e20(self, X):
        self.check(X)

    def test_worked_and_unimodular_examples(self):
        rng = random.Random(31)
        for X in [WORKED, UNIT_SQUARE] + [random_unimodular_list(rng, n) for n in (1, 2, 3, 4)]:
            self.check(X)


class TestLastStep:
    """The sum stores no lattice for the last vector it walks.  Lists on
    which that step is also the first, or meets a repeated vector or one
    in the span of the others, against the sublist enumeration."""

    check = staticmethod(TestAgainstSublistEnumeration.check)

    def test_one_vector_in_z1(self):
        for a in (1, -1, 2, -7, 10**20 + 1):
            self.check(VectorList(1, [(a,)]))

    def test_zero_vectors_in_z0(self):
        # the empty list is the one list with no last vector
        for k in range(4):
            self.check(VectorList(0, [()] * k))

    @settings(max_examples=80, deadline=None)
    @given(spanning_lists(entries=st.integers(-4, 4), max_size=6, max_dim=3), st.data())
    def test_last_vector_repeats_or_lies_in_the_span(self, X, data):
        # X spans, so a vector appended with a nonzero last coordinate is
        # walked last and lies in the rational span of the others: a repeat,
        # an integer combination, or the primitive vector on such a line
        n = X.dim
        u = data.draw(st.sampled_from([v for v in X.vectors if v[-1]]))
        kind = data.draw(st.sampled_from(["repeat", "combination", "primitive"]))
        if kind != "repeat":
            coefficients = data.draw(
                st.lists(st.integers(-2, 2), min_size=len(X), max_size=len(X))
            )
            u = tuple(u[i] + sum(a * v[i] for a, v in zip(coefficients, X)) for i in range(n))
            assume(u[-1])
            if kind == "primitive":
                g = gcd(*u)
                u = tuple(x // g for x in u)
        Y = VectorList(n, [*X, u])
        assert _walk_order(Y)[-1] == u
        self.check(Y)

    @pytest.mark.parametrize(
        "vectors, terms",
        [
            # the state (0, 2) has rank n - 1 and the last vector (0, 1) lies
            # in its span but not in it
            ([(1, 0), (0, 2), (0, 1)], {(2, 0): 1, (1, 1): 1, (1, 0): 1}),
            # the state (0, 1) has rank n - 1 and the last vector lies in it
            ([(1, 0), (0, 1), (0, 1)], {(2, 0): 1, (1, 1): 1}),
        ],
    )
    def test_rank_n_minus_1_state_whose_span_holds_the_last_vector(self, vectors, terms):
        X = VectorList(2, vectors)
        assert _walk_order(X)[-1] == (0, 1)
        self.check(X)
        assert multiplicity_tutte(X).polynomial == BiPoly(terms)


@st.composite
def long_lists(draw):
    """Full-rank lists too long for the sublist enumeration: n in 1..5, 8
    to 14 vectors with zero and repeated ones, entries in [-5, 5] or near
    10^20; one in two is dilated by q in 2..4."""
    entries = draw(st.sampled_from([st.integers(-5, 5), NEAR_1E20]))
    X = draw(spanning_lists(entries=entries, min_size=8, max_size=14, max_dim=5))
    q = draw(st.sampled_from([1, 1, 1, 2, 3, 4]))
    return dilate_list(X, q) if q > 1 else X


@settings(max_examples=50, deadline=None)
@given(long_lists())
def test_one_table_matches_the_single_table_reference(X):
    # the states, keyed by (m, c) where the lattice is cyclic and by its
    # Hermite basis otherwise, are the reference's lattices, each once,
    # with the same counts and weights; in Z^2 and up, every full-rank
    # lattice of 2X and 3X has n pivots != 1 and keeps its Hermite key
    for Y in (X, dilate_list(X, 2), dilate_list(X, 3)):
        for result, weighted in ((multiplicity_tutte(Y), True), (classical_tutte(Y), False)):
            shifted, unimodular, count = reference_lattice_sum(Y, weighted)
            assert result.shifted_terms == shifted
            assert result.is_unimodular == unimodular
        states = _lattice_tables(Y, _walk_order(Y), {})
        assert len(states) == count
        for L in states:
            if L and not isinstance(L[0], int) and len(L) == Y.dim:
                assert cyclic_key(L) is None


# the worked list, Pi_4, and the first list in Z^4 of the tutte-small
# benchmark pool at seed 1 (bench/workloads.py), with how many states of
# the tables the sum keeps before its last vector are keyed by a Hermite
# basis and how many by a cyclic (m, c) key, how many hyperplane normals
# the walk takes and how many Hermite inserts it makes
KEY_MIX = [
    (WORKED, 3, 1, 0, 3),
    (
        VectorList(3, [(1, -1, 0), (1, 0, -1), (1, 0, 0), (0, 1, -1), (0, 1, 0), (0, 0, 1)]),
        12,
        1,
        4,
        15,
    ),
    (
        VectorList(
            4,
            [
                (4, 0, -1, -5), (-4, -2, -2, 0), (-4, 0, 2, -1), (-4, 1, 4, -4),
                (-3, 4, -2, -4), (-4, -1, 1, -3), (5, -1, 2, 4), (-4, -1, 1, 1),
                (-4, 5, 4, 1), (0, -1, 4, 1), (5, 0, 5, -1), (-1, -2, -1, 4),
            ],
        ),
        266,
        350,
        78,
        473,
    ),
]


@pytest.mark.parametrize("X, hermite, cyclic, normals, inserts", KEY_MIX)
def test_the_tables_key_every_cyclic_quotient_by_its_character(
    X, hermite, cyclic, normals, inserts, monkeypatch
):
    # reports stay the same whichever key a lattice gets, so the mix is
    # pinned here: a change that stops keying some cyclic quotients by
    # (m, c), or a saturated rank-(n - 1) state from its normal, moves
    # these counts
    calls = []

    def counted(L, v):
        calls.append(L)
        return hnf_insert(L, v)

    monkeypatch.setattr(tutte_core, "hnf_insert", counted)
    taken = {}
    states = _lattice_tables(X, _walk_order(X)[:-1], taken)
    keys = [isinstance(L[0], int) for L in states if L]
    assert (len(states) - sum(keys), sum(keys)) == (hermite, cyclic)
    assert (len(taken), len(calls)) == (normals, inserts)


@st.composite
def unimodular_matrices(draw, n):
    """Integer n x n matrices of determinant +-1: row negations and row
    additions applied to the identity."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    for a, b, k in draw(st.lists(ops, max_size=3 * n)):
        if a == b:
            U[a] = [-x for x in U[a]]
        else:
            U[a] = [x + k * y for x, y in zip(U[a], U[b])]
    return U


SMALL_LISTS = spanning_lists(entries=st.integers(-3, 3), max_size=7, max_dim=3)


class TestStructuralProperties:
    @settings(max_examples=100, deadline=None)
    @given(SMALL_LISTS, st.data())
    def test_invariant_under_unimodular_maps(self, X, data):
        U = data.draw(unimodular_matrices(X.dim))
        image = VectorList(
            X.dim, [tuple(sum(u * x for u, x in zip(row, v)) for row in U) for v in X.vectors]
        )
        assert multiplicity_tutte(image).polynomial == multiplicity_tutte(X).polynomial

    @settings(max_examples=100, deadline=None)
    @given(SMALL_LISTS)
    def test_monomial_coefficients_nonnegative(self, X):
        # D'Adderio-Moci, Adv. Math. 2013: the arithmetic Tutte polynomial
        # of a list has nonnegative coefficients
        assert all(c >= 0 for _, c in multiplicity_tutte(X).polynomial.sorted_terms())
