import math
import random
from itertools import combinations

import pytest

from zonotutte import (
    IntMatrix,
    RankDeficient,
    VectorList,
    determinant,
    gcd_maximal_minors,
    multiplicity,
    rank,
    smith_normal_form,
)
from zonotutte.exact_linalg import hnf_insert, lattice_multiplicity


def columns(vectors, dim):
    return IntMatrix.from_columns(vectors, dim)


class TestRank:
    def test_empty_list_spans_nothing(self):
        assert rank(columns([], 2)) == 0

    def test_worked_example_is_full_rank(self):
        assert rank(columns([(3, 0), (0, 2), (1, 1)], 2)) == 2

    def test_parallel_columns(self):
        # second column is half the first
        assert rank(columns([(2, 4), (1, 2)], 2)) == 1

    def test_zero_matrix(self):
        assert rank(columns([(0, 0), (0, 0)], 2)) == 0

    def test_monotone_under_inclusion(self, small_corpus):
        for X in small_corpus:
            prev = 0
            for size in range(len(X) + 1):
                r = rank(columns(X.vectors[:size], X.dim))
                assert prev <= r <= min(size, X.dim)
                prev = r


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form(columns([(1, 0), (0, 1)], 2))
        assert snf.invariant_factors == (1, 1)
        assert snf.rank == 2

    def test_diagonal(self):
        snf = smith_normal_form(columns([(2, 0), (0, 2)], 2))
        assert snf.invariant_factors == (2, 2)

    def test_single_column_is_gcd(self):
        snf = smith_normal_form(columns([(3, 0)], 2))
        assert snf.invariant_factors == (3,)

    def test_zero_and_empty(self):
        assert smith_normal_form(columns([(0, 0)], 2)).invariant_factors == ()
        assert smith_normal_form(columns([], 3)).rank == 0

    def test_divisibility_chain_and_rank(self, small_corpus):
        for X in small_corpus:
            snf = smith_normal_form(X.column_matrix())
            assert snf.rank == rank(X.column_matrix())
            assert all(d >= 1 for d in snf.invariant_factors)
            for a, b in zip(snf.invariant_factors, snf.invariant_factors[1:]):
                assert b % a == 0

    def test_matches_determinantal_divisors(self):
        # independent oracle: the k-th invariant factor is the gcd of all
        # k x k minors divided by the gcd of all (k-1) x (k-1) minors
        rng = random.Random(5)

        def minors_gcd(vecs, n, k):
            g = 0
            for row_idx in combinations(range(n), k):
                for col_idx in combinations(range(len(vecs)), k):
                    sub = IntMatrix.from_rows(
                        [[vecs[c][r] for c in col_idx] for r in row_idx]
                    )
                    g = math.gcd(g, abs(determinant(sub)))
            return g

        for _ in range(30):
            n = rng.randint(1, 3)
            size = rng.randint(1, 4)
            vecs = [tuple(rng.randint(-7, 7) for _ in range(n)) for _ in range(size)]
            snf = smith_normal_form(columns(vecs, n))
            expected = []
            prev = 1
            for k in range(1, min(n, size) + 1):
                g = minors_gcd(vecs, n, k)
                if g == 0:
                    break
                expected.append(g // prev)
                prev = g
            assert list(snf.invariant_factors) == expected

    def test_invariance_under_permutation_and_negation(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 4)
            k = rng.randint(1, 5)
            vecs = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(k)]
            base = smith_normal_form(columns(vecs, n)).invariant_factors

            shuffled = vecs[:]
            rng.shuffle(shuffled)
            assert smith_normal_form(columns(shuffled, n)).invariant_factors == base

            j = rng.randrange(k)
            negated = [tuple(-x for x in v) if i == j else v for i, v in enumerate(vecs)]
            assert smith_normal_form(columns(negated, n)).invariant_factors == base

            perm = list(range(n))
            rng.shuffle(perm)
            rows_permuted = [tuple(v[p] for p in perm) for v in vecs]
            assert smith_normal_form(columns(rows_permuted, n)).invariant_factors == base


class TestMultiplicity:
    def test_empty_sublist(self):
        assert multiplicity(VectorList(2, [])) == 1

    def test_zero_vectors_only(self):
        assert multiplicity(VectorList(2, [(0, 0), (0, 0)])) == 1

    def test_singletons_from_worked_example(self):
        assert multiplicity(VectorList(2, [(3, 0)])) == 3
        assert multiplicity(VectorList(2, [(0, 2)])) == 2
        assert multiplicity(VectorList(2, [(1, 1)])) == 1

    def test_full_worked_example(self):
        assert multiplicity(VectorList(2, [(3, 0), (0, 2), (1, 1)])) == 1

    def test_dilation_scaling(self, small_corpus):
        # multiplicity of qA scales by q^rank(A)
        for X in small_corpus[:12]:
            for mask in range(1 << len(X)):
                idxs = [b for b in range(len(X)) if mask >> b & 1]
                A = X.sublist(idxs)
                r = rank(A.column_matrix())
                m = multiplicity(A)
                for q in (1, 2, 3):
                    qA = VectorList(A.dim, [tuple(q * x for x in v) for v in A])
                    assert multiplicity(qA) == q**r * m


class TestGcdMaximalMinors:
    def test_worked_example(self):
        assert gcd_maximal_minors(VectorList(2, [(3, 0), (0, 2), (1, 1)])) == 1

    def test_unimodular_basis(self):
        assert gcd_maximal_minors(VectorList(2, [(1, 0), (0, 1)])) == 1

    def test_even_list(self):
        assert gcd_maximal_minors(VectorList(2, [(2, 0), (0, 2), (1, 1)])) == 2

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            gcd_maximal_minors(VectorList(2, [(1, 0), (2, 0)]))

    def test_agrees_with_multiplicity(self, small_corpus):
        for X in small_corpus:
            n = X.dim
            for mask in range(1 << len(X)):
                idxs = [b for b in range(len(X)) if mask >> b & 1]
                A = X.sublist(idxs)
                if rank(A.column_matrix()) == n:
                    assert gcd_maximal_minors(A) == multiplicity(A)


class TestDeterminant:
    def test_known_minors(self):
        assert determinant(columns([(3, 0), (0, 2)], 2)) == 6
        assert determinant(columns([(3, 0), (1, 1)], 2)) == 3
        assert determinant(columns([(0, 2), (1, 1)], 2)) == -2

    def test_matches_cofactor_expansion(self):
        rng = random.Random(3)

        def cofactor_det(m):
            if len(m) == 1:
                return m[0][0]
            total = 0
            for j in range(len(m)):
                minor = [row[:j] + row[j + 1 :] for row in m[1:]]
                total += (-1) ** j * m[0][j] * cofactor_det(minor)
            return total

        for _ in range(30):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert determinant(IntMatrix.from_rows(rows)) == cofactor_det(rows)

    def test_big_entries_stay_exact(self):
        big = 10**30
        m = IntMatrix.from_rows([[big, 1], [1, big]])
        assert determinant(m) == big * big - 1


def hnf_of(vectors):
    basis = ()
    for v in vectors:
        basis = hnf_insert(basis, v)
    return basis


def random_generators(rng, n, bound):
    k = rng.randint(0, n + 2)
    return [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(k)]


def change_generators(rng, vectors):
    """Generators of the same lattice: elementary unimodular operations on
    the list (add an integer multiple of one vector to another, negate,
    swap), plus an integer combination appended."""
    vecs = [list(v) for v in vectors]
    for _ in range(3 * len(vecs)):
        i, j = rng.randrange(len(vecs)), rng.randrange(len(vecs))
        op = rng.randrange(3)
        if op == 0 and i != j:
            c = rng.randint(-3, 3)
            vecs[i] = [a + c * b for a, b in zip(vecs[i], vecs[j])]
        elif op == 1:
            vecs[i] = [-a for a in vecs[i]]
        else:
            vecs[i], vecs[j] = vecs[j], vecs[i]
    coeffs = [rng.randint(-2, 2) for _ in vecs]
    vecs.append([sum(c * v[t] for c, v in zip(coeffs, vecs)) for t in range(len(vecs[0]))])
    return [tuple(v) for v in vecs]


class TestHermiteKernel:
    BOUNDS = (1, 5, 1000, 10**20)

    def corpus(self, seed, count=60):
        rng = random.Random(seed)
        for t in range(count):
            n = rng.randint(1, 4)
            yield rng, n, random_generators(rng, n, self.BOUNDS[t % 4])

    def test_canonical_form(self):
        for _, n, vecs in self.corpus(41):
            basis = hnf_of(vecs)
            assert len(basis) == rank(columns(vecs, n))
            leading = [next(j for j, x in enumerate(row) if x) for row in basis]
            assert leading == sorted(set(leading))
            for k, (row, p) in enumerate(zip(basis, leading)):
                assert row[p] > 0
                for above in basis[:k]:
                    assert 0 <= above[p] < row[p]

    def test_key_ignores_order_and_choice_of_generators(self):
        for rng, n, vecs in self.corpus(43):
            if not vecs:
                continue
            key = hnf_of(vecs)
            shuffled = vecs[:]
            rng.shuffle(shuffled)
            assert hnf_of(shuffled) == key
            assert hnf_of(change_generators(rng, vecs)) == key
            assert hnf_of(vecs + [(0,) * n] + vecs[:1]) == key

    def test_key_distinguishes_lattices(self):
        assert hnf_of([(2, 0), (0, 1)]) != hnf_of([(1, 0), (0, 1)])
        assert hnf_of([(1, 1)]) != hnf_of([(1, -1)])
        assert hnf_of([(3, 0), (0, 2), (1, 1)]) == ((1, 0), (0, 1))

    def test_multiplicity_matches_smith_normal_forms(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        for _, n, vecs in self.corpus(47):
            m = lattice_multiplicity(hnf_of(vecs))
            assert m == multiplicity(VectorList(n, vecs))
            if vecs:
                matrix = sympy.Matrix(columns(vecs, n).to_rows())
                factors = invariant_factors(matrix, domain=sympy.ZZ)
                assert m == math.prod(abs(int(d)) for d in factors if d)

    def test_multiplicity_at_full_rank_is_gcd_of_maximal_minors(self):
        for _, n, vecs in self.corpus(53):
            X = VectorList(n, vecs)
            if rank(X.column_matrix()) == n:
                assert lattice_multiplicity(hnf_of(vecs)) == gcd_maximal_minors(X)

    def test_zero_lattice(self):
        assert hnf_of([]) == hnf_of([(0, 0, 0)]) == ()
        assert lattice_multiplicity(()) == 1
