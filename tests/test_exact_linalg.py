import math
import random

import pytest

from zonotutte import IntMatrix, VectorList, multiplicity, rank
from zonotutte.exact_linalg import _step, lattice_multiplicity, span
from tutte_reference import minor_gcd, rank_and_multiplicity


def sympy_matrix(sympy, vectors, dim):
    """The dim x len(vectors) matrix whose columns are vectors."""
    return sympy.Matrix(dim, len(vectors), lambda i, j: vectors[j][i])


BOUNDS = (1, 5, 1000, 10**20)


def random_generators(rng, n, bound):
    k = rng.randint(0, n + 2)
    return [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(k)]


def corpus(seed, count=60):
    """(rng, n, vectors) with n in 1..7, up to n + 2 vectors, entry bounds
    cycling through BOUNDS."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(1, 7)
        yield rng, n, random_generators(rng, n, BOUNDS[t % len(BOUNDS)])


class TestRecords:
    def test_vector_lists_are_values(self):
        X = VectorList(2, [(3, 0), [0, 2], (1, 1)])
        same = VectorList(2, [[3, 0], (0, 2), (1, 1)])
        assert X == same and hash(X) == hash(same)
        assert len({X, same}) == 1
        assert X != VectorList(2, [(0, 2), (3, 0), (1, 1)])  # order counts
        assert X != VectorList(3, [])
        assert X != X.vectors
        assert repr(X) == "VectorList(dim=2, vectors=((3, 0), (0, 2), (1, 1)))"

    def test_int_matrix_checks_its_entries(self):
        M = IntMatrix.from_columns([(1, 2), (3, 4), (5, 6)], 2)
        assert (M.rows, M.cols, M.entries) == (2, 3, (1, 3, 5, 2, 4, 6))
        with pytest.raises(ValueError, match="expected 4 entries, got 3"):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            IntMatrix(-1, 0, ())
        with pytest.raises(TypeError):
            IntMatrix(1, 2, (1, True))
        with pytest.raises(TypeError):
            VectorList(1, [(False,)])


class TestRank:
    def test_empty_list_spans_nothing(self):
        assert rank(VectorList(2, [])) == 0

    def test_worked_example_is_full_rank(self):
        assert rank(VectorList(2, [(3, 0), (0, 2), (1, 1)])) == 2

    def test_parallel_columns(self):
        # second vector is half the first
        assert rank(VectorList(2, [(2, 4), (1, 2)])) == 1

    def test_zero_matrix(self):
        assert rank(VectorList(2, [(0, 0), (0, 0)])) == 0

    def test_monotone_under_inclusion(self, small_corpus):
        for X in small_corpus:
            prev = 0
            for size in range(len(X) + 1):
                r = rank(VectorList(X.dim, X.vectors[:size]))
                assert prev <= r <= min(size, X.dim)
                prev = r

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for _, n, vecs in corpus(37, count=80):
            assert rank(VectorList(n, vecs)) == sympy_matrix(sympy, vecs, n).rank()


class TestMinorGcd:
    def test_small_cases(self):
        assert minor_gcd([], 3, 0) == 1
        assert minor_gcd([(0, 0)], 2, 0) == 1
        assert minor_gcd([(0, 0)], 2, 1) == 0
        assert minor_gcd([(6, 4)], 2, 1) == 2
        assert minor_gcd([(3, 0), (0, 2), (1, 1)], 2, 2) == 1
        assert minor_gcd([(2, 0), (0, 2)], 2, 2) == 4
        # more columns than k picks k of them; k above the count gives 0
        assert minor_gcd([(1, 0)], 2, 2) == 0

    def test_matches_determinantal_divisors(self):
        # independent oracle: the gcd of the k x k minors is the product of
        # the first k invariant factors, and 0 beyond the rank
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        for _, n, vecs in corpus(5, count=80):
            if not vecs:
                continue
            matrix = sympy_matrix(sympy, vecs, n)
            factors = [abs(int(d)) for d in invariant_factors(matrix, domain=sympy.ZZ) if d]
            for k in range(min(n, len(vecs)) + 1):
                expected = math.prod(factors[:k]) if k <= len(factors) else 0
                assert minor_gcd(vecs, n, k) == expected

    def test_zero_exactly_below_rank(self):
        sympy = pytest.importorskip("sympy")
        for _, n, vecs in corpus(11):
            r = sympy_matrix(sympy, vecs, n).rank()
            for k in range(min(n, len(vecs)) + 1):
                assert (minor_gcd(vecs, n, k) == 0) == (k > r)

    def test_invariance_under_permutation_and_negation(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 4)
            size = rng.randint(1, 5)
            vecs = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(size)]
            for k in range(min(n, size) + 1):
                base = minor_gcd(vecs, n, k)

                shuffled = vecs[:]
                rng.shuffle(shuffled)
                assert minor_gcd(shuffled, n, k) == base

                j = rng.randrange(size)
                negated = [tuple(-x for x in v) if i == j else v for i, v in enumerate(vecs)]
                assert minor_gcd(negated, n, k) == base

                perm = list(range(n))
                rng.shuffle(perm)
                rows_permuted = [tuple(v[p] for p in perm) for v in vecs]
                assert minor_gcd(rows_permuted, n, k) == base


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
                r = rank(A)
                m = multiplicity(A)
                for q in (1, 2, 3):
                    qA = VectorList(A.dim, [tuple(q * x for x in v) for v in A])
                    assert multiplicity(qA) == q**r * m


class TestGcdMaximalMinors:
    def test_worked_example(self):
        assert minor_gcd([(3, 0), (0, 2), (1, 1)], 2, 2) == 1

    def test_unimodular_basis(self):
        assert minor_gcd([(1, 0), (0, 1)], 2, 2) == 1

    def test_even_list(self):
        assert minor_gcd([(2, 0), (0, 2), (1, 1)], 2, 2) == 2

    def test_agrees_with_multiplicity(self, small_corpus):
        for X in small_corpus:
            n = X.dim
            for mask in range(1 << len(X)):
                idxs = [b for b in range(len(X)) if mask >> b & 1]
                A = X.sublist(idxs)
                if rank(A) == n:
                    assert minor_gcd(A.vectors, n, n) == multiplicity(A)


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
    def test_canonical_form(self):
        for _, n, vecs in corpus(41):
            basis = span(vecs)
            assert len(basis) == rank_and_multiplicity(vecs, n)[0]
            leading = [next(j for j, x in enumerate(row) if x) for row in basis]
            assert leading == sorted(set(leading))
            for k, (row, p) in enumerate(zip(basis, leading)):
                assert row[p] > 0
                for above in basis[:k]:
                    assert 0 <= above[p] < row[p]

    def test_key_ignores_order_and_choice_of_generators(self):
        for rng, n, vecs in corpus(43):
            if not vecs:
                continue
            key = span(vecs)
            shuffled = vecs[:]
            rng.shuffle(shuffled)
            assert span(shuffled) == key
            assert span(change_generators(rng, vecs)) == key
            assert span(vecs + [(0,) * n] + vecs[:1]) == key

    def test_key_distinguishes_lattices(self):
        assert span([(2, 0), (0, 1)]) != span([(1, 0), (0, 1)])
        assert span([(1, 1)]) != span([(1, -1)])
        assert span([(3, 0), (0, 2), (1, 1)]) == ((1, 0), (0, 1))

    def test_multiplicity_matches_smith_normal_forms(self):
        # the kernel against the generators' own minors and against the
        # invariant factors of sympy's Smith normal form
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        for _, n, vecs in corpus(47):
            m = lattice_multiplicity(span(vecs))
            assert m == rank_and_multiplicity(vecs, n)[1]
            if vecs:
                factors = invariant_factors(sympy_matrix(sympy, vecs, n), domain=sympy.ZZ)
                assert m == math.prod(abs(int(d)) for d in factors if d)

    def test_multiplicity_at_full_rank_is_gcd_of_maximal_minors(self):
        for _, n, vecs in corpus(53):
            if minor_gcd(vecs, n, n):
                assert lattice_multiplicity(span(vecs)) == minor_gcd(vecs, n, n)

    def test_multiplicity_below_full_rank(self):
        # rank 1 is the gcd of the row; below that, the column steps fold
        # non-pivot columns, of either sign, into the pivot columns
        assert lattice_multiplicity(span([(2, 4, -6)])) == 2
        assert lattice_multiplicity(span([(2, 0, 0), (0, 3, 0)])) == 6
        assert lattice_multiplicity(span([(1, 1, 0), (1, -1, 0)])) == 2
        assert lattice_multiplicity(span([(2, 0, 1), (0, 2, 1)])) == 2
        assert lattice_multiplicity(span([(2, 0, -3), (0, 3, -5)])) == 1
        assert lattice_multiplicity(span([(2, 0, -3, 0), (0, 2, -3, 4)])) == 2

    def test_unimodular_step(self):
        # on pairs (a, x), (b, y) the step leaves gcd(a, b) and 0 in front
        # and keeps the determinant, so it spans the same lattice
        rng = random.Random(59)
        pairs = [(1, 1), (4, 2), (2, 4), (6, -9), (3, -3), (10**20, -(10**20) - 1)]
        for k in (1, 3, 20):
            pairs += [(rng.randint(1, 10**k), rng.randint(-(10**k), 10**k) or 1) for _ in range(20)]
        for a, b in pairs:
            x, y = rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6)
            (g, u), (zero, w) = _step([a, x], [b, y], 0)
            assert (g, zero) == (math.gcd(a, b), 0)
            assert g * w - zero * u == a * y - b * x

    def test_zero_lattice(self):
        assert span([]) == span([(0, 0, 0)]) == ()
        assert lattice_multiplicity(()) == 1
