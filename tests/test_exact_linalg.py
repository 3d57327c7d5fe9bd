import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonotutte import IntMatrix, VectorList, multiplicity, rank
from zonotutte.exact_linalg import (
    _step,
    character_key,
    cyclic_insert,
    cyclic_key,
    hnf_insert,
    hyperplane_normal,
    insert_multiplicity,
    lattice_multiplicity,
    span,
)
from conftest import NEAR_1E20
from tutte_reference import minor_gcd, rank_and_multiplicity, reference_hnf_insert, signed_minors


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

    def test_vector_list_dim_is_a_nonnegative_int(self):
        # a bool dim would run as 0 or 1, and a float one fail inside every
        # sum; both are refused where the list is built, before any entry
        # is read, by a message that names the dimension
        for dim, vectors in ((True, [(1,)]), (2.0, []), ("2", []), (2.0, [(1.5, 0)])):
            with pytest.raises(TypeError) as error:
                VectorList(dim, vectors)
            assert str(error.value) == f"ambient dimension must be an integer, got {dim!r}"
        with pytest.raises(ValueError, match="nonnegative"):
            VectorList(-1, [])
        assert VectorList(0, [()]).dim == 0

    def test_int_matrix_checks_its_entries(self):
        M = IntMatrix.from_columns([(1, 2), (3, 4), (5, 6)], 2)
        assert (M.rows, M.cols, M.entries) == (2, 3, (1, 3, 5, 2, 4, 6))
        # zero sizes are allowed, with no entries
        for M, size in (
            (IntMatrix(0, 0, ()), (0, 0)),
            (IntMatrix(0, 3, ()), (0, 3)),
            (IntMatrix.from_columns([], 2), (2, 0)),
        ):
            assert (M.rows, M.cols, M.entries) == (*size, ())
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

    def test_matches_determinantal_divisors(self):
        # rank stops inserting at full rank; the reference reads r off the
        # minors of every vector, on lists of full rank, below it and in Z^0
        rng = random.Random(41)
        for t in range(120):
            n = rng.randint(0, 4)
            k = rng.randint(0, 6)
            if t % 3:
                vecs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
            else:
                # every vector in a random line or plane: rank-deficient for n > 2
                gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(min(n, 2) - 1)]
                vecs = [
                    tuple(sum(rng.randint(-2, 2) * g[i] for g in gens) for i in range(n))
                    for _ in range(k)
                ]
            assert rank(VectorList(n, vecs)) == rank_and_multiplicity(vecs, n)[0]


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


@st.composite
def insert_chains(draw):
    """(n, start, chain): a canonical basis in Z^n, full rank or not, and
    vectors to insert into it one by one.  A chain vector is a fresh one,
    zero, a repeat of an earlier vector, or the sum of two earlier ones."""
    n = draw(st.integers(1, 6))
    entries = draw(st.sampled_from([NEAR_1E20, st.integers(-5, 5)]))
    vector = st.tuples(*[entries] * n)
    seen = draw(st.lists(vector, max_size=n))
    if draw(st.booleans()):
        # a nonzero diagonal makes the start full rank
        diagonal = draw(st.lists(entries.filter(bool), min_size=n, max_size=n))
        seen += [tuple(d * (i == j) for j in range(n)) for i, d in enumerate(diagonal)]
    start = ()
    for v in seen:
        start = reference_hnf_insert(start, v)
    chain = []
    for _ in range(draw(st.integers(1, n + 3))):
        kind = draw(st.integers(0, 3)) if seen else 0
        if kind == 0:
            v = draw(vector)
        elif kind == 1:
            v = (0,) * n
        elif kind == 2:
            v = draw(st.sampled_from(seen))
        else:
            u, w = draw(st.sampled_from(seen)), draw(st.sampled_from(seen))
            v = tuple(a + b for a, b in zip(u, w))
        seen.append(v)
        chain.append(v)
    return n, start, chain


@settings(max_examples=300, deadline=None)
@given(insert_chains())
def test_insert_chains_match_the_reference_kernel(case):
    # the kernel's fast paths give the reference's keys, and hand back the
    # basis itself exactly when the reference does; m(L) is the gcd of the
    # r x r minors of the key's rows at every rank reached
    n, key, chain = case
    for v in chain:
        new = hnf_insert(key, v)
        old = reference_hnf_insert(key, v)
        assert new == old
        assert (new is key) == (old is key)
        key = new
        r = len(key)
        assert lattice_multiplicity(key) == (minor_gcd(key, n, r) if r else 1)


@st.composite
def full_rank_spans(draw):
    """(n, basis): the canonical basis of a full-rank lattice in Z^n, n in
    1..6.  Either the span of n or n + 1 random vectors, when that span
    has full rank, or, for n >= 2, an upper triangular basis with two
    coprime pivots != 1 and random entries above the diagonal, whose
    quotient is cyclic."""
    n = draw(st.integers(1, 6))
    entries = draw(st.sampled_from([NEAR_1E20, st.integers(-5, 5)]))
    if n == 1 or draw(st.booleans()):
        basis = span(draw(st.lists(st.tuples(*[entries] * n), min_size=n, max_size=n + 1)))
        assume(len(basis) == n)
        return n, basis
    i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    a = draw(st.sampled_from([2, 3, 4, 8, 9, 25, 10**20 + 1]))
    b = draw(st.integers(2, 60).filter(lambda b: math.gcd(a, b) == 1))
    diagonal = [a if k == i else b if k == j else 1 for k in range(n)]
    rows = [
        tuple(diagonal[k] if t == k else draw(entries) if t > k else 0 for t in range(n))
        for k in range(n)
    ]
    return n, span(rows)


def in_normal_form(m, c):
    """Entries in [0, m), and for each prime p | m the last entry prime to
    p is 1 mod the power of p in m; m is factored by trial division."""
    if not all(0 <= x < m for x in c):
        return False
    rest, p = m, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p:
            p += 1
            continue
        q = 1
        while rest % p == 0:
            rest //= p
            q *= p
        units = [x for x in c if x % p]
        if not units or units[-1] % q != 1 % q:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(full_rank_spans(), st.integers(0, 2**32), st.integers(1, 10**6))
def test_cyclic_key_reads_the_lattice(case, seed, unit):
    # a key exists exactly when the (n - 1) x (n - 1) minors have gcd 1;
    # then m is the index, every basis row x has c . x = 0 mod m, c is in
    # normal form, and the key depends on the lattice alone: the same for
    # other generators, and for any unit multiple of c
    n, basis = case
    key = cyclic_key(basis)
    assert (key is not None) == (minor_gcd(basis, n, n - 1) == 1)
    if key is None:
        return
    m, c = key
    assert m == math.prod(basis[i][i] for i in range(n))
    assert all(sum(a * x for a, x in zip(c, row)) % m == 0 for row in basis)
    if m < 10**7:
        assert in_normal_form(m, c)
    assume(math.gcd(unit, m) == 1)
    assert character_key(m, [unit * x for x in c]) == key
    assert cyclic_key(span(change_generators(random.Random(seed), basis))) == key


def test_cyclic_key_of_z_n_and_of_two_pivots():
    for n in range(5):
        assert cyclic_key(span([tuple(int(i == j) for j in range(n)) for i in range(n)])) == (
            1,
            (0,) * n,
        )
    # Z^3 / L is Z/2 x Z/3 = Z/6, though the form has two pivots != 1
    assert cyclic_key(span([(2, 0, 0), (0, 1, 0), (0, 0, 3)])) == (6, (3, 0, 4))
    assert cyclic_key(span([(6, 0), (0, 1)])) == (6, (1, 0))
    assert cyclic_key(span([(1, 4), (0, 6)])) == (6, (2, 1))
    # not cyclic: (Z/2)^2 and Z/2 x Z/6 by the common factor of rows 0 and
    # 1, though the second has entries with gcd 1; Z/2 x Z/4 by the fold
    assert cyclic_key(span([(2, 0), (0, 2)])) is None
    assert cyclic_key(span([(2, 0, 1), (0, 2, 1), (0, 0, 3)])) is None
    assert cyclic_key(span([(2, 0, 0), (0, 1, 0), (0, 0, 4)])) is None
    # Z/8 and Z/8 again, with two and three pivots != 1
    assert cyclic_key(span([(2, 1), (0, 4)])) == (8, (1, 6))
    assert cyclic_key(span([(2, 1, 0), (0, 2, 1), (0, 0, 2)])) == (8, (1, 6, 4))
    assert in_normal_form(6, (3, 0, 4)) and not in_normal_form(6, (3, 0, 2))
    assert character_key(6, (3, 0, 2)) == (6, (3, 0, 4))


@settings(max_examples=200, deadline=None)
@given(full_rank_spans(), st.data())
def test_cyclic_steps_match_the_hermite_insert(case, data):
    # along a chain of inserts the (m, c) step keeps the key of the Hermite
    # basis, and returns the key itself exactly when the basis is kept
    n, basis = case
    key = cyclic_key(basis)
    assume(key is not None)
    entries = data.draw(st.sampled_from([NEAR_1E20, st.integers(-5, 5)]))
    for v in data.draw(st.lists(st.tuples(*[entries] * n), min_size=1, max_size=4)):
        grown = hnf_insert(basis, v)
        step = cyclic_insert(key, v)
        assert step == cyclic_key(grown)
        assert (step is key) == (grown is basis)
        basis, key = grown, step


@st.composite
def insert_cases(draw, rank_below_n):
    """(n, basis, v): the canonical basis of the span of n - rank_below_n
    to n + 1 random vectors in Z^n, n in 1..6, of rank n - rank_below_n,
    and a vector v from the lattice, from its rational span (a primitive
    vector, mostly not in the lattice), from anywhere (mostly outside the
    span below full rank), or zero."""
    n = draw(st.integers(1, 6))
    entries = draw(st.sampled_from([NEAR_1E20, st.integers(-5, 5)]))
    vector = st.tuples(*[entries] * n)
    basis = span(draw(st.lists(vector, min_size=n - rank_below_n, max_size=n + 1)))
    assume(len(basis) == n - rank_below_n)
    kind = draw(st.sampled_from(["lattice", "span", "anywhere", "zero"]))
    if kind == "anywhere":
        return n, basis, draw(vector)
    coefficients = draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    v = [sum(a * row[i] for a, row in zip(coefficients, basis)) for i in range(n)]
    if kind == "zero":
        v = [0] * n
    elif kind == "span" and any(v):
        g = math.gcd(*v)
        v = [x // g for x in v]
    return n, basis, tuple(v)


@settings(max_examples=400, deadline=None)
@given(insert_cases(rank_below_n=0))
def test_insert_multiplicity_reads_the_grown_lattice(case):
    # at full rank the scaled elimination gives the gcd of the maximal
    # minors of the grown Hermite key; m(L) comes from the minors, not the
    # kernel
    n, basis, v = case
    grown = hnf_insert(basis, v)
    assert insert_multiplicity(basis, minor_gcd(basis, n, n), v) == minor_gcd(grown, n, n)


@settings(max_examples=400, deadline=None)
@given(insert_cases(rank_below_n=1))
def test_hyperplane_normal_is_the_signed_maximal_minors(case):
    # z is the vector of signed maximal minors up to one common sign, with
    # gcd(z) = m(L); |z . v| is the gcd of the maximal minors of L + Zv
    # when v leaves the span, and z . v = 0 when it does not
    n, basis, v = case
    z = hyperplane_normal(basis, n)
    minors = signed_minors(basis, n)
    assert z in (minors, [-x for x in minors])
    assert math.gcd(*z) == minor_gcd(basis, n, n - 1)
    grown = hnf_insert(basis, v)
    dot = sum(a * b for a, b in zip(z, v))
    assert abs(dot) == (minor_gcd(grown, n, n) if len(grown) == n else 0)


@st.composite
def saturated_hyperplanes(draw):
    """(n, basis, v): n - 1 rows of a random unimodular n x n matrix, n in
    1..6, whose span is saturated, since they extend to a basis of Z^n,
    and a vector v from anywhere (mostly off the span), from the span, or
    zero."""
    n = draw(st.integers(1, 6))
    entries = draw(st.sampled_from([NEAR_1E20, st.integers(-5, 5)]))
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for a, b, k in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), entries))):
        if a != b:
            U[a] = [x + k * y for x, y in zip(U[a], U[b])]
    basis = span(U[:-1])
    kind = draw(st.sampled_from(["anywhere", "span", "zero"]))
    if kind == "anywhere":
        return n, basis, draw(st.tuples(*[entries] * n))
    coefficients = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    v = [sum(a * row[i] for a, row in zip(coefficients, U)) for i in range(n)]
    return n, basis, tuple(v) if kind == "span" else (0,) * n


@settings(max_examples=150, deadline=None)
@given(saturated_hyperplanes())
def test_a_saturated_hyperplane_keys_the_grown_lattice_by_its_normal(case):
    # for a rank-(n - 1) lattice with gcd(z) = 1 and v off its span, the
    # lattice they span is { x : z . x = 0 mod |z . v| }, keyed as the
    # Hermite insert and cyclic_key would key it; v in the span lies in L
    n, basis, v = case
    z = hyperplane_normal(basis, n)
    assert math.gcd(*z) == 1
    w = sum(a * b for a, b in zip(z, v))
    if w:
        assert character_key(abs(w), z) == cyclic_key(hnf_insert(basis, v))
    else:
        assert hnf_insert(basis, v) is basis


def test_insert_multiplicity_cases():
    # gcd(D, y) for D v = y . L at full rank
    worked = span([(3, 0), (0, 2)])
    assert insert_multiplicity(worked, 6, (1, 1)) == 1
    assert insert_multiplicity(worked, 6, (3, 2)) == 6
    assert insert_multiplicity(worked, 6, (0, 1)) == 3
    assert insert_multiplicity((), 1, ()) == 1


def test_hyperplane_normal_cases():
    # |z . v| = |det[basis; v]| outside the span, and 0 inside it
    def dots(z, *vectors):
        return [sum(a * b for a, b in zip(z, v)) for v in vectors]

    z = hyperplane_normal(span([(2, 4), (0, 0)]), 2)
    assert (z, dots(z, (1, 2), (0, 0), (0, 1))) == ([-4, 2], [0, 0, 2])
    z = hyperplane_normal(span([(1, 0, 0), (0, 1, 0)]), 3)
    assert (z, dots(z, (5, 7, -3))) == ([0, 0, 1], [-3])
    z = hyperplane_normal((), 1)
    assert (z, dots(z, (-4,), (0,))) == ([1], [-4, 0])
