"""Shared corpus builders for the property and acceptance suites."""

import random
from itertools import combinations

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from zonotutte import VectorList, determinant, rank
from zonotutte.exact_linalg import IntMatrix

# hypothesis entries for big-integer tests: near +-10^20, or small
NEAR_1E20 = st.one_of(
    st.integers(10**20 - 3, 10**20 + 3),
    st.integers(-(10**20) - 3, -(10**20) + 3),
    st.integers(-2, 2),
)


@st.composite
def spanning_lists(draw, entries=st.integers(-10**3, 10**3), max_size=9, max_dim=4):
    """Full-rank lists in Z^n, n in 1..max_dim, with zero and repeated vectors."""
    n = draw(st.integers(1, max_dim))
    distinct = draw(st.lists(st.tuples(*[entries] * n), min_size=1, max_size=max_size))
    # index len(distinct) stands for the zero vector
    picks = draw(st.lists(st.integers(0, len(distinct)), min_size=n, max_size=max_size))
    vectors = [distinct[i] if i < len(distinct) else (0,) * n for i in picks]
    X = VectorList(n, vectors)
    assume(rank(X) == n)
    return X


def random_full_rank_list(rng, n, max_size=6, bound=5):
    """Random list of vectors in Z^n with entries in [-bound, bound], rank n."""
    while True:
        size = rng.randint(n, max_size)
        vecs = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(size)]
        X = VectorList(n, vecs)
        if rank(X) == n:
            return X


def is_unimodular_list(X):
    """Every n-subset with nonzero determinant has determinant +-1."""
    n = X.dim
    for idxs in combinations(range(len(X)), n):
        d = determinant(IntMatrix.from_columns([X.vectors[i] for i in idxs], n))
        if abs(d) > 1:
            return False
    return True


def random_unimodular_list(rng, n, extra=None):
    """Unimodular list: a randomly transformed lattice basis plus up to two
    extra columns that are 0/1 combinations of it (keeps all minors in
    {-1, 0, 1})."""
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    for _ in range(3 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            cols[a] = [-x for x in cols[a]]
        else:
            k = rng.choice((-1, 1))
            cols[b] = [x + k * y for x, y in zip(cols[b], cols[a])]
    if extra is None:
        extra = rng.randint(0, 2)
    for _ in range(extra):
        z = [rng.randint(0, 1) for _ in range(n)]
        cols.append([sum(z[j] * cols[j][i] for j in range(n)) for i in range(n)])
    rng.shuffle(cols)
    X = VectorList(n, [tuple(c) for c in cols])
    assert is_unimodular_list(X)
    return X


@pytest.fixture(scope="session")
def small_corpus():
    """30 random full-rank lists for the per-module property tests."""
    rng = random.Random(1105)
    return [random_full_rank_list(rng, n) for _ in range(10) for n in (1, 2, 3)]


@pytest.fixture(scope="session")
def acceptance_corpus():
    """201 random full-rank lists (n cycling through 1, 2, 3)."""
    rng = random.Random(20260809)
    return [random_full_rank_list(rng, n) for _ in range(67) for n in (1, 2, 3)]
