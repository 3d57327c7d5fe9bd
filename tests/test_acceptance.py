"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints a PASS line on success (visible with pytest -s); any
mismatch fails the assertion with the offending list in the message.
"""

import random
import time
from fractions import Fraction

from zonotutte import (
    UniPoly,
    VectorList,
    classical_tutte,
    closed_open_counts,
    dilation_identity_sides,
    ehrhart_via_independent_sets,
    ehrhart_via_theorem,
    interior_polynomial,
    multiplicity,
    multiplicity_tutte,
    rank,
    scalar_corollaries,
)
from zonotutte.polynomials import BiPoly
from conftest import random_unimodular_list
from tutte_reference import minor_gcd

WORKED = VectorList(2, [(3, 0), (0, 2), (1, 1)])


def lagrange_coefficients(points):
    """Exact rational interpolation through (x, y) pairs."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denominator = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            extended = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                extended[k] -= c * xj
                extended[k + 1] += c
            basis = extended
            denominator *= xi - xj
        weight = Fraction(yi) / denominator
        for k, c in enumerate(basis):
            coeffs[k] += c * weight
    return coeffs


def test_criterion_1_worked_fixture_exact():
    start = time.perf_counter()
    M = multiplicity_tutte(WORKED)
    assert M.polynomial == BiPoly({(2, 0): 1, (1, 0): 4, (0, 1): 1, (0, 0): 5})
    E = ehrhart_via_theorem(M)
    assert E == UniPoly([1, 6, 11])
    assert ehrhart_via_independent_sets(WORKED) == E
    I = interior_polynomial(E)
    assert I == UniPoly([1, -6, 11])
    points, volume, interior_points = scalar_corollaries(M)
    assert (points, volume, interior_points) == (18, 11, 6)
    assert closed_open_counts(WORKED, 1) == (18, 6)
    assert closed_open_counts(WORKED, 2) == (57, 33)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"fixture took {elapsed:.3f}s"
    print(
        f"\ncriterion 1: PASS - worked fixture exact "
        f"(M, E, I, counts 18/57/6/33, volume 11) in {elapsed:.3f}s"
    )


def test_criterion_2_theorem_suite(acceptance_corpus):
    start = time.perf_counter()
    assert len(acceptance_corpus) >= 200
    for X in acceptance_corpus:
        E_theorem = ehrhart_via_theorem(multiplicity_tutte(X))
        E_direct = ehrhart_via_independent_sets(X)
        assert E_theorem == E_direct, f"routes disagree for {X.vectors}"
        for q in (1, 2, 3):
            expected = E_theorem.evaluate(q)
            counted = closed_open_counts(X, q)[0]
            assert expected == counted, f"closed count q={q} for {X.vectors}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    print(
        f"\ncriterion 2: PASS - {len(acceptance_corpus)} lists, both Ehrhart "
        f"routes equal and closed counts match at q=1,2,3 in {elapsed:.1f}s"
    )


def test_criterion_3_reciprocity_suite(acceptance_corpus):
    for X in acceptance_corpus:
        E = ehrhart_via_theorem(multiplicity_tutte(X))
        I = interior_polynomial(E)
        for q in (1, 2, 3):
            expected = I.evaluate(q)
            counted = closed_open_counts(X, q)[1]
            assert expected == counted, f"open count q={q} for {X.vectors}"
    print(
        f"\ncriterion 3: PASS - interior polynomial matches oracle open "
        f"counts at q=1,2,3 on {len(acceptance_corpus)} lists"
    )


def test_criterion_4_dilation_suite(acceptance_corpus):
    for X in acceptance_corpus:
        M = multiplicity_tutte(X)
        for q in (2, 3, 5):
            lhs, rhs = dilation_identity_sides(M, q)
            assert lhs == rhs, f"q={q} for {X.vectors}"
    print(
        f"\ncriterion 4: PASS - dilation identity holds at q=2,3,5 on "
        f"{len(acceptance_corpus)} lists"
    )


def test_criterion_5_unimodular_degeneration():
    rng = random.Random(505)
    lists = [random_unimodular_list(rng, 1 + i % 3) for i in range(51)]
    for X in lists:
        M = multiplicity_tutte(X)
        T = classical_tutte(X)
        assert M.polynomial == T.polynomial, f"M != T for {X.vectors}"
        assert M.shifted_terms == T.shifted_terms
        assert M.is_unimodular
    print(f"\ncriterion 5: PASS - M = T coefficient-wise on {len(lists)} unimodular lists")


def test_criterion_6_multiplicity_consistency(acceptance_corpus):
    full_rank_checked = 0
    for X in acceptance_corpus:
        n = X.dim
        for mask in range(1 << len(X)):
            A = X.sublist([b for b in range(len(X)) if mask >> b & 1])
            r = rank(A)
            m = multiplicity(A)
            if r == n:
                assert minor_gcd(A.vectors, n, n) == m, f"minor gcd for {A.vectors}"
                full_rank_checked += 1
            for q in (2, 3):
                qA = VectorList(n, [tuple(q * x for x in v) for v in A])
                assert multiplicity(qA) == q**r * m, f"m(qA) for {A.vectors}, q={q}"
    print(
        f"\ncriterion 6: PASS - multiplicity = minor gcd on {full_rank_checked} "
        f"full-rank sublists; m(qA) = q^r m(A) at q=2,3 on all sublists"
    )


def test_criterion_7_interpolation_cross_check(acceptance_corpus):
    for X in acceptance_corpus[:10]:
        n = X.dim
        E = ehrhart_via_theorem(multiplicity_tutte(X))
        samples = [
            (q, closed_open_counts(X, q)[0]) for q in range(1, n + 2)
        ]
        fitted = lagrange_coefficients(samples)
        expected = [Fraction(E.coefficient(k)) for k in range(n + 1)]
        assert fitted == expected, f"interpolation mismatch for {X.vectors}"
    print(
        "\ncriterion 7: PASS - degree-n interpolation of oracle counts "
        "reproduces the Ehrhart polynomial on 10 lists"
    )
