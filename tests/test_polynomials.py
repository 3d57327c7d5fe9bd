import json
import random
from fractions import Fraction

import pytest

from zonotutte import (
    BiPoly,
    UniPoly,
    expand_shifted_basis,
    poly_to_json,
    reverse_coefficients,
)
from zonotutte.polynomials import format_poly

WORKED = BiPoly({(2, 0): 1, (1, 0): 4, (0, 1): 1, (0, 0): 5})  # x^2 + 4x + y + 5


class TestExpandShiftedBasis:
    def test_constant(self):
        assert expand_shifted_basis({(0, 0): 1}) == BiPoly({(0, 0): 1})

    def test_worked_example(self):
        terms = {(2, 0): 1, (1, 0): 6, (0, 0): 11, (0, 1): 1}
        assert expand_shifted_basis(terms) == WORKED

    def test_simple_shift(self):
        # (x - 1) + 2 = x + 1
        assert expand_shifted_basis({(1, 0): 1, (0, 0): 2}) == BiPoly(
            {(1, 0): 1, (0, 0): 1}
        )

    def test_linearity(self):
        rng = random.Random(11)
        for _ in range(25):
            t1 = {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-9, 9)
                for _ in range(4)
            }
            t2 = {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-9, 9)
                for _ in range(4)
            }
            merged = dict(t1)
            for key, c in t2.items():
                merged[key] = merged.get(key, 0) + c
            P1, P2 = expand_shifted_basis(t1), expand_shifted_basis(t2)
            total = dict(P1.sorted_terms())
            for key, c in P2.sorted_terms():
                total[key] = total.get(key, 0) + c
            assert expand_shifted_basis(merged) == BiPoly(total)

    def test_evaluation_agrees_with_shifted_form(self):
        rng = random.Random(13)
        for _ in range(25):
            terms = {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-9, 9)
                for _ in range(5)
            }
            P = expand_shifted_basis(terms)
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            y = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            direct = sum(
                (c * (x - 1) ** i * (y - 1) ** j for (i, j), c in terms.items()),
                Fraction(0),
            )
            assert P.evaluate(x, y) == direct


class TestEvalBi:
    def test_count_point(self):
        assert WORKED.evaluate(2, 1) == 18

    def test_volume_point(self):
        assert WORKED.evaluate(1, 1) == 11

    def test_origin_gives_constant(self):
        assert WORKED.evaluate(0, 0) == 5

    def test_rational_point(self):
        assert WORKED.evaluate(Fraction(3, 2), 1) == Fraction(9, 4) + 6 + 1 + 5


class TestReverseCoefficients:
    def test_worked_example(self):
        assert reverse_coefficients(UniPoly([1, 6, 11])) == UniPoly([11, 6, 1])

    def test_constant(self):
        assert reverse_coefficients(UniPoly([1])) == UniPoly([1])

    def test_involution_when_constant_term_nonzero(self):
        rng = random.Random(17)
        for _ in range(25):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
            coeffs[0] = coeffs[0] or 1
            coeffs[-1] = coeffs[-1] or 1
            P = UniPoly(coeffs)
            assert reverse_coefficients(reverse_coefficients(P)) == P


class TestEvalAndNegate:
    def test_eval_at_two(self):
        assert UniPoly([1, 6, 11]).evaluate(2) == 57

    def test_identity_at_zero(self):
        assert UniPoly([0, 1]).evaluate(0) == 0


class TestCanonicalForm:
    def test_trailing_zeros_trimmed(self):
        assert UniPoly([1, 2, 0, 0]) == UniPoly([1, 2])
        assert UniPoly([0, 0]) == UniPoly([])
        assert UniPoly([]).degree == -1

    def test_zero_terms_dropped(self):
        assert BiPoly({(1, 1): 0, (0, 0): 3}) == BiPoly({(0, 0): 3})
        assert BiPoly({}).sorted_terms() == []
        assert BiPoly({}).specialize_y(1) == UniPoly([])

    def test_integer_coefficients_required(self):
        with pytest.raises(TypeError):
            UniPoly([1.5])

    def test_bipoly_integer_exponents_and_coefficients_required(self):
        with pytest.raises(TypeError):
            BiPoly({(1.7, 0): 1})
        with pytest.raises(TypeError):
            BiPoly({(True, 0): 1})
        with pytest.raises(TypeError):
            BiPoly({(0, 0): 1.5})

    def test_sorted_terms_order(self):
        # descending x-degree, then descending y-degree
        assert [key for key, _ in WORKED.sorted_terms()] == [
            (2, 0),
            (1, 0),
            (0, 1),
            (0, 0),
        ]
        # descending degree, zero coefficients skipped
        assert UniPoly([1, 0, 11]).sorted_terms() == [((2,), 11), ((0,), 1)]


class TestSerialization:
    # a report carries poly_to_json's document through JSON text; the
    # document that comes back gives the polynomial's own text form
    def test_bipoly_round_trip(self):
        doc = poly_to_json(WORKED, ("x", "y"))
        assert doc["vars"] == ["x", "y"]
        assert doc["terms"][0] == {"i": 2, "j": 0, "c": "1"}
        assert list(doc["terms"][0]) == ["i", "j", "c"]
        assert format_poly(json.loads(json.dumps(doc))) == str(WORKED)

    def test_unipoly_round_trip(self):
        P = UniPoly([1, 6, 11])
        doc = poly_to_json(P, ("q",))
        assert doc == {
            "vars": ["q"],
            "terms": [{"i": 2, "c": "11"}, {"i": 1, "c": "6"}, {"i": 0, "c": "1"}],
        }
        assert format_poly(json.loads(json.dumps(doc))) == str(P)

    def test_big_coefficients_survive(self):
        P = UniPoly([10**40, -(10**50)])
        doc = json.loads(json.dumps(poly_to_json(P, ("q",))))
        assert doc["terms"] == [{"i": 1, "c": str(-(10**50))}, {"i": 0, "c": str(10**40)}]
        assert format_poly(doc) == f"-{10**50}q + {10**40}"


class TestFormatting:
    def test_bipoly(self):
        assert str(WORKED) == "x^2 + 4x + y + 5"
        assert repr(WORKED) == "BiPoly(x^2 + 4x + y + 5)"
        # a variable name longer than one character is parenthesized
        doc = poly_to_json(WORKED, ("x-1", "y-1"))
        assert format_poly(doc) == "(x-1)^2 + 4(x-1) + (y-1) + 5"

    def test_unipoly_with_negative(self):
        assert str(UniPoly([1, -6, 11])) == "11q^2 - 6q + 1"
        assert str(UniPoly([-1, 0, -1])) == "-q^2 - 1"

    def test_zero(self):
        assert str(UniPoly([])) == "0"
        assert str(BiPoly({})) == "0"
