"""Exact polynomial arithmetic over arbitrary-precision integers.

Two representations are used throughout the package:

  BiPoly   — sparse bivariate polynomial, a map (i, j) -> c for c*x^i*y^j;
  UniPoly  — dense univariate polynomial, a coefficient tuple c_0..c_d.

Both are canonical (no stored zero coefficients / no trailing zeros), so
equality of values is equality of polynomials.  Exponents and coefficients
must be int (bool is refused).  A polynomial holds whichever basis its
caller fills it with; expand_shifted_basis turns coefficients of
(x-1)^i (y-1)^j into the monomial basis.  evaluate does plain arithmetic
on the numbers it is given, so integer arguments give an int.

Both classes list their terms, highest degree first, through
sorted_terms().  poly_to_json writes those terms as the JSON document the
CLI reports, and format_poly turns that document into text; str() of a
polynomial is that text, e.g. "x^2 + 4x + y + 5" or "11q^2 - 6q + 1".
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from math import comb

from .exact_linalg import _check_int


class BiPoly:
    """Bivariate polynomial sum c_ij x^i y^j with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int]):
        clean: dict[tuple[int, int], int] = {}
        for (i, j), c in terms.items():
            if _check_int(i) < 0 or _check_int(j) < 0:
                raise ValueError("exponents must be nonnegative")
            if _check_int(c):
                clean[(i, j)] = c
        self._terms = clean

    def sorted_terms(self) -> list[tuple[tuple[int, int], int]]:
        """Terms in descending x-degree, then descending y-degree."""
        return sorted(self._terms.items(), key=lambda t: (-t[0][0], -t[0][1]))

    @property
    def degree_x(self) -> int:
        return max((i for i, _ in self._terms), default=0)

    def evaluate(self, x, y):
        return sum(c * x**i * y**j for (i, j), c in self._terms.items())

    def specialize_y(self, value: int) -> "UniPoly":
        """Substitute an integer for y, leaving a UniPoly in x."""
        coeffs = [0] * (self.degree_x + 1)
        for (i, j), c in self._terms.items():
            coeffs[i] += c * value**j
        return UniPoly(coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __str__(self) -> str:
        return format_poly(poly_to_json(self, ("x", "y")))

    def __repr__(self) -> str:
        return f"BiPoly({self})"


class UniPoly:
    """Univariate polynomial; coefficients c_0..c_d, trailing zeros trimmed."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        data = list(coeffs)
        for c in data:
            _check_int(c)
        while data and data[-1] == 0:
            data.pop()
        self._coeffs = tuple(data)

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return 0

    def sorted_terms(self) -> list[tuple[tuple[int], int]]:
        """Nonzero terms ((k,), c_k) in descending degree."""
        return [
            ((k,), c)
            for k in range(len(self._coeffs) - 1, -1, -1)
            if (c := self._coeffs[k])
        ]

    def evaluate(self, t):
        total = 0
        for c in reversed(self._coeffs):
            total = total * t + c
        return total

    def taylor_shift(self, a: int) -> "UniPoly":
        """Return P(t + a) via binomial expansion."""
        out = [0] * len(self._coeffs)
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            for k in range(i + 1):
                out[k] += c * comb(i, k) * a ** (i - k)
        return UniPoly(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __str__(self) -> str:
        return format_poly(poly_to_json(self, ("q",)))

    def __repr__(self) -> str:
        return f"UniPoly({self})"


def expand_shifted_basis(terms: Mapping[tuple[int, int], int]) -> BiPoly:
    """Expand sum c_ij (x-1)^i (y-1)^j into the monomial basis."""
    acc: dict[tuple[int, int], int] = {}
    for (i, j), c in terms.items():
        if c == 0:
            continue
        if i < 0 or j < 0:
            raise ValueError("exponents must be nonnegative")
        for a in range(i + 1):
            xa = comb(i, a) * (-1) ** (i - a)
            for b in range(j + 1):
                coeff = c * xa * comb(j, b) * (-1) ** (j - b)
                key = (a, b)
                acc[key] = acc.get(key, 0) + coeff
    return BiPoly(acc)


def reverse_coefficients(P: UniPoly) -> UniPoly:
    """Coefficient reversal at P's degree n: sum c_i t^i becomes sum c_i t^(n-i)."""
    return UniPoly(reversed(P.coefficients))


# ---------------------------------------------------------------------------
# JSON document and text form
#
# Coefficients travel as decimal strings so arbitrary-precision integers
# survive any JSON parser; term order is descending degree throughout.
# The exponents of the first and second variable are keyed "i" and "j".

_EXPONENT_KEYS = ("i", "j")


def poly_to_json(P: BiPoly | UniPoly, variables: tuple[str, ...]) -> dict:
    keys = _EXPONENT_KEYS[: len(variables)]
    return {
        "vars": list(variables),
        "terms": [dict(zip(keys, exps), c=str(c)) for exps, c in P.sorted_terms()],
    }


def format_poly(doc: Mapping) -> str:
    """Text of a poly_to_json document; a variable longer than one
    character is parenthesized, so "x-1" prints as "(x-1)"."""
    names = [(k, v if len(v) == 1 else f"({v})") for k, v in zip(_EXPONENT_KEYS, doc["vars"])]
    pieces: list[str] = []
    for term in doc["terms"]:
        mono = ""
        for k, v in names:
            if e := term[k]:
                mono += v if e == 1 else f"{v}^{e}"
        c = term["c"]
        mag = c.removeprefix("-")
        body = mono if mag == "1" and mono else mag + mono
        if pieces:
            pieces.append(f"{'+' if mag == c else '-'} {body}")
        else:
            pieces.append(body if mag == c else f"-{body}")
    return " ".join(pieces) or "0"
