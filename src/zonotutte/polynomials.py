"""Exact polynomial arithmetic over arbitrary-precision integers.

Two representations are used throughout the package:

  BiPoly   — sparse bivariate polynomial, a map (i, j) -> c for c*x^i*y^j;
  UniPoly  — dense univariate polynomial, a coefficient tuple c_0..c_d.

Both are canonical (no stored zero coefficients / no trailing zeros), so
equality of values is equality of polynomials.  The monomial basis is the
one canonical form; the shifted basis (x-1)^i (y-1)^j exists only as an
input format for expand_shifted_basis.

Exact rational scalars are plain fractions.Fraction values, which are kept
reduced with positive denominator by construction; no separate rational
type is defined here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Mapping

from .errors import DegreeTooHigh

Scalar = int | Fraction


class BiPoly:
    """Bivariate polynomial sum c_ij x^i y^j with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            if c:
                clean[(int(i), int(j))] = c
        self._terms = clean

    def coefficient(self, i: int, j: int) -> int:
        return self._terms.get((i, j), 0)

    def sorted_terms(self) -> list[tuple[tuple[int, int], int]]:
        """Terms in descending x-degree, then descending y-degree."""
        return sorted(self._terms.items(), key=lambda t: (-t[0][0], -t[0][1]))

    @property
    def degree_x(self) -> int:
        return max((i for i, _ in self._terms), default=0)

    @property
    def degree_y(self) -> int:
        return max((j for _, j in self._terms), default=0)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + c
        return BiPoly(out)

    def times_monomial(self, di: int, dj: int) -> "BiPoly":
        """Multiply by x^di * y^dj."""
        return BiPoly({(i + di, j + dj): c for (i, j), c in self._terms.items()})

    def evaluate(self, x: Scalar, y: Scalar) -> Fraction:
        xf, yf = Fraction(x), Fraction(y)
        total = Fraction(0)
        for (i, j), c in self._terms.items():
            total += c * xf**i * yf**j
        return total

    def specialize_y(self, value: int) -> "UniPoly":
        """Substitute an integer for y, leaving a UniPoly in x."""
        coeffs = [0] * (self.degree_x + 1 if self._terms else 1)
        for (i, j), c in self._terms.items():
            coeffs[i] += c * value**j
        return UniPoly(coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"BiPoly({format_bipoly(self)})"


class UniPoly:
    """Univariate polynomial; coefficients c_0..c_d, trailing zeros trimmed."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        data = list(coeffs)
        for c in data:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"integer coefficient required, got {c!r}")
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

    def constant_term(self) -> int:
        return self._coeffs[0] if self._coeffs else 0

    def scale(self, k: int) -> "UniPoly":
        return UniPoly([k * c for c in self._coeffs])

    def evaluate(self, t: Scalar) -> Fraction:
        tf = Fraction(t)
        total = Fraction(0)
        for c in reversed(self._coeffs):
            total = total * tf + c
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

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({format_unipoly(self)})"


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


def reverse_coefficients(P: UniPoly, n: int) -> UniPoly:
    """Coefficient reversal at length n+1: sum c_i t^i becomes sum c_i t^(n-i)."""
    if P.degree > n:
        raise DegreeTooHigh(f"degree {P.degree} exceeds reversal length {n}")
    return UniPoly([P.coefficient(n - k) for k in range(n + 1)])


def negate_argument(P: UniPoly) -> UniPoly:
    """Return P(-t): flip the sign of every odd-degree coefficient."""
    return UniPoly([-c if k % 2 else c for k, c in enumerate(P.coefficients)])


# ---------------------------------------------------------------------------
# JSON serialization
#
# Coefficients travel as decimal strings so arbitrary-precision integers
# survive any JSON parser; term order is descending degree throughout.

def bipoly_to_json(P: BiPoly, variables: tuple[str, str] = ("x", "y")) -> dict:
    return {
        "vars": list(variables),
        "terms": [
            {"i": i, "j": j, "c": str(c)} for (i, j), c in P.sorted_terms()
        ],
    }


def bipoly_from_json(doc: Mapping) -> BiPoly:
    return BiPoly({(int(t["i"]), int(t["j"])): int(t["c"]) for t in doc["terms"]})


def unipoly_to_json(P: UniPoly, variable: str = "q") -> dict:
    terms = [
        {"i": k, "c": str(c)}
        for k in range(P.degree, -1, -1)
        if (c := P.coefficient(k)) != 0
    ]
    return {"vars": [variable], "terms": terms}


def unipoly_from_json(doc: Mapping) -> UniPoly:
    coeffs: dict[int, int] = {int(t["i"]): int(t["c"]) for t in doc["terms"]}
    size = max(coeffs, default=-1) + 1
    return UniPoly([coeffs.get(k, 0) for k in range(size)])


# ---------------------------------------------------------------------------
# Human-readable formatting

def _format_terms(parts: list[tuple[int, str]]) -> str:
    if not parts:
        return "0"
    pieces: list[str] = []
    for coeff, mono in parts:
        mag = abs(coeff)
        body = mono if mag == 1 and mono else f"{mag}{mono}"
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"{'-' if coeff < 0 else '+'} {body}")
    return " ".join(pieces)


def _monomial(var: str, exp: int) -> str:
    if exp == 0:
        return ""
    if exp == 1:
        return var
    return f"{var}^{exp}"


def format_bipoly(P: BiPoly, xvar: str = "x", yvar: str = "y") -> str:
    parts = []
    for (i, j), c in P.sorted_terms():
        parts.append((c, _monomial(xvar, i) + _monomial(yvar, j)))
    return _format_terms(parts)


def format_unipoly(P: UniPoly, var: str = "q") -> str:
    parts = []
    for k in range(P.degree, -1, -1):
        c = P.coefficient(k)
        if c:
            parts.append((c, _monomial(var, k)))
    return _format_terms(parts)


def format_shifted(terms: Mapping[tuple[int, int], int], xvar: str = "x", yvar: str = "y") -> str:
    """Render a shifted-basis term map as e.g. (x-1)^2 + 6(x-1) + 11 + (y-1)."""
    parts = []
    for (i, j), c in sorted(terms.items(), key=lambda t: (-t[0][0], -t[0][1])):
        if c:
            parts.append((c, _monomial(f"({xvar}-1)", i) + _monomial(f"({yvar}-1)", j)))
    return _format_terms(parts)
