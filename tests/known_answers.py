"""Whole Tutte polynomials from closed forms, for the tests.

tutte_complete_graph(n) is T_{K_n}(x, y), which is the multiplicity Tutte
polynomial of Pi_n: that list is unimodular, so every m(A) is 1, and its
matroid is the graphic matroid of K_n.  It comes from Tutte's exponential
formula (Tutte, "On dichromatic polynomials", JCT 1967; Ardila 2007):

    1 + (x-1) sum_{n>=1} T_{K_n}(x, y) (y-1)^n t^n / n!
        = (sum_{k>=0} y^C(k,2) t^k / k!)^((x-1)(y-1)),

where the power g = f^a of a series with f_0 = 1 follows
n g_n = sum_{k=1..n} ((a+1)k - n) f_k g_(n-k).  The coefficients are
polynomials in u = x - 1 and w = y - 1, held as dicts from (i, j) to
exact ints and Fractions; nothing here uses the package or sympy.
"""

from fractions import Fraction
from math import comb, factorial


def _add_product(out, p, q):
    """out += p * q, for polynomials in (u, w)."""
    for (a, b), c in p.items():
        for (d, e), f in q.items():
            out[a + d, b + e] = out.get((a + d, b + e), 0) + c * f


def tutte_complete_graph(n):
    """T_{K_n} for n >= 1, as a dict from (i, j) to the coefficient of
    x^i y^j."""
    # f_k = y^C(k,2) / k! = (1 + w)^C(k,2) / k!
    f = [
        {(0, j): Fraction(comb(comb(k, 2), j), factorial(k)) for j in range(comb(k, 2) + 1)}
        for k in range(n + 1)
    ]
    g = [{(0, 0): Fraction(1)}]
    for m in range(1, n + 1):
        total = {}
        for k in range(1, m + 1):
            # (a + 1) k - m, with a = (x - 1)(y - 1) = u w
            factor = {(1, 1): k, (0, 0): k - m}
            step = {}
            _add_product(step, factor, f[k])
            _add_product(total, step, g[m - k])
        g.append({key: c / m for key, c in total.items() if c})
    # g_n = (x - 1) T_{K_n} (y - 1)^n / n!, in the basis u^i w^j
    shifted = {}
    for (i, j), c in g[n].items():
        assert i >= 1 and j >= n and (c * factorial(n)).denominator == 1
        shifted[i - 1, j - n] = int(c * factorial(n))
    # u^i w^j = (x - 1)^i (y - 1)^j in the monomials x^a y^b
    terms = {}
    for (i, j), c in shifted.items():
        for a in range(i + 1):
            for b in range(j + 1):
                sign = (-1) ** (i - a + j - b)
                terms[a, b] = terms.get((a, b), 0) + sign * c * comb(i, a) * comb(j, b)
    return {key: c for key, c in terms.items() if c}
