"""Ehrhart and interior polynomials of the zonotope of a vector list.

The lattice-point counting polynomial E(q) of the zonotope generated by X
is the specialization E(q) = q^n M(1 + 1/q, 1) of the multiplicity-
weighted Tutte polynomial.  Every sublist larger than its rank vanishes
at y = 1, so the coefficient of q^k is c_(n-k),0, the sum of m(A) over
the independent sublists A of size k.  Two routes produce it:

  * ehrhart_via_theorem reads c_(n-k),0 off a whole M_X (tutte and
    verify, which build M_X anyway);
  * ehrhart_via_independent_sets groups the independent sublists by
    their k-vector a_1 ^ ... ^ a_k, whose coordinates are the k x k
    minors, so m(A) is their gcd.  It builds no Hermite form and runs
    no elimination, so it shares no arithmetic with the theorem route:
    it is verify's second route, and the ehrhart, count, volume and
    interior commands, which need no more of M_X, read E off it.  Only
    the input check is common to both routes.

E has degree n: its coefficient of q^n is c_0,0, the volume, at least 1
for a spanning list.  The interior counting polynomial is
I(q) = (-1)^n E(-q) (reciprocity), with n the degree of E.  As a
specialization it reads q^n M(1 - 1/q, 1), so its coefficient of q^k is
(-1)^(n+k) c_(n-k),0.  Closed count, volume and interior count of the
unscaled zonotope are M(2,1), M(1,1), M(0,1).
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .exact_linalg import VectorList
from .polynomials import UniPoly
from .tutte_core import MAX_LIST_SIZE, TutteResult, check_input


def ehrhart_via_theorem(M: TutteResult) -> UniPoly:
    """Ehrhart polynomial from a weighted Tutte polynomial.

    q^n M(1 + 1/q, 1) = sum_i c_i0 q^(n-i), where c_ij is the coefficient
    of (x-1)^i (y-1)^j: every term with j > 0 vanishes at y = 1.  So the
    coefficient of q^k is the shifted coefficient c_(n-k),0, the sum of
    m(A) over the independent sublists A of size k.
    """
    n = M.generators.dim
    return UniPoly([M.shifted_terms.get((n - k, 0), 0) for k in range(n + 1)])


def ehrhart_via_independent_sets(
    X: VectorList, *, max_list_size: int = MAX_LIST_SIZE
) -> UniPoly:
    """Ehrhart polynomial summed over the independent sublists of X.

    counts[k] maps the k-vector w of an independent k-sublist, signed so
    that its first nonzero coordinate is positive, to the number of such
    sublists.  Adding v maps w to w ^ v; a zero result is a dependent
    sublist and is dropped.  The coefficient of q^k is the sum of
    count * gcd(w).  An n-subset's k-vector is one number, its
    determinant, so the coefficient of q^n takes count * gcd(det) as each
    n-subset is met, and no level-n table is kept.
    """
    check_input(X, max_list_size)
    n = X.dim
    # (w ^ v)_S, the minor on the rows S = (S_0 < ... < S_k) expanded along
    # v's column, is sum_j (-1)^(k+j) v[S_j] w[S minus S_j]; the coordinates
    # of a level follow combinations() order
    rules = []
    for k in range(n):
        index = {S: i for i, S in enumerate(combinations(range(n), k))}
        rules.append([
            [((-1) ** (k + j), S[j], index[S[:j] + S[j + 1 :]]) for j in range(k + 1)]
            for S in combinations(range(n), k + 1)
        ])
    # the levels below n (level 0 alone when n = 0)
    counts: list[dict[tuple[int, ...], int]] = [{(1,): 1}] + [{} for _ in range(n - 1)]
    top = 0
    for v in X.vectors:
        for k in range(n - 1, -1, -1):
            terms = [[(sign * v[i], t) for sign, i, t in rule if v[i]] for rule in rules[k]]
            if k + 1 == n:
                (term,) = terms
                top += sum(c * gcd(sum(a * w[t] for a, t in term)) for w, c in counts[k].items())
                continue
            target = counts[k + 1]
            for w, c in counts[k].items():
                u = [sum(a * w[t] for a, t in term) for term in terms]
                lead = next((x for x in u if x), 0)
                if lead:
                    key = tuple(u) if lead > 0 else tuple(-x for x in u)
                    target[key] = target.get(key, 0) + c
    E = [sum(c * gcd(*w) for w, c in level.items()) for level in counts]
    return UniPoly(E + [top] if n else E)


def interior_polynomial(E: UniPoly) -> UniPoly:
    """Interior counting polynomial (-1)^n E(-q) for an Ehrhart E of degree n."""
    n = E.degree
    return UniPoly([(-1) ** (n + k) * c for k, c in enumerate(E.coefficients)])


def scalar_corollaries(M: TutteResult) -> tuple[int, int, int]:
    """(lattice points, volume, interior points) of the unscaled zonotope.

    Evaluates the weighted Tutte polynomial at (2,1), (1,1) and (0,1).
    All three are counts, so a negative value means a faulty M; the
    values are returned as they are, and verify reports the sign.
    """
    return (
        M.polynomial.evaluate(2, 1),
        M.polynomial.evaluate(1, 1),
        M.polynomial.evaluate(0, 1),
    )
