"""Output checks for benchmark ops, run outside the timed region.

The reference for every valid list is its Ehrhart polynomial summed
directly over independent sublists (ehrhart_via_independent_sets), a
route independent of the Tutte sum the reports are built from.  The
polynomial arithmetic below is the benchmark's own.
"""

from __future__ import annotations

import json
from math import comb

from workloads import EXIT_OK, Op, Result


def reference_ehrhart(op: Op) -> tuple[int, ...]:
    """Coefficients e_0..e_n of E(q) for the op's list."""
    from zonotutte.ehrhart import ehrhart_via_independent_sets
    from zonotutte.exact_linalg import VectorList

    E = ehrhart_via_independent_sets(VectorList(op.dim, op.vectors), max_list_size=len(op.vectors))
    coeffs = list(E.coefficients) + [0] * (op.dim + 1)
    return tuple(coeffs[: op.dim + 1])


def _uni(doc) -> dict[int, int]:
    return {int(t["i"]): int(t["c"]) for t in doc["terms"]}


def _dense(E) -> dict[int, int]:
    return {k: c for k, c in enumerate(E) if c}


def _interior(E, n) -> dict[int, int]:
    # I(q) = (-1)^n E(-q)
    return {k: (-1) ** (n + k) * c for k, c in enumerate(E) if c}


def _evaluate(E, q) -> int:
    return sum(c * q**k for k, c in enumerate(E))


def _ehrhart_from_monomial(terms, n) -> dict[int, int]:
    """q^n M(1 + 1/q, 1) = sum_i a_i (q+1)^i q^(n-i), a_i = sum_j c_ij."""
    a: dict[int, int] = {}
    for t in terms:
        a[int(t["i"])] = a.get(int(t["i"]), 0) + int(t["c"])
    out: dict[int, int] = {}
    for i, ai in a.items():
        for k in range(i + 1):
            key = n - i + k
            out[key] = out.get(key, 0) + ai * comb(i, k)
    return {k: c for k, c in out.items() if c}


def check(op: Op, result: Result, reference) -> str | None:
    """None if the op's outcome is correct, else the reason it failed.

    reference is the callable giving E(q) coefficients for op's list;
    it is called only for reports that need it.
    """
    if result.rc is None or "Traceback" in result.stderr:
        lines = result.stderr.strip().splitlines()
        return "traceback or timeout: " + (lines[-1] if lines else "")
    if result.rc != op.expect_rc:
        return f"exit code {result.rc}, expected {op.expect_rc}"
    if op.expect_rc != EXIT_OK:
        if result.stdout or not result.stderr.startswith("error:"):
            return "rejected input must print only an error line on stderr"
        return None
    try:
        return _check_report(op, json.loads(result.stdout), reference)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"report is not the documented JSON: {exc!r}"


def _check_report(op: Op, report: dict, reference) -> str | None:
    n = op.dim
    if report["input"] != {"dim": n, "vectors": [list(v) for v in op.vectors]}:
        return "input echo differs from the input"
    command, res = report["command"], report["results"]
    if command != op.argv[0]:
        return f"report command {command!r}"
    if command == "tutte":
        if "--classical" in op.argv:
            # T(2, 2) = 2^|X|: every sublist contributes 1 * 1^i * 1^j
            total = sum(int(t["c"]) * 2 ** (t["i"] + t["j"]) for t in res["monomial"]["terms"])
            shifted = sum(int(t["c"]) for t in res["shifted"]["terms"])
            ok = res["kind"] == "classical" and total == shifted == 2 ** len(op.vectors)
        else:
            E = _dense(reference())
            from_shifted = {n - t["i"]: int(t["c"]) for t in res["shifted"]["terms"] if t["j"] == 0}
            ok = (
                res["kind"] == "multiplicity"
                and _ehrhart_from_monomial(res["monomial"]["terms"], n) == E
                and from_shifted == E
            )
        return None if ok else "Tutte polynomial disagrees with the independent-set sum"
    E = reference()
    if command == "ehrhart":
        ok = (
            _uni(res["ehrhart"]) == _dense(E)
            and _uni(res["interior"]) == _interior(E, n)
            and int(res["volume"]) == E[n]
        )
    elif command in ("count", "interior"):
        q = int(op.argv[op.argv.index("--q") + 1])
        expected = _evaluate(E, q) if command == "count" else (-1) ** n * _evaluate(E, -q)
        ok = res["q"] == q and int(res["value"]) == expected
    elif command == "volume":
        ok = int(res["value"]) == E[n]
    elif command == "verify":
        ok = res["all_pass"] is True and _uni(res["ehrhart"]) == _dense(E)
    else:
        return f"unexpected command {command!r}"
    return None if ok else f"{command} report disagrees with the independent-set sum"
