"""Command-line front end.

Subcommands
    tutte     weighted (or --classical) Tutte polynomial, both bases
    ehrhart   Ehrhart and interior polynomials plus volume
    count     lattice points of the q-fold dilated zonotope
    volume    volume of the zonotope
    interior  interior lattice points of the q-fold dilated zonotope
    verify    run the full identity suite, optionally against the
              brute-force geometric oracle

Input is a JSON document {"dim": n, "vectors": [[...], ...]} read from a
file argument or stdin, or the inline shorthand --vectors "3,0;0,2;1,1".
Output is a JSON report on stdout (--pretty for a human-readable rendering);
big integers are serialized as decimal strings, however many digits they
have.  Input integers are bounded by the interpreter's integer-string
digit limit (4300 by default).  Reports are byte-stable for a fixed input
and flag set; the optional --timing flag adds a wall clock field that is
exempt from that guarantee.

Exit codes: 0 success (and, for verify, every identity passed); 1 an
identity failed in verify; 2 malformed input; 3 input does not span its
ambient space (DimensionDeficient); 4 an enumeration cap was exceeded
(CapExceeded); 5 invalid dilation factor (q < 1); 141 stdout was closed
before the report was written (a reader such as head quit early), with
no traceback.

ehrhart, count, volume and interior read E off the k-vector sum
(ehrhart_via_independent_sets) and never build M_X; tutte and verify build
it, and verify also takes E the second way.

A call imports only what its command runs: the geometric oracle
(geometry_oracle) loads on the verify --oracle path alone, and the
parser reads the oracle's default cap from errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__
from .ehrhart import (
    ehrhart_via_independent_sets,
    ehrhart_via_theorem,
    interior_polynomial,
    scalar_corollaries,
)
from .errors import MAX_BOX_POINTS, CapExceeded, DimensionDeficient
from .exact_linalg import VectorList
from .polynomials import (
    BiPoly,
    UniPoly,
    format_poly,
    poly_to_json,
    reverse_coefficients,
)
from .tutte_core import (
    MAX_LIST_SIZE,
    check_input,
    classical_tutte,
    dilation_identity_sides,
    multiplicity_tutte,
)

EXIT_OK = 0
EXIT_IDENTITY_FAILED = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_CAP = 4
EXIT_BAD_Q = 5
# 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe
EXIT_BROKEN_PIPE = 141


class InputError(Exception):
    """Malformed input document or inline vector specification."""


def _vector_list_from_doc(doc) -> VectorList:
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    if "dim" not in doc or "vectors" not in doc:
        raise InputError('input document needs keys "dim" and "vectors"')
    dim = doc["dim"]
    if type(dim) is not int:  # JSON true/false decode to bool, an int subclass
        raise InputError(f'"dim" must be an integer, got {dim!r}')
    if dim < 1:
        raise InputError(f'"dim" must be positive, got {dim}')
    if not isinstance(doc["vectors"], list):
        raise InputError('"vectors" must be a list of integer vectors')
    # VectorList checks that each vector is a sequence of dim integers
    return VectorList(dim, doc["vectors"])


def _vector_list_from_inline(spec: str) -> VectorList:
    rows = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rows.append(tuple(int(x) for x in chunk.split(",")))
        except ValueError as exc:
            raise InputError(f"cannot parse vector {chunk!r}") from exc
    if not rows:
        raise InputError("inline vector specification is empty")
    dim = len(rows[0])
    if any(len(r) != dim for r in rows):
        raise InputError("inline vectors have inconsistent lengths")
    return VectorList(dim, rows)


def _load_input(args) -> VectorList:
    if args.vectors is not None:
        return _vector_list_from_inline(args.vectors)
    try:
        if args.input == "-":
            # bytes where the stream has them, so json.loads decodes them
            # and a byte that does not decode is malformed input
            data = getattr(sys.stdin, "buffer", sys.stdin).read()
        else:
            with open(args.input, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # ValueError covers syntax errors, bytes that do not decode and
        # integers beyond the interpreter's digit limit; RecursionError,
        # nesting too deep
        raise InputError(f"invalid JSON: {exc}") from exc
    try:
        return _vector_list_from_doc(doc)
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _parse_q_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise InputError(f"cannot parse q list {text!r}") from exc
    if not values:
        raise InputError("q list is empty")
    return values


# ---------------------------------------------------------------------------
# Command handlers: each returns its own keys of the report, which main
# writes after "command" and "input".

def _cmd_tutte(X: VectorList, args) -> dict:
    compute = classical_tutte if args.classical else multiplicity_tutte
    result = compute(X, max_list_size=args.max_subsets)
    return {
        "results": {
            "kind": "classical" if args.classical else "multiplicity",
            "monomial": poly_to_json(result.polynomial, ("x", "y")),
            "shifted": poly_to_json(BiPoly(result.shifted_terms), ("x-1", "y-1")),
            "is_unimodular": result.is_unimodular,
        },
    }


def _cmd_ehrhart(X: VectorList, args) -> dict:
    command = args.command
    E = ehrhart_via_independent_sets(X, max_list_size=args.max_subsets)
    if command == "ehrhart":
        results = {
            "ehrhart": poly_to_json(E, ("q",)),
            "interior": poly_to_json(interior_polynomial(E), ("q",)),
            "volume": str(E.coefficient(X.dim)),
        }
    elif command == "volume":
        results = {
            "value": str(E.coefficient(X.dim)),
            "via": "M_X(1,1), the leading Ehrhart coefficient",
        }
    elif command == "count":
        results = {
            "value": str(E.evaluate(args.q)),
            "via": "q^n M_X(1+1/q, 1); at q=1 this is M_X(2,1)",
            "q": args.q,
        }
    else:
        results = {
            "value": str(interior_polynomial(E).evaluate(args.q)),
            "via": "q^n M_X(1-1/q, 1); at q=1 this is M_X(0,1)",
            "q": args.q,
        }
    return {"results": results}


def _cmd_verify(X: VectorList, args) -> dict:
    q_list = args.q_values
    # the oracle counts first: its cap refuses after zonotope_hrep alone, at
    # a fraction of the polynomial side's cost.  The facets are enumerated
    # once, at q = 1, and one count per distinct q gives both the closed and
    # the open count; q = 1 also serves the corollaries
    counts: dict[int, tuple[int, int]] = {}
    if args.oracle:
        from . import geometry_oracle

        check_input(X, args.max_subsets)
        facets = geometry_oracle.zonotope_hrep(X)
        for q in dict.fromkeys([*q_list, 1]):
            counts[q] = geometry_oracle.closed_open_counts(
                X, q, max_box=args.max_box, base=facets
            )

    M = multiplicity_tutte(X, max_list_size=args.max_subsets)
    n = X.dim
    E_theorem = ehrhart_via_theorem(M)
    E_direct = ehrhart_via_independent_sets(X, max_list_size=args.max_subsets)
    I_poly = interior_polynomial(E_theorem)

    checks: list[dict] = []

    def record(identity: str, lhs, rhs) -> None:
        checks.append(
            {
                "identity": identity,
                "lhs": str(lhs),
                "rhs": str(rhs),
                "pass": lhs == rhs,
            }
        )

    record("ehrhart_theorem_equals_independent_sets", E_theorem, E_direct)

    sides = {q: dilation_identity_sides(M, q) for q in dict.fromkeys(q_list)}
    for q in q_list:
        record(f"dilation_identity_q{q}", *sides[q])

    # E and I are read off M's shifted coefficients; the checks below read
    # them again from the monomial form M.polynomial, as M(t+1, 1) and
    # M(1, 1).  M(t+1, 1) has degree n, its top coefficient c_n,0 = 1 from
    # the empty sublist, and its alternating-sign reversal must reproduce
    # (-1)^n E(-q)
    shifted_y1 = M.polynomial.specialize_y(1).taylor_shift(1)
    alternating = UniPoly(
        [(-1) ** k * c for k, c in enumerate(shifted_y1.coefficients)]
    )
    record("interior_specialization", I_poly, reverse_coefficients(alternating))
    record("coefficient_reversal", reverse_coefficients(E_theorem), shifted_y1)

    corollaries = scalar_corollaries(M)
    points, volume, interior_points = corollaries
    # a count below zero is a fault in M; the row is written only then, so
    # a passing report has the same rows as before the sign was checked, and
    # its lhs, the three counts, never equals its rhs
    if min(corollaries) < 0:
        record("nonnegative_specializations", ", ".join(map(str, corollaries)), ">= 0")
    record("volume_identity", E_theorem.coefficient(n), volume)

    if args.oracle:
        for q in q_list:
            closed, opened = counts[q]
            record(f"closed_count_q{q}", E_theorem.evaluate(q), closed)
            record(f"interior_count_q{q}", I_poly.evaluate(q), opened)
        closed1, opened1 = counts[1]
        record("corollary_points", points, closed1)
        record("corollary_interior_points", interior_points, opened1)

    return {
        "results": {
            "ehrhart": poly_to_json(E_theorem, ("q",)),
            "interior": poly_to_json(I_poly, ("q",)),
            "all_pass": all(c["pass"] for c in checks),
        },
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# Rendering

def _render_pretty(report: dict) -> str:
    command = report["command"]
    lines = [f"command: {command}"]
    echo = report["input"]
    vecs = " ".join("(" + ",".join(map(str, v)) + ")" for v in echo["vectors"])
    lines.append(f"input: dim={echo['dim']} vectors={vecs}")
    results = report["results"]
    if command == "tutte":
        lines.append(f"kind: {results['kind']}")
        lines.append(f"monomial: {format_poly(results['monomial'])}")
        lines.append(f"shifted:  {format_poly(results['shifted'])}")
        lines.append(f"unimodular: {results['is_unimodular']}")
    elif command == "ehrhart":
        lines.append(f"ehrhart:  {format_poly(results['ehrhart'])}")
        lines.append(f"interior: {format_poly(results['interior'])}")
        lines.append(f"volume:   {results['volume']}")
    elif command in ("count", "interior", "volume"):
        if "q" in results:
            lines.append(f"q: {results['q']}")
        lines.append(f"value: {results['value']}")
        lines.append(f"via: {results['via']}")
    elif command == "verify":
        for check in report["checks"]:
            status = "PASS" if check["pass"] else "FAIL"
            lines.append(
                f"{status} {check['identity']}: lhs={check['lhs']} rhs={check['rhs']}"
            )
        lines.append(f"all identities pass: {results['all_pass']}")
    if "timing_ms" in report:
        lines.append(f"timing_ms: {report['timing_ms']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zonotutte",
        description="Exact Tutte/Ehrhart computations for integer zonotopes",
    )
    parser.add_argument("--version", action="version", version=f"zonotutte {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the options every command takes, copied into each by parents=
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "input",
        nargs="?",
        default="-",
        help='JSON input file, or "-" for stdin (default)',
    )
    common.add_argument(
        "--vectors",
        help='inline vector list, e.g. "3,0;0,2;1,1" (overrides the input file)',
    )
    common.add_argument("--pretty", action="store_true", help="human-readable output")
    common.add_argument(
        "--timing", action="store_true", help="add wall-clock milliseconds to the report"
    )
    common.add_argument(
        "--max-subsets",
        type=int,
        default=MAX_LIST_SIZE,
        metavar="N",
        help=f"refuse lists longer than N vectors (default {MAX_LIST_SIZE})",
    )

    p_tutte = sub.add_parser("tutte", parents=[common], help="Tutte polynomial of the list")
    p_tutte.add_argument(
        "--classical", action="store_true", help="unit weights instead of multiplicities"
    )
    p_tutte.set_defaults(handler=_cmd_tutte)

    for name, help_text in (
        ("ehrhart", "Ehrhart and interior polynomials"),
        ("count", "lattice points of the dilated zonotope"),
        ("volume", "volume of the zonotope"),
        ("interior", "interior lattice points of the dilated zonotope"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if name in ("count", "interior"):
            p.add_argument("--q", type=int, default=1, help="dilation factor (default 1)")
        p.set_defaults(handler=_cmd_ehrhart)

    p_verify = sub.add_parser("verify", parents=[common], help="run the identity suite")
    p_verify.add_argument(
        "--q-list",
        default="1,2",
        metavar="Q,Q,...",
        help="dilation factors for the per-q identities (default 1,2)",
    )
    p_verify.add_argument(
        "--oracle",
        action="store_true",
        help="also cross-check counts against the brute-force oracle",
    )
    p_verify.add_argument(
        "--max-box",
        type=int,
        default=MAX_BOX_POINTS,
        metavar="N",
        help=(
            "cap on the oracle's work: lines of the bounding box times facets "
            f"of the zonotope (default {MAX_BOX_POINTS})"
        ),
    )
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


# Options whose value is a comma-separated list that may start with "-".
_LIST_OPTIONS = ("--vectors", "--q-list")


def _attach_list_values(argv: list[str]) -> list[str]:
    """Rewrite "--vectors -3,0;1,1" as "--vectors=-3,0;1,1".

    argparse reads a separate value that starts with "-" and is not a
    plain negative number as an option, so a list whose first entry is
    negative would be refused with "expected one argument".  Such a value
    is merged into the token before it when that token, after the
    command, is a list option or an abbreviation of one ("--vec").  "--"
    alone still ends the options, so nothing after it is merged, and
    before the command "--v" is --version.  count's own "--q" also
    abbreviates "--q-list"; merged, it takes the same value it would take
    separately.
    """
    out: list[str] = []
    for token in argv:
        # no option of the top-level parser takes a value, so the command
        # is the first token that does not start with "-"; after a lone
        # "--" every token is positional
        option = out[-1] if any(t[:1] != "-" for t in out) and "--" not in out else ""
        listed = len(option) > 2 and any(n.startswith(option) for n in _LIST_OPTIONS)
        if listed and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"{option}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_list_values(sys.argv[1:] if argv is None else argv))

    if getattr(args, "q", 1) < 1:
        print(f"error: q must be >= 1, got {args.q}", file=sys.stderr)
        return EXIT_BAD_Q

    try:
        if args.command == "verify":
            args.q_values = _parse_q_list(args.q_list)
            if any(q < 1 for q in args.q_values):
                print("error: every q must be >= 1", file=sys.stderr)
                return EXIT_BAD_Q
        X = _load_input(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    # results of exact arithmetic may have more digits than the interpreter
    # converts to text by default; the limit still applies to parsed input
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        start = time.perf_counter()
        try:
            report = {
                "command": args.command,
                "input": {"dim": X.dim, "vectors": [list(v) for v in X.vectors]},
                **args.handler(X, args),
            }
        except DimensionDeficient as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DIMENSION
        except CapExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CAP
        if args.timing:
            report["timing_ms"] = int((time.perf_counter() - start) * 1000)
        print(_render_pretty(report) if args.pretty else json.dumps(report))
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)

    if args.command == "verify" and not report["results"]["all_pass"]:
        return EXIT_IDENTITY_FAILED
    return EXIT_OK


def run() -> None:
    try:
        code = main()
        # flush here, where a closed stdout can still be caught
        sys.stdout.flush()
    except BrokenPipeError:
        # what is left in the buffer goes to devnull, so the flush at
        # interpreter exit has no closed pipe to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
