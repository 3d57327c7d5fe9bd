"""Seeded inputs for the four benchmark workloads, and how one op runs.

A workload's pool is a long list of distinct ops built from the seed.  A
run takes ops from the start of the pool in whole cycles of list shapes
until its time is up, and starts the pool again if a fast program gets
through it all.  Each op has its own list, so a run averages over many
inputs, and every cycle holds the same mix of shapes; only the entries
change with the seed.  Cycle lengths are odd where op costs spread
widely, so neither the median nor the 75th percentile falls on the
boundary between two list shapes.

The program receives only the generated JSON documents, on stdin.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OP_TIMEOUT_S = 60

EXIT_OK, EXIT_PARSE, EXIT_DIMENSION, EXIT_CAP, EXIT_BAD_Q = 0, 2, 3, 4, 5


@dataclass(frozen=True)
class Op:
    """One CLI call: arguments, the JSON document on stdin, expected exit code."""

    argv: tuple[str, ...]
    stdin: str
    expect_rc: int
    dim: int | None = None
    vectors: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class Workload:
    """make_op(rng, j) builds the op at position j of the shape cycle.

    The pool holds pool_size ops, longer than a run at the parent commit
    gets through; a traced run replays the first traced_ops of them.
    """

    name: str
    why: str
    in_process: bool
    cycle: int
    pool_size: int
    traced_ops: int
    make_op: Callable

    def build_pool(self, rng) -> list[Op]:
        return [self.make_op(rng, i % self.cycle) for i in range(self.pool_size)]


def _rank(vectors, dim: int) -> int:
    m = [[Fraction(v[i]) for v in vectors] for i in range(dim)]
    r = 0
    for col in range(len(vectors)):
        pivot = next((i for i in range(r, dim) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, dim):
            f = m[i][col] / m[r][col]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _full_rank_list(rng, dim: int, size: int, bound: int):
    while True:
        vectors = tuple(
            tuple(rng.randint(-bound, bound) for _ in range(dim)) for _ in range(size)
        )
        if _rank(vectors, dim) == dim:
            return vectors


def _op(argv, dim, vectors, expect_rc=EXIT_OK) -> Op:
    doc = json.dumps({"dim": dim, "vectors": [list(v) for v in vectors]})
    return Op(tuple(argv), doc, expect_rc, dim, vectors)


def tutte_small_op(rng, j):
    """Cycle of 15: n cycles over 2..4 and |X| over 10..13."""
    dim, size = (2, 3, 4)[j % 3], 10 + j % 4
    command = ("tutte", "ehrhart")[(j // 4) % 2]
    return _op([command], dim, _full_rank_list(rng, dim, size, 5))


def tutte_large_op(rng, j):
    """Cycle of 17: positions 7 and 15 hold a list of 9 vectors with entries
    up to 10^20; the other 15 cycle n over 2..4 and |X| over 9..12."""
    command = ("tutte", "ehrhart")[(j // 4) % 2]
    if j in (7, 15):
        dim = 3 if j == 7 else 4
        return _op([command], dim, _full_rank_list(rng, dim, 9, 10**20))
    k = j - (j > 7) - (j > 15)
    dim, size = (2, 3, 4)[k % 3], 9 + k % 4
    return _op([command], dim, _full_rank_list(rng, dim, size, 10**3))


def oracle_verify_op(rng, j):
    """Cycle of 7: n cycles over 2..3 and |X| over 6..8."""
    dim, size = (2, 3)[j % 2], (6, 7, 8)[j % 3]
    vectors = _full_rank_list(rng, dim, size, 3)
    return _op(["verify", "--oracle", "--q-list", "1,2,3,4"], dim, vectors)


CLI_COMMANDS = ("tutte", "ehrhart", "count", "interior", "volume", "verify")


def _rejected_op(rng, kind: int) -> Op:
    dim = 2 + kind % 2
    vectors = _full_rank_list(rng, dim, rng.randint(dim, 5), 3)
    if kind == 0:  # malformed JSON: the document is cut short
        doc = _op([], dim, vectors).stdin
        return Op(("tutte",), doc[: rng.randint(1, len(doc) - 1)], EXIT_PARSE)
    if kind == 1:  # rank-deficient: every vector has last coordinate 0
        flat = tuple(v[:-1] + (0,) for v in vectors)
        return _op(["ehrhart"], dim, flat, EXIT_DIMENSION)
    if kind == 2:  # the oracle's bounding box exceeds --max-box
        return _op(["verify", "--oracle", "--max-box", "1"], dim, vectors, EXIT_CAP)
    return _op(["count", "--q", "0"], dim, vectors, EXIT_BAD_Q)


def cli_calls_op(rng, j):
    """Cycle of 32: every 8th call is a rejected input, one of each
    documented failure exit code; the other 28 cycle through the six
    subcommands on lists of n <= 3 and |X| <= 6."""
    if j % 8 == 7:
        return _rejected_op(rng, j // 8)
    k = j - j // 8
    command = CLI_COMMANDS[k % 6]
    dim = (2, 3)[(k // 6) % 2]
    vectors = _full_rank_list(rng, dim, rng.randint(dim, 6), 3)
    argv = [command]
    if command == "tutte" and (k // 12) % 2:
        argv.append("--classical")
    elif command in ("count", "interior"):
        argv += ["--q", str(rng.randint(1, 4))]
    elif command == "verify":
        argv.append("--oracle")
    return _op(argv, dim, vectors)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tutte-small",
            "Small entries, |X| 10-13: the 2^|X| Tutte sum and the lattice kernel do the work, "
            "sublists share few lattices and the oracle is idle.",
            in_process=True, cycle=15, pool_size=150, traced_ops=15, make_op=tutte_small_op,
        ),
        Workload(
            "tutte-large",
            "Entries up to 10^3, and 2 lists in 17 with entries up to 10^20: few sublists share "
            "a lattice and big-integer arithmetic sets the kernel's cost.",
            in_process=True, cycle=17, pool_size=136, traced_ops=17, make_op=tutte_large_op,
        ),
        Workload(
            "oracle-verify",
            "verify --oracle on q=1..4: Fourier-Motzkin elimination and box scans take most "
            "of each op, with today's redundant verify work.",
            in_process=True, cycle=7, pool_size=210, traced_ops=14, make_op=oracle_verify_op,
        ),
        Workload(
            "cli-calls",
            "Tiny lists through python -m zonotutte, one in eight rejected: interpreter start, "
            "imports and input validation dominate.",
            in_process=False, cycle=32, pool_size=128, traced_ops=32, make_op=cli_calls_op,
        ),
    )
}


# ---------------------------------------------------------------------------
# Running one op


@dataclass
class Result:
    rc: int | None
    stdout: bytes
    stderr: str
    seconds: float


class _OpTimeout(BaseException):
    """Raised by the alarm inside an in-process op; BaseException so that
    no handler in the program swallows it."""


def _alarm(signum, frame):
    raise _OpTimeout()


def run_in_process(main, op: Op) -> Result:
    """Call zonotutte.cli.main with op's arguments and stdin, capturing output."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    sys.stdin = io.StringIO(op.stdin)
    rc = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
    except _OpTimeout:
        err.write(f"timeout after {OP_TIMEOUT_S} s\n")
    except Exception:  # a traceback is a failed op, not a benchmark crash
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
        sys.stdin = sys.__stdin__
    return Result(rc, out.getvalue().encode("utf-8"), err.getvalue(), elapsed)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_subprocess(command: list[str], op: Op, env: dict) -> Result:
    """Run one CLI call in a fresh interpreter; time is spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        command + list(op.argv),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(op.stdin.encode("utf-8"), timeout=OP_TIMEOUT_S)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        rc = None
        err += f"timeout after {OP_TIMEOUT_S} s\n".encode()
    return Result(rc, out, err.decode("utf-8", "replace"), time.perf_counter() - t0)
