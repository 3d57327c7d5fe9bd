"""Digest the CLI's output on a fixed set of calls, to compare two checkouts.

Runs every op of the four benchmark pools (bench/workloads.py) at seeds 1
and 2, plus tutte and tutte --classical on B_5, C_5, D_6 and Pi_8 (with
--max-subsets raised to their length) and verify --oracle --q-list 1,2,3
on D_4 and B_4, each in process through zonotutte.cli.main.  Prints one sha256 of (exit code, stdout, stderr) per
call, then a total over all of them:

    python tests/same_output.py

Two checkouts whose totals match gave every call the same exit code and
the same bytes on both streams.  bench/ is read, never written.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import zonotutte.cli  # noqa: E402
from test_ehrhart import braid_list, root_list  # noqa: E402
from workloads import WORKLOADS, Op, run_in_process  # noqa: E402

SEEDS = (1, 2)


def _list_op(argv, X) -> Op:
    doc = json.dumps({"dim": X.dim, "vectors": [list(v) for v in X.vectors]})
    return Op(tuple(argv), doc, 0)


def calls():
    """(label, op) for every call, in a fixed order."""
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            pool = workload.build_pool(random.Random(f"{name}:{seed}"))
            for i, op in enumerate(pool):
                yield f"{name}:{seed}:{i}", op
    lists = {
        "B_5": root_list("B", 5),
        "C_5": root_list("C", 5),
        "D_6": root_list("D", 6),
        "Pi_8": braid_list(8),
    }
    for label, X in lists.items():
        for flags in ([], ["--classical"]):
            # the lists pass the default cap of 24 vectors
            argv = ["tutte", *flags, "--max-subsets", str(len(X))]
            yield f"{label}:{' '.join(argv)}", _list_op(argv, X)
    for label, X in (("D_4", root_list("D", 4)), ("B_4", root_list("B", 4))):
        argv = ["verify", "--oracle", "--q-list", "1,2,3"]
        yield f"{label}:{' '.join(argv)}", _list_op(argv, X)


def main() -> None:
    total = hashlib.sha256()
    count = 0
    for label, op in calls():
        result = run_in_process(zonotutte.cli.main, op)
        digest = hashlib.sha256(repr((result.rc, result.stdout, result.stderr)).encode())
        print(f"{digest.hexdigest()} {label}")
        total.update(digest.digest())
        count += 1
    print(f"{total.hexdigest()} total of {count} calls")


if __name__ == "__main__":
    main()
