"""Time the Tutte sum of two checkouts in one process, to compare them.

    python tests/ab_minima.py A B [--rounds R] [--limit K]

A and B are each a directory that holds src/zonotutte (such as . for the
working tree) or a git revision of this repository.  Each side's package
is copied, or extracted offline by git archive, into a temporary
directory under its own name, zonotutte_a or zonotutte_b, and both are
imported into this one process.  multiplicity_tutte is timed on four
sets of lists:

- tutte-small, tutte-large: the lists of the tutte and verify ops of
  those benchmark pools at seed 1 (bench/workloads.py);
- oracle-verify: the lists of that pool at seed 1, each dilated by
  q = 1..4, as the dilation rows of verify build them;
- roots: B_5, C_5, D_6 and Pi_8.

Each list's time is the minimum over R rounds (default 7); in each round
both sides run every list, and which side goes first alternates from one
round to the next.  --limit K keeps the first K lists of each set.  Prints
each set's summed minima for A and B and the ratio B/A.  bench/ is read,
never written.
"""

import argparse
import importlib
import io
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from test_ehrhart import braid_list, root_list  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGE = "src/zonotutte"


def list_sets() -> dict[str, list[tuple[int, tuple[tuple[int, ...], ...]]]]:
    """Each set's lists, as (dim, vectors), in a fixed order."""
    sets = {}
    for name in ("tutte-small", "tutte-large", "oracle-verify"):
        pool = WORKLOADS[name].build_pool(random.Random(f"{name}:1"))
        lists = [(op.dim, op.vectors) for op in pool if op.argv[0] in ("tutte", "verify")]
        if name == "oracle-verify":
            lists = [
                (n, tuple(tuple(q * x for x in v) for v in X))
                for n, X in lists
                for q in range(1, 5)
            ]
        sets[name] = lists
    roots = (root_list("B", 5), root_list("C", 5), root_list("D", 6), braid_list(8))
    sets["roots"] = [(X.dim, X.vectors) for X in roots]
    return sets


def extract(source: str, dest: Path) -> None:
    """Write source's package into dest: a copy of DIR/src/zonotutte when
    source is a directory, else the package at that git revision."""
    if Path(source).is_dir():
        shutil.copytree(Path(source) / PACKAGE, dest, ignore=shutil.ignore_patterns("__pycache__"))
        return
    archive = subprocess.run(
        ["git", "archive", "--format=tar", source, PACKAGE],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                target = dest / member.name.removeprefix(PACKAGE + "/")
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(tar.extractfile(member).read())


def load(name: str, sets: dict) -> dict:
    """Per set, (multiplicity_tutte, X) of the side's package for every
    list, X built as that package's VectorList."""
    tutte = importlib.import_module(f"{name}.tutte_core").multiplicity_tutte
    VectorList = importlib.import_module(f"{name}.exact_linalg").VectorList
    return {s: [(tutte, VectorList(n, X)) for n, X in lists] for s, lists in sets.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args(argv)
    sets = {s: lists[: args.limit] for s, lists in list_sets().items()}
    names = ("zonotutte_a", "zonotutte_b")
    with tempfile.TemporaryDirectory() as tmp:
        for source, name in zip((args.a, args.b), names):
            extract(source, Path(tmp) / name)
        sys.path.insert(0, tmp)
        sides = [load(name, sets) for name in names]
        best = [{s: [float("inf")] * len(lists) for s, lists in sets.items()} for _ in sides]
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for s, lists in sets.items():
                for i in range(len(lists)):
                    for side in order:
                        tutte, X = sides[side][s][i]
                        t0 = time.perf_counter()
                        tutte(X, max_list_size=len(X))
                        best[side][s][i] = min(best[side][s][i], time.perf_counter() - t0)
    print(f"A = {args.a}, B = {args.b}, minimum of {args.rounds} rounds per list")
    print(f"{'set':<14} {'lists':>5} {'A (s)':>10} {'B (s)':>10} {'B/A':>7}")
    for s, lists in sets.items():
        a, b = sum(best[0][s]), sum(best[1][s])
        print(f"{s:<14} {len(lists):>5} {a:>10.4f} {b:>10.4f} {b / a:>7.3f}")


if __name__ == "__main__":
    main()
