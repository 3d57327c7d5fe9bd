import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_working_tree_against_itself():
    # one list per set and one round: the tool extracts both sides, times
    # them in one process and prints a ratio for each of its four sets
    out = subprocess.run(
        [sys.executable, "tests/ab_minima.py", ".", ".", "--rounds", "1", "--limit", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [row[:2] for row in rows] == [
        ["tutte-small", "1"], ["tutte-large", "1"], ["oracle-verify", "1"], ["roots", "1"]
    ]
    assert all(float(row[4]) > 0 for row in rows)
