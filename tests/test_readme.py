"""The README's library example runs as written and prints what it says."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_as_written():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    checked = {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(source, namespace)
            continue
        # a bare expression's comment opens with the value it returns
        comment = lines[node.lineno - 1].partition("#")[2]
        expected = ast.literal_eval(re.match(r"\s*(\(.*?\))", comment).group(1))
        assert eval(source, namespace) == expected, source
        checked[source] = expected
    assert checked == {
        "scalar_corollaries(M)": (18, 11, 6),
        "closed_open_counts(X, 2)": (57, 33),
    }
