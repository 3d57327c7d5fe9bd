"""The README's library and CLI examples run as written and print what they say."""

import ast
import json
import re
import shlex
from pathlib import Path

from zonotutte.cli import main

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


def test_cli_examples_run_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.partition("\n## CLI\n")[2]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.splitlines()
    checked = {}
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "zonotutte", line
        assert main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        # a trailing comment that is a number is the report's value
        comment = line.partition("#")[2].strip()
        if comment.isdigit():
            assert json.loads(out)["results"]["value"] == comment, line
            checked[argv[1]] = comment
    assert len(lines) == 7
    assert checked == {"count": "57", "interior": "33", "volume": "11"}
