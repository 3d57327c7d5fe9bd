"""Count the code lines of Python sources: no blanks, comments or docstrings.

A code line holds a token other than a comment, newline, indent or dedent
(tokenize), and is not a line of a module, class or function docstring
(ast).  A statement over two lines counts two.

    python tests/code_lines.py src/zonotutte

prints each module's count and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(directory: str) -> None:
    total = 0
    for path in sorted(Path(directory).glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6} {path.name}")
    print(f"{total:6} total")


if __name__ == "__main__":
    main(sys.argv[1])
