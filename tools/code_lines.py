"""Count code lines in Python sources: blank lines, comments and
docstrings do not count.

A line counts if it holds part of a token other than a comment, a line
break or an indentation change, and lies outside every docstring (the
leading string of a module, class or function).  A string that spans
several lines counts on each of them.

    python tools/code_lines.py [DIR ...]     # default: src/sensorgames

prints each module's count and the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    with path.open("rb") as f:
        lines = {row for tok in tokenize.tokenize(f.readline) if tok.type not in NOT_CODE
                 for row in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - skip)


def main(argv: list[str]) -> int:
    total = 0
    for root in argv or ["src/sensorgames"]:
        for path in sorted(Path(root).rglob("*.py")):
            count = code_lines(path)
            total += count
            print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
