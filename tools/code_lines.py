"""Count code lines of Python files: lines that hold a token other than a
comment, a blank line or a docstring.

A docstring is the string statement that opens a module, class or function
body.  A token spanning several lines (a multi-line string that is not a
docstring, say) counts every line it spans.

Usage: ``python tools/code_lines.py [PATH ...]`` (default ``src/goupsim``)
prints one ``count path`` line per file, sorted by path, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

#: tokens that hold no code
_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of the Python file ``path``."""
    source = path.read_bytes()
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path("src/goupsim")]
    files = sorted(f for root in roots for f in ([root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d} {f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
