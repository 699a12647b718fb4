"""Count code lines: non-blank, non-comment, non-docstring lines of Python files.

Usage::

    python3 tools/code_lines.py src/wienerlab tests perfbench

prints one count per argument (a file, or a directory searched for ``*.py``
files recursively) and, for several arguments, their total.  A line counts
when a token other than a comment starts or continues on it; the lines of a
module, class or function docstring (found with ``ast``) never count.  Only
the standard library is used.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
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
    """Code lines of one Python file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source, str(path)))
    lines: set[int] = set()
    with path.open("rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def count(target: Path) -> int:
    """Code lines of a file, or of every ``*.py`` file under a directory."""
    files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
    return sum(code_lines(f) for f in files)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counts = [(arg, count(Path(arg))) for arg in argv]
    for arg, n in counts:
        print(f"{n:7d}  {arg}")
    if len(counts) > 1:
        print(f"{sum(n for _, n in counts):7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
