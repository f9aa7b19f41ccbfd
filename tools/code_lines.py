"""Count the code lines and the exported names of the projpair package.

A code line is a line that holds a token other than a comment or a line,
indent or dedent marker, and that lies outside every module, class and
function docstring.  Blank lines, comment lines and docstrings therefore
do not count; each line a continued statement spans does, as does each
line of a string that is not a docstring.  Standard library only.

Usage::

    python3 tools/code_lines.py

prints one ``count  module`` line per module of ``src/projpair``, a
``total`` line and an ``exported names`` line: the number of names that
``src/projpair/__init__.py`` binds with its ``from ... import`` statements.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of the module's, its classes' and its functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in the Python ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def exported_names(source: str) -> int:
    """Number of names the module ``source`` binds with its top-level
    ``from ... import`` statements, ``from __future__`` aside."""
    froms = [node for node in ast.parse(source).body if isinstance(node, ast.ImportFrom)]
    return sum(len(node.names) for node in froms if node.module != "__future__")


def main() -> int:
    package = Path(__file__).resolve().parents[1] / "src" / "projpair"
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    print(f"{exported_names((package / '__init__.py').read_text(encoding='utf-8')):6d}  exported names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
