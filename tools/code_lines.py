"""Count the code lines, the exported names and the settable values of the
projpair package.

A code line is a line that holds a token other than a comment or a line,
indent or dedent marker, and that lies outside every module, class and
function docstring.  Blank lines, comment lines and docstrings therefore
do not count; each line a continued statement spans does, as does each
line of a string that is not a docstring.  Standard library only.

Usage::

    python3 tools/code_lines.py

prints one ``count  module`` line per module of ``src/projpair``, a
``total`` line, an ``exported names`` line: the number of names that
``src/projpair/__init__.py`` binds with its ``from ... import`` statements,
and a ``settable values`` line: the defaulted parameters of the exported
top-level functions, the annotated fields of the exported ``@dataclass``
classes, the defaulted parameters of the exported classes' public methods,
and the keys across the sections of ``cli._SCHEMA``.  One indented line per
settable value follows it, naming the value as ``module.function(parameter)``,
``module.Class.field``, ``module.Class.method(parameter)`` or
``cli [section] key``.
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


def _defaulted(func: ast.FunctionDef) -> list[str]:
    """Names of the parameters of ``func`` that have a default."""
    positional = func.args.posonlyargs + func.args.args
    names = [arg.arg for arg in positional[len(positional) - len(func.args.defaults):]]
    return names + [arg.arg for arg, d in zip(func.args.kwonlyargs, func.args.kw_defaults) if d is not None]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
               for d in cls.decorator_list)


def settable_value_names(package: Path) -> list[str]:
    """The values a caller of the package ``package`` can set, by name: see
    the module docstring.  Every module ``__init__.py`` imports from is
    parsed, not imported."""
    exported: dict[str, set[str]] = {}
    for node in ast.parse((package / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            exported.setdefault(node.module, set()).update(alias.name for alias in node.names)
    names = []
    for module, exports in exported.items():
        for node in ast.parse((package / f"{module}.py").read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name in exports:
                names += [f"{module}.{node.name}({arg})" for arg in _defaulted(node)]
            elif isinstance(node, ast.ClassDef) and node.name in exports:
                prefix = f"{module}.{node.name}"
                if _is_dataclass(node):
                    names += [f"{prefix}.{item.target.id}" for item in node.body if isinstance(item, ast.AnnAssign)]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        names += [f"{prefix}.{item.name}({arg})" for arg in _defaulted(item)]
    for node in ast.parse((package / "cli.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "_SCHEMA" for t in node.targets):
            for section, keys in zip(node.value.keys, node.value.values):
                names += [f"cli [{section.value}] {key.value}" for key in keys.keys]
    return names


def settable_values(package: Path) -> int:
    """Number of values a caller of the package ``package`` can set."""
    return len(settable_value_names(package))


def main() -> int:
    package = Path(__file__).resolve().parents[1] / "src" / "projpair"
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    print(f"{exported_names((package / '__init__.py').read_text(encoding='utf-8')):6d}  exported names")
    names = settable_value_names(package)
    print(f"{len(names):6d}  settable values")
    for name in names:
        print(f"        {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
