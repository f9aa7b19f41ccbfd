"""Repository-level checks: no unused imports or private names in the
package, the README's library quick start runs as written, its config
example and the config keys it names match the CLI's schema, and the
code-line, exported-name and settable-value counter in tools/ counts what
it says."""

import ast
import contextlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

from projpair import cli

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "projpair").glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"{path.name}: imported but never used: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_private_module_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = sorted(private - read)
    assert not unused, f"{path.name}: private names never read in their module: {unused}"


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
    assert len(out.getvalue().splitlines()) == 2


def test_readme_config_matches_the_schema(tmp_path):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    example = tmp_path / "example.ini"
    example.write_text(blocks[0], encoding="utf-8")
    cfg, _, _ = cli._load_config(str(example))
    assert cfg["target"]["kind"] == "phantom"
    named = re.findall(r"`\[(\w+)\] (\w+)", text)
    assert len(named) >= 4
    unknown = [f"[{section}] {key}" for section, key in named if key not in cli._SCHEMA.get(section, ())]
    assert not unknown, f"README.md names config keys that _SCHEMA lacks: {unknown}"


CODE_LINES_SNIPPET = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def join(a,
         b):
    """Function docstring."""
    return os.path.join(
        a,
        b,
    )


class Box:
    "Class docstring."
    text = """a string
that is no docstring"""
'''


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    return code_lines


def test_code_line_counter_known_answer():
    code_lines = load_code_lines()
    # import; def and its continued line; return and the call's four lines;
    # class; the two lines of the string assigned to text
    assert code_lines.code_lines(CODE_LINES_SNIPPET) == 10
    assert code_lines.code_lines("") == 0


def test_exported_name_counter_known_answer():
    code_lines = load_code_lines()
    # path, a, c and d; not os (a plain import), annotations (from
    # __future__) or e (not at the top level)
    source = CODE_LINES_SNIPPET + (
        "from __future__ import annotations\nfrom os import path\nfrom .m import (\n    a,\n    b as c,\n)\n"
        "from .n import d\nimport sys\nif sys:\n    from .o import e\n")
    assert code_lines.exported_names(source) == 4
    assert code_lines.exported_names((ROOT / "src" / "projpair" / "__init__.py").read_text(encoding="utf-8")) == 63


SETTABLE_PACKAGE = {
    "__init__.py": "from __future__ import annotations\nfrom .m import C, D, E, f\nfrom .cli import main\n",
    "m.py": '''from dataclasses import dataclass


def f(a, b=1, *, c=2, d):
    pass


def g(x=1):
    pass


@dataclass(frozen=True)
class C:
    x: int
    y: float = 0.0
    z = 3

    def method(self, k=1):
        pass

    def _private(self, k=1):
        pass

    @staticmethod
    def make(a, b=2, c=3):
        pass


@dataclass
class D:
    w: int


class E:
    n: int

    def run(self, v=0):
        pass
''',
    "cli.py": "def main(argv=None):\n    pass\n\n\n_SCHEMA = {\"a\": {\"k1\": 1, \"k2\": 2}, \"b\": {\"k3\": 3}}\n",
}


def test_settable_value_counter_known_answer(tmp_path):
    code_lines = load_code_lines()
    for name, text in SETTABLE_PACKAGE.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    # f's b and c; C's fields x and y (not z), method's k and make's b and c
    # (not _private's k); D's w; E's run's v (E is no dataclass, so not n);
    # main's argv; the three _SCHEMA keys.  g is not exported.
    assert code_lines.settable_values(tmp_path) == 2 + 5 + 1 + 1 + 1 + 3
    assert code_lines.settable_value_names(tmp_path) == [
        "m.f(b)", "m.f(c)", "m.C.x", "m.C.y", "m.C.method(k)", "m.C.make(b)", "m.C.make(c)", "m.D.w",
        "m.E.run(v)", "cli.main(argv)", "cli [a] k1", "cli [a] k2", "cli [b] k3"]
    assert code_lines.settable_values(ROOT / "src" / "projpair") == 87
