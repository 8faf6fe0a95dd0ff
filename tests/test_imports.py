"""Every module of the package and of the tests reads each name it
imports, and the package names each private definition it makes."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "retabench").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never names again, as ``line:
    name``. ``import a.b`` binds ``a``; a ``from __future__`` import binds
    no name."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    named: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name.partition(".")[0]: node.lineno
                             for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
        elif isinstance(node, ast.Name):
            named.add(node.id)
    return [f"{line}: {name}" for name, line in imported.items() if name not in named]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_read(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_names_each_unused_import():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from math import inf as INF, pi\nos.path.join(INF)\n")
    assert _unused_imports(source) == ["2: json", "4: pi"]


PACKAGE = sorted((ROOT / "src" / "retabench").glob("*.py"))


def _dead_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level private functions, classes and constants of
    ``sources`` (module name: source) that no node of any of them names,
    as ``module: name``. Dunder names are exempt, and so are the CLI's
    ``_cmd_*`` handlers, which ``build_parser`` looks up by name."""
    defined: list[tuple[str, str]] = []
    named: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, name.id) for target in targets
                            for name in ast.walk(target) if isinstance(name, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [f"{module}: {name}" for module, name in defined
            if name.startswith("_") and not name.startswith("_cmd_")
            and not (name.startswith("__") and name.endswith("__")) and name not in named]


def test_every_private_definition_of_the_package_is_named():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert _dead_definitions(sources) == []


def test_the_check_names_each_dead_definition():
    sources = {
        "a": ("import re\n_USED, _SPARE = 1, 2\n_PATTERN: re.Pattern = re.compile('x')\n"
              "__all__ = ['f']\ndef _cmd_run(): pass\ndef _helper(): pass\n"
              "class _Kept: pass\ndef f(): return _USED + _Kept.x\n"),
        "b": "from .a import _PATTERN\n_PATTERN = None\n_local = 0\n",
    }
    assert _dead_definitions(sources) == ["a: _SPARE", "a: _helper", "b: _local"]
