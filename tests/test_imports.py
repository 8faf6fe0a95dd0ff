"""Every module of the package and of the tests reads each name it imports."""

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
