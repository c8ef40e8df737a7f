"""Every module-level import of the package is used: a name imported at the
top of a module (outside __init__.py, which re-exports) must be read
somewhere in that module, unless its line says `# noqa: F401`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dmeter"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level import that nothing in source reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        # The marker may sit on any line of a parenthesized import.
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            # `import a.b` binds a.
            imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport numpy as np\n"
              "from .corpus import (Corpus, _distinct,\n    _run_starts)\n"
              "from .vectors import cosine  # noqa: F401\n"
              "def f(c: Corpus):\n    return np.zeros(1)\n")
    assert unused_imports(source) == [(2, "os"), (3, "os"), (5, "_distinct"), (5, "_run_starts")]
