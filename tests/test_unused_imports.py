"""No module of the package imports a name it never uses.

No linter ships with the test tools, so this reads each source file with
``ast``: every name an import binds must appear as a name somewhere in
the module (the root of ``a.b.c`` counts as a use of ``a``) or be listed
in ``__all__``, which is how the package re-exports its public names.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uniqpoly"


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used and name not in exported)


def test_the_check_finds_an_unused_import():
    source = ("import math\nimport os.path\nfrom typing import Optional\n"
              "from .x import y\n__all__ = ['y']\nprint(os.path.sep)\n")
    assert unused_imports(source) == [(1, "math"), (3, "Optional")]


def test_no_unused_imports_in_the_package():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in files
             for line, name in unused_imports(path.read_text("utf-8"))]
    assert found == []
