"""Every definition of the package has a caller in the package.

No linter ships with the test tools, so this reads each source file with
``ast``, like ``test_unused_imports.py``. A module-level function, class
or constant, or a method, must have its name loaded somewhere under
``src/uniqpoly`` (as a bare name or as an attribute) or be listed in an
``__all__``. A definition that only tests reach fails the check: either
a product path calls it or it goes, together with its tests.

The check matches names only, so a method whose name another definition
also uses (``evaluate`` on two classes, say) passes on the strength of
the other; such a method still needs a line trace to show it is reached.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uniqpoly"

# called from outside the package's own code
EXEMPT = {
    # argparse calls it on a usage error
    "_ArgumentParser.error",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, qualified name, bare name) for each definition checked."""
    out = []
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            out.append((node.lineno, node.name, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(node.lineno, t.id, t.id) for t in targets
                    if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            out += [(item.lineno, f"{node.name}.{item.name}", item.name)
                    for item in node.body if isinstance(item, FUNCTIONS)]
    return out


def _loaded_and_exported(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


def unreached_definitions(sources: dict[str, str]) -> list[str]:
    """``module:line: name`` for each definition nothing in sources reaches."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reached: set[str] = set()
    for tree in trees.values():
        reached |= _loaded_and_exported(tree)
    found = []
    for mod, tree in trees.items():
        for line, qual, name in _definitions(tree):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in reached and qual not in EXEMPT:
                found.append((mod, line, qual))
    return [f"{mod}:{line}: {qual}" for mod, line, qual in sorted(found)]


def test_the_check_finds_unreached_definitions():
    a = ("RANK = {'a': 1}\nUSED = 2\n__version__ = '1'\n"
         "class K:\n    def __init__(self):\n        pass\n"
         "    def hit(self):\n        return USED\n"
         "    def miss(self):\n        return 0\n"
         "def lonely():\n    return K().hit()\n"
         "def exported():\n    return _ArgumentParser()\n"
         "class _ArgumentParser:\n    def error(self):\n        pass\n"
         "__all__ = ['exported']\n")
    b = "from .a import lonely\n"  # an import alone reaches nothing
    assert unreached_definitions({"a.py": a, "b.py": b}) == [
        "a.py:1: RANK", "a.py:9: K.miss", "a.py:11: lonely"]


def _package_sources() -> dict[str, str]:
    files = sorted(SRC.glob("*.py"))
    assert files
    return {path.name: path.read_text("utf-8") for path in files}


def test_every_definition_has_a_caller_in_the_package():
    assert unreached_definitions(_package_sources()) == []


def test_every_exemption_names_a_definition():
    # a stale exemption would let a later definition of that name pass
    defined = {qual for src in _package_sources().values()
               for _, qual, _ in _definitions(ast.parse(src))}
    assert EXEMPT <= defined
