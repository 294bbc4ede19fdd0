"""Every field a class of the package declares is read in the package.

No linter ships with the test tools, so this reads each source file with
``ast``, like ``test_unused_imports.py``. An annotated field in a class
body must be read as an attribute somewhere under ``src/uniqpoly``, or
be named in a string constant inside its own class: ``Witness.as_dict``
reads its fields by name. A field that is written and never read only
costs the code that fills it in.

The check matches names only, so a field that shares its name with an
attribute of another class passes on the strength of the other: a read
of ``Configuration.n`` would hide an unread ``n`` field elsewhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uniqpoly"

# read from outside the package's own code
EXEMPT = {
    # the time budgets of test_acceptance.py read how long a criterion took
    "CriterionResult.seconds",
}


def _fields(tree: ast.Module) -> list[tuple[int, str, str, set[str]]]:
    """(line, qualified name, bare name, the string constants of its
    class) for each annotated class field."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        named = {n.value for n in ast.walk(node)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        out += [(item.lineno, f"{node.name}.{item.target.id}",
                 item.target.id, named)
                for item in node.body if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)]
    return out


def _attributes_read(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_fields(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*map(_attributes_read, trees.values()))
    return [f"{name}:{line}: {qual}"
            for name, tree in sorted(trees.items())
            for line, qual, bare, named in _fields(tree)
            if bare not in read and bare not in named
            and qual not in EXEMPT]


def test_the_check_finds_an_unread_field():
    source = (
        "class A:\n"
        "    kept: int\n"
        "    named: str\n"
        "    dropped: int\n"
        "    def f(self):\n"
        "        self.dropped = 1\n"
        "        return self.kept, getattr(self, 'named')\n"
        "class B:\n"
        "    other: int\n"
        "KEYS = ('other', 'dropped')\n"
    )
    assert unread_fields({"a.py": source}) == ["a.py:4: A.dropped",
                                               "a.py:9: B.other"]


def test_no_unread_fields_in_the_package():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = unread_fields({str(path.relative_to(SRC)): path.read_text("utf-8")
                           for path in files})
    assert found == []
