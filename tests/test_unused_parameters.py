"""No function of the package takes a parameter its body never reads.

No linter ships with the test tools, so this reads each source file with
``ast``, like ``test_unused_imports.py``: every parameter of a function
or lambda must appear as a name in its body, a nested function's body
included. ``self``, ``cls`` and names that begin with ``_`` are exempt,
the last so that a signature fixed by its callers can say which
arguments it ignores.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uniqpoly"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def unused_parameters(source: str) -> list[tuple[int, str, str]]:
    """(line, function, parameter) for each parameter never read."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, FUNCTIONS):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        out += [(node.lineno, name, p.arg) for p in params
                if p.arg not in read and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")]
    return sorted(out)


def test_the_check_finds_an_unused_parameter():
    source = ("def f(a, b, *args, c=1, _d=2, **kw):\n"
              "    def g(x):\n        return a + kw['k']\n"
              "    return g\n"
              "class K:\n    def m(self, y):\n        return 0\n"
              "h = lambda u, v: u\n")
    assert unused_parameters(source) == [
        (1, "f", "args"), (1, "f", "b"), (1, "f", "c"), (2, "g", "x"),
        (6, "m", "y"), (8, "<lambda>", "v")]


def test_no_unused_parameters_in_the_package():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{line}: {name}({param})"
             for path in files
             for line, name, param in unused_parameters(
                 path.read_text("utf-8"))]
    assert found == []
