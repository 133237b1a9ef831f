"""An offline lint: every function parameter and every import of the
package's modules is read somewhere.  A parameter counts as read when its
function body (nested functions included) loads the name; an import when
its module loads the name or lists it in ``__all__``.  A method's self or
cls is exempt, since an override must accept it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ctstokes"


def _loads(nodes) -> set:
    return {n.id for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def unused_names(source: str) -> list:
    """'line N: parameter x of f' / 'line N: import x' for each unused name."""
    tree = ast.parse(source)
    read = _loads([tree])
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    found.append(f"line {node.lineno}: import {name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            used = _loads(body)
            for p in params:
                if p is not None and p.arg not in used | {"self", "cls"}:
                    where = getattr(node, "name", "lambda")
                    found.append(f"line {node.lineno}: parameter {p.arg} of {where}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters_or_imports(path):
    assert unused_names(path.read_text()) == []


def test_lint_finds_unused_names():
    source = ("import os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\n"
              "def f(x, y, *args, z=np.pi):\n    return lambda u, v: x + v\n")
    assert unused_names(source) == [
        "line 1: import os", "line 3: import b",
        "line 5: parameter y of f", "line 5: parameter args of f",
        "line 5: parameter z of f", "line 6: parameter u of lambda"]
