"""No module of the library imports a name it never uses."""

import ast
from pathlib import Path

import raagtk

SRC = Path(raagtk.__file__).parent


def unused_imports(path):
    """(line, name) for each name an import statement in `path` binds and
    the module never reads; `from __future__` imports are directives."""
    tree = ast.parse(path.read_text())
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a string annotation such as "np.ndarray" reads its names too
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # __init__.py imports to re-export, so it is not checked
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p) for p in modules}
    assert {name: u for name, u in found.items() if u} == {}
