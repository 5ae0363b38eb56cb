"""No module under src/qadic or tests imports a name it never reads, and no
module-level private name in src/qadic goes unread by the package."""

import ast
from pathlib import Path

import qadic

ROOTS = (Path(qadic.__file__).parent, Path(__file__).parent)


def _unused_imports(source):
    """(line, name) for each imported name that source never reads.

    Names listed in __all__ count as read; `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_guard_flags_each_unused_form():
    source = (
        "import os\n"
        "import os.path\n"
        "from math import gcd, lcm as l\n"
        "from qadic.rational import integer_root\n"
        "from __future__ import annotations\n"
        "print(gcd)\n"
    )
    assert _unused_imports(source) == [(2, "os"), (3, "l"), (4, "integer_root")]
    assert _unused_imports("import sys\nfrom math import gcd\n__all__ = ['gcd']\nsys.exit(0)\n") == []


def test_no_unused_imports():
    # an __init__ module imports to re-export, so it is exempt
    files = sorted(f for root in ROOTS for f in root.glob("*.py") if f.name != "__init__.py")
    assert len(files) >= 20
    found = {f"{f.parent.name}/{f.name}": hits for f in files if (hits := _unused_imports(f.read_text()))}
    assert found == {}


def _unread_private_names(sources):
    """Sorted (module, name) for each module-level private function, class or
    constant of the sources, a dict of module name to source, that none of
    them reads (by name, as an attribute, or in a from-import)."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(module, name) for name in names if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted((module, name) for module, name in defined if name not in read)


def test_private_guard_flags_each_unread_form():
    sources = {
        "a": "_LIMIT = 3\n_BITS: int = 8\ndef _left(): pass\nclass _Gone: pass\ndef _used(): return _BITS\n",
        "b": "from a import _used\nimport a\n__all__ = []\na._LIMIT\n_x = _used()\n",
    }
    assert _unread_private_names(sources) == [("a", "_Gone"), ("a", "_left"), ("b", "_x")]


def test_no_unread_private_names():
    files = sorted(ROOTS[0].glob("*.py"))
    assert len(files) >= 10
    assert _unread_private_names({f.name: f.read_text() for f in files}) == []
