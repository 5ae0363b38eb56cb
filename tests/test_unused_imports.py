"""No module under src/qadic or tests imports a name it never reads."""

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
