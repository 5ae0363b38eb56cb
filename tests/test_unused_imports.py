"""No module under src/qadic or tests imports a name it never reads, no
module-level private name in src/qadic goes unread by the package, every
module-level MAX_* cap in src/qadic is named by a PreconditionError message,
and the modules of src/qadic import each other in one order, at module level."""

import ast
import re
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


def _unnamed_caps(sources):
    """Sorted (module, name) for each module-level MAX_* constant of the
    sources, a dict of module name to source, that no PreconditionError
    message of them names.  A message is the string literals of a raise of
    PreconditionError, and those assigned in a function that has one (a
    message built from parts); docstrings and other errors do not count."""
    caps, messages = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                caps += [(module, t.id) for t in node.targets if isinstance(t, ast.Name) and t.id.startswith("MAX_")]
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            raises = [
                node for node in ast.walk(func)
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "PreconditionError"
            ]
            if raises:
                parts = raises + [node.value for node in ast.walk(func) if isinstance(node, ast.Assign)]
                messages += [
                    node.value for part in parts for node in ast.walk(part)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                ]
    text = "\n".join(messages)
    return sorted(cap for cap in caps if not re.search(rf"\b{cap[1]}\b", text))


def test_cap_guard_flags_each_unnamed_form():
    source = (
        "MAX_A = 1\nMAX_B = 2\nMAX_C = 3\nMAX_D = 4\nMAX_E = MAX_EXTRA = 5\n"
        "def f(n):\n"
        "    '''MAX_C'''\n"
        "    if n > MAX_A:\n"
        "        raise PreconditionError(f'n exceeds MAX_A = {MAX_A}')\n"
        "    cap = 'MAX_B, the cap'\n"
        "    raise PreconditionError(cap)\n"
        "def g():\n"
        "    raise ValueError('MAX_D MAX_EXTRA')\n"
    )
    assert _unnamed_caps({"a": source}) == [("a", "MAX_C"), ("a", "MAX_D"), ("a", "MAX_E"), ("a", "MAX_EXTRA")]


def test_every_cap_is_named_by_an_error():
    sources = {f.name: f.read_text() for f in sorted(ROOTS[0].glob("*.py"))}
    assert sum(source.count("\nMAX_") for source in sources.values()) >= 7
    assert _unnamed_caps(sources) == []


# Each module of src/qadic imports only the qadic modules listed before it;
# __init__ and __main__, which sit on top of the package, are exempt.
LAYERS = ("_par", "rational", "kernels", "expansion", "cantor", "orders", "certificates", "enumeration", "cli")


def _layering_faults(sources):
    """Sorted (module, fault) for the sources, a dict of module name to
    source: a module LAYERS does not list, an import of a qadic module not
    listed before the importer, and an import inside a function body."""
    faults = []
    for module, source in sources.items():
        if module not in LAYERS:
            faults.append((module, "is not in LAYERS"))
            continue
        earlier = LAYERS[: LAYERS.index(module)]
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
                faults += [(module, f"imports inside {node.name}")] * len(inner)
                continue
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [f"qadic.{a.name}" for a in node.names] if node.module == "qadic" else [node.module]
            else:
                continue
            for target in targets:
                name = target.removeprefix("qadic.")
                if (target == "qadic" or target.startswith("qadic.")) and name not in earlier:
                    faults.append((module, f"imports {name}"))
    return sorted(faults)


def test_layering_guard_flags_each_form():
    sources = {
        "kernels": "from qadic.rational import MAX_DIGITS\n",
        "cantor": "import math\nfrom qadic import _par, enumeration\ndef f():\n    from qadic.rational import require\n",
        "orders": "import qadic.cli\nimport qadic\nfrom qadic.orders import mult_order\n",
        "extra": "import os\n",
    }
    assert _layering_faults(sources) == [
        ("cantor", "imports enumeration"),
        ("cantor", "imports inside f"),
        ("extra", "is not in LAYERS"),
        ("orders", "imports cli"),
        ("orders", "imports orders"),
        ("orders", "imports qadic"),
    ]


def test_modules_import_only_earlier_layers():
    # the order keeps the package free of import cycles, and so of the lazy
    # imports inside functions that would hide one
    files = [f for f in sorted(ROOTS[0].glob("*.py")) if f.stem not in ("__init__", "__main__")]
    assert len(files) == len(LAYERS)
    assert _layering_faults({f.stem: f.read_text() for f in files}) == []
