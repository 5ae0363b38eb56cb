"""No floats in the library: every bound and every digit is an exact integer or Fraction."""

import ast
from pathlib import Path

import qadic


def _inexact_math(name):
    return name == "sqrt" or name.startswith("log")


def _inexact_nodes(source):
    """(line, what) for each float literal, float() call or math.log*/math.sqrt in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float()"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
            if _inexact_math(node.attr):
                found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, f"from math import {a.name}") for a in node.names if _inexact_math(a.name))
    return found


def test_guard_flags_each_inexact_form():
    source = "x = 0.5\ny = float(3)\nz = math.log2(8)\nw = math.sqrt(2)\nfrom math import log\nv = 1e3\n"
    assert sorted(line for line, _ in _inexact_nodes(source)) == [1, 2, 3, 4, 5, 6]
    assert _inexact_nodes("import math\nx = math.isqrt(8) + math.gcd(4, 6) // 2\ny = 3 / 4\n") == []


def test_library_has_no_float_arithmetic():
    files = sorted(Path(qadic.__file__).parent.glob("*.py"))
    assert len(files) >= 10
    found = {f.name: hits for f in files if (hits := _inexact_nodes(f.read_text()))}
    assert found == {}
