"""Package-wide rules, read from the source with `ast`.

The package is stdlib-only: every absolute import names a module of the
standard library (`sys.stdlib_module_names`), and everything else is a
relative import of the package's own modules.  Arithmetic is exact: no
module holds a float literal, and `linalg` eliminates in int only, with no
`fractions` import.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "newton_mu"


def violations(source: str) -> list[str]:
    """One line per rule broken in a module's source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                out.append(f"line {node.lineno}: non-stdlib import {name}")
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append(f"line {node.lineno}: float literal {node.value!r}")
    return out


def test_rules_catch_what_they_name():
    bad = "import numpy as np\nfrom sympy.core import S\nimport os.path\nfrom . import linalg\nx = 0.5\ny = 1e3\nz = 1\n"
    assert violations(bad) == [
        "line 1: non-stdlib import numpy",
        "line 2: non-stdlib import sympy.core",
        "line 5: float literal 0.5",
        "line 6: float literal 1000.0",
    ]


def test_package_is_stdlib_only_and_float_free():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    found = {
        path.name: problems
        for path in modules
        if (problems := violations(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_linalg_is_integer_only():
    # rationals reach the eliminations only on the integer grid of
    # `geometry._grid`, so `linalg` needs no Fraction
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported and not any(name.split(".")[0] == "fractions" for name in imported)
