"""The runtime imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

PACKAGE = "hassettmax"
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / PACKAGE).glob("*.py"))


def third_party_imports(source: str) -> list[str]:
    """Top-level names of absolute imports that are neither stdlib nor PACKAGE."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != PACKAGE and top not in sys.stdlib_module_names:
                found.append(name)
    return found


def test_checker_flags_third_party_imports():
    source = (
        "import math, numpy.linalg\n"
        "from fractions import Fraction\n"
        "from sympy import isprime\n"
        "from . import linalg\n"
        "from .arith import factorize\n"
        "from hassettmax.qforms import evaluate\n"
        "def f():\n"
        "    import hypothesis\n"
    )
    assert third_party_imports(source) == ["numpy.linalg", "sympy", "hypothesis"]


def test_runtime_is_stdlib_only():
    assert SOURCES
    offenders = {
        path.name: names
        for path in SOURCES
        if (names := third_party_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
