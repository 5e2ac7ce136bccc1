"""Every top-level function and class of the runtime has a caller.

A definition in ``src/hassettmax`` counts as called when code, not a
docstring, names it (an ``ast.Name`` or ``ast.Attribute``) outside its own
body, in a module of the package other than ``__init__.py``. The benchmark
tracer names the functions it wraps as strings, so a name that appears in
``perfbench/*.py`` as code or as a whole string constant counts too.
Tests do not count: code only tests reach gets deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "hassettmax").glob("*.py"))
BENCH_SOURCES = sorted((ROOT / "perfbench").glob("*.py"))

# kept without a caller, each with its reason
ALLOWED = {
    "gram_from_geometry": "ROADMAP item 12",
    "induced_form_F": "ROADMAP item 12",
}


def _names(node) -> set[str]:
    """Identifiers that code in node refers to."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def uncalled(modules: dict[str, str], bench: list[str]) -> list[str]:
    """Sorted names of the top-level defs and classes in modules (file name
    to source) that no code outside their own body names, and that bench
    (the benchmark's sources) does not name either."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    called = set()
    for name, tree in trees.items():
        if name != "__init__.py":
            for stmt in tree.body:
                called |= _names(stmt) - {getattr(stmt, "name", None)}
    for source in bench:
        tree = ast.parse(source)
        called |= _names(tree)
        called |= {n.value for n in ast.walk(tree)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return sorted(
        stmt.name
        for tree in trees.values()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name not in called
    )


def test_checker_flags_definitions_without_callers():
    modules = {
        "a.py": (
            "def used():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else used()\n"
            "def documented():\n"
            '    """Unlike caller, nothing calls this."""\n'
            "class Error(ValueError):\n"
            "    pass\n"
            "def raiser():\n"
            "    raise Error('x')\n"
            "def traced():\n"
            "    return 0\n"
        ),
        "b.py": (
            "from . import a\n"
            "def used_by_b():\n"
            "    return a.raiser()\n"
            "def caller():\n"
            "    return used_by_b()\n"
        ),
        "__init__.py": "from .a import documented, recursive\n__all__ = ['documented']\n",
    }
    bench = ["SPANNED = (('a', 'traced'),)\n# caller\n"]
    assert uncalled(modules, bench) == ["caller", "documented", "recursive"]


def test_every_definition_has_a_caller():
    assert SOURCES and BENCH_SOURCES
    modules = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    bench = [path.read_text(encoding="utf-8") for path in BENCH_SOURCES]
    assert uncalled(modules, bench) == sorted(ALLOWED)
