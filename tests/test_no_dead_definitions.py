"""Every definition in the package is used somewhere in the repository.

Lists the top-level functions and classes and the non-dunder methods of
src/cyclecoh/*.py and fails on any name that no module under src/,
tests/ or perfbench/ references as a name, an attribute or an import.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, FUNCS + (ast.ClassDef,)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCS) and not _is_dunder(item.name):
                    yield item.name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_definition_is_referenced():
    defined = {}
    for path in sorted((ROOT / "src" / "cyclecoh").glob("*.py")):
        for name in _definitions(_parse(path)):
            defined.setdefault(name, path.name)
    used = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            used.update(_references(_parse(path)))
    dead = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert not dead, f"defined but never referenced: {dead}"
