"""Every definition in the package is used by the program itself.

Lists the top-level functions, classes and constants (names assigned at
module level) and the non-dunder methods of src/cyclecoh/*.py and fails
on any name that no module under src/ or perfbench/ reads, unless
ALLOWED lists it with the reason it stays.  A top-level definition is
read as a name, an attribute or an import; a method only as an
attribute (`.name`), a keyword or an import, so that a local variable
of the same name does not hide it.  Assigning a name does not count as
reading it.  References from tests/ do not count: a definition only the
tests read belongs in the tests, or in ALLOWED.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

# "module:name" -> why it stays although src/ and perfbench/ never read it
ALLOWED = {
    "abelian.py:element": "the group's constructor by coordinates; the tests build "
    "the family parameters with it and check its length",
    "abelian.py:entry": "a point read of a sparse matrix; the tests check builders "
    "against their references entry by entry",
    "abelian.py:is_trivial": "the group predicate the tests assert vanishing groups with",
    "cli.py:error": "argparse calls the override on usage errors",
    "cycleset.py:trivial": "the trivial cycle set on Z/v; the tests build it as a "
    "cycle set outside the family",
    "cyclic_resolution.py:comparison_maps": "paper machinery: the comparison maps "
    "between the crossed-product resolution and the bar resolution, tested",
    "cyclic_resolution.py:contracting_homotopies": "paper machinery: the contracting "
    "homotopies of the resolution, tested",
    "cyclic_resolution.py:crossed_product": "paper machinery: the crossed-product "
    "model of Z/v with its isomorphism, tested",
    "cyclic_resolution.py:structural_differentials": "paper machinery: the "
    "resolution's differentials as group-ring matrices, tested",
    "lcs_cohomology.py:lambda_table": "paper machinery: the basic vertical kernel "
    "element of the top corner, tested",
}


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, is_method) for each definition of the module."""
    for node in tree.body:
        if isinstance(node, FUNCS + (ast.ClassDef,)):
            yield node.name, False
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _is_dunder(name.id):
                        yield name.id, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCS) and not _is_dunder(item.name):
                    yield item.name, True


def _references(tree):
    """The names the module reads as plain names, as attributes or
    imports, and as keywords."""
    names, members, keywords = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.alias):
            members.add(node.name)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            keywords.add(node.arg)
    return names, members, keywords


def _unreferenced():
    defined = {}
    top_level, methods = set(), set()
    for path in sorted((ROOT / "src" / "cyclecoh").glob("*.py")):
        for name, is_method in _definitions(_parse(path)):
            defined.setdefault(name, path.name)
            (methods if is_method else top_level).add(name)
    names, members, keywords = set(), set(), set()
    for folder in ("src", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            n, m, k = _references(_parse(path))
            names |= n
            members |= m
            keywords |= k
    # a local variable named like a method is not a read of it
    used = members | (names & top_level) | (keywords & methods)
    return {f"{module}:{name}" for name, module in defined.items() if name not in used}


def test_every_definition_is_referenced():
    dead = sorted(_unreferenced() - set(ALLOWED))
    assert not dead, f"defined but never referenced by src/ or perfbench/: {dead}"


def test_every_allowed_definition_is_still_unreferenced():
    # an entry the program reads again, or whose definition is gone, leaves the list
    stale = sorted(set(ALLOWED) - _unreferenced())
    assert not stale, f"allow-listed but referenced or gone: {stale}"
