"""Every function, class and method in src is used by production code.

A name counts as used when `src/` or `perfbench/` refers to it outside
its own definition: as a name, an attribute, an imported name or a
string (perfbench patches functions by their names).  Names exported in
`bilap_dpg.__all__` and dunders are exempt.  Tests do not count, so a
helper that only tests reach belongs in `tests/oracles.py`.
"""

import ast
from pathlib import Path

import bilap_dpg

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bilap_dpg"


def _references(tree):
    """(name, line) of every reference in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def _definitions(tree):
    """(name, first line, last line) of every def and class, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno


def test_every_src_definition_is_referenced_by_production_code():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    exempt = set(bilap_dpg.__all__)
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for name, first, last in _definitions(trees[path]):
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            used = any(
                ref == name and not (other == path and first <= line <= last)
                for other, found in refs.items()
                for ref, line in found
            )
            if not used:
                unused.append(f"{path.name}:{first} {name}")
    assert not unused, "defined in src but never used by src or perfbench: " + ", ".join(
        unused
    )
