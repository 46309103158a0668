"""Every function, class, method and class field in src is used by
production code.

A name counts as used when `src/` or `perfbench/` refers to it outside
its own definition: as a name, an attribute or an imported name, and in
`perfbench/` also as a string (it patches functions by their names).  A
field, annotated in a class body or assigned as `self.name` in its
methods, counts as read where an attribute of its name is read, or its
name is a string in `perfbench/` (as in `getattr`); passing it to a
constructor or naming it in src's own setattr tables does not count.
Every field of a class named in a call `fields(Class)` counts as read:
the caller reads them all by reflection.  Only dunders
are exempt.  Tests do not count, so a public name needs a production
caller too, and a helper that only tests reach belongs in
`tests/oracles.py`.  `bilap_dpg/__init__.py` holds only the package
docstring: callers import the submodules.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bilap_dpg"


def _is_identifier_string(node):
    if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
        return False
    return node.value.isidentifier()


def _references(tree, strings):
    """(name, line) of every reference in a module, identifier strings
    included if `strings`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif strings and _is_identifier_string(node):
            yield node.value, node.lineno


def _definitions(tree):
    """(name, first line, last line) of every def and class, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno


def _production_trees():
    """Parsed src and perfbench modules."""
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(), str(path)) for path in files}


def test_every_src_definition_is_referenced_by_production_code():
    trees = _production_trees()
    refs = {path: list(_references(tree, path.parent != SRC)) for path, tree in trees.items()}
    unused = []
    for path in sorted(trees):
        if path.parent != SRC:
            continue
        for name, first, last in _definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
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


def _reads(tree, strings):
    """Attribute names a module reads, and its identifier strings if
    `strings`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif strings and _is_identifier_string(node):
            yield node.value


def _reflected(tree):
    """Names of the classes a module passes to `fields` by name."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "fields" and node.args
                and isinstance(node.args[0], ast.Name)):
            yield node.args[0].id


def _fields(cls):
    """(line, name) of a class's annotated fields and of the attributes
    its methods assign on `self`."""
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.lineno, stmt.target.id
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.lineno, node.attr


def test_every_src_class_field_is_read_by_production_code():
    trees = _production_trees()
    reads = {
        name for path, tree in trees.items() for name in _reads(tree, path.parent != SRC)
    }
    reflected = {name for tree in trees.values() for name in _reflected(tree)}
    unread = [
        f"{path.name}:{line} {cls.name}.{name}"
        for path in sorted(trees)
        if path.parent == SRC
        for cls in ast.walk(trees[path])
        if isinstance(cls, ast.ClassDef) and cls.name not in reflected
        for line, name in _fields(cls)
        if name not in reads
    ]
    assert not unread, "class fields that src and perfbench never read: " + ", ".join(unread)
