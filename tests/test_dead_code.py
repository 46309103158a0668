"""Every function, class, method, module-level name and class field in
src is used by production code.

A name counts as used when `src/` or `perfbench/` refers to it outside
its own definition or module-level assignment: as a name, an attribute
or an imported name, and in `perfbench/` also as a string (it patches
functions by their names).  A field, annotated in a class body or
assigned as `self.name` in its methods, counts as read where an
attribute of its name is read, or its name is a string in `perfbench/`
(as in `getattr`); passing it to a constructor or naming it in src's
own setattr tables does not count, nor does reading `f.name` of the
dataclass fields f of a loop `for f in fields(...)`.  Every field of a
class named in a call `fields(Class)` counts as read: the caller reads
them all by reflection.  Only dunders
are exempt.  Tests do not count, so a public name needs a production
caller too, and a helper that only tests reach belongs in
`tests/oracles.py`.  `bilap_dpg/__init__.py` holds only the package
docstring: callers import the submodules.

Every name a src module imports is referenced in that module itself;
another module's use of the name does not count, and only
`from __future__ import annotations` is exempt.  A dotted import
`import a.b` counts as used where `a.b` or an attribute of it is read.
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
    """(name, first line, last line) of every def and class, nested ones
    too, and of every name a module-level assignment binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id, stmt.lineno, stmt.end_lineno


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


def _is_fields_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "fields")


def _field_loop_reads(tree):
    """Attribute reads on the target of a `for` loop or comprehension
    over `fields(...)`: they read dataclass `Field` objects, not fields
    of a src class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            loops, scope = [node], node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            loops, scope = node.generators, [node]
        else:
            continue
        for loop in loops:
            if _is_fields_call(loop.iter) and isinstance(loop.target, ast.Name):
                for part in scope:
                    for read in ast.walk(part):
                        if (isinstance(read, ast.Attribute)
                                and isinstance(read.value, ast.Name)
                                and read.value.id == loop.target.id):
                            yield read


def _reads(tree, strings):
    """Attribute names a module reads, except on fields-loop targets, and
    its identifier strings if `strings`."""
    skipped = set(map(id, _field_loop_reads(tree)))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in skipped):
            yield node.attr
        elif strings and _is_identifier_string(node):
            yield node.value


def _reflected(tree):
    """Names of the classes a module passes to `fields` by name."""
    for node in ast.walk(tree):
        if _is_fields_call(node) and node.args and isinstance(node.args[0], ast.Name):
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


def _unread_fields(trees):
    """'module:line Class.field' of every src class field that no module
    of `trees` reads."""
    reads = {
        name for path, tree in trees.items() for name in _reads(tree, path.parent != SRC)
    }
    reflected = {name for tree in trees.values() for name in _reflected(tree)}
    return [
        f"{path.name}:{line} {cls.name}.{name}"
        for path in sorted(trees)
        if path.parent == SRC
        for cls in ast.walk(trees[path])
        if isinstance(cls, ast.ClassDef) and cls.name not in reflected
        for line, name in _fields(cls)
        if name not in reads
    ]


def test_every_src_class_field_is_read_by_production_code():
    unread = _unread_fields(_production_trees())
    assert not unread, "class fields that src and perfbench never read: " + ", ".join(unread)


SYNTHETIC = """
from dataclasses import dataclass, fields


@dataclass
class Item:
    name: str


def header(item):
    return [f.name for f in fields(item)]
"""


def test_field_read_only_through_a_fields_loop_is_unread():
    trees = {SRC / "synthetic.py": ast.parse(SYNTHETIC)}
    assert _unread_fields(trees) == ["synthetic.py:7 Item.name"]
    read_too = SYNTHETIC + "\n\ndef label(item):\n    return item.name\n"
    assert _unread_fields({SRC / "synthetic.py": ast.parse(read_too)}) == []


def _dotted(node):
    """'a.b.c' of a Name or of an attribute chain on a Name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _unused_imports(path, tree):
    """'module:line name' of every name that an import of the module
    binds and the module never reads, `__future__` imports exempt."""
    read = {_dotted(node) for node in ast.walk(tree)}
    return [
        f"{path.name}:{node.lineno} {alias.asname or alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
        if (alias.asname or alias.name) not in read
    ]


def test_every_src_import_is_used_by_its_own_module():
    unused = [
        entry
        for path, tree in _production_trees().items()
        if path.parent == SRC
        for entry in _unused_imports(path, tree)
    ]
    assert not unused, "imported in src but never used by the importing module: " + ", ".join(
        unused
    )


IMPORTS = """
from __future__ import annotations

import os
import scipy.sparse
import scipy.sparse.linalg
from bilap_dpg.linsolve import LinearSolveError, sparse_spd_solve
from bilap_dpg import shape as sh


def solve(a, b):
    return sparse_spd_solve(scipy.sparse.csr_matrix(a), b, sh)
"""


def test_import_read_only_elsewhere_is_unused():
    # os and LinearSolveError are never read, and scipy.sparse.linalg
    # only through its parent package
    assert _unused_imports(SRC / "synthetic.py", ast.parse(IMPORTS)) == [
        "synthetic.py:4 os", "synthetic.py:6 scipy.sparse.linalg",
        "synthetic.py:7 LinearSolveError",
    ]
