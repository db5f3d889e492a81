"""Every name defined under ``src/judgekit/`` is used somewhere.

A module-level function or class, or a method whose name is not a
dunder, counts as used when its name is referenced, as a ``Name``, an
``Attribute`` or an imported name, somewhere in ``src/``, ``tests/`` or
``verdictbench/`` outside its own definition.  The check goes by name
alone, so a dead method that shares its name with anything used (a local
variable, another method) passes.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "judgekit"
SCANNED = ("src", "tests", "verdictbench")


def _references(tree) -> Counter:
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            refs.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return refs


def _definitions(tree):
    """Module-level functions and classes, and the non-dunder methods of
    the module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        not (item.name.startswith("__")
                             and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def test_every_defined_name_is_referenced():
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for d in SCANNED for p in sorted((ROOT / d).rglob("*.py"))}
    refs = Counter()
    for tree in trees.values():
        refs += _references(tree)
    dead = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualname, node in _definitions(tree):
            inside = _references(node)[node.name]
            if refs[node.name] - inside == 0:
                dead.append(f"{path.relative_to(ROOT)}: {qualname}")
    assert dead == []
