"""Every name defined or imported under ``src/judgekit/`` is used.

A module-level function or class, or a method whose name is not a
dunder, counts as used when its name is referenced, as a ``Name``, an
``Attribute`` or an imported name, outside its own definition, somewhere
in ``src/``, in ``verdictbench/`` or in ``tests/test_acceptance.py``, the
one-test-per-guarantee gate.  A reference from any other test does not
count: code that only its own unit tests reach is dead.  The check goes
by name alone, so a dead method that shares its name with anything used
(a local variable, another method) passes.

``KEPT`` names the definitions that are kept although nothing scanned
references them, each with its reason; a kept name that is gone, or that
something scanned has come to reference, fails the check, so the list
cannot go stale.

A name that a module of the package imports counts as used when the
same module reads it as a ``Name``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "judgekit"
SCANNED = (ROOT / "src", ROOT / "verdictbench",
           ROOT / "tests" / "test_acceptance.py")

_WAITS = "a result of the paper that waits for a jt request to check it"

#: ``module.qualname`` of each definition kept without a scanned
#: reference, with the reason it is kept.
KEPT = {
    "dsl.print_dsl":
        "the printer of the parser's parse → print → parse property test",
    "finsets.implication":
        "Heyting implication, which the Heyting-valued and sieve doctrines "
        "planned in ROADMAP.md call",
    "ndt.PowersetDoctrine.forall_elim":
        "part of the doctrine interface that those doctrines extend",
    "dtt.to_comprehension_category": _WAITS,
    "finset_topos.mb_translate": _WAITS,
    "theory.whisker_policy": _WAITS,
    "theory.check_substitutionality": _WAITS,
}


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


def _scan():
    """``(defined, unreferenced)``: the ``module.qualname`` of every
    definition in the package, and of those that nothing scanned
    references outside the definition itself."""
    paths = [p for s in SCANNED
             for p in (sorted(s.rglob("*.py")) if s.is_dir() else [s])]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    refs = Counter()
    for tree in trees.values():
        refs += _references(tree)
    defined, unreferenced = [], []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualname, node in _definitions(tree):
            key = f"{path.stem}.{qualname}"
            defined.append(key)
            if refs[node.name] == _references(node)[node.name]:
                unreferenced.append(key)
    return defined, unreferenced


def test_every_defined_name_is_referenced():
    _, unreferenced = _scan()
    assert [k for k in unreferenced if k not in KEPT] == []


def test_every_kept_name_is_defined_and_unreferenced():
    defined, unreferenced = _scan()
    assert [k for k in KEPT if k not in defined] == []
    assert [k for k in KEPT if k not in unreferenced] == []


def _imported(tree):
    """The names bound by the imports of a module, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for a in node.names:
                yield a.asname or a.name.split(".")[0]


def test_every_imported_name_is_referenced():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}: {name}"
                   for name in _imported(tree) if name not in read]
    assert unused == []
