"""Every name defined or imported under ``src/judgekit/`` is used.

A definition counts as used when something scanned references it outside
its own definition: ``src/``, ``verdictbench/`` or
``tests/test_acceptance.py``, the one-test-per-guarantee gate.  A
reference from any other test does not count: code that only its own
unit tests reach is dead.

The check knows which module a reference points into.  A module-level
function or class ``f`` of module ``mod`` is referenced only where

* ``mod`` itself reads ``f`` as a name, outside a function that binds a
  local of that name (a parameter, an assignment, a loop variable);
* a module imports ``f`` from ``mod`` (``from .mod import f`` or
  ``from judgekit.mod import f``);
* a module reads it as ``mod.f``.

So an attribute ``x.f`` of something else, or a local named ``f`` in
another module, does not keep ``f`` alive.  A method whose name is not a
dunder is still counted by name alone: it is referenced by any name,
attribute or imported name it shares, since what an attribute is read
from is not known without running the code.

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
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _names(tree) -> Counter:
    """Every name, attribute and imported name that ``tree`` mentions."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            refs.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return refs


def _locals(fn) -> set:
    """The names a function, or a function nested in it, binds."""
    bound = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    bound.update(n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                 and isinstance(n.ctx, (ast.Store, ast.Del)))
    return bound


def _global_reads(node, shadowed=frozenset(), out=None) -> Counter:
    """The names ``node`` reads from its module's namespace: a name read
    inside a function that binds it as a local is not counted."""
    out = Counter() if out is None else out
    if isinstance(node, _FUNCTIONS):
        shadowed = shadowed | _locals(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
            and node.id not in shadowed:
        out[node.id] += 1
    for child in ast.iter_child_nodes(node):
        _global_reads(child, shadowed, out)
    return out


def _package_module(node, path):
    """The package module an ``ImportFrom`` reads from, or None."""
    if node.level == 1 and path.parent == PACKAGE:
        return node.module
    if node.level == 0 and (node.module or "").startswith("judgekit."):
        return node.module.split(".", 1)[1]
    return None


def _qualified(trees) -> Counter:
    """``(module, name)`` for every ``from module import name`` and every
    ``module.name`` read in the trees."""
    refs = Counter()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                mod = _package_module(node, path)
                refs.update((mod, a.name) for a in node.names if mod)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name):
                refs[(node.value.id, node.attr)] += 1
    return refs


def _definitions(tree):
    """Module-level functions and classes, and the non-dunder methods of
    the module-level classes, as ``(qualname, node, is_method)``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        not (item.name.startswith("__")
                             and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item, True


def _scan(trees):
    """``(defined, unreferenced)``: the ``module.qualname`` of every
    definition of the package among ``trees`` (path → module AST), and
    of those that nothing in ``trees`` references outside the definition
    itself."""
    names, qualified = Counter(), _qualified(trees)
    for tree in trees.values():
        names += _names(tree)
    defined, unreferenced = [], []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        reads = _global_reads(tree)
        for qualname, node, is_method in _definitions(tree):
            key = f"{path.stem}.{qualname}"
            defined.append(key)
            if is_method:
                used = names[node.name] > _names(node)[node.name]
            else:
                used = (reads[node.name] > _global_reads(node)[node.name]
                        or qualified[(path.stem, node.name)] > 0)
            if not used:
                unreferenced.append(key)
    return defined, unreferenced


def _scanned():
    paths = [p for s in SCANNED
             for p in (sorted(s.rglob("*.py")) if s.is_dir() else [s])]
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}


def test_every_defined_name_is_referenced():
    _, unreferenced = _scan(_scanned())
    assert [k for k in unreferenced if k not in KEPT] == []


def test_every_kept_name_is_defined_and_unreferenced():
    defined, unreferenced = _scan(_scanned())
    assert [k for k in KEPT if k not in defined] == []
    assert [k for k in KEPT if k not in unreferenced] == []


def test_a_namesake_does_not_keep_a_definition_alive():
    """``a.image`` and ``a.join`` are read only through namesakes: an
    attribute of something else, a parameter of another module and a
    local of their own module.  ``a.meet`` is imported, ``a.top`` read
    as ``a.top``, ``a.pair`` read by its own module, and the method
    ``S.run`` is called on an instance."""
    sources = {
        PACKAGE / "a.py": (
            "def image(m, s): return m\n"
            "def join(s, t): return s\n"
            "def meet(s, t): return s\n"
            "def top(): return ()\n"
            "def pair(i, j): return (i, j)\n"
            "def shadow(xs):\n"
            "    for image in xs:\n"
            "        yield image, pair(image, 0)\n"
            "class S:\n"
            "    def run(self): return 0\n"),
        PACKAGE / "b.py": (
            "from .a import S, meet\n"
            "def use(image, parts):\n"
            "    return ', '.join(parts), meet(image, image), S().run()\n"),
        ROOT / "tests" / "test_acceptance.py": (
            "from judgekit import a\n"
            "from judgekit.a import shadow\n"
            "from judgekit.b import use\n"
            "a.top()\n"),
    }
    trees = {p: ast.parse(s) for p, s in sources.items()}
    defined, unreferenced = _scan(trees)
    assert len(defined) == 9
    assert unreferenced == ["a.image", "a.join"]


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
