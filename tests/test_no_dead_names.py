"""No code under ``src/judgekit/`` is dead, no setting is idle and no
stored value is unread.  Four rules check it.

The static rule reads the sources.  It covers classes and imports, and
module-level functions and non-dunder methods too: a definition counts as
used when something scanned references it outside its own definition:
``src/``, ``verdictbench/`` or ``tests/test_acceptance.py``, the
one-test-per-guarantee gate.  A reference from any other test does not
count.

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

The trace rule runs ``jt`` requests under ``cProfile`` and covers every
function and method, nested ones and dunders included: each must be
called by a request or be named in ``UNCALLED`` with its reason, and the
same staleness checks hold for that list.  It is the only rule that a
function called only from tests, or only from other dead code, cannot
pass: the static rule counts ``tests/test_acceptance.py`` and any
reference from ``src/`` as a use, whether or not the referrer ever runs.

The settings rule reads the same sources as the static rule.  Every
parameter with a default, of every function under ``src/judgekit/``,
must be passed a value other than its default's source text by some
call there: a parameter that no caller sets is a setting nobody varies,
and its function should use the default itself.  A call is matched by
the name it calls, ``f(…)`` or ``x.f(…)``, and a call to a class counts
for its ``__init__``; a call with ``*args`` or ``**kwargs`` counts as
setting every parameter.  ``KEPT_DEFAULTS`` names the exceptions, with
the same staleness checks as ``KEPT``.

The field rule reads ``src/``, ``verdictbench/`` and every test.  Each
value that a module-level class under ``src/judgekit/`` stores, a
dataclass field or a ``self.x = …`` in an ``__init__``, must be read
somewhere there, as an attribute ``….x`` or as ``getattr(…, "x")``: a
value that nothing reads should not be stored.  As in the settings rule,
a read is matched by the attribute's name alone.  ``KEPT_FIELDS`` names
the exceptions, with the same staleness checks as ``KEPT``.
"""
import ast
import cProfile
import tempfile
from collections import Counter
from pathlib import Path

from report_requests import DEMOS, documents, requests, run

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "judgekit"
SCANNED = (ROOT / "src", ROOT / "verdictbench",
           ROOT / "tests" / "test_acceptance.py")

#: ``module.qualname`` of each definition kept without a scanned
#: reference, with the reason it is kept.
KEPT = {
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


# --------------------------------------------------------------------------
# The trace rule.
# --------------------------------------------------------------------------

#: ``module.qualname`` of each function under ``src/judgekit/`` that no
#: request of ``_trace_requests`` calls, with the reason it is kept.
UNCALLED = {
    "core._Pairs.__iter__":
        "Mapping protocol: _table_errors walks a pullback's composition "
        "only when it sweeps one whose premises fail",
    "core._Pairs.__len__":
        "Mapping protocol, as _Pairs.__iter__",
    "core._Transposed.__getitem__":
        "Mapping protocol, as _Transposed.__iter__",
    "core._Transposed.__iter__":
        "Mapping protocol: _table_errors walks an opposite's composition "
        "only when it sweeps one whose premises fail",
    "core._Transposed.__len__":
        "Mapping protocol, as _Transposed.__iter__",
    "dtt.context_extension":
        "the extension equation ΣΔA = A[δ_A], a paper result that waits "
        "for a request (ROADMAP item 7 step a)",
    "dtt._restrict":
        "reached only from the natural-model bridge, as dtt.nm_to_jdtt",
    "dtt._mediators":
        "reached only from the natural-model bridge, as dtt.nm_to_jdtt",
    "dtt.validate_natural_model":
        "Awodey's natural-model bridge, a paper result that waits for a "
        "request (ROADMAP item 7 step a)",
    "dtt.jdtt_to_nm":
        "the natural-model bridge, as dtt.validate_natural_model",
    "dtt.nm_to_jdtt":
        "the natural-model bridge, as dtt.validate_natural_model",
    "dtt.natural_model_round_trip":
        "the natural-model bridge, as dtt.validate_natural_model",
    "finset_topos.make_weak_constructor_example":
        "the weak constructor, a paper result that waits for a "
        "request (ROADMAP item 7 step a)",
    "fibrations.is_cartesian":
        "the cartesian test of one morphism, reached only from "
        "dtt.context_extension",
    "fibrations.is_discrete":
        "the discrete-fibration test, reached only from "
        "dtt.validate_natural_model",
    "fibrations.Classifier.fiber_objects":
        "the objects over Γ, reached only from dtt.context_extension",
    "finsets.graph_map":
        "the graph of a term, which the Heyting doctrines planned in "
        "ROADMAP item 8 read",
    "finsets.implication":
        "Heyting implication, which the doctrines of ROADMAP item 8 call",
    "ndt.PowersetDoctrine.substitute":
        "substitution φ[t/y], which the doctrines of ROADMAP item 8 call",
    "ndt.PowersetDoctrine.forall_elim":
        "universal elimination, which the doctrines of ROADMAP item 8 call",
    "ndt.ChainDoctrine.top":
        "the top of a fiber, part of the doctrine interface that "
        "PowersetDoctrine.top implements",
}


def _functions(tree, prefix=""):
    """``(qualname, first line)`` of every function in ``tree``, nested
    ones included.  The first line of a decorated function is that of its
    first decorator, as in its code object's ``co_firstlineno``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            yield name, min([node.lineno] +
                            [d.lineno for d in node.decorator_list])
            yield from _functions(node, f"{name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix)


# A classifier declared a fibration that is none: nothing lies over s.
NO_LIFT = """\
category B
  object b0
  object b1
  morphism s : b0 -> b1
  complete
category E
  object e0
  object e1
  complete
functor p : E -> B
  object e0 |-> b0
  object e1 |-> b1
classifier U : p kind fibration
"""


def _trace_requests(tmp: Path) -> list:
    """The argv of every request the trace runs, over documents it writes
    to ``tmp``: the hash-seed requests with dtt-finset 2 in place of 3,
    which reach the same functions in less time; ``check --json`` of the
    toy theory; ``render`` of a dtt rule and an ndt rule in both formats;
    ``check`` of the toy theory with ``t`` declared thin, the one request
    that reaches ``fibrations.is_thin``, and with ``t`` declared an
    opfibration, which reaches the opposite classifier; and ``check`` of
    ``NO_LIFT``, whose classifier fails its kind."""
    toy = (DEMOS / "toy.jt").read_text(encoding="utf-8")
    declared = "classifier t : t kind fibration\n"
    assert declared in toy
    docs = {**documents(), "no-lift.jt": NO_LIFT, **{
        f"toy-{kind}.jt": toy.replace(
            declared, f"classifier t : t kind fibration+{kind}\n")
        for kind in ("thin", "opfibration")}}
    for file, text in docs.items():
        (tmp / file).write_text(text, encoding="utf-8")
    dtt3, dtt2 = str(tmp / "dtt3.jt"), str(tmp / "dtt2.jt")
    out = [[dtt2 if a == dtt3 else a for a in argv]
           for _, argv in requests(tmp)]
    out.append(["check", "--json", str(DEMOS / "toy.jt")])
    out += [["render", "--rule", rule, "--format", fmt]
            for rule in ("ΠF", "Cut") for fmt in ("text", "latex")]
    out += [["check", str(tmp / file)]
            for file in ("toy-thin.jt", "toy-opfibration.jt", "no-lift.jt")]
    return out


def test_the_trace_requests_end_as_declared(tmp_path):
    """The toy theory with ``t`` an opfibration passes, and the
    classifier of ``NO_LIFT`` fails its kind at its one hole."""
    argvs = _trace_requests(tmp_path)
    code, out = run(argvs[-2])
    assert code == 0 and out.endswith("status: ok\n")
    code, out = run(argvs[-1])
    assert code == 1
    assert "  - U: expected fibration, got functor: U: no cartesian lift " \
        "of 's' at 'e1'\n" in out


def _uncalled():
    """``(defined, uncalled)``: the ``module.qualname`` of every function
    under ``src/judgekit/``, and of those that no request calls.  A code
    object is keyed by its file, first line and name."""
    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory() as name:
        argvs = _trace_requests(Path(name))
        profile.enable()
        try:
            for argv in argvs:
                run(argv)
        finally:
            profile.disable()
    profile.create_stats()
    called = {(Path(file).resolve(), line, fn)
              for file, line, fn in profile.stats if file != "~"}
    defined, uncalled = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, line in _functions(tree):
            key = f"{path.stem}.{qualname}"
            defined.append(key)
            if (path.resolve(), line, qualname.rsplit(".", 1)[-1]) \
                    not in called:
                uncalled.append(key)
    return defined, uncalled


def test_every_function_is_called_by_a_request_or_kept():
    """Every function is called by a ``jt`` request, or named in
    ``UNCALLED``; every name there is defined and still uncalled."""
    defined, uncalled = _uncalled()
    assert [k for k in uncalled if k not in UNCALLED] == []
    assert [k for k in UNCALLED if k not in defined] == []
    assert [k for k in UNCALLED if k not in uncalled] == []


# --------------------------------------------------------------------------
# The settings rule.
# --------------------------------------------------------------------------

#: ``module.qualname(parameter)`` of each defaulted parameter that no
#: scanned call sets, with the reason it is kept.
KEPT_DEFAULTS = {}


def _defaulted(tree, prefix="", cls=None):
    """``(called, key, filled, parameter, default)`` for every defaulted
    parameter of every function in ``tree``, nested ones included:
    ``called`` is the name a call to the function reads (the class's,
    for an ``__init__``), ``filled`` the parameters that positional
    arguments fill (after ``self``, for a method), and ``default`` the
    default's source text."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + node.name
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            filled = positional[1:] if cls and not static else positional
            called = cls if node.name == "__init__" else node.name
            pairs = list(zip(positional[len(positional) - len(a.defaults):],
                             a.defaults))
            pairs += [(p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]
            for param, default in pairs:
                yield (called, f"{qualname}({param})", filled, param,
                       ast.unparse(default))
            yield from _defaulted(node, f"{qualname}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _defaulted(node, f"{prefix}{node.name}.", node.name)
        else:
            yield from _defaulted(node, prefix, cls)


def _calls(trees) -> dict:
    """The calls in ``trees`` under the name they call: ``f(…)`` and
    ``x.f(…)`` both call ``f``."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call, filled, param, default) -> bool:
    """Whether ``call`` passes ``param`` a value whose source text is not
    ``default``; a call with ``*args`` or ``**kwargs`` sets every
    parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args) or \
            any(k.arg is None for k in call.keywords):
        return True
    given = [k.value for k in call.keywords if k.arg == param]
    if param in filled and filled.index(param) < len(call.args):
        given.append(call.args[filled.index(param)])
    return any(ast.unparse(v) != default for v in given)


def _unset_defaults(trees):
    """``(defaulted, unset)``: the ``module.qualname(parameter)`` of every
    defaulted parameter of the package among ``trees``, and of those
    that no call in ``trees`` sets."""
    calls = _calls(trees)
    defaulted, unset = [], []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for called, key, filled, param, default in _defaulted(tree):
            key = f"{path.stem}.{key}"
            defaulted.append(key)
            if not any(_sets(c, filled, param, default)
                       for c in calls.get(called, ())):
                unset.append(key)
    return defaulted, unset


def test_every_default_is_set_by_a_call():
    _, unset = _unset_defaults(_scanned())
    assert [k for k in unset if k not in KEPT_DEFAULTS] == []


def test_every_kept_default_is_defined_and_unset():
    defaulted, unset = _unset_defaults(_scanned())
    assert [k for k in KEPT_DEFAULTS if k not in defaulted] == []
    assert [k for k in KEPT_DEFAULTS if k not in unset] == []


def test_a_call_sets_a_default_only_with_another_value():
    """``unit`` and ``pick`` are passed their defaults' source text only,
    and the method ``Err.at`` only its default through the argument after
    ``self``; ``over`` is set by keyword, ``spread`` through ``*args``
    and ``Err.__init__`` through a call to the class."""
    sources = {
        PACKAGE / "a.py": (
            "def unit(name='𝟙'): return name\n"
            "def pick(c, name=None, *, over=None): return c\n"
            "def spread(x=0, y=1): return x\n"
            "class Err(Exception):\n"
            "    def __init__(self, msg, expected=None): pass\n"
            "    def at(self, line=1): return line\n"),
        ROOT / "tests" / "test_acceptance.py": (
            "from judgekit.a import Err, pick, spread, unit\n"
            "unit(\"𝟙\")\n"
            "pick(1, None, over=2)\n"
            "spread(*[0, 1])\n"
            "Err('m', expected=['x']).at(1)\n"),
    }
    trees = {p: ast.parse(s) for p, s in sources.items()}
    defaulted, unset = _unset_defaults(trees)
    assert len(defaulted) == 7
    assert unset == ["a.unit(name)", "a.pick(name)", "a.Err.at(line)"]


# --------------------------------------------------------------------------
# The field rule.
# --------------------------------------------------------------------------

#: Where a stored value may be read.  Every test counts, not only the
#: acceptance gate: a stored value is part of what the library returns,
#: and a test that reads it checks that result.
READERS = (ROOT / "src", ROOT / "verdictbench", ROOT / "tests")

#: ``module.Class.field`` of each stored value that nothing scanned reads
#: by name, with the reason it is kept.
KEPT_FIELDS = {
    "core.FinCategory._hom":
        "the hom index, which FinCategory._indexed reads and fills through "
        "getattr(self, attr)",
    "core.FinCategory._into":
        "the index by target, read as FinCategory._hom",
    "core.FinCategory._out":
        "the index by source, read as FinCategory._hom",
}


def _stores(target, this):
    """The attributes of ``this`` that an assignment target stores."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _stores(element, this)
    elif isinstance(target, ast.Attribute) and \
            isinstance(target.value, ast.Name) and target.value.id == this:
        yield target.attr


def _fields(tree):
    """``(qualname, attribute)`` of every value that a module-level class
    stores: each field of a dataclass, and each ``self.x = …`` in an
    ``__init__``."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and \
                        isinstance(item.target, ast.Name):
                    yield f"{cls.name}.{item.target.id}", item.target.id
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                this = item.args.args[0].arg
                for node in ast.walk(item):
                    if isinstance(node, ast.Assign):
                        for target in node.targets:
                            for attr in _stores(target, this):
                                yield f"{cls.name}.{attr}", attr


def _attribute_reads(trees) -> set:
    """Every attribute name that ``trees`` read: ``x.name`` as a load, or
    ``getattr(x, "name", …)`` with the name spelled out."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "getattr" and \
                    len(node.args) >= 2 and \
                    isinstance(node.args[1], ast.Constant):
                read.add(node.args[1].value)
    return read


def _unread_fields(trees):
    """``(stored, unread)``: the ``module.Class.field`` of every value
    that a class of the package among ``trees`` stores, and of those
    whose name nothing in ``trees`` reads as an attribute."""
    read = _attribute_reads(trees)
    stored, unread = [], []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualname, attr in _fields(tree):
            key = f"{path.stem}.{qualname}"
            stored.append(key)
            if attr not in read:
                unread.append(key)
    return stored, unread


def _readers():
    return {p: ast.parse(p.read_text(encoding="utf-8"))
            for s in READERS for p in sorted(s.rglob("*.py"))}


def test_every_field_is_read():
    _, unread = _unread_fields(_readers())
    assert [k for k in unread if k not in KEPT_FIELDS] == []


def test_every_kept_field_is_stored_and_unread():
    stored, unread = _unread_fields(_readers())
    assert [k for k in KEPT_FIELDS if k not in stored] == []
    assert [k for k in KEPT_FIELDS if k not in unread] == []


def test_a_field_is_read_only_as_an_attribute_load():
    """``P.label`` is only written, by a constructor call and an
    assignment; ``P.where`` is read as an attribute name only through a
    keyword; and ``Err.col`` only in a message built from the local.
    ``P.name`` is read by a test, ``P.size`` through ``getattr`` with
    its name spelled out, and ``Err.line`` and ``Err.hint`` as
    attributes of the package; a class that is not a dataclass stores
    nothing outside its ``__init__``."""
    sources = {
        PACKAGE / "a.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class P:\n"
            "    name: str\n"
            "    label: str\n"
            "    size: int = 0\n"
            "    where: int = 0\n"
            "class Err(Exception):\n"
            "    kind = 'syntax'\n"
            "    def __init__(self, line, col, hint):\n"
            "        self.line, self.col = line, col\n"
            "        self.hint = hint\n"
            "        super().__init__(f'line {line}, column {col}')\n"
            "    def fix(self):\n"
            "        self.fixed = True\n"
            "        return self.hint\n"
            "def make(p):\n"
            "    p.label = 'x'\n"
            "    return (P('p', 'q', where=1), getattr(p, 'size'),\n"
            "            Err(1, 2, 3).line)\n"),
        ROOT / "tests" / "test_a.py": (
            "from judgekit.a import make\n"
            "assert make(None)[0].name == 'p'\n"),
    }
    trees = {p: ast.parse(s) for p, s in sources.items()}
    stored, unread = _unread_fields(trees)
    assert stored == ["a.P.name", "a.P.label", "a.P.size", "a.P.where",
                      "a.Err.line", "a.Err.col", "a.Err.hint"]
    assert unread == ["a.P.label", "a.P.where", "a.Err.col"]
