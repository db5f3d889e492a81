"""The ``.jt`` declaration language: parser and loader.

A document is line-oriented.  A block opens with an unindented keyword
line (``category``, ``functor``, ``nat``, ``adjunction``, ``classifier``,
``theory``, ``doctrine``, ``instance``) and its items are the following
indented lines.  Composition tables are explicit
triples ``g ∘ f = h``; a ``complete`` item asserts the table is total
(verified when loading).  Identity morphisms are implicit: every object
``a`` owns ``id_a``, and unit compositions are filled in automatically.

``parse_dsl`` produces a :class:`TheoryDocument` carrying source lines
for diagnostics, and ``load_document`` resolves it into live library
objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import FunctorMap, NatTrans, AdjunctionData, make_category
from .fibrations import KINDS, Classifier
from .theory import PreJudgementalTheory


class JtSyntaxError(Exception):
    def __init__(self, line, col, message, expected=None):
        self.line, self.expected = line, expected or []
        tail = f" (expected {', '.join(self.expected)})" if expected else ""
        super().__init__(f"line {line}, column {col}: {message}{tail}")


@dataclass
class Decl:
    kind: str
    name: str
    line: int
    head: dict = field(default_factory=dict)
    items: list = field(default_factory=list)   # (line, key, payload)


@dataclass
class TheoryDocument:
    decls: list = field(default_factory=list)


_ARROW = {"->": "->", "→": "->"}
_DARROW = {"=>": "=>", "⇒": "=>"}
_COMP = ("∘", "o")
_MAPS = ("|->", "↦")
_DASHV = ("-|", "⊣")

_BLOCK_KINDS = ("category", "functor", "nat", "adjunction", "classifier",
                "theory", "doctrine", "instance")


def parse_dsl(text: str) -> TheoryDocument:
    doc = TheoryDocument()
    current = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].rstrip()
        if not line:
            continue
        indented = line[0] in " \t"
        toks = line.split()
        if not indented:
            kind = toks[0]
            if kind not in _BLOCK_KINDS:
                raise JtSyntaxError(lineno, 1, f"unknown block {kind!r}",
                                    expected=list(_BLOCK_KINDS))
            current = _parse_head(kind, toks, lineno)
            if (current.kind, current.name) in seen:
                raise JtSyntaxError(lineno, 1,
                                    f"duplicate {kind} {current.name!r}")
            seen.add((current.kind, current.name))
            doc.decls.append(current)
        else:
            if current is None:
                raise JtSyntaxError(lineno, 1, "item outside any block")
            current.items.append(_parse_item(current.kind, toks, lineno))
    return doc


def _want(cond, lineno, msg):
    if not cond:
        raise JtSyntaxError(lineno, 1, msg)


def _int_args(toks, lineno):
    for t in toks:
        _want(t.isdecimal(), lineno, f"argument {t!r} is not a natural number")
    return [int(t) for t in toks]


def _parse_head(kind, toks, lineno) -> Decl:
    if kind in ("category",):
        _want(len(toks) == 2, lineno, "category takes a single name")
        return Decl(kind, toks[1], lineno)
    if kind == "functor":
        # functor F : C -> D
        _want(len(toks) == 6 and toks[2] == ":" and toks[4] in _ARROW,
              lineno, "functor header is `functor F : C -> D`")
        return Decl(kind, toks[1], lineno, {"dom": toks[3], "cod": toks[5]})
    if kind == "nat":
        _want(len(toks) == 6 and toks[2] == ":" and toks[4] in _DARROW,
              lineno, "nat header is `nat t : F => G`")
        return Decl(kind, toks[1], lineno, {"source": toks[3], "target": toks[5]})
    if kind == "adjunction":
        _want(len(toks) == 6 and toks[2] == ":" and toks[4] in _DASHV,
              lineno, "adjunction header is `adjunction A : L -| R`")
        return Decl(kind, toks[1], lineno, {"left": toks[3], "right": toks[5]})
    if kind == "classifier":
        # classifier U : P [kind fibration]
        _want(len(toks) in (4, 6) and toks[2] == ":", lineno,
              "classifier header is `classifier U : P [kind K]`")
        head = {"proj": toks[3], "kind": None}
        if len(toks) == 6:
            _want(toks[4] == "kind", lineno, "expected `kind`")
            unknown = [w for w in toks[5].split("+") if w not in KINDS]
            if unknown and toks[5] != "functor":
                raise JtSyntaxError(lineno, 1, f"unknown kind {unknown[0]!r}",
                                    expected=list(KINDS))
            head["kind"] = toks[5]
        return Decl(kind, toks[1], lineno, head)
    if kind == "theory":
        _want(len(toks) == 4 and toks[2] == "over", lineno,
              "theory header is `theory T over C`")
        return Decl(kind, toks[1], lineno, {"ctx": toks[3]})
    if kind == "doctrine":
        # doctrine D = powerset N | chain K N
        _want(len(toks) >= 5 and toks[2] == "=", lineno,
              "doctrine header is `doctrine D = powerset N`")
        return Decl(kind, toks[1], lineno,
                    {"family": toks[3], "args": _int_args(toks[4:], lineno)})
    if kind == "instance":
        _want(len(toks) >= 4 and toks[2] == "=", lineno,
              "instance header is `instance I = <builtin> [args]`")
        return Decl(kind, toks[1], lineno,
                    {"builtin": toks[3], "args": _int_args(toks[4:], lineno)})
    raise JtSyntaxError(lineno, 1, f"unknown block {kind!r}")


def _parse_item(kind, toks, lineno):
    key = toks[0]
    if kind == "category":
        if key == "object":
            _want(len(toks) == 2, lineno, "object takes a single name")
            return (lineno, "object", toks[1])
        if key == "morphism":
            _want(len(toks) == 6 and toks[2] == ":" and toks[4] in _ARROW,
                  lineno, "morphism item is `morphism f : a -> b`")
            return (lineno, "morphism", (toks[1], toks[3], toks[5]))
        if key == "complete":
            _want(len(toks) == 1, lineno, "`complete` takes no arguments")
            return (lineno, "complete", None)
        if len(toks) == 5 and toks[1] in _COMP and toks[3] == "=":
            return (lineno, "compose", (toks[0], toks[2], toks[4]))
        raise JtSyntaxError(lineno, 1, f"bad category item {key!r}",
                            expected=["object", "morphism", "g ∘ f = h",
                                      "complete"])
    if kind == "functor":
        _want(len(toks) == 4 and toks[0] in ("object", "morphism")
              and toks[2] in _MAPS, lineno,
              "functor item is `object a |-> x` or `morphism f |-> m`")
        return (lineno, toks[0], (toks[1], toks[3]))
    if kind == "nat":
        _want(len(toks) == 4 and key == "at" and toks[2] == "=", lineno,
              "nat item is `at a = m`")
        return (lineno, "at", (toks[1], toks[3]))
    if kind == "adjunction":
        _want(len(toks) == 2 and key in ("unit", "counit"), lineno,
              "adjunction items are `unit t` / `counit s`")
        return (lineno, key, toks[1])
    if kind == "theory":
        if key in ("judgement", "rule") and len(toks) == 2:
            return (lineno, key, toks[1])
        if key == "policy":
            _want(len(toks) == 2, lineno, "policy item is `policy t`")
            return (lineno, "policy", toks[1])
        raise JtSyntaxError(lineno, 1, f"bad theory item {key!r}",
                            expected=["judgement", "rule", "policy"])
    raise JtSyntaxError(lineno, 1, f"{kind} blocks take no items")


# --------------------------------------------------------------------------
# Loading: resolve a document into live objects.
# --------------------------------------------------------------------------

@dataclass
class LoadedDocument:
    categories: dict = field(default_factory=dict)
    functors: dict = field(default_factory=dict)
    nats: dict = field(default_factory=dict)
    adjunctions: dict = field(default_factory=dict)
    classifiers: dict = field(default_factory=dict)
    kinds: dict = field(default_factory=dict)       # classifier -> declared kind
    theories: dict = field(default_factory=dict)
    doctrines: dict = field(default_factory=dict)
    instances: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def _resolve(table, name, what, decl_line, errors):
    if name not in table:
        errors.append(f"line {decl_line}: unresolved {what} {name!r}")
        return None
    return table[name]


def load_document(doc: TheoryDocument) -> LoadedDocument:
    out = LoadedDocument()
    err = out.errors
    for d in doc.decls:
        if d.kind == "category":
            out.categories[d.name] = _load_category(d, err)
        elif d.kind == "functor":
            _load_functor(d, out)
        elif d.kind == "nat":
            _load_nat(d, out)
        elif d.kind == "adjunction":
            left = _resolve(out.functors, d.head["left"], "functor", d.line, err)
            right = _resolve(out.functors, d.head["right"], "functor", d.line, err)
            unit = counit = None
            for (ln, k, v) in d.items:
                t = _resolve(out.nats, v, "transformation", ln, err)
                if k == "unit":
                    unit = t
                else:
                    counit = t
            if None not in (left, right, unit, counit):
                out.adjunctions[d.name] = AdjunctionData(d.name, left, right,
                                                         unit, counit)
        elif d.kind == "classifier":
            proj = _resolve(out.functors, d.head["proj"], "functor", d.line, err)
            if proj is not None:
                out.classifiers[d.name] = Classifier(d.name, proj)
                out.kinds[d.name] = d.head["kind"] or "functor"
        elif d.kind == "theory":
            ctx = _resolve(out.categories, d.head["ctx"], "category", d.line, err)
            if ctx is None:
                continue
            T = PreJudgementalTheory(d.name, ctx)
            for (ln, k, v) in d.items:
                if k == "judgement":
                    cl = _resolve(out.classifiers, v, "classifier", ln, err)
                    if cl is not None:
                        T.add_judgement(cl)
                elif k == "rule":
                    F = _resolve(out.functors, v, "functor", ln, err)
                    if F is not None:
                        T.add_rule(F)
                else:
                    t = _resolve(out.nats, v, "transformation", ln, err)
                    if t is not None:
                        T.add_policy(t)
            out.theories[d.name] = T
        elif d.kind == "doctrine":
            from .ndt import PowersetDoctrine, ChainDoctrine
            fam, args = d.head["family"], d.head["args"]
            if fam == "powerset" and len(args) == 1:
                out.doctrines[d.name] = PowersetDoctrine(args[0])
            elif fam == "chain" and len(args) == 2:
                out.doctrines[d.name] = ChainDoctrine(args[0], args[1])
            else:
                err.append(f"line {d.line}: unknown doctrine family "
                           f"{fam!r} with {len(args)} argument(s)")
        elif d.kind == "instance":
            out.instances[d.name] = (d.head["builtin"], d.head["args"])
    return out


def _load_category(d: Decl, err):
    # ``identity`` holds the objects declared so far, in declaration order.
    identity, mors, src, tgt = {}, [], {}, {}
    compose = {}
    by_name = {}
    for (ln, k, v) in d.items:
        if k == "object":
            if v in identity:
                err.append(f"line {ln}: duplicate object {v!r}")
            ident = identity[v] = f"id_{v}"
            mors.append(ident)
            src[ident] = tgt[ident] = v
            by_name[ident] = ident
        elif k == "morphism":
            nm, a, b = v
            if nm in by_name:
                err.append(f"line {ln}: duplicate morphism {nm!r}")
            if a not in identity or b not in identity:
                err.append(f"line {ln}: morphism {nm!r} mentions unknown objects")
                continue
            mors.append(nm)
            src[nm], tgt[nm] = a, b
            by_name[nm] = nm
    for (ln, k, v) in d.items:
        if k == "compose":
            g, f, h = v
            for nm in (g, f, h):
                if nm not in by_name:
                    err.append(f"line {ln}: unknown morphism {nm!r} in "
                               f"composition")
                    break
            else:
                first = compose.setdefault((g, f), h)
                if first != h:
                    err.append(f"line {ln}: conflicting composites for "
                               f"({g} ∘ {f}): {first} and {h}")
    # Unit compositions are implicit.
    for m in mors:
        compose.setdefault((m, identity[src[m]]), m)
        compose.setdefault((identity[tgt[m]], m), m)
    cat = make_category(d.name, identity, mors, src, tgt, identity, compose)
    if any(k == "complete" for (_, k, _) in d.items):
        for f in mors:
            for g in cat.out_of(tgt[f]):
                if (g, f) not in compose:
                    err.append(f"line {d.line}: category {d.name} declared "
                               f"complete but ({g} ∘ {f}) is missing")
    return cat


def _load_functor(d: Decl, out: LoadedDocument):
    dom = _resolve(out.categories, d.head["dom"], "category", d.line, out.errors)
    cod = _resolve(out.categories, d.head["cod"], "category", d.line, out.errors)
    if dom is None or cod is None:
        return
    obj_map, mor_map = {}, {}
    for (ln, k, v) in d.items:
        a, b = v
        if k == "object":
            if a not in dom.objects or b not in cod.objects:
                out.errors.append(f"line {ln}: unresolved object in {d.name}")
                continue
            obj_map[a] = b
        else:
            if a not in dom.morphisms or b not in cod.morphisms:
                out.errors.append(f"line {ln}: unresolved morphism in {d.name}")
                continue
            mor_map[a] = b
    for o, i in dom.identity.items():
        if o in obj_map:
            mor_map.setdefault(i, cod.identity[obj_map[o]])
    out.functors[d.name] = FunctorMap(d.name, dom, cod, obj_map, mor_map)


def _load_nat(d: Decl, out: LoadedDocument):
    source = _resolve(out.functors, d.head["source"], "functor", d.line,
                      out.errors)
    target = _resolve(out.functors, d.head["target"], "functor", d.line,
                      out.errors)
    if source is None or target is None:
        return
    comps = {}
    for (ln, _, (o, m)) in d.items:
        if o not in source.dom.objects or m not in source.cod.morphisms:
            out.errors.append(f"line {ln}: unresolved component in {d.name}")
            continue
        comps[o] = m
    out.nats[d.name] = NatTrans(d.name, source, target, comps)
