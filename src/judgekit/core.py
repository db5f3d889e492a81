"""Explicit finite categories with total composition.

Everything downstream (limits, fibrations, derived deduction rules) is
built on four kinds of data: finite categories, functors between them,
natural transformations, and adjunctions.  All of them are plain tables,
except that a category built from factors (a pullback, product or power)
keeps its factors and composes through them instead of storing a table.
All laws are checked by exhaustive enumeration.

``validate_category`` and ``validate_functor`` first check the tables on
identifiers (endpoints, identities, a composite for exactly the
composable pairs).  They then number the morphisms of the categories
they read, once per call, and sweep the unit, associativity and
composition laws on those integer codes; a category built from factors
composes codes through its factors' codes.  Failures are reported in
``sort_key`` order, so a report does not depend on hash order.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import product


def sort_key(x):
    """Deterministic ordering key for arbitrary (hashable) identifiers."""
    return (x.__class__.__name__, repr(x))


def _in_order(found) -> list:
    """The lines of ``found``, ``(item, line)`` pairs collected in hash
    order, in the ``sort_key`` order of their items; the lines of one item
    keep their order.  Only failures are sorted, so a check that passes
    pays nothing for a report that does not depend on hash order."""
    found.sort(key=lambda e: sort_key(e[0]))
    return [line for _, line in found]


@dataclass
class FinCategory:
    """A finite category given by explicit tables.

    * ``objects`` and ``morphisms`` are sets of hashable identifiers.
    * ``src``/``tgt`` assign endpoints to every morphism.
    * ``identity`` maps each object to its identity morphism.
    * ``compose`` is a read-only ``Mapping`` from every composable pair
      ``(g, f)`` (meaning g after f) to the composite morphism: a dict, or
      a ``Composition`` that computes each composite when it is asked for.
    """

    name: str
    objects: frozenset
    morphisms: frozenset
    src: dict
    tgt: dict
    identity: dict
    compose: Mapping
    _hom: dict = field(default=None, repr=False, compare=False)
    _into: dict = field(default=None, repr=False, compare=False)
    _out: dict = field(default=None, repr=False, compare=False)

    def comp(self, g, f):
        """Composite ``g ∘ f`` (first f, then g)."""
        return self.compose[(g, f)]

    def is_identity(self, m):
        return self.identity.get(self.src[m]) == m

    def _indexed(self, attr, key, at):
        table = getattr(self, attr)
        if table is None:
            table = {}
            for m in self.sorted_morphisms():
                table.setdefault(key(m), []).append(m)
            setattr(self, attr, table)
        return table.get(at, [])

    def hom(self, a, b):
        """All morphisms a → b, deterministically ordered."""
        return self._indexed("_hom", lambda m: (self.src[m], self.tgt[m]),
                             (a, b))

    def into(self, b):
        """All morphisms with target b, deterministically ordered."""
        return self._indexed("_into", self.tgt.__getitem__, b)

    def out_of(self, a):
        """All morphisms with source a, deterministically ordered."""
        return self._indexed("_out", self.src.__getitem__, a)

    def sorted_objects(self):
        return sorted(self.objects, key=sort_key)

    def sorted_morphisms(self):
        return sorted(self.morphisms, key=sort_key)


def make_category(name, objects, morphisms, src, tgt, identity, compose):
    """A category from literal tables, composition included."""
    return FinCategory(
        name=name,
        objects=frozenset(objects),
        morphisms=frozenset(morphisms),
        src=dict(src),
        tgt=dict(tgt),
        identity=dict(identity),
        compose=dict(compose),
    )


def category_from(name, objects, morphisms, src, tgt, identity, compose_fn):
    """A category whose composition table holds ``compose_fn(g, f)`` for
    exactly the composable pairs ``(g, f)`` (g after f).

    The table dicts are taken over, not copied.  Keys and composites are
    the identifiers in ``morphisms`` themselves, so the table holds no
    rebuilt copy of an identifier, and comparing composites mostly stops
    at an identity test.
    """
    out_of, canon = {}, {}
    for m in morphisms:
        out_of.setdefault(src[m], []).append(m)
        canon[m] = m
    compose = {}
    for f in morphisms:
        for g in out_of.get(tgt[f], ()):
            h = compose_fn(g, f)
            compose[(g, f)] = canon.get(h, h)
    return FinCategory(name, frozenset(objects), frozenset(morphisms),
                       src, tgt, identity, compose)


class Composition(Mapping):
    """The composition of a category whose morphisms are tuples of
    morphisms of its ``factors``, composed componentwise: ``self[(g, f)]``
    is the tuple of the factors' composites ``g[k] ∘ f[k]`` for each
    composable pair and a ``KeyError`` otherwise, as with a table.
    Iteration walks exactly the composable pairs, through ``by_src``, the
    morphisms grouped by source object.  ``code_rows`` composes the same
    way on the integer codes that the validators sweep."""

    def __init__(self, src, tgt, by_src, factors):
        self.src, self.tgt, self.by_src = src, tgt, by_src
        self.factors = tuple(factors)
        self._len = sum(len(by_src.get(t, ())) for t in tgt.values())

    def __getitem__(self, gf):
        if gf not in self:
            raise KeyError(gf)
        g, f = gf
        return tuple(x.compose[gk, fk]
                     for x, gk, fk in zip(self.factors, g, f))

    def __contains__(self, gf):
        try:
            g, f = gf
            return self.tgt[f] == self.src[g]
        except KeyError:
            return False

    def __iter__(self):
        by_src = self.by_src
        for f, t in self.tgt.items():
            for g in by_src.get(t, ()):
                yield g, f

    def __len__(self):
        return self._len

    def code_rows(self, mors, code, factors):
        """Composition on codes: ``rows[i][j]`` is the code of
        ``mors[j] ∘ mors[i]``, where ``code`` numbers ``mors`` and
        ``factors`` holds the factors' ``_Codes``.  A factor that is
        itself composed componentwise is read through its own factors, so
        every composite is looked up by the tuple of its components' codes
        in tables."""
        leaves, columns = [], []
        for k, x in enumerate(factors):
            codes = [x.code[m[k]] for m in mors]
            if isinstance(x.rows, _ComponentRows):
                leaves += x.rows.leaves
                columns += zip(*[x.rows.parts[i] for i in codes])
            else:
                leaves.append(x.rows)
                columns.append(codes)
        parts = list(zip(*columns))
        after = {}
        for o, ms in self.by_src.items():
            js = [code[m] for m in ms]
            after[o] = js, list(zip(*[parts[j] for j in js]))
        return _ComponentRows([after[self.tgt[m]] for m in mors], parts,
                              dict(zip(parts, range(len(mors)))), leaves)


class _ComponentRows:
    """The rows of a componentwise composition on codes.  ``parts[i]``
    holds the codes of the components of i in the tables ``leaves``, and
    ``after[i]`` the codes j composable after i with, per leaf, the
    column of their components.  Row i is computed from the leaves' rows
    each time it is read and never kept: kept rows would add up to the
    table that the category does without."""

    def __init__(self, after, parts, key, leaves):
        self.after, self.parts, self.key = after, parts, key
        self.leaves = leaves

    def __getitem__(self, i):
        js, columns = self.after[i]
        rs = [rows[p].__getitem__
              for rows, p in zip(self.leaves, self.parts[i])]
        return dict(zip(js, map(self.key.__getitem__,
                                zip(*map(map, rs, columns)))))


def computed_category(name, objects, morphisms, src, tgt, identity, factors):
    """Like ``category_from``, for a category whose morphisms are tuples
    of morphisms of ``factors`` (a pullback, product or power): the
    composition is a ``Composition`` that composes componentwise through
    the factors when asked, and no table is kept."""
    by_src = {}
    for m in morphisms:
        by_src.setdefault(src[m], []).append(m)
    return FinCategory(name, frozenset(objects), frozenset(morphisms),
                       src, tgt, identity,
                       Composition(src, tgt, by_src, factors))


class _Codes:
    """The morphisms of one category numbered 0..M-1, for the law sweeps
    of one validator call; it is dropped with the call.  ``mors[i]`` is
    the morphism with code i, ``code`` the inverse, and ``rows[i][j]`` is
    the code of ``mors[j] ∘ mors[i]``: integer rows filled from a table,
    or computed from the factors' codes for a ``Composition``."""

    def __init__(self, c: FinCategory, memo: dict):
        self.mors = mors = list(c.morphisms)
        self.code = code = dict(zip(mors, range(len(mors))))
        if isinstance(c.compose, Composition):
            self.rows = c.compose.code_rows(
                mors, code, [_codes(x, memo) for x in c.compose.factors])
        else:
            self.rows = rows = [{} for _ in mors]
            for (g, f), h in c.compose.items():
                rows[code[f]][code[g]] = code[h]


def _codes(c: FinCategory, memo: dict) -> _Codes:
    """The numbering of c, built once per validator call: ``memo`` shares
    it between a functor's domain and codomain and down nested factors."""
    n = memo.get(id(c))
    if n is None:
        n = memo[id(c)] = _Codes(c, memo)
    return n


def subcategory(c: FinCategory, objects, keep, name) -> FinCategory:
    """The subcategory of c on ``objects`` and the morphisms between them
    that satisfy ``keep``.  Composition entries are kept where both factors
    and the composite are kept; the caller chooses ``keep`` closed under
    identities and composites."""
    objs = set(objects)
    mors = [m for m in c.morphisms
            if c.src[m] in objs and c.tgt[m] in objs and keep(m)]
    kept = set(mors)
    return make_category(name, objs, mors,
                         {m: c.src[m] for m in mors},
                         {m: c.tgt[m] for m in mors},
                         {o: c.identity[o] for o in objs},
                         {gf: h for gf, h in c.compose.items()
                          if gf[0] in kept and gf[1] in kept and h in kept})


def opposite(c: FinCategory) -> FinCategory:
    """The opposite category: endpoints swapped, ``g ∘ᵒᵖ f = f ∘ g``.

    The composition table is transposed entry by entry, so the opposite of
    a table that breaks a law breaks it at the same entries.
    """
    return FinCategory(f"{c.name}ᵒᵖ", c.objects, c.morphisms,
                       c.tgt, c.src, c.identity,
                       {(f, g): h for (g, f), h in c.compose.items()})


def validate_category(c: FinCategory) -> list:
    """Exhaustively check the category laws.  Returns diagnostics ([] = ok)."""
    bad, ends = [], []
    for m in c.morphisms:
        if m not in c.src or m not in c.tgt:
            ends.append((m, f"{c.name}: morphism {m!r} lacks endpoints"))
        elif c.src[m] not in c.objects or c.tgt[m] not in c.objects:
            ends.append((m, f"{c.name}: morphism {m!r} has endpoints outside the object set"))
    # In sort_key order, the report stops at the first morphism without
    # endpoints: the checks below would look them up.
    for m, line in sorted(ends, key=lambda e: sort_key(e[0])):
        bad.append(line)
        if m not in c.src or m not in c.tgt:
            return bad
    ids = []
    for o in c.objects:
        i = c.identity.get(o)
        if i is None or i not in c.morphisms:
            ids.append((o, f"{c.name}: object {o!r} has no identity morphism"))
        elif c.src[i] != o or c.tgt[i] != o:
            ids.append((o, f"{c.name}: identity of {o!r} is not an endomorphism"))
    bad += _in_order(ids)
    if bad:
        return bad
    # Composition is total on composable pairs and only on them.
    for (g, f), h in c.compose.items():
        if g not in c.morphisms or f not in c.morphisms or h not in c.morphisms:
            bad.append(f"{c.name}: composition entry ({g!r}, {f!r}) mentions unknown morphisms")
            return bad
        if c.tgt[f] != c.src[g]:
            bad.append(f"{c.name}: composition defined on non-composable pair ({g!r}, {f!r})")
        elif c.src[h] != c.src[f] or c.tgt[h] != c.tgt[g]:
            bad.append(f"{c.name}: composite of ({g!r}, {f!r}) has wrong endpoints")
    bad += _in_order([(f, f"{c.name}: composition missing for ({g!r}, {f!r})")
                      for f in c.morphisms for g in c.out_of(c.tgt[f])
                      if (g, f) not in c.compose])
    if bad:
        return bad
    # Unit and associativity laws, swept on codes.
    n = _codes(c, {})
    mors, rows, code = n.mors, n.rows, n.code
    ident = {o: code[m] for o, m in c.identity.items()}
    units = []
    for i, f in enumerate(mors):
        if rows[ident[c.src[f]]][i] != i:
            units.append((f, f"{c.name}: right unit law fails at {f!r}"))
        if rows[i][ident[c.tgt[f]]] != i:
            units.append((f, f"{c.name}: left unit law fails at {f!r}"))
    triples = []
    for i in range(len(mors)):
        row_f = rows[i]
        for j, gf in row_f.items():
            row_gf = rows[gf]
            for k, hg in rows[j].items():
                if row_gf[k] != row_f[hg]:
                    hgf = (mors[k], mors[j], mors[i])
                    triples.append((hgf, f"{c.name}: associativity fails at "
                                         f"({hgf[0]!r}, {hgf[1]!r}, {hgf[2]!r})"))
    return bad + _in_order(units) + _in_order(triples)


def terminal_objects(c: FinCategory) -> list:
    """Objects receiving exactly one morphism from every object."""
    return [t for t in c.sorted_objects()
            if all(len(c.hom(a, t)) == 1 for a in c.objects)]


@dataclass
class FunctorMap:
    """A functor given by explicit object and morphism tables."""

    name: str
    dom: FinCategory
    cod: FinCategory
    obj_map: dict
    mor_map: dict


def identity_functor(c: FinCategory, name=None) -> FunctorMap:
    return FunctorMap(
        name=name or f"id_{c.name}",
        dom=c,
        cod=c,
        obj_map={o: o for o in c.objects},
        mor_map={m: m for m in c.morphisms},
    )


def compose_functors(g: FunctorMap, f: FunctorMap, name=None) -> FunctorMap:
    mid, dom = f.cod, g.dom
    if mid is not dom and (mid.objects != dom.objects
                           or mid.morphisms != dom.morphisms):
        raise ValueError(f"cannot compose {g.name} after {f.name}: middle categories differ")
    return FunctorMap(
        name=name or f"({g.name}∘{f.name})",
        dom=f.dom,
        cod=g.cod,
        obj_map={o: g.obj_map[f.obj_map[o]] for o in f.dom.objects},
        mor_map={m: g.mor_map[f.mor_map[m]] for m in f.dom.morphisms},
    )


def validate_functor(F: FunctorMap) -> list:
    """Exhaustively check functoriality.  Returns diagnostics ([] = ok)."""
    c, d = F.dom, F.cod
    images = []
    for o in c.objects:
        if o not in F.obj_map:
            images.append((o, f"{F.name}: no image for object {o!r}"))
        elif F.obj_map[o] not in d.objects:
            images.append((o, f"{F.name}: object image {F.obj_map[o]!r} not in {d.name}"))
    bad = _in_order(images) + _in_order(
        [(m, f"{F.name}: no image for morphism {m!r}")
         for m in c.morphisms if m not in F.mor_map])
    if bad:
        return bad
    ends = []
    for m in c.morphisms:
        fm = F.mor_map[m]
        if fm not in d.morphisms:
            ends.append((m, f"{F.name}: morphism image {fm!r} not in {d.name}"))
        elif (d.src[fm] != F.obj_map[c.src[m]] or d.tgt[fm] != F.obj_map[c.tgt[m]]):
            ends.append((m, f"{F.name}: image of {m!r} has wrong endpoints"))
    bad = _in_order(ends)
    if bad:
        return bad
    bad = _in_order([(o, f"{F.name}: identity of {o!r} not preserved")
                     for o in c.objects
                     if F.mor_map[c.identity[o]] != d.identity[F.obj_map[o]]])
    # Composition preservation, swept on codes.
    memo = {}
    cn, dn = _codes(c, memo), _codes(d, memo)
    image = [dn.code[F.mor_map[m]] for m in cn.mors]
    rows_c, rows_d = cn.rows, dn.rows
    by_image = {}
    for i, fi in enumerate(image):
        by_image.setdefault(fi, []).append(i)
    pairs = []
    for fi, sources in by_image.items():
        row_d = rows_d[fi]
        for i in sources:
            for j, k in rows_c[i].items():
                if row_d[image[j]] != image[k]:
                    gf = (cn.mors[j], cn.mors[i])
                    pairs.append((gf, f"{F.name}: composition not preserved "
                                      f"at ({gf[0]!r}, {gf[1]!r})"))
    return bad + _in_order(pairs)


def same_functor(F: FunctorMap, G: FunctorMap) -> bool:
    """Table equality of two functors (strict identifier equality)."""
    return (F.dom.objects == G.dom.objects
            and F.dom.morphisms == G.dom.morphisms
            and (F.cod is G.cod or (F.cod.objects == G.cod.objects
                                    and F.cod.morphisms == G.cod.morphisms))
            and F.obj_map == G.obj_map
            and F.mor_map == G.mor_map)


@dataclass
class NatTrans:
    """A natural transformation ``source ⇒ target`` as a component table."""

    name: str
    source: FunctorMap
    target: FunctorMap
    components: dict  # object of source.dom -> morphism of source.cod


def validate_nat_trans(t: NatTrans) -> list:
    """Exhaustively check every naturality square.  Returns diagnostics."""
    F, G = t.source, t.target
    if F.dom.objects != G.dom.objects or F.cod.objects != G.cod.objects:
        return [f"{t.name}: source and target functors are not parallel"]
    c, d = F.dom, F.cod
    comps = []
    for o in c.objects:
        m = t.components.get(o)
        if m is None or m not in d.morphisms:
            comps.append((o, f"{t.name}: missing or alien component at {o!r}"))
        elif d.src[m] != F.obj_map[o] or d.tgt[m] != G.obj_map[o]:
            comps.append((o, f"{t.name}: component at {o!r} has wrong endpoints"))
    if comps:
        return _in_order(comps)
    return _in_order([(f, f"{t.name}: naturality square fails at {f!r}")
                      for f in c.morphisms
                      if d.comp(t.components[c.tgt[f]], F.mor_map[f])
                      != d.comp(G.mor_map[f], t.components[c.src[f]])])


def identity_nat_trans(F: FunctorMap, name=None) -> NatTrans:
    return NatTrans(
        name=name or f"id_{F.name}",
        source=F,
        target=F,
        components={o: F.cod.identity[F.obj_map[o]] for o in F.dom.objects},
    )


def whisker_left(H: FunctorMap, t: NatTrans, name=None) -> NatTrans:
    """Post-compose: ``H·t : H∘source ⇒ H∘target`` with components H(t_o)."""
    return NatTrans(
        name=name or f"({H.name}·{t.name})",
        source=compose_functors(H, t.source),
        target=compose_functors(H, t.target),
        components={o: H.mor_map[t.components[o]] for o in t.source.dom.objects},
    )


def whisker_right(t: NatTrans, K: FunctorMap, name=None) -> NatTrans:
    """Pre-compose: ``t·K : source∘K ⇒ target∘K`` with components t_{K o}."""
    return NatTrans(
        name=name or f"({t.name}·{K.name})",
        source=compose_functors(t.source, K),
        target=compose_functors(t.target, K),
        components={o: t.components[K.obj_map[o]] for o in K.dom.objects},
    )


def vertical_compose(u: NatTrans, t: NatTrans, name=None) -> NatTrans:
    """``u ∘ t`` where t: F ⇒ G and u: G ⇒ H."""
    d = t.source.cod
    return NatTrans(
        name=name or f"({u.name}∘{t.name})",
        source=t.source,
        target=u.target,
        components={o: d.comp(u.components[o], t.components[o])
                    for o in t.source.dom.objects},
    )


@dataclass
class AdjunctionData:
    """An adjunction ``left ⊣ right`` with explicit unit and counit."""

    name: str
    left: FunctorMap   # F : A → B
    right: FunctorMap  # G : B → A
    unit: NatTrans     # Id_A ⇒ G∘F
    counit: NatTrans   # F∘G ⇒ Id_B


def check_adjunction(adj: AdjunctionData) -> list:
    """Validate both functors and both transformations (naturality
    included), then check both triangle identities."""
    bad = []
    F, G = adj.left, adj.right
    A, B = F.dom, G.dom
    if F.cod.objects != B.objects or G.cod.objects != A.objects:
        return [f"{adj.name}: functor endpoints do not match"]
    bad += validate_functor(F)
    bad += validate_functor(G)
    bad += validate_nat_trans(adj.unit)
    bad += validate_nat_trans(adj.counit)
    if bad:
        return bad
    # counit_{F a} ∘ F(unit_a) = id_{F a}
    left = [(a, f"{adj.name}: triangle identity (left leg) fails at {a!r}")
            for a in A.objects
            if B.comp(adj.counit.components[F.obj_map[a]],
                      F.mor_map[adj.unit.components[a]])
            != B.identity[F.obj_map[a]]]
    # G(counit_b) ∘ unit_{G b} = id_{G b}
    right = [(b, f"{adj.name}: triangle identity (right leg) fails at {b!r}")
             for b in B.objects
             if A.comp(G.mor_map[adj.counit.components[b]],
                       adj.unit.components[G.obj_map[b]])
             != A.identity[G.obj_map[b]]]
    return _in_order(left) + _in_order(right)


def check_category_iso(F: FunctorMap):
    """Check that F is an isomorphism of categories; validates F first.

    Returns ``(diagnostics, inverse_or_None)``; the inverse is produced only
    when the check succeeds.
    """
    bad = validate_functor(F)
    if bad:
        return bad, None
    c, d = F.dom, F.cod
    obj_inv, mor_inv = {}, {}
    for o in c.objects:
        img = F.obj_map[o]
        if img in obj_inv:
            bad.append(f"{F.name}: objects {obj_inv[img]!r} and {o!r} collide at {img!r}")
        obj_inv[img] = o
    for m in c.morphisms:
        img = F.mor_map[m]
        if img in mor_inv:
            bad.append(f"{F.name}: morphisms {mor_inv[img]!r} and {m!r} collide at {img!r}")
        mor_inv[img] = m
    for o in d.objects:
        if o not in obj_inv:
            bad.append(f"{F.name}: object {o!r} of {d.name} is not hit")
    for m in d.morphisms:
        if m not in mor_inv:
            bad.append(f"{F.name}: morphism {m!r} of {d.name} is not hit")
    if bad:
        return bad, None
    inverse = FunctorMap(
        name=f"{F.name}⁻¹", dom=d, cod=c, obj_map=obj_inv, mor_map=mor_inv)
    return [], inverse


def all_functors(c: FinCategory, d: FinCategory):
    """Enumerate every functor c → d (exhaustive; use on tiny categories)."""
    objs = c.sorted_objects()
    results = []
    for images in product(d.sorted_objects(), repeat=len(objs)):
        obj_map = dict(zip(objs, images))
        mors = c.sorted_morphisms()
        choices = []
        ok = True
        for m in mors:
            cands = d.hom(obj_map[c.src[m]], obj_map[c.tgt[m]])
            if c.is_identity(m):
                cands = [d.identity[obj_map[c.src[m]]]]
            if not cands:
                ok = False
                break
            choices.append(cands)
        if not ok:
            continue
        for picks in product(*choices):
            F = FunctorMap("cand", c, d, obj_map, dict(zip(mors, picks)))
            if not validate_functor(F):
                results.append(F)
    return results
