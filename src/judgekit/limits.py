"""Finite-limit constructions on explicit categories.

Pullbacks, equalizers and arrow categories have objects and morphisms
that are tuples of the input identifiers, so results are strictly
canonical: running the same construction twice yields identical tables.

A pullback is defined by its legs: its composition is a ``Composition``
over the legs' domains, which composes componentwise when a composite is
asked for.  It keeps no composition table of its own.  The table of a
pullback grows with the product of its factors' tables, while each
lookup costs only one lookup per factor.  A validator that sweeps a law
over a pullback numbers it as it numbers a table, from those lookups.
A product is the pullback of two ``bang_functor``s into the terminal
category.  Equalizers and arrow categories keep a table.
"""

from __future__ import annotations

from .core import (Composition, FinCategory, FunctorMap, all_functors,
                   category_from, compose_functors, make_category,
                   same_category, same_functor, subcategory, validate_functor)


def terminal_category(name="𝟙") -> FinCategory:
    return make_category(name, ["•"], [("id", "•")],
                         {("id", "•"): "•"}, {("id", "•"): "•"},
                         {"•": ("id", "•")},
                         {(("id", "•"), ("id", "•")): ("id", "•")})


def walking_arrow_category(name="𝟚") -> FinCategory:
    """The category • → • (two objects, one non-identity morphism)."""
    objs = [0, 1]
    i0, i1, a = ("id", 0), ("id", 1), ("a", 0, 1)
    mors = [i0, i1, a]
    src = {i0: 0, i1: 1, a: 0}
    tgt = {i0: 0, i1: 1, a: 1}
    compose = {(i0, i0): i0, (i1, i1): i1, (a, i0): a, (i1, a): a}
    return make_category(name, objs, mors, src, tgt, {0: i0, 1: i1}, compose)


def bang_functor(c: FinCategory, one: FinCategory, name=None) -> FunctorMap:
    """The unique functor into the terminal category."""
    star = next(iter(one.objects))
    return FunctorMap(name or f"!_{c.name}", c, one,
                      {o: star for o in c.objects},
                      {m: one.identity[star] for m in c.morphisms})


def pullback_category(F: FunctorMap, G: FunctorMap, name=None):
    """Strict pullback of ``F : A → C`` against ``G : B → C``.

    Objects are pairs ``(a, b)`` with ``F a = G b``; morphisms are pairs of
    morphisms agreeing in C.  Returns ``(category, proj_A, proj_B)``.
    """
    if not same_category(F.cod, G.cod):
        raise ValueError(f"pullback of {F.name} and {G.name}: codomains differ")
    A, B = F.dom, G.dom
    nm = name or f"PB({F.name},{G.name})"
    by_image_obj = {}
    for b in B.objects:
        by_image_obj.setdefault(G.obj_map[b], []).append(b)
    objs = [(a, b) for a in A.objects for b in by_image_obj.get(F.obj_map[a], ())]
    by_image_mor = {}
    for n in B.morphisms:
        by_image_mor.setdefault(G.mor_map[n], []).append(n)
    mors, src, tgt, by_src = [], {}, {}, {}
    for m in A.morphisms:
        sa, ta = A.src[m], A.tgt[m]
        for n in by_image_mor.get(F.mor_map[m], ()):
            mn = (m, n)
            mors.append(mn)
            src[mn] = s = (sa, B.src[n])
            tgt[mn] = (ta, B.tgt[n])
            by_src.setdefault(s, []).append(mn)
    identity = {(a, b): (A.identity[a], B.identity[b]) for (a, b) in objs}
    cat = FinCategory(nm, frozenset(objs), frozenset(mors), src, tgt, identity,
                      Composition(src, tgt, by_src, (F, G)))
    p1 = FunctorMap(f"{nm}.π1", cat, A,
                    {o: o[0] for o in objs}, {mn: mn[0] for mn in mors})
    p2 = FunctorMap(f"{nm}.π2", cat, B,
                    {o: o[1] for o in objs}, {mn: mn[1] for mn in mors})
    return cat, p1, p2


def equalizer_category(F: FunctorMap, G: FunctorMap, name=None):
    """Strict equalizer of parallel functors ``F, G : A → B``.

    The full subcategory of A on which the two functors literally agree.
    Returns ``(category, inclusion)``.
    """
    if F.dom.objects != G.dom.objects or F.cod.objects != G.cod.objects:
        raise ValueError(f"equalizer of {F.name} and {G.name}: not parallel")
    A = F.dom
    nm = name or f"EQ({F.name},{G.name})"
    objs = [o for o in A.objects if F.obj_map[o] == G.obj_map[o]]
    cat = subcategory(A, objs, lambda m: F.mor_map[m] == G.mor_map[m], nm)
    incl = FunctorMap(f"{nm}.ι", cat, A,
                      {o: o for o in objs}, {m: m for m in cat.morphisms})
    return cat, incl


def arrow_category(c: FinCategory, name=None):
    """The arrow category c^→: objects are morphisms of c, morphisms are
    commuting squares ``(f, g, a, b)`` with ``b∘f = g∘a``.

    Returns ``(category, dom_functor, cod_functor)``.
    """
    nm = name or f"{c.name}^→"
    objs = list(c.morphisms)
    mors, src, tgt = [], {}, {}
    for f in objs:
        for g in objs:
            for a in c.hom(c.src[f], c.src[g]):
                ga = c.comp(g, a)
                for b in c.hom(c.tgt[f], c.tgt[g]):
                    if c.comp(b, f) == ga:
                        sq = (f, g, a, b)
                        mors.append(sq)
                        src[sq] = f
                        tgt[sq] = g
    identity = {f: (f, f, c.identity[c.src[f]], c.identity[c.tgt[f]]) for f in objs}
    cat = category_from(nm, objs, mors, src, tgt, identity,
                        lambda sq2, sq: (sq[0], sq2[1], c.comp(sq2[2], sq[2]),
                                         c.comp(sq2[3], sq[3])))
    dom_f = FunctorMap(f"{nm}.dom", cat, c,
                       {f: c.src[f] for f in objs},
                       {sq: sq[2] for sq in mors})
    cod_f = FunctorMap(f"{nm}.cod", cat, c,
                       {f: c.tgt[f] for f in objs},
                       {sq: sq[3] for sq in mors})
    return cat, dom_f, cod_f


def joint_injectivity(p1: FunctorMap, p2: FunctorMap) -> list:
    """Check that two functors out of the same category are jointly
    injective on objects and morphisms (which forces mediating-functor
    uniqueness for the limits built here)."""
    bad = []
    seen = {}
    for o in p1.dom.objects:
        key = (p1.obj_map[o], p2.obj_map[o])
        if key in seen:
            bad.append(f"objects {seen[key]!r} and {o!r} not separated by projections")
        seen[key] = o
    seen = {}
    for m in p1.dom.morphisms:
        key = (p1.mor_map[m], p2.mor_map[m])
        if key in seen:
            bad.append(f"morphisms {seen[key]!r} and {m!r} not separated by projections")
        seen[key] = m
    return bad


def mediating_functor(kind, limit_cat, projections, legs, name=None,
                      over=None) -> FunctorMap:
    """Canonical mediating functor of a cone into one of our limits.

    ``kind`` is "pullback" or "equalizer".  For a pullback,
    ``projections`` and ``legs`` are the two projections and the two cone
    functors; the result tuples the legs pointwise, which is the unique
    choice because the projections are jointly injective (asserted here
    by exhaustive check).  For an equalizer, ``projections`` is the
    inclusion and ``legs`` the one cone functor, corestricted.  A pullback
    mediator records ``over`` (see ``FunctorMap``) before it is validated.
    """
    if kind == "pullback":
        W = legs[0].dom
        if joint_injectivity(*projections):
            raise ValueError("limit projections are not jointly injective")
        obj_map = {o: tuple(l.obj_map[o] for l in legs) for o in W.objects}
        mor_map = {m: tuple(l.mor_map[m] for l in legs) for m in W.morphisms}
        med = FunctorMap(name or f"⟨{','.join(l.name for l in legs)}⟩",
                         W, limit_cat, obj_map, mor_map, over)
    elif kind == "equalizer":
        med = FunctorMap(name or f"corestrict({legs.name})", legs.dom,
                         limit_cat, dict(legs.obj_map), dict(legs.mor_map))
    else:
        raise ValueError(f"unknown limit kind {kind!r}")
    bad = validate_functor(med)
    if bad:
        raise ValueError(f"cone does not factor through {limit_cat.name}: {bad[0]}")
    if kind == "pullback":
        for proj, leg in zip(projections, legs):
            if not same_functor(compose_functors(proj, med), leg):
                raise ValueError(f"mediating functor does not commute with {proj.name}")
    elif not same_functor(compose_functors(projections, med), legs):
        raise ValueError("mediating functor does not commute with the inclusion")
    return med


def verify_pullback_universal(F, G, pb, p1, p2, apexes) -> list:
    """Brute-force universal-property check of a pullback square.

    For every commuting cone whose apex is one of ``apexes`` (enumerating
    all functors), exactly one functor into the pullback commutes with
    both projections.
    """
    bad = []
    for W in apexes:
        into_pb = all_functors(W, pb)
        for l1 in all_functors(W, F.dom):
            fl1 = compose_functors(F, l1)
            for l2 in all_functors(W, G.dom):
                if not same_functor(fl1, compose_functors(G, l2)):
                    continue
                hits = [H for H in into_pb
                        if same_functor(compose_functors(p1, H), l1)
                        and same_functor(compose_functors(p2, H), l2)]
                if len(hits) != 1:
                    bad.append(
                        f"{pb.name}: cone from {W.name} via ({l1.name},{l2.name}) "
                        f"has {len(hits)} mediating functors")
    return bad


def verify_equalizer_universal(F, G, eq, incl, apexes) -> list:
    """Brute-force universal-property check of an equalizer."""
    bad = []
    for W in apexes:
        into_eq = all_functors(W, eq)
        for leg in all_functors(W, F.dom):
            if not same_functor(compose_functors(F, leg), compose_functors(G, leg)):
                continue
            hits = [H for H in into_eq
                    if same_functor(compose_functors(incl, H), leg)]
            if len(hits) != 1:
                bad.append(f"{eq.name}: cone from {W.name} via {leg.name} "
                           f"has {len(hits)} mediating functors")
    return bad
