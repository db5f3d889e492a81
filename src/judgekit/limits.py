"""Finite-limit constructions on explicit categories.

Pullbacks and equalizers have objects and morphisms that are tuples of
the input identifiers, so results are strictly canonical: running the
same construction twice yields identical tables.

A pullback is defined by its legs: its composition is a ``Composition``
over the legs' domains, which composes componentwise when a composite is
asked for.  It keeps no composition table of its own.  The table of a
pullback grows with the product of its factors' tables, while each
lookup costs only one lookup per factor.  A validator that sweeps a law
over a pullback numbers it as it numbers a table, from those lookups.
A product is the pullback of two ``bang_functor``s into the terminal
category.  Equalizers keep a table.

``mediating_functor`` builds the one functor through which a cone
factors into a pullback, and checks that it commutes; it handles
pullbacks only.  The brute-force checks of the universal properties,
which enumerate every cone from small apexes, are test oracles
(``tests/oracles.py``).
"""

from __future__ import annotations

from .core import (Composition, FinCategory, FunctorMap, compose_functors,
                   make_category, same_category, same_functor, subcategory,
                   validate_functor)


def terminal_category() -> FinCategory:
    return make_category("𝟙", ["•"], [("id", "•")],
                         {("id", "•"): "•"}, {("id", "•"): "•"},
                         {"•": ("id", "•")},
                         {(("id", "•"), ("id", "•")): ("id", "•")})


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
    mors, src, tgt = [], {}, {}
    for m in A.morphisms:
        sa, ta = A.src[m], A.tgt[m]
        for n in by_image_mor.get(F.mor_map[m], ()):
            mn = (m, n)
            mors.append(mn)
            src[mn] = (sa, B.src[n])
            tgt[mn] = (ta, B.tgt[n])
    identity = {(a, b): (A.identity[a], B.identity[b]) for (a, b) in objs}
    cat = FinCategory(nm, frozenset(objs), frozenset(mors), src, tgt, identity,
                      Composition(src, tgt, (F, G)))
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


def mediating_functor(limit_cat, projections, legs, name, over) -> FunctorMap:
    """The mediating functor of a cone into a pullback.

    ``projections`` are the pullback's two projections and ``legs`` the
    two cone functors; the result tuples the legs pointwise, which is the
    unique choice because the projections are jointly injective (asserted
    here by exhaustive check).  It records ``over`` (see ``FunctorMap``)
    before it is validated.
    """
    W = legs[0].dom
    if joint_injectivity(*projections):
        raise ValueError("limit projections are not jointly injective")
    obj_map = {o: tuple(l.obj_map[o] for l in legs) for o in W.objects}
    mor_map = {m: tuple(l.mor_map[m] for l in legs) for m in W.morphisms}
    med = FunctorMap(name, W, limit_cat, obj_map, mor_map, over)
    bad = validate_functor(med)
    if bad:
        raise ValueError(f"cone does not factor through {limit_cat.name}: {bad[0]}")
    for proj, leg in zip(projections, legs):
        if not same_functor(compose_functors(proj, med), leg):
            raise ValueError(f"mediating functor does not commute with {proj.name}")
    return med
