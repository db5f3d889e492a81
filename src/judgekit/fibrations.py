"""Grothendieck fibrations over a finite base.

A classifier is a functor into the context category remembered together
with its total category and (when it exists) a chosen cleavage.  All
fibrational properties — cartesianness, (op)fibration-hood, discreteness,
thinness — are decided by exhaustive enumeration.

A morphism m : E → F over σ : θ → γ is cartesian when every m' : E' → F
over σ∘g, for a base arrow g : P E' → θ, is m∘h for exactly one h : E' → E
over g.  ``is_cartesian`` counts those h for every such pair (g, m'),
reading one index of the total: for each target and source, the
morphisms between them grouped by the base arrow they lie over.  The
count reads only the tables, so it is exact for any projection, functor
or not, and over a faithful one each group holds at most one morphism,
so it compares one composite per pair (Jacobs, *Categorical Logic and
Type Theory*, ch. 1).  ``factorizations`` reads the same index.

Indexes, groupings and verdicts are kept in the check context, per
projection or per category they were read from, and shared by all the
tests of one request; nothing is kept on a category or a classifier.  A
loop over morphisms reads the index once.  A cleavage takes, for
each object and base arrow, the first cartesian candidate in
``sort_key`` order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (FinCategory, FunctorMap, NatTrans, _recall, category_from,
                   checking, opposite, parallel_morphisms, subcategory,
                   validate_functor)


@dataclass
class Classifier:
    """A functor ``proj : total → base`` packaged with fibration data."""

    name: str
    total: FinCategory
    base: FinCategory
    proj: FunctorMap
    kind: str = "functor"     # "fibration", "opfibration", "discrete", "functor"
    cleavage: dict = field(default=None, repr=False)    # (obj, base mor) -> mor

    def fiber_objects(self, gamma):
        return [o for o in self.total.sorted_objects()
                if self.proj.obj_map[o] == gamma]

    def fiber_category(self, gamma) -> FinCategory:
        """The fiber over an object: vertical morphisms only."""
        vid = self.base.identity[gamma]
        return subcategory(self.total, self.fiber_objects(gamma),
                           lambda m: self.proj.mor_map[m] == vid,
                           f"{self.name}({gamma})")


def opposite_classifier(cl: Classifier) -> Classifier:
    """``projᵒᵖ : totalᵒᵖ → baseᵒᵖ``.  Its cartesian morphisms are the
    cocartesian morphisms of ``cl``: an opfibration is a fibration of the
    opposite functor."""
    total, base = opposite(cl.total), opposite(cl.base)
    proj = FunctorMap(f"{cl.proj.name}ᵒᵖ", total, base,
                      cl.proj.obj_map, cl.proj.mor_map)
    return Classifier(f"{cl.name}ᵒᵖ", total, base, proj)


def is_cartesian(cl: Classifier, m) -> bool:
    """Exhaustive cartesianness test for a morphism of the total category.

    ``m : E → F`` over ``σ : θ → γ`` is cartesian when every ``m' : E' → F``
    whose projection factors as ``σ∘g`` with ``g : P(E') → θ`` lifts that
    factorization uniquely: exactly one ``h : E' → E`` has ``P h = g`` and
    ``m∘h = m'``.  The verdict is kept in the check context.  A loop over
    morphisms takes the test of its classifier once, from ``_cartesian``."""
    with checking():
        return _cartesian(cl)(m)


def _cartesian(cl: Classifier):
    """The cartesian test of cl as a function of the morphism, reading the
    index of cl's projection once.  For m : E → F it counts, for each
    required pair (g, m'), the morphisms over g in the index entry of E'
    and E whose composite with m is m'.  Verdicts are kept per projection
    and morphism when the projection runs between cl's total and base."""
    total, base, P = cl.total, cl.base, cl.proj
    pobj, pmor, compose = P.obj_map, P.mor_map, total.compose
    index, after_in = _kept_index(cl), _recall(dict, "after", base)
    kept = _recall(dict, "cartesian", P) \
        if P.dom is total and P.cod is base else {}

    def counted(m):
        sigma, into_e = pmor[m], index[total.src[m]]
        for E2, hit in index[total.tgt[m]].items():
            after = _composites(base, pobj[E2], sigma, after_in)
            lifts = into_e.get(E2, {})
            for b, m2s in hit.items():
                for g in after.get(b, ()):
                    hs = lifts.get(g, ())
                    for m2 in m2s:
                        n = 0
                        for h in hs:
                            if compose.get((m, h)) == m2:
                                n += 1
                        if n != 1:
                            return False
        return True

    def test(m):
        verdict = kept.get(m)
        if verdict is None:
            verdict = kept[m] = counted(m)
        return verdict
    return test


def factorizations(cl: Classifier, m, g, m2) -> list:
    """The morphisms ``h : src m2 → src m`` over g with ``m∘h = m2``, in
    ``sort_key`` order, read from the index of cl's projection.  A loop
    calls it inside one check context, so that the index is built once."""
    total = cl.total
    over = _kept_index(cl)[total.src[m]].get(total.src[m2], {})
    return [h for h in over.get(g, ()) if total.compose.get((m, h)) == m2]


def _kept_index(cl: Classifier) -> dict:
    """The ``_index`` of cl's total along its projection, kept in the check
    context per projection when the projection runs from cl's total, and
    built for the call otherwise."""
    P = cl.proj
    if P.dom is not cl.total:
        return _index(cl.total, P.mor_map)
    return _recall(lambda: _index(P.dom, P.mor_map), "index", P)


def _index(c: FinCategory, pmor) -> dict:
    """``index[F][E][σ]``: the morphisms E → F over σ, in ``sort_key``
    order."""
    index = {}
    for F in c.objects:
        into = index[F] = {}
        for m in c.into(F):
            into.setdefault(c.src[m], {}).setdefault(pmor[m], []).append(m)
    return index


def _composites(base: FinCategory, a, sigma, kept):
    """The base arrows ``g : a → src σ`` grouped by ``σ∘g``, kept in
    ``kept``."""
    key = (a, sigma)
    after = kept.get(key)
    if after is None:
        after = kept[key] = {}
        for g in base.hom(a, base.src[sigma]):
            after.setdefault(base.comp(sigma, g), []).append(g)
    return after


def _over(cl: Classifier, F) -> dict:
    """The arrows into F grouped by their projection, in ``sort_key``
    order within each group."""
    over = {}
    for m in cl.total.into(F):
        over.setdefault(cl.proj.mor_map[m], []).append(m)
    return over


def _lifts(cl: Classifier):
    """For each object F and base arrow σ into its image, in order:
    ``((F, σ), lift)``.  The lift of an identity is the identity, and of
    the cartesian candidate lifts the one with the least ``sort_key`` is
    chosen: candidates are tested in that order and the first cartesian
    one is taken.  ``lift`` is None where there is none."""
    total, base, P = cl.total, cl.base, cl.proj
    cartesian = _cartesian(cl)
    for F in total.sorted_objects():
        over = _over(cl, F)
        for sigma in base.into(P.obj_map[F]):
            if base.is_identity(sigma):
                yield (F, sigma), total.identity[F]
            else:
                yield (F, sigma), next((m for m in over.get(sigma, ())
                                        if cartesian(m)), None)


def _hole(cl: Classifier, F, sigma) -> str:
    return f"{cl.name}: no cartesian lift of {sigma!r} at {F!r}"


def compute_cleavage(cl: Classifier):
    """Choose a cartesian lift for every (object, arrow-into-it) pair, as
    ``_lifts`` does.  Returns ``(cleavage, diagnostics)``."""
    cleavage, bad = {}, []
    with checking():
        for (F, sigma), lift in _lifts(cl):
            if lift is None:
                bad.append(_hole(cl, F, sigma))
            else:
                cleavage[(F, sigma)] = lift
    return cleavage, bad


def _first_hole(cl: Classifier) -> list:
    """The first diagnostic of ``compute_cleavage``, or [] when it has
    none, found without computing the lifts after it."""
    with checking():
        return next(([_hole(cl, F, sigma)] for (F, sigma), lift in _lifts(cl)
                     if lift is None), [])


def cartesian_lift(cl: Classifier, obj, sigma):
    """The chosen cartesian lift of ``sigma`` at ``obj`` (cleavage lookup).
    A cleavage is stored on cl only when it has no holes."""
    if cl.cleavage is None:
        cleavage, bad = compute_cleavage(cl)
        if bad:
            raise ValueError(bad[0])
        cl.cleavage = cleavage
    return cl.cleavage[(obj, sigma)]


def is_discrete(cl: Classifier) -> list:
    """Unique-lift check: exactly one morphism over each arrow into each
    object's image, and fibers contain only identities."""
    total, base, P = cl.total, cl.base, cl.proj
    bad = []
    for F in total.sorted_objects():
        over = _over(cl, F)
        for sigma in base.into(P.obj_map[F]):
            n = len(over.get(sigma, ()))
            if n != 1:
                bad.append(f"{cl.name}: {n} lifts of {sigma!r} at {F!r}")
    return bad


def is_thin(cl: Classifier) -> list:
    """At most one morphism between two total objects over each base
    arrow: the projection is faithful."""
    return [f"{cl.name}: parallel morphisms {m!r}, {n!r} over {sigma!r}"
            for m, n, sigma in parallel_morphisms(cl.proj.dom,
                                                  cl.proj.mor_map.__getitem__)]


def verify_kind(cl: Classifier, expect=None) -> list:
    """Classify a classifier (fibration / opfibration / discrete, and
    thin when ``expect`` asks for it) and populate its cleavage.

    Validates the projection functor first and stops there when it
    fails; it does not validate the total or base category.  The
    opposite classifier's cleavage is computed only up to its first
    hole, since the kind and the diagnostic read no more of it.  Returns
    diagnostics; ``expect`` (if given) adds a diagnostic when the
    computed kind does not include it.  It runs in one check context,
    so the opposite classifier reads what was learnt about ``cl``."""
    with checking():
        bad = validate_functor(cl.proj)
        if bad:
            return bad
        kinds = []
        cleavage, fib_bad = compute_cleavage(cl)
        if not fib_bad:
            kinds.append("fibration")
            cl.cleavage = cleavage
        opfib_bad = _first_hole(opposite_classifier(cl))
        if not opfib_bad:
            kinds.append("opfibration")
        if not is_discrete(cl):
            kinds.append("discrete")
        if expect and "thin" in expect:
            if not is_thin(cl):
                kinds.append("thin")
        cl.kind = "+".join(kinds) if kinds else "functor"
        if expect:
            have = set(kinds)
            for want in expect.split("+"):
                if want not in have:
                    reason = fib_bad or opfib_bad or [f"{cl.name}: not {want}"]
                    bad.append(f"{cl.name}: expected {want}, got {cl.kind}: {reason[0]}")
        return bad


@dataclass
class IndexedData:
    """A strict contravariant indexing: a fiber category per base object
    and a restriction functor per base morphism."""

    name: str
    base: FinCategory
    fibers: dict        # base object -> FinCategory
    restrictions: dict  # base morphism σ: Θ→Γ -> FunctorMap fiber(Γ) → fiber(Θ)


def validate_indexed(ix: IndexedData) -> list:
    bad = []
    for o in ix.base.objects:
        if o not in ix.fibers:
            bad.append(f"{ix.name}: missing fiber over {o!r}")
    for m in ix.base.morphisms:
        if m not in ix.restrictions:
            bad.append(f"{ix.name}: missing restriction along {m!r}")
    if bad:
        return bad
    for m in ix.base.morphisms:
        r = ix.restrictions[m]
        bad += validate_functor(r)
        if r.dom.objects != ix.fibers[ix.base.tgt[m]].objects:
            bad.append(f"{ix.name}: restriction along {m!r} has wrong domain")
        if r.cod.objects != ix.fibers[ix.base.src[m]].objects:
            bad.append(f"{ix.name}: restriction along {m!r} has wrong codomain")
    if bad:
        return bad
    for o in ix.base.objects:
        r = ix.restrictions[ix.base.identity[o]]
        if any(r.obj_map[x] != x for x in r.dom.objects) or \
           any(r.mor_map[x] != x for x in r.dom.morphisms):
            bad.append(f"{ix.name}: restriction along id_{o!r} is not the identity")
    for (g, f), h in ix.base.compose.items():
        rg, rf, rh = ix.restrictions[g], ix.restrictions[f], ix.restrictions[h]
        for x in rg.dom.objects:
            if rf.obj_map[rg.obj_map[x]] != rh.obj_map[x]:
                bad.append(f"{ix.name}: strict functoriality fails at ({g!r},{f!r})")
                break
    return bad


def grothendieck_construct(ix: IndexedData, name=None) -> Classifier:
    """Total category of a strict indexing, with its canonical projection
    and split cleavage (lift of σ at (Γ,φ) is (σ, id over the restriction)).
    """
    nm = name or f"∫{ix.name}"
    base = ix.base
    objs, mors, src, tgt = [], [], {}, {}
    for gamma in base.objects:
        for phi in ix.fibers[gamma].objects:
            objs.append((gamma, phi))
    # A morphism (Θ,ψ) → (Γ,φ) is (σ: Θ→Γ, φ, α: ψ → σ*φ vertical over Θ).
    for sigma in base.morphisms:
        theta, gamma = base.src[sigma], base.tgt[sigma]
        r = ix.restrictions[sigma]
        fib = ix.fibers[theta]
        for phi in ix.fibers[gamma].objects:
            rphi = r.obj_map[phi]
            for alpha in fib.morphisms:
                if fib.tgt[alpha] != rphi:
                    continue
                m = (sigma, phi, alpha)
                mors.append(m)
                src[m] = (theta, fib.src[alpha])
                tgt[m] = (gamma, phi)
    identity = {}
    for (gamma, phi) in objs:
        identity[(gamma, phi)] = (base.identity[gamma], phi,
                                  ix.fibers[gamma].identity[phi])

    def compose(m2, m):
        # m = (τ, ψ, β): (Ξ,χ) → (Θ,ψ),  m2 = (σ, φ, α): (Θ,ψ) → (Γ,φ)
        tau, _, beta = m
        sigma, phi, alpha = m2
        return (base.comp(sigma, tau), phi,
                ix.fibers[base.src[tau]].comp(
                    ix.restrictions[tau].mor_map[alpha], beta))

    total = category_from(nm, objs, mors, src, tgt, identity, compose)
    proj = FunctorMap(f"{nm}.p", total, base,
                      {o: o[0] for o in objs}, {m: m[0] for m in mors})
    cl = Classifier(nm, total, base, proj, kind="fibration")
    cl.cleavage = {}
    for (gamma, phi) in objs:
        for sigma in base.into(gamma):
            theta = base.src[sigma]
            rphi = ix.restrictions[sigma].obj_map[phi]
            cl.cleavage[((gamma, phi), sigma)] = \
                (sigma, phi, ix.fibers[theta].identity[rphi])
    return cl


def over_base_comp(base: FinCategory):
    """Composition of morphisms written ``(source, target, σ)`` with σ an
    arrow of base: ``(b, c, τ) ∘ (a, b, σ) = (a, c, τ∘σ)``."""
    return lambda g, f: (f[0], g[1], base.comp(g[2], f[2]))


def is_cartesian_functor(F: FunctorMap, cl_dom: Classifier, cl_cod: Classifier) -> list:
    """Morphism-of-fibrations check: F commutes with the projections and
    sends the chosen cartesian lifts to cartesian morphisms."""
    bad = []
    for o in cl_dom.total.objects:
        if cl_cod.proj.obj_map.get(F.obj_map[o]) is None:
            return [f"{F.name}: image of {o!r} not in {cl_cod.name}"]
    if cl_dom.cleavage is None:
        cleavage, cbad = compute_cleavage(cl_dom)
        if cbad:
            return cbad
        cl_dom.cleavage = cleavage
    with checking():
        cartesian = _cartesian(cl_cod)
        for (obj, sigma), m in cl_dom.cleavage.items():
            if cl_dom.total.is_identity(m):
                continue
            if not cartesian(F.mor_map[m]):
                bad.append(f"{F.name}: image of the lift of {sigma!r} at "
                           f"{obj!r} is not cartesian")
    return bad


def is_cartesian_nat_trans(t: NatTrans, cl: Classifier) -> list:
    """Check every component of a transformation is cartesian for cl."""
    bad = []
    with checking():
        cartesian = _cartesian(cl)
        for o, m in t.components.items():
            if not cartesian(m):
                bad.append(f"{t.name}: component at {o!r} is not cartesian")
    return bad
