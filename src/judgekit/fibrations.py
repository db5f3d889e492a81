"""Grothendieck fibrations over a finite base.

A classifier is a functor into the context category remembered together
with its total category and (when it exists) a chosen cleavage.  All
fibrational properties — cartesianness, (op)fibration-hood, discreteness,
thinness — are decided by exhaustive enumeration.

A morphism is tested for cartesianness by counting factorizations: for
each source of an arrow into its target, one scan of the hom-set counts
every factorization at once, against base arrows grouped by their
composite.  Those groupings are shared by all the tests of one check
(``memo``) and dropped with it; nothing is kept on a category or a
classifier.  A cleavage takes, for each object and base arrow, the first
cartesian candidate in ``sort_key`` order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (FinCategory, FunctorMap, NatTrans, category_from,
                   opposite, subcategory, validate_functor)


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


def is_cartesian(cl: Classifier, m, memo=None) -> bool:
    """Exhaustive cartesianness test for a morphism of the total category.

    ``m : E → F`` over ``σ : θ → γ`` is cartesian when every ``m' : E' → F``
    whose projection factors as ``σ∘g`` with ``g : P(E') → θ`` lifts that
    factorization uniquely: exactly one ``h : E' → E`` has ``P h = g`` and
    ``m∘h = m'``.  The factorizations are counted: for each source ``E'``
    of an arrow into F, one scan of ``hom(E', E)`` counts the pairs
    ``(P h, m∘h)``, and m is cartesian when every required pair
    ``(g, m')`` is counted exactly once.  The test reads only the
    tables, so it is exact also when the projection is not a functor.

    ``memo``, a dict, shares the groupings that do not depend on m (the
    arrows into F by source, the base arrows into θ by their composite
    with σ) between the tests on one classifier; it is meant to be
    dropped with the check that made it.
    """
    total, base, P = cl.total, cl.base, cl.proj
    pmor = P.mor_map
    memo = {} if memo is None else memo
    E, F = total.src[m], total.tgt[m]
    sigma = pmor[m]
    into_f = memo.get(("into", F))
    if into_f is None:
        into_f = memo[("into", F)] = {}
        for m2 in total.into(F):
            into_f.setdefault(total.src[m2], []).append(m2)
    for E2, m2s in into_f.items():
        after = _composites(base, P.obj_map[E2], sigma, memo)
        count = {(g, m2): 0 for m2 in m2s for g in after.get(pmor[m2], ())}
        if not count:
            continue
        for h in total.hom(E2, E):
            key = (pmor[h], total.comp(m, h))
            if key in count:
                count[key] += 1
        if any(n != 1 for n in count.values()):
            return False
    return True


def _composites(base: FinCategory, a, sigma, memo):
    """The base arrows ``g : a → src σ`` grouped by ``σ∘g``, kept in
    ``memo``."""
    key = ("after", a, sigma)
    after = memo.get(key)
    if after is None:
        after = memo[key] = {}
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


def compute_cleavage(cl: Classifier):
    """Choose a cartesian lift for every (object, arrow-into-it) pair.

    Deterministic: the lift of an identity is the identity, and of the
    cartesian candidate lifts the one with the least ``sort_key`` is
    chosen: candidates are tested in that order and the first cartesian
    one is taken.  Returns ``(cleavage, diagnostics)``.
    """
    total, base, P = cl.total, cl.base, cl.proj
    cleavage, bad, memo = {}, [], {}
    for F in total.sorted_objects():
        over = _over(cl, F)
        for sigma in base.into(P.obj_map[F]):
            if base.is_identity(sigma):
                cleavage[(F, sigma)] = total.identity[F]
                continue
            lift = next((m for m in over.get(sigma, ())
                         if is_cartesian(cl, m, memo)), None)
            if lift is None:
                bad.append(f"{cl.name}: no cartesian lift of {sigma!r} at {F!r}")
            else:
                cleavage[(F, sigma)] = lift
    return cleavage, bad


def compute_op_cleavage(cl: Classifier):
    """Choose a cocartesian lift for every (object, arrow-out-of-it) pair:
    the cleavage of the opposite classifier.  Returns
    ``(op_cleavage, diagnostics)``."""
    return compute_cleavage(opposite_classifier(cl))


def cartesian_lift(cl: Classifier, obj, sigma):
    """The chosen cartesian lift of ``sigma`` at ``obj`` (cleavage lookup)."""
    if cl.cleavage is None:
        cl.cleavage, bad = compute_cleavage(cl)
        if bad:
            raise ValueError(bad[0])
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
    """At most one morphism between two total objects over each base arrow."""
    total, P = cl.total, cl.proj
    seen = {}
    bad = []
    for m in total.morphisms:
        key = (total.src[m], total.tgt[m], P.mor_map[m])
        if key in seen:
            bad.append(f"{cl.name}: parallel morphisms {seen[key]!r}, {m!r} "
                       f"over {key[2]!r}")
        seen[key] = m
    return bad


def verify_kind(cl: Classifier, expect=None) -> list:
    """Classify a classifier (fibration / opfibration / discrete, and
    thin when ``expect`` asks for it) and populate its cleavage.

    Validates the projection functor first and stops there when it
    fails; it does not validate the total or base category.  Returns
    diagnostics; ``expect`` (if given) adds a diagnostic when the
    computed kind does not include it."""
    bad = validate_functor(cl.proj)
    if bad:
        return bad
    kinds = []
    cleavage, fib_bad = compute_cleavage(cl)
    if not fib_bad:
        kinds.append("fibration")
        cl.cleavage = cleavage
    _, opfib_bad = compute_op_cleavage(cl)
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


def slice_classifier(ctx: FinCategory, gamma, name=None) -> Classifier:
    """The slice ctx_{/Γ} with its domain projection (a discrete fibration).

    Objects are arrows into Γ; morphisms (σ', σ, τ) are triangles σ∘τ = σ'.
    """
    nm = name or f"{ctx.name}/{gamma}"
    objs = list(ctx.into(gamma))
    mors, src, tgt = [], {}, {}
    for s1 in objs:
        for s2 in objs:
            for tau in ctx.hom(ctx.src[s1], ctx.src[s2]):
                if ctx.comp(s2, tau) == s1:
                    m = (s1, s2, tau)
                    mors.append(m)
                    src[m] = s1
                    tgt[m] = s2
    identity = {s: (s, s, ctx.identity[ctx.src[s]]) for s in objs}
    total = category_from(nm, objs, mors, src, tgt, identity,
                          over_base_comp(ctx))
    proj = FunctorMap(f"{nm}.dom", total, ctx,
                      {s: ctx.src[s] for s in objs}, {m: m[2] for m in mors})
    return Classifier(nm, total, ctx, proj, kind="discrete")


def coslice_classifier(ctx: FinCategory, gamma, name=None) -> Classifier:
    """The coslice ctx_{Γ/} with its codomain projection."""
    nm = name or f"{gamma}\\{ctx.name}"
    objs = list(ctx.out_of(gamma))
    mors, src, tgt = [], {}, {}
    for s1 in objs:
        for s2 in objs:
            for tau in ctx.hom(ctx.tgt[s1], ctx.tgt[s2]):
                if ctx.comp(tau, s1) == s2:
                    m = (s1, s2, tau)
                    mors.append(m)
                    src[m] = s1
                    tgt[m] = s2
    identity = {s: (s, s, ctx.identity[ctx.tgt[s]]) for s in objs}
    total = category_from(nm, objs, mors, src, tgt, identity,
                          over_base_comp(ctx))
    proj = FunctorMap(f"{nm}.cod", total, ctx,
                      {s: ctx.tgt[s] for s in objs}, {m: m[2] for m in mors})
    return Classifier(nm, total, ctx, proj, kind="functor")


def yoneda_fiber_functor(cl: Classifier, F, name=None):
    """The functor ctx_{/Γ} → total sending σ: Θ → Γ to the domain of the
    chosen cartesian lift of σ at F (with Γ the image of F).

    Witnesses the fibrational Yoneda correspondence: sections of the
    fibration over the slice correspond to objects of the fiber.
    Returns ``(slice_classifier, functor)``.
    """
    gamma = cl.proj.obj_map[F]
    sl = slice_classifier(cl.base, gamma)
    total = cl.total
    obj_map, lift_of = {}, {}
    for s in sl.total.objects:
        m = cartesian_lift(cl, F, s)
        obj_map[s] = total.src[m]
        lift_of[s] = m
    mor_map = {}
    for (s1, s2, tau) in sl.total.morphisms:
        hits = [h for h in total.hom(obj_map[s1], obj_map[s2])
                if cl.proj.mor_map[h] == tau
                and total.comp(lift_of[s2], h) == lift_of[s1]]
        if len(hits) != 1:
            raise ValueError(
                f"{cl.name}: {len(hits)} factorizations through the lift of "
                f"{s2!r} at {F!r} over {tau!r}")
        mor_map[(s1, s2, tau)] = hits[0]
    fun = FunctorMap(name or f"y({F})", sl.total, total, obj_map, mor_map)
    return sl, fun


def is_cartesian_functor(F: FunctorMap, cl_dom: Classifier, cl_cod: Classifier) -> list:
    """Morphism-of-fibrations check: F commutes with the projections and
    sends the chosen cartesian lifts to cartesian morphisms."""
    bad = []
    for o in cl_dom.total.objects:
        if cl_cod.proj.obj_map.get(F.obj_map[o]) is None:
            return [f"{F.name}: image of {o!r} not in {cl_cod.name}"]
    if cl_dom.cleavage is None:
        cl_dom.cleavage, cbad = compute_cleavage(cl_dom)
        if cbad:
            return cbad
    memo = {}
    for (obj, sigma), m in cl_dom.cleavage.items():
        if cl_dom.total.is_identity(m):
            continue
        if not is_cartesian(cl_cod, F.mor_map[m], memo):
            bad.append(f"{F.name}: image of the lift of {sigma!r} at {obj!r} "
                       f"is not cartesian")
    return bad


def is_cartesian_nat_trans(t: NatTrans, cl: Classifier) -> list:
    """Check every component of a transformation is cartesian for cl."""
    bad, memo = [], {}
    for o, m in t.components.items():
        if not is_cartesian(cl, m, memo):
            bad.append(f"{t.name}: component at {o!r} is not cartesian")
    return bad
