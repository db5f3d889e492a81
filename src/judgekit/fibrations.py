"""Grothendieck fibrations over a finite base.

A classifier is a name and a functor into the context category, its
projection; its total and base are the projection's domain and codomain.
All fibrational properties — cartesianness, (op)fibration-hood,
discreteness, thinness — are decided by exhaustive enumeration.

A morphism m : E → F over σ : θ → γ is cartesian when every m' : E' → F
over σ∘g, for a base arrow g : P E' → θ, is m∘h for exactly one h : E' → E
over g.  ``is_cartesian`` counts those h for every such pair (g, m'),
reading one index of the total: for each target and source, the
morphisms between them grouped by the base arrow they lie over.  The
count reads only the tables, so it is exact for any projection, functor
or not, and over a faithful one each group holds at most one morphism,
so it compares one composite per pair (Jacobs, *Categorical Logic and
Type Theory*, ch. 1).  ``factorizations`` reads the same index, and so
does ``one_over``, the one lookup of "the morphism E → F over σ" that
``thin_rule``, Δ and ε of ``finset_topos`` and the vertical morphisms
and comparisons of ``ndt`` read.

The fibrations that ``ndt`` and ``finset_topos`` construct over a
context category come from one function, ``thin_classifier``: the
Grothendieck construction on posets of formulas indexed by the contexts,
with at most one morphism between two objects over each base arrow.
The fibrations of ``ndt`` order formulas by entailment, and the types 𝕌
and terms 𝕌̇ of ``finset_topos`` by equality, which makes them
discrete.  ``thin_rule`` builds a functor into such a classifier from
its object map alone.

*Discrete-fibration lemma.*  Let P : E → B be a functor, and let every
composable pair of E have a composite in E with the right endpoints.
Suppose that for every object F of E and every σ : θ → P F exactly one
morphism into F lies over σ.  Then every morphism of E is cartesian, and
that one morphism is the only lift of σ at F.  Proof: let m : E → F lie
over σ, m' : E' → F over σ∘g, and h be the one morphism into E over g.
Then m∘h lies over σ∘g and ends at F, so m∘h = m', and h starts at E';
any h' : E' → E over g is that one morphism too, so exactly one h works.
These are the discrete fibrations, the fibrations of presheaves (Jacobs,
*Categorical Logic and Type Theory*, 1999, ch. 1); the typing judgements
𝕌 → ctx and 𝕌̇ → ctx of a natural model are such (Awodey, "Natural
models of homotopy type theory", *MSCS* 28, 2018).  ``_cartesian``
checks the premises in the call: the count of ``is_discrete``, which
stops at the first pair it refutes, the soundness of the total and P's
``validate_functor`` verdict, all kept in the check context.  When they
hold, it answers without the count or the index, and a cleavage takes
the only candidate over each arrow; when one fails, it counts.  An
opposite classifier reads the last two premises from its original.

Indexes, groupings, discreteness verdicts and cleavages are kept in the
check context, per projection, category or classifier they were read
from, and shared by all the tests of one request; nothing is kept on a
category or a classifier.  The verdict of the cartesian test on one
morphism is not kept: a loop over morphisms takes the test once and reads
the index once.  A cleavage takes, for each object and base arrow, the
first cartesian candidate in ``sort_key`` order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (FinCategory, FunctorMap, NatTrans, _recall, _sound,
                   _validated, along, category_from, checking, opposite,
                   parallel_morphisms, subcategory, validate_functor)


@dataclass
class Classifier:
    """A functor ``proj : total → base``: its total and base are the
    domain and codomain of its projection, so they cannot disagree."""

    name: str
    proj: FunctorMap

    @property
    def total(self) -> FinCategory:
        return self.proj.dom

    @property
    def base(self) -> FinCategory:
        return self.proj.cod

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
    opposite functor.  In a check context it is recorded as the opposite
    of cl, whose premises of the discrete-fibration lemma it reads."""
    op = Classifier(f"{cl.name}ᵒᵖ", FunctorMap(
        f"{cl.proj.name}ᵒᵖ", opposite(cl.total), opposite(cl.base),
        cl.proj.obj_map, cl.proj.mor_map))
    _recall(lambda: cl, "opposite of", op)
    return op


def is_cartesian(cl: Classifier, m) -> bool:
    """Exhaustive cartesianness test for a morphism of the total category.

    ``m : E → F`` over ``σ : θ → γ`` is cartesian when every ``m' : E' → F``
    whose projection factors as ``σ∘g`` with ``g : P(E') → θ`` lifts that
    factorization uniquely: exactly one ``h : E' → E`` has ``P h = g`` and
    ``m∘h = m'``.  A loop over morphisms takes the test of its classifier
    once, from ``_cartesian``."""
    with checking():
        return _cartesian(cl)(m)


def _cartesian(cl: Classifier):
    """The cartesian test of cl as a function of the morphism.  When the
    discrete-fibration lemma decides cl (``_by_lemma``), it is true for
    exactly the morphisms of the total.  Otherwise it reads the index of
    cl's projection once: for m : E → F it counts, for each required pair
    (g, m'), the morphisms over g in the index entry of E' and E whose
    composite with m is m'."""
    total, base, P = cl.total, cl.base, cl.proj
    if _by_lemma(cl):
        return total.morphisms.__contains__
    pobj, pmor, compose = P.obj_map, P.mor_map, total.compose
    index, after_in = _kept_index(cl), _recall(dict, "after", base)

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
    return counted


def _by_lemma(cl: Classifier) -> bool:
    """Whether the premises of the discrete-fibration lemma hold for cl,
    each checked here: cl is discrete (``_discrete``), its total is sound
    and its projection passes ``validate_functor``.  An opposite made by
    ``opposite_classifier`` in the same check context reads all but
    discreteness from its original, since Pᵒᵖ is a functor exactly when P
    is and a transposed table is sound exactly when its original is."""
    orig = _recall(lambda: None, "opposite of", cl) or cl
    return _discrete(cl) and _sound(orig.total) and not _validated(orig.proj)


def factorizations(cl: Classifier, m, g, m2) -> list:
    """The morphisms ``h : src m2 → src m`` over g with ``m∘h = m2``, in
    ``sort_key`` order, read from the index of cl's projection.  A loop
    calls it inside one check context, so that the index is built once."""
    total = cl.total
    over = _kept_index(cl)[total.src[m]].get(total.src[m2], {})
    return [h for h in over.get(g, ()) if total.compose.get((m, h)) == m2]


def _kept_index(cl: Classifier) -> dict:
    """The ``_index`` of cl's total along its projection, kept in the check
    context per projection."""
    P = cl.proj
    return _recall(lambda: _index(P.dom, P.mor_map), "index", P)


def one_over(cl: Classifier):
    """The one morphism E → F over σ, as a function of ``(E, F, σ)`` read
    from the index of cl's projection; it raises when there is not
    exactly one.  A loop takes it once, so that the index is read once."""
    index = _kept_index(cl)

    def over(E, F, sigma):
        hits = index.get(F, {}).get(E, {}).get(sigma, ())
        if len(hits) != 1:
            raise ValueError(f"{cl.name}: {len(hits)} morphisms {E!r} → "
                             f"{F!r} over {sigma!r}")
        return hits[0]
    return over


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
    one is taken, which over a discrete fibration is the only candidate.
    ``lift`` is None where there is none."""
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
    ``_lifts`` does.  Returns ``(cleavage, diagnostics)``, kept in the
    check context per classifier and shared by its callers, who do not
    change it; the cleavage maps ``(obj, σ)`` to its lift.  When the
    premises of the discrete-fibration lemma of this module hold, every
    morphism is cartesian and the lift of σ at F is the one morphism into
    F over σ, so no factorization is counted; the cleavage is the one the
    count would choose, in the same order."""
    def cleave():
        cleavage, bad = {}, []
        for (F, sigma), lift in _lifts(cl):
            if lift is None:
                bad.append(_hole(cl, F, sigma))
            else:
                cleavage[(F, sigma)] = lift
        return cleavage, bad
    with checking():
        return _recall(cleave, "cleavage", cl)


def _first_hole(cl: Classifier) -> list:
    """The first diagnostic of ``compute_cleavage``, or [] when it has
    none, found without computing the lifts after it."""
    with checking():
        return next(([_hole(cl, F, sigma)] for (F, sigma), lift in _lifts(cl)
                     if lift is None), [])


def cartesian_lift(cl: Classifier, obj, sigma):
    """The chosen cartesian lift of ``sigma`` at ``obj``, read from the
    cleavage of ``compute_cleavage``; raises when the cleavage has a hole.
    A loop calls it inside one check context, so that the cleavage is
    computed once."""
    cleavage, bad = compute_cleavage(cl)
    if bad:
        raise ValueError(bad[0])
    return cleavage[(obj, sigma)]


def _miscounted(cl: Classifier):
    """``(F, σ, n)`` for each object F of the total and base arrow σ into
    its image with n ≠ 1 morphisms into F over σ, in ``sort_key`` order."""
    base, P = cl.base, cl.proj
    for F in cl.total.sorted_objects():
        over = _over(cl, F)
        for sigma in base.into(P.obj_map[F]):
            n = len(over.get(sigma, ()))
            if n != 1:
                yield F, sigma, n


def is_discrete(cl: Classifier) -> list:
    """Unique-lift check: exactly one morphism over each arrow into each
    object's image, and fibers contain only identities."""
    return [f"{cl.name}: {n} lifts of {sigma!r} at {F!r}"
            for F, sigma, n in _miscounted(cl)]


def _discrete(cl: Classifier) -> bool:
    """Whether ``is_discrete`` finds nothing, kept in the check context
    per classifier; the count stops at the first pair it refutes."""
    return _recall(lambda: next(_miscounted(cl), None) is None,
                   "discrete", cl)


def is_thin(cl: Classifier) -> list:
    """At most one morphism between two total objects over each base
    arrow: the projection is faithful."""
    return [f"{cl.name}: parallel morphisms {m!r}, {n!r} over {sigma!r}"
            for m, n, sigma in parallel_morphisms(cl.proj.dom,
                                                  cl.proj.mor_map.__getitem__)]


def verify_kind(cl: Classifier, expect=None) -> list:
    """Classify a classifier: fibration / opfibration / discrete, and
    thin when ``expect`` asks for it.

    Validates the projection functor first and stops there when it
    fails; it does not validate the total or base category.  The
    opposite classifier's cleavage is computed only up to its first
    hole, since the kind and the diagnostic read no more of it.  Returns
    diagnostics; ``expect`` (if given) adds a diagnostic when the
    computed kind does not include it.  It runs in one check context,
    so the opposite classifier reads what was learnt about ``cl``.

    A discrete classifier whose total is sound is a fibration by the
    discrete-fibration lemma of this module, and its cleavage is read off
    without counting factorizations; the opposite classifier takes the
    functoriality of its projection and the soundness of its total from
    ``cl``, so it is never swept or numbered, and decides its own
    cleavage by the lemma when it is discrete too.  The ``discrete`` kind
    reuses the kept count."""
    with checking():
        bad = validate_functor(cl.proj)
        if bad:
            return bad
        kinds = []
        fib_bad = compute_cleavage(cl)[1]
        if not fib_bad:
            kinds.append("fibration")
        opfib_bad = _first_hole(opposite_classifier(cl))
        if not opfib_bad:
            kinds.append("opfibration")
        if _discrete(cl):
            kinds.append("discrete")
        if expect and "thin" in expect:
            if not is_thin(cl):
                kinds.append("thin")
        if expect:
            kind = "+".join(kinds) if kinds else "functor"
            for want in expect.split("+"):
                if want not in kinds:
                    reason = fib_bad or opfib_bad or [f"{cl.name}: not {want}"]
                    bad.append(f"{cl.name}: expected {want}, got {kind}: {reason[0]}")
        return bad


def thin_classifier(name, ctx: FinCategory, formulas, restrict,
                    leq) -> Classifier:
    """A classifier thin over each base arrow: objects (x, a) for a in
    ``formulas(x)``, and one morphism ``(name, σ, b, a)`` : (θ, b) → (x, a)
    over σ : θ → x exactly when ``leq(θ, b, restrict(σ, a))``.  Morphisms
    compose through ``ctx.comp``.  A restriction that is not monotone or
    not functorial yields a total that ``validate_category`` rejects."""
    over = {x: formulas(x) for x in ctx.objects}
    objs = [(x, a) for x in ctx.objects for a in over[x]]
    mors, src, tgt = [], {}, {}
    for sigma in ctx.morphisms:
        theta, x = ctx.src[sigma], ctx.tgt[sigma]
        for a in over[x]:
            ra = restrict(sigma, a)
            for b in over[theta]:
                if leq(theta, b, ra):
                    m = (name, sigma, b, a)
                    mors.append(m)
                    src[m] = (theta, b)
                    tgt[m] = (x, a)
    identity = {(x, a): (name, ctx.identity[x], a, a) for (x, a) in objs}
    cat = category_from(name, objs, mors, src, tgt, identity,
                        lambda g, f: (name, ctx.comp(g[1], f[1]), f[2], g[3]))
    proj = FunctorMap(f"{name}.p", cat, ctx,
                      {o: o[0] for o in objs}, {m: m[1] for m in mors})
    return Classifier(name, proj)


def thin_rule(name, dom_cat: FinCategory, target: Classifier,
              obj_fn, path, source: Classifier) -> FunctorMap:
    """Build a rule into a thin-per-base classifier from its object
    assignment alone; the morphism table is forced by uniqueness.

    The base arrow of a morphism m is ``source.proj`` of its component at
    ``path`` (``along(path, m)``), and the image of m is the one morphism
    of the target between the images of m's endpoints over that arrow,
    read by ``one_over``.  The rule records ``(target.proj, (), path,
    source.proj)`` for ``validate_functor``."""
    over, base = one_over(target), source.proj.mor_map
    obj_map = {o: obj_fn(o) for o in dom_cat.objects}
    mor_map = {m: over(obj_map[dom_cat.src[m]], obj_map[dom_cat.tgt[m]],
                       base[along(path, m)])
               for m in dom_cat.morphisms}
    return FunctorMap(name, dom_cat, target.total, obj_map, mor_map,
                      over=(target.proj, (), path, source.proj))


def is_cartesian_functor(F: FunctorMap, cl_dom: Classifier, cl_cod: Classifier) -> list:
    """Morphism-of-fibrations check: F commutes with the projections and
    sends the chosen cartesian lifts to cartesian morphisms."""
    bad = []
    for o in cl_dom.total.objects:
        if cl_cod.proj.obj_map.get(F.obj_map[o]) is None:
            return [f"{F.name}: image of {o!r} not in {cl_cod.name}"]
    with checking():
        cleavage, holes = compute_cleavage(cl_dom)
        if holes:
            return list(holes)
        cartesian = _cartesian(cl_cod)
        for (obj, sigma), m in cleavage.items():
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
