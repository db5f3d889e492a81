"""Derived natural deduction over a poset doctrine.

Propositions over a finite context category form a fibration 𝔽 → ctx;
sequents are the fiberwise arrows between propositions, collected into a
second fibration 𝔼 → ctx with antecedent and consequent rules d, c and
the tautological policy α : d ⇒ c.  Everything deductive is then
*derived* rather than postulated:

* the structural rules (assumption, weakening, contraction, exchange)
  are functors out of finite-limit constructions on 𝔽 and 𝔼;
* cut is recovered by re-indexing α along the antecedent fibration
  d : 𝔼 → 𝔽 — a ♯-lift, not an axiom;
* conjunction comes with introduction/projection rules;
* the sequent endofunctor S carries an idempotent monad structure whose
  Kleisli category is equivalent to the category of proposition pairs
  (the comparison is an isomorphism on skeletons);
* for powerset doctrines the quantifiers arise as fiberwise adjoints
  ∃ ⊣ w ⊣ ∀ of weakening, with introduction/elimination rules and the
  trivial-substitution law.

Exhaustive object-level sweeps (the ``*_oracle`` functions) re-derive
the same facts by direct subset computation, independently of the
categorical machinery, so the two can be played against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .core import (FinCategory, FunctorMap, NatTrans, AdjunctionData,
                   check_adjunction, check_category_iso, compose_functors,
                   identity_functor, category_from, same_functor, subcategory,
                   validate_category, validate_functor, validate_nat_trans,
                   whisker_left, whisker_right, vertical_compose,
                   identity_nat_trans)
from .fibrations import (Classifier, IndexedData, grothendieck_construct,
                         is_cartesian_functor, validate_indexed, verify_kind)
from .finsets import (cross_map, fin_skeleton, graph_map, meet as set_meet,
                      pair_index, preimage, subsets, subset_leq)
from .theory import (PreJudgementalTheory, close_pullback, empty_classifier,
                     sharp_lift, validate_prejt, check_axioms)


# --------------------------------------------------------------------------
# Doctrines: a poset of propositions over every context, restricted
# contravariantly along context morphisms.
# --------------------------------------------------------------------------

class PowersetDoctrine:
    """Subsets of each finite context, restricted by preimage."""

    def __init__(self, n: int):
        self.n = n
        self.name = f"powerset({n})"
        self.ctx = fin_skeleton(n)

    def formulas(self, x):
        return subsets(x)

    def leq(self, x, a, b):
        return subset_leq(a, b)

    def meet(self, x, a, b):
        return set_meet(a, b)

    def top(self, x):
        return tuple(range(x))

    def restrict(self, sigma, a):
        return preimage(sigma, a)


class ChainDoctrine:
    """A constant chain 0 ≤ 1 ≤ … ≤ k of truth degrees over every context."""

    def __init__(self, k: int, n: int):
        self.k = k
        self.n = n
        self.name = f"chain({k},{n})"
        self.ctx = fin_skeleton(n)

    def formulas(self, x):
        return list(range(self.k + 1))

    def leq(self, x, a, b):
        return a <= b

    def meet(self, x, a, b):
        return min(a, b)

    def top(self, x):
        return self.k

    def restrict(self, sigma, a):
        return a


# --------------------------------------------------------------------------
# The two generating classifiers: propositions 𝔽 and sequents 𝔼.
# --------------------------------------------------------------------------

def _poset_category(name, tag, elements, leq) -> FinCategory:
    """A finite poset as a category, morphisms ``("≤", tag, a, b)``."""
    mors, src, tgt = [], {}, {}
    for a in elements:
        for b in elements:
            if leq(a, b):
                m = ("≤", tag, a, b)
                mors.append(m)
                src[m] = a
                tgt[m] = b
    identity = {a: ("≤", tag, a, a) for a in elements}
    return category_from(name, elements, mors, src, tgt, identity,
                         lambda g, f: ("≤", tag, f[2], g[3]))


def proposition_classifier(doc, name="𝔽") -> Classifier:
    """The fibration of propositions: fiber over x is the doctrine poset."""
    ctx = doc.ctx
    fibers = {x: _poset_category(f"{name}({x})", x, doc.formulas(x),
                                 lambda a, b, x=x: doc.leq(x, a, b))
              for x in ctx.objects}
    restrictions = {}
    for sigma in ctx.morphisms:
        theta, x = ctx.src[sigma], ctx.tgt[sigma]
        obj_map = {a: doc.restrict(sigma, a) for a in doc.formulas(x)}
        mor_map = {("≤", x, a, b): ("≤", theta, obj_map[a], obj_map[b])
                   for (_, _, a, b) in fibers[x].morphisms}
        restrictions[sigma] = FunctorMap(f"{name}*{sigma}", fibers[x],
                                         fibers[theta], obj_map, mor_map)
    ix = IndexedData(name, ctx, fibers, restrictions)
    bad = validate_indexed(ix)
    if bad:
        raise ValueError(bad[0])
    return grothendieck_construct(ix, name=name)


def sequent_classifier(doc, name="𝔼") -> Classifier:
    """The fibration of sequents: fiber over x is the poset of pairs
    (antecedent, consequent) with antecedent ≤ consequent, ordered
    componentwise (the fiberwise arrow category of the propositions)."""
    ctx = doc.ctx

    def pairs(x):
        return [(a, b) for a in doc.formulas(x) for b in doc.formulas(x)
                if doc.leq(x, a, b)]

    fibers = {x: _poset_category(
        f"{name}({x})", ("⊢", x), pairs(x),
        lambda p, q, x=x: doc.leq(x, p[0], q[0]) and doc.leq(x, p[1], q[1]))
        for x in ctx.objects}
    restrictions = {}
    for sigma in ctx.morphisms:
        theta, x = ctx.src[sigma], ctx.tgt[sigma]
        obj_map = {p: (doc.restrict(sigma, p[0]), doc.restrict(sigma, p[1]))
                   for p in pairs(x)}
        mor_map = {m: ("≤", ("⊢", theta), obj_map[m[2]], obj_map[m[3]])
                   for m in fibers[x].morphisms}
        restrictions[sigma] = FunctorMap(f"{name}*{sigma}", fibers[x],
                                         fibers[theta], obj_map, mor_map)
    ix = IndexedData(name, ctx, fibers, restrictions)
    bad = validate_indexed(ix)
    if bad:
        raise ValueError(bad[0])
    return grothendieck_construct(ix, name=name)


def _unique_over(cl: Classifier, src, tgt, sigma):
    """The unique morphism src → tgt of a thin-per-base classifier lying
    over sigma; raises when existence or uniqueness fails."""
    hits = [m for m in cl.total.hom(src, tgt) if cl.proj.mor_map[m] == sigma]
    if len(hits) != 1:
        raise ValueError(f"{cl.name}: {len(hits)} morphisms {src!r} → {tgt!r} "
                         f"over {sigma!r}")
    return hits[0]


def thin_rule(name, dom_cat: FinCategory, target: Classifier,
              obj_fn, base_fn) -> FunctorMap:
    """Build a rule into a thin-per-base classifier from its object
    assignment alone; the morphism table is forced by uniqueness."""
    obj_map = {o: obj_fn(o) for o in dom_cat.objects}
    mor_map = {}
    for m in dom_cat.morphisms:
        mor_map[m] = _unique_over(target, obj_map[dom_cat.src[m]],
                                  obj_map[dom_cat.tgt[m]], base_fn(m))
    return FunctorMap(name, dom_cat, target.total, obj_map, mor_map)


# --------------------------------------------------------------------------
# The deduction system generated by a doctrine.
# --------------------------------------------------------------------------

@dataclass
class DeductionSystem:
    """A doctrine packaged as a judgemental theory: propositions 𝔽,
    sequents 𝔼, antecedent/consequent rules and the policy between them."""

    doctrine: object
    theory: PreJudgementalTheory
    ctx: FinCategory
    P: Classifier             # propositions 𝔽 → ctx
    E: Classifier             # sequents 𝔼 → ctx
    d: FunctorMap             # antecedent 𝔼 → 𝔽
    c: FunctorMap             # consequent 𝔼 → 𝔽
    q: FunctorMap             # context of a sequent 𝔼 → ctx
    alpha: NatTrans           # d ⇒ c, the sequent read as a morphism
    pp: FinCategory           # 𝔽 ×ctx 𝔽
    pp_projs: tuple
    conj: FunctorMap          # ∧ : 𝔽 ×ctx 𝔽 → 𝔽


def build_deduction_system(doc) -> DeductionSystem:
    ctx = doc.ctx
    T = PreJudgementalTheory(f"ndt({doc.name})", ctx)
    P = T.add_judgement(proposition_classifier(doc))
    E = T.add_judgement(sequent_classifier(doc))

    d_obj = {e: (e[0], e[1][0]) for e in E.total.objects}
    c_obj = {e: (e[0], e[1][1]) for e in E.total.objects}
    d_mor, c_mor = {}, {}
    for m in E.total.morphisms:
        sigma, (a, b), beta = m
        theta = ctx.src[sigma]
        (a1, b1) = beta[2]
        d_mor[m] = (sigma, a, ("≤", theta, a1, doc.restrict(sigma, a)))
        c_mor[m] = (sigma, b, ("≤", theta, b1, doc.restrict(sigma, b)))
    d = T.add_rule(FunctorMap("d", E.total, P.total, d_obj, d_mor))
    c = T.add_rule(FunctorMap("c", E.total, P.total, c_obj, c_mor))
    q = compose_functors(P.proj, d, name="q")
    T.add_rule(q)

    alpha = NatTrans("α", d, c, {
        e: (ctx.identity[e[0]], e[1][1], ("≤", e[0], e[1][0], e[1][1]))
        for e in E.total.objects})
    T.add_policy(alpha, "covariant")

    pp, pp1, pp2 = close_pullback(T, P.proj, P.proj)
    conj = thin_rule("∧", pp, P,
                     lambda o: (o[0][0], doc.meet(o[0][0], o[0][1], o[1][1])),
                     lambda m: m[0][0])
    T.add_rule(conj)
    return DeductionSystem(doc, T, ctx, P, E, d, c, q, alpha,
                           pp, (pp1, pp2), conj)


def validate_system(ds: DeductionSystem) -> list:
    """Every generating law at once: categories, functors, the policy,
    both fibrations, and the closure axioms of the ambient theory."""
    bad = validate_category(ds.P.total) + validate_category(ds.E.total)
    bad += validate_prejt(ds.theory)
    bad += validate_nat_trans(ds.alpha)
    bad += verify_kind(ds.P, expect="fibration")
    bad += verify_kind(ds.E, expect="fibration")
    bad += check_axioms(ds.theory, variances={ds.P.name: "contravariant",
                                              ds.E.name: "contravariant"})
    return bad


# --------------------------------------------------------------------------
# Structural rules.  Cut is the ♯-lift of α along the antecedent fibration.
# --------------------------------------------------------------------------

@dataclass
class StructuralRules:
    assumption: FunctorMap    # Γ, φ ⊢ φ
    weakening: FunctorMap     # Γ ⊢ ψ gives Γ, φ ⊢ ψ
    contraction: FunctorMap   # Γ, φ, φ ⊢ ψ gives Γ, φ ⊢ ψ
    exchange: FunctorMap      # Γ, φ ⊢ ψ gives φ, Γ ⊢ ψ
    cut: FunctorMap           # Γ ⊢ φ and φ ⊢ ψ give Γ ⊢ ψ
    cut_lift: object          # SharpLiftResult the cut was extracted from
    trivial: FunctorMap       # the empty rule 0 : ∅ → 𝔼
    diagnostics: list = field(default_factory=list)


def derive_structural(ds: DeductionSystem) -> StructuralRules:
    doc, T, E, P = ds.doctrine, ds.theory, ds.E, ds.P
    bad = []

    def mt(x, *fs):
        out = fs[0]
        for f in fs[1:]:
            out = doc.meet(x, out, f)
        return out

    # Assumption: a pair of propositions (Γ, φ) in context x yields the
    # sequent Γ∧φ ⊢ φ.  (The nullary form is the empty rule below.)
    assumption = thin_rule(
        "H", ds.pp, E,
        lambda o: (o[0][0], (mt(o[0][0], o[0][1], o[1][1]), o[1][1])),
        lambda m: m[0][0])
    T.add_rule(assumption)

    # Weakening: a sequent and a proposition in the same context.
    wk_prem, _, _ = close_pullback(T, ds.q, P.proj)
    weakening = thin_rule(
        "W", wk_prem, E,
        lambda o: (o[0][0], (mt(o[0][0], o[0][1][0], o[1][1]), o[0][1][1])),
        lambda m: m[1][0])
    T.add_rule(weakening)

    # Contraction: a sequent whose antecedent is Γ∧φ∧φ, presented by the
    # doubled-meet rule, loses the duplicate.
    dup = thin_rule("∧∧", ds.pp,
                    P,
                    lambda o: (o[0][0], mt(o[0][0], o[0][1], o[1][1], o[1][1])),
                    lambda m: m[0][0])
    T.add_rule(dup)
    ct_prem, _, _ = close_pullback(T, dup, ds.d)
    contraction = thin_rule(
        "C", ct_prem, E,
        lambda o: (o[0][0][0], (mt(o[0][0][0], o[0][0][1], o[0][1][1]),
                                o[1][1][1])),
        lambda m: m[0][0][0])
    T.add_rule(contraction)

    # Exchange: a sequent out of Γ∧φ becomes a sequent out of φ∧Γ.
    ex_prem, _, _ = close_pullback(T, ds.conj, ds.d)
    exchange = thin_rule(
        "Sw", ex_prem, E,
        lambda o: (o[0][0][0], (mt(o[0][0][0], o[0][1][1], o[0][0][1]),
                                o[1][1][1])),
        lambda m: m[0][0][0])
    T.add_rule(exchange)

    # Cut is not postulated: re-index the tautological policy α along the
    # antecedent fibration d : 𝔼 → 𝔽 and project.  The premise of the lift
    # is exactly the composable pairs (Γ ⊢ φ, φ ⊢ ψ).
    e_over_p = Classifier("𝔼d", E.total, P.total, ds.d, kind="fibration")
    lift = sharp_lift(T, identity_functor(E.total), ds.c, ds.d,
                      ds.alpha, e_over_p)
    bad += lift.diagnostics
    if not lift.diagnostics:
        cut = compose_functors(lift.conclusion_projs[1], lift.rule, name="cut")
        direct = thin_rule(
            "cut∘", lift.premise, E,
            lambda o: (o[0][0], (o[0][1][0], o[1][1][1])),
            lambda m: m[0][0])
        if not same_functor(cut, direct):
            bad.append("cut: re-indexed rule disagrees with the transitive "
                       "composition of sequents")
        T.add_rule(cut)
    else:
        cut = None

    trivial = FunctorMap("0", empty_classifier(T).total, E.total, {}, {})
    for r in (assumption, weakening, contraction, exchange, trivial):
        bad += validate_functor(r)
    return StructuralRules(assumption, weakening, contraction, exchange,
                           cut, lift, trivial, bad)


@dataclass
class ConnectiveRules:
    intro: FunctorMap         # Γ ⊢ φ and Γ ⊢ ψ give Γ ⊢ φ∧ψ
    proj1: FunctorMap         # Γ∧φ ⊢ Γ
    proj2: FunctorMap         # Γ∧φ ⊢ φ
    diagnostics: list = field(default_factory=list)


def derive_connectives(ds: DeductionSystem) -> ConnectiveRules:
    doc, T, E = ds.doctrine, ds.theory, ds.E
    bad = []
    proj1 = thin_rule(
        "∧E1", ds.pp, E,
        lambda o: (o[0][0], (doc.meet(o[0][0], o[0][1], o[1][1]), o[0][1])),
        lambda m: m[0][0])
    proj2 = thin_rule(
        "∧E2", ds.pp, E,
        lambda o: (o[0][0], (doc.meet(o[0][0], o[0][1], o[1][1]), o[1][1])),
        lambda m: m[0][0])
    same_ant, _, _ = close_pullback(T, ds.d, ds.d)
    intro = thin_rule(
        "∧I", same_ant, E,
        lambda o: (o[0][0], (o[0][1][0],
                             doc.meet(o[0][0], o[0][1][1], o[1][1][1]))),
        lambda m: m[0][0])
    for r in (proj1, proj2, intro):
        T.add_rule(r)
        bad += validate_functor(r)
    return ConnectiveRules(intro, proj1, proj2, bad)


# --------------------------------------------------------------------------
# The sequent monad and its Kleisli comparison.
# --------------------------------------------------------------------------

@dataclass
class SequentMonad:
    S: FunctorMap
    unit: NatTrans
    mult: NatTrans
    kleisli: FinCategory
    idempotent: bool
    diagnostics: list = field(default_factory=list)


def sequent_monad(ds: DeductionSystem) -> SequentMonad:
    """The endofunctor S of 𝔼 replacing the antecedent by its meet with
    the consequent, together with its (idempotent) monad structure and
    Kleisli category."""
    doc, E = ds.doctrine, ds.E
    bad = []
    S = thin_rule("S", E.total, E,
                  lambda e: (e[0], (doc.meet(e[0], e[1][0], e[1][1]),
                                    e[1][1])),
                  lambda m: m[0])
    bad += validate_functor(S)
    total = E.total

    def vert(a, b):
        return _unique_over(E, a, b, ds.ctx.identity[a[0]])

    SS = compose_functors(S, S, name="SS")
    unit = NatTrans("ηS", identity_functor(total), S,
                    {e: vert(e, S.obj_map[e]) for e in total.objects})
    mult = NatTrans("μS", SS, S,
                    {e: vert(SS.obj_map[e], S.obj_map[e])
                     for e in total.objects})
    bad += validate_nat_trans(unit) + validate_nat_trans(mult)

    def same_components(t: NatTrans, u: NatTrans, law: str):
        if t.components != u.components:
            bad.append(f"sequent monad: {law} fails")

    if not bad:
        ident = identity_nat_trans(S)
        same_components(vertical_compose(mult, whisker_left(S, unit)),
                        ident, "right unit law")
        same_components(vertical_compose(mult, whisker_right(unit, S)),
                        ident, "left unit law")
        same_components(vertical_compose(mult, whisker_left(S, mult)),
                        vertical_compose(mult, whisker_right(mult, S)),
                        "associativity")
    idempotent = same_functor(SS, S)

    # Kleisli category: morphisms e →̃ e' are morphisms e → S e' of 𝔼.
    objs = list(total.objects)
    mors, src, tgt = [], {}, {}
    for e2 in objs:
        se2 = S.obj_map[e2]
        for m in total.into(se2):
            k = ("kl", e2, m)
            mors.append(k)
            src[k] = total.src[m]
            tgt[k] = e2
    identity = {e: ("kl", e, unit.components[e]) for e in objs}

    def kleisli_comp(k2, k):
        # k : e → S e2 and k2 : e2 → S e3 compose to μ_e3 ∘ S k2 ∘ k.
        (_, e3, m2), m = k2, k[2]
        return ("kl", e3, total.comp(mult.components[e3],
                                     total.comp(S.mor_map[m2], m)))

    kleisli = category_from(f"Kl(S;{doc.name})", objs, mors, src, tgt,
                            identity, kleisli_comp)
    bad += validate_category(kleisli)
    return SequentMonad(S, unit, mult, kleisli, idempotent, bad)


# --------------------------------------------------------------------------
# Proposition pairs (the simple construction on 𝔽) and the comparison.
# --------------------------------------------------------------------------

def _pair_morphism_comp(ctx: FinCategory, tag):
    """Composition of morphisms ``(tag, σ, source pair, target pair)``."""
    return lambda g, f: (tag, ctx.comp(g[1], f[1]), f[2], g[3])


def pair_classifier(ds: DeductionSystem, name="s𝔽") -> Classifier:
    """The category of proposition pairs (φ, φ′) in a common fiber; a
    morphism over σ is a pair (φ ≤ σ*ψ, φ∧φ′ ≤ σ*ψ′)."""
    doc, ctx = ds.doctrine, ds.ctx
    objs = [(x, (a, b)) for x in ctx.objects
            for a in doc.formulas(x) for b in doc.formulas(x)]
    mors, src, tgt = [], {}, {}
    for sigma in ctx.morphisms:
        theta, x = ctx.src[sigma], ctx.tgt[sigma]
        for (a, b) in iproduct(doc.formulas(x), repeat=2):
            ra, rb = doc.restrict(sigma, a), doc.restrict(sigma, b)
            for (a1, b1) in iproduct(doc.formulas(theta), repeat=2):
                if doc.leq(theta, a1, ra) and \
                   doc.leq(theta, doc.meet(theta, a1, b1), rb):
                    m = ("s", sigma, (a1, b1), (a, b))
                    mors.append(m)
                    src[m] = (theta, (a1, b1))
                    tgt[m] = (x, (a, b))
    identity = {(x, p): ("s", ctx.identity[x], p, p) for (x, p) in objs}
    cat = category_from(name, objs, mors, src, tgt, identity,
                        _pair_morphism_comp(ctx, "s"))
    proj = FunctorMap(f"{name}.p", cat, ctx,
                      {o: o[0] for o in objs}, {m: m[1] for m in mors})
    return Classifier(name, cat, ctx, proj)


def _find_iso(cat: FinCategory, a, b):
    for m in cat.hom(a, b):
        for w in cat.hom(b, a):
            if cat.comp(w, m) == cat.identity[a] and \
               cat.comp(m, w) == cat.identity[b]:
                return m, w
    return None


def skeleton_category(cat: FinCategory, name=None):
    """A skeleton: one representative per isomorphism class, as a full
    subcategory.  Returns ``(skeleton, data)`` where ``data`` maps every
    object to ``(representative, iso to it, iso back)``."""
    reps, data = [], {}
    for o in cat.sorted_objects():
        for r in reps:
            mw = _find_iso(cat, o, r)
            if mw:
                data[o] = (r, mw[0], mw[1])
                break
        else:
            reps.append(o)
            data[o] = (o, cat.identity[o], cat.identity[o])
    return subcategory(cat, reps, lambda m: True,
                       name or f"sk({cat.name})"), data


@dataclass
class PairComparison:
    pairs: Classifier         # proposition pairs over ctx
    comparison: FunctorMap    # Kleisli → pairs, full and faithful
    base_embed: FunctorMap    # 𝔽 → pairs restricted to top second components
    base_embed_inverse: FunctorMap
    comprehension: FunctorMap  # pairs → 𝔼, (φ, φ′) ↦ (φ∧φ′ ⊢ φ)
    skeleton_iso: FunctorMap
    skeleton_iso_inverse: FunctorMap
    diagnostics: list = field(default_factory=list)


def pair_comparison(ds: DeductionSystem, mon: SequentMonad) -> PairComparison:
    """The Kleisli category of the sequent monad against the proposition
    pairs: the comparison sends a sequent (a ⊢ c) to the pair (c, a), is
    a functor on the nose, and an isomorphism after skeletonizing both
    sides.  Also packages the two canonical attachments of the pairs:
    the base embedding φ ↦ (φ, ⊤) and the comprehension into 𝔼."""
    doc, E = ds.doctrine, ds.E
    bad = []
    sp = pair_classifier(ds)
    bad += validate_category(sp.total)
    bad += verify_kind(sp, expect="fibration")

    def kobj(e):
        return (e[0], (e[1][1], e[1][0]))

    comp_obj = {e: kobj(e) for e in mon.kleisli.objects}
    comp_mor = {}
    for k in mon.kleisli.morphisms:
        _, e2, m = k
        comp_mor[k] = _unique_over(sp, kobj(mon.kleisli.src[k]), kobj(e2),
                                   ds.q.mor_map[m])
    comparison = FunctorMap("K", mon.kleisli, sp.total, comp_obj, comp_mor)
    bad += validate_functor(comparison)

    # The propositions sit inside the pairs as those with top second
    # component, and that inclusion is an isomorphism onto its image.
    top_objs = [(x, (a, doc.top(x))) for x in ds.ctx.objects
                for a in doc.formulas(x)]
    top_part = subcategory(sp.total, top_objs, lambda m: True, f"{sp.name}⊤")
    top_cl = Classifier(top_part.name, top_part, ds.ctx,
                        FunctorMap(f"{top_part.name}.p", top_part, ds.ctx,
                                   {o: o[0] for o in top_objs},
                                   {m: m[1] for m in top_part.morphisms}))
    base_embed = thin_rule("⊤-pair", ds.P.total, top_cl,
                           lambda o: (o[0], (o[1], doc.top(o[0]))),
                           lambda m: m[0])
    ib, base_inv = check_category_iso(base_embed)
    bad += ib

    comprehension = thin_rule(
        "q⊢", sp.total, E,
        lambda o: (o[0], (doc.meet(o[0], o[1][0], o[1][1]), o[1][0])),
        lambda m: m[1])
    bad += validate_functor(comprehension)

    # Equivalence: both skeletons are isomorphic, via the comparison
    # conjugated by the chosen isomorphisms onto representatives.
    sk_kl, _ = skeleton_category(mon.kleisli)
    sk_sp, sp_data = skeleton_category(sp.total)
    stot = sp.total
    iso_obj, iso_mor = {}, {}
    for e in sk_kl.objects:
        iso_obj[e] = sp_data[kobj(e)][0]
    for k in sk_kl.morphisms:
        e1, e2 = sk_kl.src[k], sk_kl.tgt[k]
        u1_back = sp_data[kobj(e1)][2]      # rep → K(e1)
        u2 = sp_data[kobj(e2)][1]           # K(e2) → rep
        iso_mor[k] = stot.comp(u2, stot.comp(comparison.mor_map[k], u1_back))
    skeleton_iso = FunctorMap("K̄", sk_kl, sk_sp, iso_obj, iso_mor)
    ib, skeleton_inv = check_category_iso(skeleton_iso)
    bad += ib
    return PairComparison(sp, comparison, base_embed, base_inv,
                          comprehension, skeleton_iso, skeleton_inv, bad)


# --------------------------------------------------------------------------
# Quantifiers (powerset doctrines): fiberwise adjoints of weakening.
# --------------------------------------------------------------------------

def _proj1_map(x, y):
    """First projection x·y → x under the chosen pairing."""
    return ("f", x * y, x, tuple(k // y for k in range(x * y)) if y else ())


def weaken_set(x, y, s):
    """w_y(s): pull a subset of x back along the projection x·y → x."""
    return preimage(_proj1_map(x, y), s)


def forall_set(x, y, s):
    """∀_y(s): the i with (i, j) ∈ s for every j."""
    return tuple(i for i in range(x)
                 if all(pair_index(i, j, y) in set(s) for j in range(y)))


def exists_set(x, y, s):
    """∃_y(s): the i with (i, j) ∈ s for some j."""
    keep = set(s)
    return tuple(i for i in range(x)
                 if any(pair_index(i, j, y) in keep for j in range(y)))


def extension_classifier(ds: DeductionSystem, y: int) -> Classifier:
    """Propositions in a context extended by a fixed variable of sort y:
    the fiber over x is the powerset of x·y, restriction is preimage
    along σ × id_y."""
    if not isinstance(ds.doctrine, PowersetDoctrine):
        raise ValueError("quantifiers need a powerset doctrine")
    ctx = ds.ctx
    name = f"𝔽·{y}"
    fibers = {x: _poset_category(f"{name}({x})", ("×", x, y), subsets(x * y),
                                 lambda a, b: subset_leq(a, b))
              for x in ctx.objects}
    restrictions = {}
    for sigma in ctx.morphisms:
        theta, x = ctx.src[sigma], ctx.tgt[sigma]
        cm = cross_map(sigma, ("f", y, y, tuple(range(y))))
        obj_map = {a: preimage(cm, a) for a in subsets(x * y)}
        mor_map = {m: ("≤", ("×", theta, y), obj_map[m[2]], obj_map[m[3]])
                   for m in fibers[x].morphisms}
        restrictions[sigma] = FunctorMap(f"{name}*{sigma}", fibers[x],
                                         fibers[theta], obj_map, mor_map)
    ix = IndexedData(name, ctx, fibers, restrictions)
    bad = validate_indexed(ix)
    if bad:
        raise ValueError(bad[0])
    return grothendieck_construct(ix, name=name)


@dataclass
class QuantifierPackage:
    y: int
    extension: Classifier
    weaken: FunctorMap        # 𝔽 → 𝔽·y
    exists_: FunctorMap       # 𝔽·y → 𝔽, left adjoint of weaken
    forall: FunctorMap        # 𝔽·y → 𝔽, right adjoint of weaken
    left_adjunction: AdjunctionData    # ∃ ⊣ w
    right_adjunction: AdjunctionData   # w ⊣ ∀
    diagnostics: list = field(default_factory=list)


def quantifier_package(ds: DeductionSystem, y: int) -> QuantifierPackage:
    """Weakening by a fixed variable of sort y with both adjoints,
    checked as honest adjunctions of total categories over ctx.

    Both quantifiers commute with restriction along σ × id_y (checked
    via cartesian-functor tests); they do not commute with restriction
    along arbitrary maps of the extended context, which is why the
    extension keeps the variable sort fixed.
    """
    ext = extension_classifier(ds, y)
    P = ds.P
    bad = []
    weaken = thin_rule(f"w{y}", P.total, ext,
                       lambda o: (o[0], weaken_set(o[0], y, o[1])),
                       lambda m: m[0])
    forall = thin_rule(f"∀{y}", ext.total, P,
                       lambda o: (o[0], forall_set(o[0], y, o[1])),
                       lambda m: m[0])
    exists_ = thin_rule(f"∃{y}", ext.total, P,
                        lambda o: (o[0], exists_set(o[0], y, o[1])),
                        lambda m: m[0])
    for r in (weaken, forall, exists_):
        bad += validate_functor(r)

    def vert(cl, a, b):
        return _unique_over(cl, a, b, ds.ctx.identity[a[0]])

    unit_l = NatTrans(f"η(∃{y}⊣w{y})", identity_functor(ext.total),
                      compose_functors(weaken, exists_),
                      {o: vert(ext, o, weaken.obj_map[exists_.obj_map[o]])
                       for o in ext.total.objects})
    counit_l = NatTrans(f"ε(∃{y}⊣w{y})",
                        compose_functors(exists_, weaken),
                        identity_functor(P.total),
                        {o: vert(P, exists_.obj_map[weaken.obj_map[o]], o)
                         for o in P.total.objects})
    adj_l = AdjunctionData(f"∃{y}⊣w{y}", exists_, weaken, unit_l, counit_l)
    bad += check_adjunction(adj_l)

    unit_r = NatTrans(f"η(w{y}⊣∀{y})", identity_functor(P.total),
                      compose_functors(forall, weaken),
                      {o: vert(P, o, forall.obj_map[weaken.obj_map[o]])
                       for o in P.total.objects})
    counit_r = NatTrans(f"ε(w{y}⊣∀{y})",
                        compose_functors(weaken, forall),
                        identity_functor(ext.total),
                        {o: vert(ext, weaken.obj_map[forall.obj_map[o]], o)
                         for o in ext.total.objects})
    adj_r = AdjunctionData(f"w{y}⊣∀{y}", weaken, forall, unit_r, counit_r)
    bad += check_adjunction(adj_r)

    bad += is_cartesian_functor(weaken, P, ext)
    bad += is_cartesian_functor(forall, ext, P)
    bad += is_cartesian_functor(exists_, ext, P)
    return QuantifierPackage(y, ext, weaken, exists_, forall,
                             adj_l, adj_r, bad)


def hypothesis_classifier(ds: DeductionSystem, y: int,
                          name=None) -> Classifier:
    """Hypothetical judgements over an extended context: objects are
    (Γ over x, φ over x·y) with w_y Γ ≤ φ; morphisms over σ restrict
    both components (along σ and σ × id_y respectively)."""
    ctx = ds.ctx
    nm = name or f"𝔸{y}"
    objs = []
    for x in ctx.objects:
        for g in subsets(x):
            wg = set(weaken_set(x, y, g))
            for f in subsets(x * y):
                if wg <= set(f):
                    objs.append((x, (g, f)))
    mors, src, tgt = [], {}, {}
    for sigma in ctx.morphisms:
        theta, x = ctx.src[sigma], ctx.tgt[sigma]
        cm = cross_map(sigma, ("f", y, y, tuple(range(y))))
        for (xo, (g, f)) in objs:
            if xo != x:
                continue
            rg, rf = preimage(sigma, g), preimage(cm, f)
            for (to, (g1, f1)) in objs:
                if to != theta:
                    continue
                if subset_leq(g1, rg) and subset_leq(f1, rf):
                    m = ("a", sigma, (g1, f1), (g, f))
                    mors.append(m)
                    src[m] = (theta, (g1, f1))
                    tgt[m] = (x, (g, f))
    identity = {(x, p): ("a", ctx.identity[x], p, p) for (x, p) in objs}
    cat = category_from(nm, objs, mors, src, tgt, identity,
                        _pair_morphism_comp(ctx, "a"))
    proj = FunctorMap(f"{nm}.p", cat, ctx,
                      {o: o[0] for o in objs}, {m: m[1] for m in mors})
    return Classifier(nm, cat, ctx, proj)


@dataclass
class QuantifierRules:
    y: int
    hypotheses: Classifier
    intro: FunctorMap         # 𝔸_y → 𝔼 : (Γ, φ) ↦ (Γ ⊢ ∀_y φ)
    resume: FunctorMap        # 𝔼 → 𝔸_y : (Γ ⊢ ψ) ↦ (Γ, w_y ψ)
    invertible: bool          # resume is a section of intro (y ≥ 1)
    diagnostics: list = field(default_factory=list)


def forall_rules(ds: DeductionSystem, y: int) -> QuantifierRules:
    """The introduction rule for the universal quantifier, as a functor
    on hypothetical judgements, together with the reverse direction
    witnessing that the rule is invertible (the two composites agree on
    the nose in one direction and up to entailment in the other)."""
    A = hypothesis_classifier(ds, y)
    bad = validate_category(A.total) + verify_kind(A, expect="fibration")
    intro = thin_rule(f"∀I{y}", A.total, ds.E,
                      lambda o: (o[0], (o[1][0], forall_set(o[0], y, o[1][1]))),
                      lambda m: m[1])
    resume = thin_rule(f"∀I{y}⁻", ds.E.total, A,
                       lambda e: (e[0], (e[1][0],
                                         weaken_set(e[0], y, e[1][1]))),
                       lambda m: m[0])
    bad += validate_functor(intro) + validate_functor(resume)
    invertible = same_functor(compose_functors(intro, resume),
                              identity_functor(ds.E.total)) if y >= 1 else False
    return QuantifierRules(y, A, intro, resume, invertible, bad)


def substitute_set(x, y, t, f):
    """φ[t/y]: pull a subset of x·y back along the graph of t : x → y."""
    return preimage(graph_map(x, t), f)


def forall_elim(x, y, t, gamma, f):
    """One instance of universal elimination: from Γ ≤ ∀_y φ conclude the
    sequent Γ ⊢ φ[t/y].  Returns the conclusion, raising if unsound."""
    if not subset_leq(gamma, forall_set(x, y, f)):
        raise ValueError("universal elimination applied without its premise")
    concl = substitute_set(x, y, t, f)
    if not subset_leq(gamma, concl):
        raise ValueError("universal elimination produced an invalid sequent")
    return (x, (gamma, concl))


# --------------------------------------------------------------------------
# Independent object-level sweeps: the same laws by raw subset computation.
# --------------------------------------------------------------------------

def structural_oracle(n: int) -> list:
    """Assumption, weakening, contraction, exchange, cut, and stability
    of all five under restriction, for every context of size ≤ n."""
    bad = []
    for x in range(n + 1):
        subs = subsets(x)
        for g, f, p in iproduct(subs, repeat=3):
            gf = set_meet(g, f)
            if not subset_leq(gf, f):
                bad.append(f"assumption fails at {x}:{g}:{f}")
            if subset_leq(g, p) and not subset_leq(gf, p):
                bad.append(f"weakening fails at {x}:{g}:{f}:{p}")
            if set_meet(gf, f) != gf:
                bad.append(f"contraction fails at {x}:{g}:{f}")
            if gf != set_meet(f, g):
                bad.append(f"exchange fails at {x}:{g}:{f}")
            if subset_leq(g, f) and subset_leq(f, p) and not subset_leq(g, p):
                bad.append(f"cut fails at {x}:{g}:{f}:{p}")
        for theta in range(n + 1):
            for images in iproduct(range(x), repeat=theta) if x else [()]:
                if theta and not x:
                    continue
                sigma = ("f", theta, x, tuple(images))
                for g, f in iproduct(subs, repeat=2):
                    if subset_leq(g, f) and not subset_leq(
                            preimage(sigma, g), preimage(sigma, f)):
                        bad.append(f"restriction breaks a sequent at {sigma}")
    return bad


def cut_reindex_oracle(n: int) -> list:
    """The object formula behind the re-indexed cut: pulling a sequent
    (a ⊢ c) over x back along a proposition morphism (σ, ψ ≤ σ*a) yields
    (ψ ⊢ σ*c), which is a valid sequent and the largest re-indexing of
    the consequent compatible with the antecedent."""
    bad = []
    for x in range(n + 1):
        for theta in range(n + 1):
            if theta and not x:
                continue
            choices = iproduct(range(x), repeat=theta) if x else [()]
            for images in choices:
                sigma = ("f", theta, x, tuple(images))
                for a, cc in iproduct(subsets(x), repeat=2):
                    if not subset_leq(a, cc):
                        continue
                    ra, rc = preimage(sigma, a), preimage(sigma, cc)
                    for psi in subsets(theta):
                        if not subset_leq(psi, ra):
                            continue
                        if not subset_leq(psi, rc):
                            bad.append(f"re-indexed sequent invalid at "
                                       f"{sigma}:{psi}:{a}:{cc}")
                        best = max((c2 for c2 in subsets(theta)
                                    if subset_leq(psi, c2)
                                    and subset_leq(c2, rc)),
                                   key=len)
                        if best != rc:
                            bad.append(f"re-indexing not maximal at "
                                       f"{sigma}:{psi}:{a}:{cc}")
    return bad


def quantifier_oracle(n: int) -> list:
    """Both quantifier adjunctions as biconditionals on raw subsets, plus
    their exchange with restriction along σ × id (the squares for which
    the quantifiers are required to be stable)."""
    bad = []
    for x in range(n + 1):
        for y in range(n + 1):
            for f in subsets(x * y):
                fa, ex = forall_set(x, y, f), exists_set(x, y, f)
                for g in subsets(x):
                    lhs = subset_leq(weaken_set(x, y, g), f)
                    if lhs != subset_leq(g, fa):
                        bad.append(f"∀ adjunction fails at {x}×{y}:{g}:{f}")
                    lhs = subset_leq(f, weaken_set(x, y, g))
                    if lhs != subset_leq(ex, g):
                        bad.append(f"∃ adjunction fails at {x}×{y}:{g}:{f}")
                for theta in range(n + 1):
                    if theta and not x:
                        continue
                    choices = iproduct(range(x), repeat=theta) if x else [()]
                    for images in choices:
                        sigma = ("f", theta, x, tuple(images))
                        cm = cross_map(sigma, ("f", y, y, tuple(range(y))))
                        if forall_set(theta, y, preimage(cm, f)) != \
                                preimage(sigma, fa):
                            bad.append(f"∀ unstable along {sigma}×id at {f}")
                        if exists_set(theta, y, preimage(cm, f)) != \
                                preimage(sigma, ex):
                            bad.append(f"∃ unstable along {sigma}×id at {f}")
    return bad


def quantifier_full_stability_failures(n: int) -> list:
    """Witnesses that ∀ does *not* commute with restriction along maps
    that move the quantified variable (σ × τ with τ non-surjective) —
    the reason the quantifier rules keep the variable sort fixed."""
    out = []
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            for y2 in range(1, n + 1):
                for timages in iproduct(range(y2), repeat=y):
                    tau = ("f", y, y2, tuple(timages))
                    if set(timages) == set(range(y2)):
                        continue
                    for f in subsets(x * y2):
                        cm = cross_map(("f", x, x, tuple(range(x))), tau)
                        lhs = forall_set(x, y, preimage(cm, f))
                        rhs = forall_set(x, y2, f)
                        if lhs != rhs:
                            out.append((x, y, y2, tau, f, lhs, rhs))
                            break
    return out


def substitution_oracle(n: int) -> list:
    """Trivial substitution (w_y ψ)[t/y] = ψ and soundness of universal
    elimination, swept over every term t : x → y with x, y ≤ n."""
    bad = []
    for x in range(n + 1):
        for y in range(1, n + 1):
            terms = [("f", x, y, tuple(im))
                     for im in (iproduct(range(y), repeat=x) if x else [()])]
            for t in terms:
                for s in subsets(x):
                    if substitute_set(x, y, t, weaken_set(x, y, s)) != s:
                        bad.append(f"trivial substitution fails at {t}:{s}")
                for f in subsets(x * y):
                    fa = forall_set(x, y, f)
                    for g in subsets(x):
                        if not subset_leq(g, fa):
                            continue
                        if not subset_leq(g, substitute_set(x, y, t, f)):
                            bad.append(f"∀-elimination unsound at {t}:{g}:{f}")
    return bad
