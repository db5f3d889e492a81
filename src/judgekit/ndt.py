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
* for doctrines with quantifiers (the powerset doctrines) these arise
  as fiberwise adjoints ∃ ⊣ w ⊣ ∀ of weakening, with introduction and
  elimination rules and the trivial-substitution law.

Every fibration is a ``fibrations.thin_classifier``: one morphism over
σ between two formulas exactly when the first entails the restriction of
the second, the total category of the Grothendieck construction on the
doctrine's posets of formulas (Jacobs, *Categorical Logic and Type
Theory*, ch. 1).  𝔽 is ``proposition_classifier`` of the doctrine
itself, 𝔼 of its ``SequentDoctrine`` and 𝔽·y of its extension
``doc.extend(y)``; the proposition pairs s𝔽 and the hypothetical
judgements 𝔸_y are thin classifiers too.  A doctrine supplies ``ctx``,
``formulas``, ``leq``, ``meet``, ``top`` and ``restrict`` (the fibration
needs only ``ctx``, ``formulas``, ``leq`` and ``restrict``); one with
quantifiers also supplies ``extend``, ``weaken``, ``forall`` and
``exists``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .core import (FinCategory, FunctorMap, NatTrans, AdjunctionData,
                   check_adjunction, check_category_iso,
                   compose_functors, identity_functor, category_from,
                   same_functor, subcategory, validate_category,
                   validate_functor, validate_nat_trans, whisker_left,
                   whisker_right, vertical_compose, identity_nat_trans)
from .fibrations import (Classifier, is_cartesian_functor, one_over,
                         thin_classifier, thin_rule, verify_kind)
from .finsets import (cross_map, fin_skeleton, graph_map, meet as set_meet,
                      pair_index, preimage, subsets, subset_leq)
from .theory import (PreJudgementalTheory, close_pullback, empty_classifier,
                     sharp_lift, validate_prejt, check_axioms)


# --------------------------------------------------------------------------
# Doctrines: a poset of formulas over every context, restricted
# contravariantly along context morphisms.
# --------------------------------------------------------------------------

class PowersetDoctrine:
    """Subsets of each finite context, restricted by preimage, with the
    quantifiers ∃ ⊣ w ⊣ ∀ along the projections x·y → x."""

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

    def extend(self, y):
        return ExtensionDoctrine(self, y)

    def weaken(self, x, y, s):
        """w_y(s): restrict a subset of x along the projection x·y → x."""
        return self.restrict(
            ("f", x * y, x, tuple(k // y for k in range(x * y))), s)

    def forall(self, x, y, s):
        """∀_y(s): the i with (i, j) ∈ s for every j."""
        keep = set(s)
        return tuple(i for i in range(x)
                     if all(pair_index(i, j, y) in keep for j in range(y)))

    def exists(self, x, y, s):
        """∃_y(s): the i with (i, j) ∈ s for some j."""
        keep = set(s)
        return tuple(i for i in range(x)
                     if any(pair_index(i, j, y) in keep for j in range(y)))

    def substitute(self, x, y, t, f):
        """φ[t/y]: restrict a subset of x·y along the graph of t : x → y."""
        return self.restrict(graph_map(x, t), f)

    def forall_elim(self, x, y, t, gamma, f):
        """One instance of universal elimination: from Γ ≤ ∀_y φ conclude
        the sequent Γ ⊢ φ[t/y].  Returns the conclusion, raising if
        unsound."""
        if not self.leq(x, gamma, self.forall(x, y, f)):
            raise ValueError("universal elimination applied without its premise")
        concl = self.substitute(x, y, t, f)
        if not self.leq(x, gamma, concl):
            raise ValueError("universal elimination produced an invalid sequent")
        return (x, (gamma, concl))


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


class SequentDoctrine:
    """Sequents of a doctrine: over x, the pairs a ≤ b of its formulas,
    ordered and restricted componentwise (the fiberwise arrow poset)."""

    def __init__(self, doc):
        self.doc = doc
        self.ctx = doc.ctx

    def formulas(self, x):
        doc = self.doc
        return [(a, b) for a in doc.formulas(x) for b in doc.formulas(x)
                if doc.leq(x, a, b)]

    def leq(self, x, p, q):
        return self.doc.leq(x, p[0], q[0]) and self.doc.leq(x, p[1], q[1])

    def restrict(self, sigma, p):
        return (self.doc.restrict(sigma, p[0]), self.doc.restrict(sigma, p[1]))


class ExtensionDoctrine:
    """A doctrine in contexts extended by a variable of sort y: over x, the
    formulas over x·y, restricted along σ × id_y."""

    def __init__(self, doc, y: int):
        self.doc = doc
        self.y = y
        self.ctx = doc.ctx
        self._id_y = ("f", y, y, tuple(range(y)))

    def formulas(self, x):
        return self.doc.formulas(x * self.y)

    def leq(self, x, a, b):
        return self.doc.leq(x * self.y, a, b)

    def restrict(self, sigma, a):
        return self.doc.restrict(cross_map(sigma, self._id_y), a)


# --------------------------------------------------------------------------
# Thin fibrations: propositions 𝔽, sequents 𝔼, the extended
# propositions 𝔽·y, the pairs s𝔽 and the hypotheses 𝔸_y are all built
# by ``thin_classifier``.
# --------------------------------------------------------------------------

def proposition_classifier(doc, name="𝔽") -> Classifier:
    """The Grothendieck fibration of a doctrine: the fiber over x is the
    poset of formulas over x, reindexed by the doctrine's restriction."""
    return thin_classifier(name, doc.ctx, doc.formulas, doc.restrict, doc.leq)


def _vertical(cl: Classifier):
    """The unique morphism E → F over the identity of their base, as a
    function of ``(E, F)``; it raises when existence or uniqueness
    fails."""
    over, identity, pobj = one_over(cl), cl.base.identity, cl.proj.obj_map
    return lambda E, F: over(E, F, identity[pobj[E]])


def _thin_adjunction(left: FunctorMap, right: FunctorMap,
                     A: Classifier, B: Classifier) -> AdjunctionData:
    """left ⊣ right for left : A → B and right : B → A over the identity
    of the base of two thin-per-base classifiers.  Unit and counit are
    the vertical morphisms, forced by thinness; raises when one does not
    exist.  ``check_adjunction`` still checks the result."""
    name = f"{left.name}⊣{right.name}"
    in_a, in_b = _vertical(A), _vertical(B)
    unit = NatTrans(f"η({name})", identity_functor(A.total),
                    compose_functors(right, left),
                    {o: in_a(o, right.obj_map[left.obj_map[o]])
                     for o in A.total.objects})
    counit = NatTrans(f"ε({name})", compose_functors(left, right),
                      identity_functor(B.total),
                      {o: in_b(left.obj_map[right.obj_map[o]], o)
                       for o in B.total.objects})
    return AdjunctionData(name, left, right, unit, counit)


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
    E = T.add_judgement(proposition_classifier(SequentDoctrine(doc), "𝔼"))
    d = T.add_rule(thin_rule("d", E.total, P, lambda e: (e[0], e[1][0]),
                             (), E))
    c = T.add_rule(thin_rule("c", E.total, P, lambda e: (e[0], e[1][1]),
                             (), E))
    q = compose_functors(P.proj, d, name="q")
    T.add_rule(q)

    vertical = _vertical(P)
    alpha = NatTrans("α", d, c, {e: vertical(d.obj_map[e], c.obj_map[e])
                                 for e in E.total.objects})
    T.add_policy(alpha, "covariant")

    pp, pp1, pp2 = close_pullback(T, P.proj, P.proj)
    conj = thin_rule("∧", pp, P,
                     lambda o: (o[0][0], doc.meet(o[0][0], o[0][1], o[1][1])),
                     (0,), P)
    T.add_rule(conj)
    return DeductionSystem(doc, T, ctx, P, E, d, c, q, alpha,
                           pp, (pp1, pp2), conj)


def validate_system(ds: DeductionSystem) -> list:
    """Every generating law at once: the categories 𝔽 and 𝔼, then the
    theory.  ``validate_prejt`` checks the projections, the rules and
    the policy α; ``check_axioms`` checks ctx and that 𝔽 and 𝔼 are
    fibrations, so neither is checked here a second time.  𝔽 and 𝔼 are
    handed their projections, which are faithful over ctx, so their laws
    follow from those of ctx (the category lemma of ``judgekit.core``)."""
    bad = validate_category(ds.P.total, ds.P.proj) \
        + validate_category(ds.E.total, ds.E.proj)
    bad += validate_prejt(ds.theory)
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
        (0,), P)
    T.add_rule(assumption)

    # Weakening: a sequent and a proposition in the same context.
    wk_prem, _, _ = close_pullback(T, ds.q, P.proj)
    weakening = thin_rule(
        "W", wk_prem, E,
        lambda o: (o[0][0], (mt(o[0][0], o[0][1][0], o[1][1]), o[0][1][1])),
        (1,), P)
    T.add_rule(weakening)

    # Contraction: a sequent whose antecedent is Γ∧φ∧φ, presented by the
    # doubled-meet rule, loses the duplicate.
    dup = thin_rule("∧∧", ds.pp,
                    P,
                    lambda o: (o[0][0], mt(o[0][0], o[0][1], o[1][1], o[1][1])),
                    (0,), P)
    T.add_rule(dup)
    ct_prem, _, _ = close_pullback(T, dup, ds.d)
    contraction = thin_rule(
        "C", ct_prem, E,
        lambda o: (o[0][0][0], (mt(o[0][0][0], o[0][0][1], o[0][1][1]),
                                o[1][1][1])),
        (0, 0), P)
    T.add_rule(contraction)

    # Exchange: a sequent out of Γ∧φ becomes a sequent out of φ∧Γ.
    ex_prem, _, _ = close_pullback(T, ds.conj, ds.d)
    exchange = thin_rule(
        "Sw", ex_prem, E,
        lambda o: (o[0][0][0], (mt(o[0][0][0], o[0][1][1], o[0][0][1]),
                                o[1][1][1])),
        (0, 0), P)
    T.add_rule(exchange)

    # Cut is not postulated: re-index the tautological policy α along the
    # antecedent fibration d : 𝔼 → 𝔽 and project.  The premise of the lift
    # is exactly the composable pairs (Γ ⊢ φ, φ ⊢ ψ).
    e_over_p = Classifier("𝔼d", ds.d)
    lift = sharp_lift(T, identity_functor(E.total), ds.c, ds.d,
                      ds.alpha, e_over_p)
    bad += lift.diagnostics
    if not lift.diagnostics:
        cut = compose_functors(lift.conclusion_projs[1], lift.rule, name="cut")
        direct = thin_rule(
            "cut∘", lift.premise, E,
            lambda o: (o[0][0], (o[0][1][0], o[1][1][1])),
            (0,), E)
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
        (0,), ds.P)
    proj2 = thin_rule(
        "∧E2", ds.pp, E,
        lambda o: (o[0][0], (doc.meet(o[0][0], o[0][1], o[1][1]), o[1][1])),
        (0,), ds.P)
    same_ant, _, _ = close_pullback(T, ds.d, ds.d)
    intro = thin_rule(
        "∧I", same_ant, E,
        lambda o: (o[0][0], (o[0][1][0],
                             doc.meet(o[0][0], o[0][1][1], o[1][1][1]))),
        (0,), E)
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
                  (), E)
    bad += validate_functor(S)
    total = E.total

    SS = compose_functors(S, S, name="SS")
    vertical = _vertical(E)
    unit = NatTrans("ηS", identity_functor(total), S,
                    {e: vertical(e, S.obj_map[e]) for e in total.objects})
    mult = NatTrans("μS", SS, S,
                    {e: vertical(SS.obj_map[e], S.obj_map[e])
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

def pair_classifier(ds: DeductionSystem, name="s𝔽") -> Classifier:
    """The category of proposition pairs (φ, φ′) in a common fiber; a
    morphism over σ is a pair (φ ≤ σ*ψ, φ∧φ′ ≤ σ*ψ′)."""
    doc = ds.doctrine
    return thin_classifier(
        name, ds.ctx,
        lambda x: list(iproduct(doc.formulas(x), repeat=2)),
        lambda sigma, p: (doc.restrict(sigma, p[0]), doc.restrict(sigma, p[1])),
        lambda x, p1, q: (doc.leq(x, p1[0], q[0]) and
                          doc.leq(x, doc.meet(x, p1[0], p1[1]), q[1])))


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
    bad += validate_category(sp.total, sp.proj)
    bad += verify_kind(sp, expect="fibration")

    def kobj(e):
        return (e[0], (e[1][1], e[1][0]))

    comp_obj = {e: kobj(e) for e in mon.kleisli.objects}
    over, comp_mor = one_over(sp), {}
    for k in mon.kleisli.morphisms:
        _, e2, m = k
        comp_mor[k] = over(kobj(mon.kleisli.src[k]), kobj(e2), ds.q.mor_map[m])
    comparison = FunctorMap("K", mon.kleisli, sp.total, comp_obj, comp_mor)
    bad += validate_functor(comparison)

    # The propositions sit inside the pairs as those with top second
    # component, and that inclusion is an isomorphism onto its image.
    top_objs = [(x, (a, doc.top(x))) for x in ds.ctx.objects
                for a in doc.formulas(x)]
    top_part = subcategory(sp.total, top_objs, lambda m: True, f"{sp.name}⊤")
    top_cl = Classifier(top_part.name,
                        FunctorMap(f"{top_part.name}.p", top_part, ds.ctx,
                                   {o: o[0] for o in top_objs},
                                   {m: m[1] for m in top_part.morphisms}))
    base_embed = thin_rule("⊤-pair", ds.P.total, top_cl,
                           lambda o: (o[0], (o[1], doc.top(o[0]))),
                           (), ds.P)
    ib, base_inv = check_category_iso(base_embed)
    bad += ib

    comprehension = thin_rule(
        "q⊢", sp.total, E,
        lambda o: (o[0], (doc.meet(o[0], o[1][0], o[1][1]), o[1][0])),
        (), sp)
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
# Quantifiers: fiberwise adjoints of weakening, for doctrines with extend.
# --------------------------------------------------------------------------

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
    doc, P = ds.doctrine, ds.P
    ext = proposition_classifier(doc.extend(y), f"𝔽·{y}")
    weaken = thin_rule(f"w{y}", P.total, ext,
                       lambda o: (o[0], doc.weaken(o[0], y, o[1])),
                       (), P)
    forall = thin_rule(f"∀{y}", ext.total, P,
                       lambda o: (o[0], doc.forall(o[0], y, o[1])),
                       (), ext)
    exists_ = thin_rule(f"∃{y}", ext.total, P,
                        lambda o: (o[0], doc.exists(o[0], y, o[1])),
                        (), ext)
    adj_l = _thin_adjunction(exists_, weaken, ext, P)
    adj_r = _thin_adjunction(weaken, forall, P, ext)
    bad = check_adjunction(adj_l) + check_adjunction(adj_r)
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
    doc = ds.doctrine
    ext = doc.extend(y)
    return thin_classifier(
        name or f"𝔸{y}", ds.ctx,
        lambda x: [(g, f) for g in doc.formulas(x) for f in ext.formulas(x)
                   if ext.leq(x, doc.weaken(x, y, g), f)],
        lambda sigma, p: (doc.restrict(sigma, p[0]), ext.restrict(sigma, p[1])),
        lambda x, p1, q: doc.leq(x, p1[0], q[0]) and ext.leq(x, p1[1], q[1]))


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
    doc = ds.doctrine
    A = hypothesis_classifier(ds, y)
    bad = validate_category(A.total, A.proj) \
        + verify_kind(A, expect="fibration")
    intro = thin_rule(f"∀I{y}", A.total, ds.E,
                      lambda o: (o[0], (o[1][0], doc.forall(o[0], y, o[1][1]))),
                      (), A)
    resume = thin_rule(f"∀I{y}⁻", ds.E.total, A,
                       lambda e: (e[0], (e[1][0], doc.weaken(e[0], y, e[1][1]))),
                       (), ds.E)
    bad += validate_functor(intro) + validate_functor(resume)
    invertible = same_functor(compose_functors(intro, resume),
                              identity_functor(ds.E.total)) if y >= 1 else False
    return QuantifierRules(y, A, intro, resume, invertible, bad)
