"""The finite-sets model: types are predicates valued in Ω = {⊥, ⊤}.

Over the skeleton Fin(≤N), a type in context X is a subset S ⊆ X (the
predicate "x ∈ S"), and a term in context X is X itself — terms are
proof-irrelevant, and "X has a term of type S" means S is all of X.
Context extension carves out the subset: X.S is the set {0,…,|S|−1} with
the order-preserving inclusion as display map.  Π, Id and dependent sums
are computed pointwise from the Boolean structure of Ω.

Types 𝕌 → ctx and terms 𝕌̇ → ctx are discrete fibrations, the
Grothendieck constructions of the presheaves X ↦ subsets of X and
X ↦ {X}, restricted by preimage (Awodey, "Natural models of homotopy
type theory", *MSCS* 28, 2018).  Both are ``thin_classifier``s ordered by
equality, so a type is ``(x, s)``, a term is ``(x, (0, …, x−1))``, the
top type over x, and Σ is the identity on objects.  Σ and every type
former and introduction rule are ``thin_rule``s: the morphism table of
each is forced by its object map.
"""

from __future__ import annotations

from dataclasses import replace

from .core import (FunctorMap, NatTrans, category_from, compose_functors,
                   identity_functor)
from .fibrations import (Classifier, one_over, thin_classifier,
                         thin_rule)
from .theory import PreJudgementalTheory, close_pullback
from .dtt import (ConstructorData, DependencyRules, JdttData,
                  dependent_type, make_id_constructor, make_pi_constructor,
                  make_sum_constructor)
from .finsets import (canonical_inclusion, fin_skeleton, induced_map,
                      subsets, preimage)


def _term(x):
    """The one term over x, which is also the top type over x."""
    return (x, tuple(range(x)))


def _equal(x, a, b):
    return a == b


def _judgement(name, proj_name, ctx, formulas) -> Classifier:
    """The discrete fibration of ``formulas`` restricted by preimage, with
    its projection named ``proj_name``."""
    cl = thin_classifier(name, ctx, formulas, preimage, _equal)
    return Classifier(name, replace(cl.proj, name=proj_name))


def build_finset_topos(n: int = 2) -> JdttData:
    """The dependent type theory of subsets over Fin(≤n)."""
    ctx = fin_skeleton(n)
    u = _judgement("𝕌", "u", ctx, subsets)
    udot = _judgement("𝕌̇", "u̇", ctx, lambda x: [tuple(range(x))])
    types, terms = u.total, udot.total
    Sigma = thin_rule("Σ", terms, u, lambda a: a, (), udot)
    term_over, type_over = one_over(udot), one_over(u)
    d_obj = {A: _term(len(A[1])) for A in types.objects}
    Delta = FunctorMap(
        "Δ", types, terms, d_obj,
        {m: term_over(d_obj[types.src[m]], d_obj[types.tgt[m]],
                      induced_map(m[1], m[2], m[3]))
         for m in types.morphisms})
    eta = NatTrans("η", identity_functor(terms, name="Id_𝕌̇"),
                   compose_functors(Delta, Sigma, name="ΔΣ"),
                   {o: terms.identity[o] for o in terms.objects})
    SigmaDelta = compose_functors(Sigma, Delta, name="ΣΔ")
    eps = NatTrans("ε", SigmaDelta, identity_functor(types, name="Id_𝕌"),
                   {A: type_over(SigmaDelta.obj_map[A], A,
                                 canonical_inclusion(*A))
                    for A in types.objects})
    T = PreJudgementalTheory(f"dtt-finset({n})", ctx)
    T.add_judgement(udot)
    T.add_judgement(u)
    T.add_rule(Sigma)
    J = JdttData(T, udot, u, Sigma, Delta, eta, eps)
    T.add_policy(eps, "contravariant")
    T.add_policy(eta, "covariant")
    return J


# -- pointwise constructors --------------------------------------------------


def _pi_subset(x, s, t):
    """Π: everything outside s, plus the part of s selected by t ⊆ |s|."""
    chosen = {s[i] for i in t}
    sset = set(s)
    return tuple(v for v in range(x) if v not in sset or v in chosen)


def _sum_subset(x, s, t):
    """Ⅎ: the image of t ⊆ |s| inside x."""
    return tuple(sorted(s[i] for i in t))


def _former_on_y(J: JdttData, Y, point, name) -> FunctorMap:
    """Build a type former 𝕌.Δ𝕌 → 𝕌 from a pointwise subset operation:
    ((x, s), (|s|, t)) ↦ (x, point(x, s, t))."""
    return thin_rule(name, Y, J.u,
                     lambda AB: (AB[0][0], point(*AB[0], AB[1][1])),
                     (0,), J.u)


def instantiate_constructor(J: JdttData, which: str,
                            dep: DependencyRules = None) -> ConstructorData:
    """Construct Π / Id / dependent-sum data for the finite-sets model;
    the dependent sum reads the dependency rules ``dep``."""
    T = J.theory
    if which == "pi":
        Y, _, _ = close_pullback(T, J.functor("u̇Δ"), J.u.proj)
        Pi = _former_on_y(J, Y, _pi_subset, "Π")
        X, _, _ = close_pullback(T, J.functor("u̇Δ"), J.udot.proj)
        lam_intro = thin_rule("λ", X, J.udot, lambda Ab: _term(Ab[0][0]),
                              (0,), J.u)
        return make_pi_constructor(J, Pi, lam_intro)
    if which == "id":
        # Id(a, b) is the top type over the context of a, whose identifier
        # is a's: the one term over x is the top type over x.
        Y, _, _ = close_pullback(T, J.Sigma, J.Sigma)
        Id = thin_rule("Id", Y, J.u, lambda ab: ab[0], (0,), J.udot)
        refl = replace(identity_functor(J.udot.total, name="refl"),
                       over=(J.udot.proj, (), (), J.udot.proj))
        return make_id_constructor(J, Id, refl)
    if which == "sum":
        Y, _, _ = close_pullback(T, J.functor("u̇Δ"), J.u.proj)
        Fj = _former_on_y(J, Y, _sum_subset, "Ⅎ")
        X, _, _ = close_pullback(T, dependent_type(J, dep), J.Sigma)
        pair_intro = thin_rule("pair", X, J.udot, lambda o: o[0][0],
                               (0, 0), J.udot)
        return make_sum_constructor(J, dep, Fj, pair_intro)
    raise ValueError(f"unknown constructor {which!r}")


def make_weak_constructor_example(J: JdttData) -> ConstructorData:
    """A weak-mode constructor: the Id square with a doubled formation
    premise.  The comparison into the pullback is a split mono but not an
    isomorphism, so elimination and β survive while η fails."""
    T = J.theory
    Y, _, _ = close_pullback(T, J.Sigma, J.Sigma)
    objs = [(i, y) for i in (0, 1) for y in Y.objects]
    mors = [(i, m) for i in (0, 1) for m in Y.morphisms]
    src = {(i, m): (i, Y.src[m]) for (i, m) in mors}
    tgt = {(i, m): (i, Y.tgt[m]) for (i, m) in mors}
    identity = {(i, y): (i, Y.identity[y]) for (i, y) in objs}
    Yw = category_from("𝕐w", objs, mors, src, tgt, identity,
                       lambda g, f: (g[0], Y.comp(g[1], f[1])))
    base = instantiate_constructor(J, "id")
    Phi_w = FunctorMap("Idw", Yw, J.u.total,
                       {(i, y): base.Phi.obj_map[y] for (i, y) in objs},
                       {(i, m): base.Phi.mor_map[m] for (i, m) in mors})
    Lambda_w = FunctorMap("Λw", base.X, Yw,
                          {x: (0, base.Lambda.obj_map[x]) for x in base.X.objects},
                          {m: (0, base.Lambda.mor_map[m]) for m in base.X.morphisms})
    pb, _, _ = close_pullback(T, Phi_w, J.Sigma)
    section = FunctorMap("Ew", pb, base.X,
                         {((i, y), t): t for ((i, y), t) in pb.objects},
                         {((i, m), tm): tm for ((i, m), tm) in pb.morphisms})
    return ConstructorData("Idw", base.X, Yw, Lambda_w, Phi_w, base.Psi,
                           mode="weak", section=section)

