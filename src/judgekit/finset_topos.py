"""The finite-sets model: types are predicates valued in Ω = {⊥, ⊤}.

Over the skeleton Fin(≤N), a type in context X is a subset S ⊆ X (the
predicate "x ∈ S"), and a term in context X is X itself — terms are
proof-irrelevant, and "X has a term of type S" means S is all of X.
Context extension carves out the subset: X.S is the set {0,…,|S|−1} with
the order-preserving inclusion as display map.  Π, Id and dependent sums
are computed pointwise from the Boolean structure of Ω.
"""

from __future__ import annotations

from dataclasses import replace

from .core import (FunctorMap, NatTrans, category_from, compose_functors,
                   identity_functor)
from .fibrations import Classifier, over_base_comp
from .theory import PreJudgementalTheory, close_pullback
from .dtt import (ConstructorData, DependencyRules, JdttData,
                  dependent_type, make_id_constructor, make_pi_constructor,
                  make_sum_constructor)
from .finsets import canonical_inclusion, fin_skeleton, subsets, preimage


def _ty(x, s):
    return ("ty", x, tuple(s))


def _tm(x):
    return ("tm", x)


def _types_category(ctx):
    objs, mors, src, tgt = [], [], {}, {}
    for x in ctx.objects:
        for s in subsets(x):
            objs.append(_ty(x, s))
    for m in ctx.morphisms:
        x, y = ctx.src[m], ctx.tgt[m]
        for t in subsets(y):
            a, b = _ty(x, preimage(m, t)), _ty(y, t)
            mor = (a, b, m)
            mors.append(mor)
            src[mor] = a
            tgt[mor] = b
    identity = {o: (o, o, ctx.identity[o[1]]) for o in objs}
    return category_from("𝕌", objs, mors, src, tgt, identity,
                         over_base_comp(ctx))


def _terms_category(ctx):
    objs = [_tm(x) for x in ctx.objects]
    mors = [(_tm(ctx.src[m]), _tm(ctx.tgt[m]), m) for m in ctx.morphisms]
    src = {mor: mor[0] for mor in mors}
    tgt = {mor: mor[1] for mor in mors}
    identity = {o: (o, o, ctx.identity[o[1]]) for o in objs}
    return category_from("𝕌̇", objs, mors, src, tgt, identity,
                         over_base_comp(ctx))


def _delta_map(sigma, s_src, s_tgt):
    """Restriction |σ⁻¹T| → |T| of σ through the canonical inclusions."""
    index = {v: i for i, v in enumerate(s_tgt)}
    return ("f", len(s_src), len(s_tgt),
            tuple(index[sigma[3][v]] for v in s_src))


def build_finset_topos(n: int = 2) -> JdttData:
    """The dependent type theory of subsets over Fin(≤n)."""
    ctx = fin_skeleton(n)
    types = _types_category(ctx)
    terms = _terms_category(ctx)
    u_proj = FunctorMap("u", types, ctx,
                        {o: o[1] for o in types.objects},
                        {m: m[2] for m in types.morphisms})
    udot_proj = FunctorMap("u̇", terms, ctx,
                           {o: o[1] for o in terms.objects},
                           {m: m[2] for m in terms.morphisms})
    u = Classifier("𝕌", u_proj)
    udot = Classifier("𝕌̇", udot_proj)
    full = {x: tuple(range(x)) for x in ctx.objects}
    Sigma = FunctorMap(
        "Σ", terms, types,
        {_tm(x): _ty(x, full[x]) for x in ctx.objects},
        {m: (_ty(m[0][1], full[m[0][1]]), _ty(m[1][1], full[m[1][1]]), m[2])
         for m in terms.morphisms},
        over=(u_proj, (), (), udot_proj))
    d_obj = {o: _tm(len(o[2])) for o in types.objects}
    d_mor = {}
    for m in types.morphisms:
        (a, b, sigma) = m
        d_mor[m] = (_tm(len(a[2])), _tm(len(b[2])),
                    _delta_map(sigma, a[2], b[2]))
    Delta = FunctorMap("Δ", types, terms, d_obj, d_mor)
    eta = NatTrans("η", identity_functor(terms, name="Id_𝕌̇"),
                   compose_functors(Delta, Sigma, name="ΔΣ"),
                   {o: terms.identity[o] for o in terms.objects})
    SigmaDelta = compose_functors(Sigma, Delta, name="ΣΔ")
    eps = NatTrans("ε", SigmaDelta, identity_functor(types, name="Id_𝕌"),
                   {o: (SigmaDelta.obj_map[o], o,
                        canonical_inclusion(o[1], o[2]))
                    for o in types.objects})
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
    """Build a type former 𝕌.Δ𝕌 → 𝕌 from a pointwise subset operation."""
    obj_map = {}
    for (A, B) in Y.objects:
        (_, x, s) = A
        obj_map[(A, B)] = _ty(x, point(x, s, B[2]))
    mor_map = {}
    for (mA, mB) in Y.morphisms:
        srcAB = Y.src[(mA, mB)]
        tgtAB = Y.tgt[(mA, mB)]
        mor_map[(mA, mB)] = (obj_map[srcAB], obj_map[tgtAB], mA[2])
    return FunctorMap(name, Y, J.u.total, obj_map, mor_map,
                      over=(J.u.proj, (), (0,), J.u.proj))


def instantiate_constructor(J: JdttData, which: str,
                            dep: DependencyRules = None) -> ConstructorData:
    """Construct Π / Id / dependent-sum data for the finite-sets model;
    the dependent sum reads the dependency rules ``dep``."""
    T = J.theory
    if which == "pi":
        Y, _, _ = close_pullback(T, J.functor("u̇Δ"), J.u.proj)
        Pi = _former_on_y(J, Y, _pi_subset, "Π")
        X, xA, xb = close_pullback(T, J.functor("u̇Δ"), J.udot.proj)
        lam_intro = FunctorMap(
            "λ", X, J.udot.total,
            {(A, b): _tm(A[1]) for (A, b) in X.objects},
            {(mA, mb): (_tm(X.src[(mA, mb)][0][1]),
                        _tm(X.tgt[(mA, mb)][0][1]), mA[2])
             for (mA, mb) in X.morphisms},
            over=(J.udot.proj, (), (0,), J.u.proj))
        return make_pi_constructor(J, Pi, lam_intro)
    if which == "id":
        Y, _, _ = close_pullback(T, J.Sigma, J.Sigma)
        full = lambda x: tuple(range(x))
        Id = FunctorMap(
            "Id", Y, J.u.total,
            {(a, b): _ty(a[1], full(a[1])) for (a, b) in Y.objects},
            {(m1, m2): (_ty(Y.src[(m1, m2)][0][1], full(Y.src[(m1, m2)][0][1])),
                        _ty(Y.tgt[(m1, m2)][0][1], full(Y.tgt[(m1, m2)][0][1])),
                        m1[2])
             for (m1, m2) in Y.morphisms},
            over=(J.u.proj, (), (0,), J.udot.proj))
        refl = replace(identity_functor(J.udot.total, name="refl"),
                       over=(J.udot.proj, (), (), J.udot.proj))
        return make_id_constructor(J, Id, refl)
    if which == "sum":
        Y, _, _ = close_pullback(T, J.functor("u̇Δ"), J.u.proj)
        Fj = _former_on_y(J, Y, _sum_subset, "Ⅎ")
        X, _, _ = close_pullback(T, dependent_type(J, dep), J.Sigma)
        pair_intro = FunctorMap(
            "pair", X, J.udot.total,
            {o: _tm(o[0][0][1]) for o in X.objects},
            {m: (_tm(X.src[m][0][0][1]), _tm(X.tgt[m][0][0][1]), m[0][0][2])
             for m in X.morphisms},
            over=(J.udot.proj, (), (0, 0), J.udot.proj))
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

