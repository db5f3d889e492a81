"""Dependent type theory from a term/type adjunction over a context
category.

The central datum is a pair of fibrations u̇ : 𝕌̇ → ctx (terms) and
u : 𝕌 → ctx (types) with a rule Σ : 𝕌̇ → 𝕌 over ctx ("the type of a
term") admitting a right adjoint Δ whose counit is cartesian.  From this
the module derives, as explicit functors:

* context extension  Γ.A with display δ_A and generic term q_A;
* type/term dependency  (a, B) ↦ B⟨a⟩ and (a, b) ↦ b⟨a⟩ by ♯-lifting;
* display transport  (a, a′) ↦ a′δ_A, inverse to dependency;
* the associated natural model, with a round-trip between the two
  presentations;
* a generic engine for type constructors presented as a square over the
  typing rule Σ (Π, Id, Σ-types, …) with derived F/I/E/β/η rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (FinCategory, FunctorMap, NatTrans, AdjunctionData,
                   check_adjunction, check_category_iso, checking,
                   compose_functors, identity_functor, same_category,
                   same_functor, validate_category, validate_functor,
                   whisker_left, whisker_right)
from .fibrations import (Classifier, _over, cartesian_lift, factorizations,
                         is_cartesian, is_cartesian_nat_trans, is_discrete,
                         verify_kind)
from .limits import mediating_functor
from .theory import (PreJudgementalTheory, SharpLiftResult, close_equalizer,
                     close_pullback, sharp_lift)


@dataclass
class JdttData:
    """A dependent-type judgemental theory: terms, types, and Σ ⊣ Δ."""

    theory: PreJudgementalTheory
    udot: Classifier       # u̇ : 𝕌̇ → ctx
    u: Classifier          # u : 𝕌 → ctx
    Sigma: FunctorMap      # 𝕌̇ → 𝕌, typing
    Delta: FunctorMap      # 𝕌 → 𝕌̇, context extension / generic term
    eta: NatTrans          # Id_𝕌̇ ⇒ ΔΣ
    eps: NatTrans          # ΣΔ ⇒ Id_𝕌
    _derived: dict = field(default_factory=dict, repr=False)

    def functor(self, key):
        """Composite functors used throughout, built once with stable names
        so closure-registry keys stay canonical."""
        if key not in self._derived:
            if key == "ΔΣ":
                self._derived[key] = compose_functors(
                    self.Delta, self.Sigma, name="ΔΣ")
            elif key == "u̇ΔΣ":
                self._derived[key] = compose_functors(
                    self.udot.proj, self.functor("ΔΣ"), name="u̇ΔΣ")
            elif key == "u̇Δ":
                self._derived[key] = compose_functors(
                    self.udot.proj, self.Delta, name="u̇Δ")
            else:
                raise KeyError(key)
        return self._derived[key]


def validate_jdtt(J: JdttData) -> list:
    """Check all the defining conditions of the dtt datum exhaustively.
    ``validate_category`` checks ctx, and 𝕌 and 𝕌̇ through their
    projections; ``verify_kind`` checks u̇ and u, then
    ``check_adjunction`` checks Σ, Δ, η and ε, so u∘Σ is formed only from
    functors.  Each step runs only when the steps before it pass."""
    bad = (validate_category(J.theory.ctx)
           + validate_category(J.u.total, J.u.proj)
           + validate_category(J.udot.total, J.udot.proj))
    if bad:
        return bad
    bad = verify_kind(J.udot, expect="fibration")
    bad += verify_kind(J.u, expect="fibration")
    if bad:
        return bad
    bad = check_adjunction(AdjunctionData("Σ⊣Δ", J.Sigma, J.Delta,
                                          J.eta, J.eps))
    if bad:
        return bad
    if not same_functor(compose_functors(J.u.proj, J.Sigma), J.udot.proj):
        return ["typing Σ is not a rule over ctx (u∘Σ ≠ u̇)"]
    return (is_cartesian_nat_trans(J.eps, J.u)
            + is_cartesian_nat_trans(J.eta, J.udot))


@dataclass
class ContextExtension:
    ext: object      # the object Γ.A of ctx
    delta: object    # δ_A : Γ.A → Γ
    q: object        # the generic term, an object of 𝕌̇ over Γ.A
    diagnostics: list


def context_extension(J: JdttData, A) -> ContextExtension:
    """Γ.A := u̇ΔA,  δ_A := u(ε_A),  q_A := ΔA.

    Also certifies the extension equation ΣΔA = A[δ_A]: the counit ε_A is
    a cartesian lift of δ_A at A, so it agrees with the chosen cleavage
    lift up to the unique vertical factorization isomorphism.
    """
    with checking():
        bad = []
        qa = J.Delta.obj_map[A]
        ext = J.udot.proj.obj_map[qa]
        eps_a = J.eps.components[A]
        delta = J.u.proj.mor_map[eps_a]
        total, vertical = J.u.total, J.u.base.identity[ext]
        chosen = cartesian_lift(J.u, A, delta)
        hits = factorizations(J.u, chosen, vertical, eps_a)
        if len(hits) != 1:
            bad.append(f"extension of {A!r}: {len(hits)} vertical "
                       f"factorizations of ε through the cleavage lift")
        else:
            # An inverse k of h lies over an identity, as h does, since
            # u k = u k ∘ u h = u(k∘h) for the functor u.
            h, back = hits[0], total.identity[total.src[chosen]]
            if not any(total.comp(k, h) == total.identity[total.src[eps_a]]
                       for k in factorizations(J.u, h, vertical, back)):
                bad.append(f"extension of {A!r}: ε does not agree with the "
                           f"cleavage lift up to iso")
        if not is_cartesian(J.u, eps_a):
            bad.append(f"extension of {A!r}: ε_A is not cartesian")
    return ContextExtension(ext, delta, qa, bad)


@dataclass
class DependencyRules:
    """The ♯-lifted dependency and transport rules."""

    dty: SharpLiftResult   # (a, B) ↦ (a, B⟨a⟩) :  𝕌̇.ΣΔ𝕌 → 𝕌̇×𝕌
    dtm: SharpLiftResult   # (a, b) ↦ (a, b⟨a⟩) :  𝕌̇.ΣΔ𝕌̇ → 𝕌̇×𝕌̇
    diagnostics: list


def derive_dependency(J: JdttData) -> DependencyRules:
    """Type and term dependency by ♯-lifting the whiskered unit.

    η′ := u̇·η : u̇ ⇒ u̇ΔΣ is a policy over the identity triangle on 𝕌̇;
    lifting it along u re-indexes a type B over Γ.A to B⟨a⟩ over Γ, and
    lifting along u̇ does the same for terms.
    """
    T = J.theory
    eta_p = whisker_left(J.udot.proj, J.eta, name="η′")
    # Contravariant policy  g∘λ = u̇  ⇒  f = u̇ΔΣ  with λ = id.
    lam = identity_functor(J.udot.total, name="id_𝕌̇")
    dty = sharp_lift(T, lam, J.functor("u̇ΔΣ"), J.udot.proj, eta_p, J.u)
    dtm = sharp_lift(T, lam, J.functor("u̇ΔΣ"), J.udot.proj, eta_p, J.udot)
    bad = list(dty.diagnostics) + list(dtm.diagnostics)
    if not bad:
        # Typing commutes with dependency: Σ(b⟨a⟩) = (Σb)⟨a⟩.
        for (a, b) in dtm.premise.objects:
            lhs = J.Sigma.obj_map[dtm.rule.obj_map[(a, b)][1]]
            rhs = dty.rule.obj_map[(a, J.Sigma.obj_map[b])][1]
            if lhs != rhs:
                bad.append(f"dependency: Σ(b⟨a⟩) ≠ (Σb)⟨a⟩ at ({a!r},{b!r})")
    return DependencyRules(dty, dtm, bad)


@dataclass
class TransportRules:
    transport: SharpLiftResult  # (a, a′) ↦ (a, a′δ_A) : 𝕌̇×𝕌̇ → 𝕌̇.ΣΔ𝕌̇
    diagnostics: list


def derive_display_transport(J: JdttData, dep: DependencyRules = None) -> TransportRules:
    """Transport along the display map, inverse to term dependency.

    ε′ := (u·ε)Σ : u̇ΔΣ ⇒ u̇ re-indexes a term a′ over Γ to a′δ_A over
    Γ.A.  The triangle rule (a′δ_A)⟨a⟩ = a′ is certified by checking that
    the composite with the dependency rule is the identity on 𝕌̇×𝕌̇
    (table equality).
    """
    T = J.theory
    eps_p = whisker_right(whisker_left(J.u.proj, J.eps), J.Sigma, name="ε′")
    lam = identity_functor(J.udot.total, name="id_𝕌̇")
    # Contravariant policy  g∘λ = u̇ΔΣ  ⇒  f = u̇.
    tr = sharp_lift(T, lam, J.udot.proj, J.functor("u̇ΔΣ"), eps_p, J.udot)
    bad = list(tr.diagnostics)
    if dep is None:
        dep = derive_dependency(J)
        bad += dep.diagnostics
    if not bad:
        back = compose_functors(dep.dtm.rule, tr.rule)
        if not same_functor(back, identity_functor(tr.premise)):
            bad.append("display transport: (a′δ_A)⟨a⟩ = a′ fails as tables")
    return TransportRules(tr, bad)


# ---------------------------------------------------------------------------
# Natural models


@dataclass
class NaturalModelData:
    """A presheaf-style presentation: a map of discrete fibrations
    p : terms → types with representability data per type."""

    name: str
    ctx: FinCategory
    terms: Classifier
    types: Classifier
    p: FunctorMap
    repr_data: dict   # type object A -> (ext object Γ.A, δ_A, generic term q_A)


def _restrict(cl: Classifier, obj, sigma):
    """Restriction in a discrete fibration: source of the unique lift."""
    lifts = _over(cl, obj).get(sigma, ())
    if len(lifts) != 1:
        raise ValueError(f"{cl.name}: {len(lifts)} lifts of {sigma!r} at {obj!r}")
    return cl.total.src[lifts[0]], lifts[0]


def _mediators(M: NaturalModelData, A, sigma, b) -> list:
    """The τ : θ → Γ.A with δ∘τ = σ and q·τ = b, for σ : θ → Γ and the
    representability data (Γ.A, δ, q) of A: the maps that represent the
    pair (σ, b) in the pullback of p along A."""
    ctx, (ext, delta, q) = M.ctx, M.repr_data[A]
    return [tau for tau in ctx.hom(ctx.src[sigma], ext)
            if ctx.comp(delta, tau) == sigma
            and _restrict(M.terms, q, tau)[0] == b]


def validate_natural_model(M: NaturalModelData) -> list:
    bad = []
    bad += is_discrete(M.terms)
    bad += is_discrete(M.types)
    bad += validate_functor(M.p)
    if bad:
        return bad
    if not same_functor(compose_functors(M.types.proj, M.p), M.terms.proj):
        bad.append(f"{M.name}: p is not over ctx")
    ctx = M.ctx
    for A in M.types.total.objects:
        gamma = M.types.proj.obj_map[A]
        if A not in M.repr_data:
            bad.append(f"{M.name}: no representability data for {A!r}")
            continue
        ext, delta, q = M.repr_data[A]
        if ctx.src[delta] != ext or ctx.tgt[delta] != gamma:
            bad.append(f"{M.name}: δ at {A!r} has wrong endpoints")
            continue
        if M.terms.proj.obj_map[q] != ext:
            bad.append(f"{M.name}: generic term at {A!r} not over Γ.A")
            continue
        restrA, _ = _restrict(M.types, A, delta)
        if M.p.obj_map[q] != restrA:
            bad.append(f"{M.name}: p(q_A) ≠ A·δ at {A!r}")
            continue
        # Pullback property: (σ : Θ→Γ, term b over Θ with p b = A·σ)
        # corresponds to a unique τ : Θ → Γ.A.
        for theta in ctx.objects:
            for sigma in ctx.hom(theta, gamma):
                As, _ = _restrict(M.types, A, sigma)
                for b in M.terms.fiber_objects(theta):
                    if M.p.obj_map[b] != As:
                        continue
                    hits = _mediators(M, A, sigma, b)
                    if len(hits) != 1:
                        bad.append(f"{M.name}: representability fails at "
                                   f"{A!r} for ({sigma!r}, {b!r}): "
                                   f"{len(hits)} mediating maps")
    return bad


def jdtt_to_nm(J: JdttData, name=None) -> NaturalModelData:
    """Extract the natural model: Γ.A = u̇ΔA, δ_A = u(ε_A), q_A = ΔA."""
    repr_data = {}
    with checking():
        for A in J.u.total.objects:
            e = context_extension(J, A)
            if e.diagnostics:
                raise ValueError(e.diagnostics[0])
            repr_data[A] = (e.ext, e.delta, e.q)
    return NaturalModelData(name or f"nm({J.theory.name})", J.theory.ctx,
                            J.udot, J.u, J.Sigma, repr_data)


def nm_to_jdtt(M: NaturalModelData, theory=None) -> JdttData:
    """Rebuild the adjunction: Δ_p(A) = q_A, counit from δ_A, unit from
    the universal dotted arrow of the representing pullback."""
    ctx = M.ctx
    T = theory or PreJudgementalTheory(f"jdtt({M.name})", ctx)
    d_obj = {A: M.repr_data[A][2] for A in M.types.total.objects}
    d_mor = {}
    for s in M.types.total.morphisms:
        B, A = M.types.total.src[s], M.types.total.tgt[s]
        _, deltaB, qB = M.repr_data[B]
        # Mediating τ : Θ.B → Γ.A for the cone (σ∘δ_B, q_B).
        hits = _mediators(M, A, ctx.comp(M.types.proj.mor_map[s], deltaB), qB)
        if len(hits) != 1:
            raise ValueError(f"{M.name}: {len(hits)} mediating maps for {s!r}")
        _, d_mor[s] = _restrict(M.terms, M.repr_data[A][2], hits[0])
    Delta = FunctorMap("Δ", M.types.total, M.terms.total, d_obj, d_mor)
    eps_comp = {A: _restrict(M.types, A, M.repr_data[A][1])[1]
                for A in M.types.total.objects}
    eta_comp = {}
    for a in M.terms.total.objects:
        A = M.p.obj_map[a]
        hits = _mediators(M, A, ctx.identity[M.terms.proj.obj_map[a]], a)
        if len(hits) != 1:
            raise ValueError(f"{M.name}: {len(hits)} sections for term {a!r}")
        _, eta_comp[a] = _restrict(M.terms, M.repr_data[A][2], hits[0])
    Sigma = FunctorMap("Σ", M.terms.total, M.types.total,
                       dict(M.p.obj_map), dict(M.p.mor_map))
    eta = NatTrans("η", identity_functor(M.terms.total, name="Id_𝕌̇"),
                   compose_functors(Delta, Sigma, name="ΔΣ"), eta_comp)
    eps = NatTrans("ε", compose_functors(Sigma, Delta, name="ΣΔ"),
                   identity_functor(M.types.total, name="Id_𝕌"), eps_comp)
    J = JdttData(T, M.terms, M.types, Sigma, Delta, eta, eps)
    T.add_judgement(M.terms)
    T.add_judgement(M.types)
    T.add_rule(Sigma)
    return J


def natural_model_round_trip(J: JdttData) -> list:
    """jdtt → natural model → jdtt and compare all tables; plus fiberwise
    comparison of the type classifiers through check_category_iso."""
    bad = []
    M = jdtt_to_nm(J)
    bad += validate_natural_model(M)
    if bad:
        return bad
    J2 = nm_to_jdtt(M)
    bad += validate_jdtt(J2)
    if not same_functor(J2.Delta, J.Delta):
        bad.append("round trip: Δ differs")
    if J2.eps.components != J.eps.components:
        bad.append("round trip: ε differs")
    if J2.eta.components != J.eta.components:
        bad.append("round trip: η differs")
    for gamma in J.theory.ctx.objects:
        f1 = J.u.fiber_category(gamma)
        f2 = J2.u.fiber_category(gamma)
        iso = FunctorMap(f"cmp({gamma})", f1, f2,
                         {o: o for o in f1.objects},
                         {m: m for m in f1.morphisms})
        diag, _ = check_category_iso(iso)
        bad += diag
    return bad


# ---------------------------------------------------------------------------
# The constructor engine


@dataclass
class ConstructorData:
    """A type constructor as a square over the typing rule Σ.

    Λ : 𝕏 → 𝕐 relates the introduction premises to the formation
    premises, Φ : 𝕐 → 𝕌 forms the type, Ψ : 𝕏 → 𝕌̇ introduces its
    terms, and Σ∘Ψ = Φ∘Λ.  In strict mode the square must be a pullback;
    in weak mode a distinguished elimination functor E with E∘(Λ★Ψ) = id
    is supplied instead, and the η-rule is not emitted.
    """

    name: str
    X: FinCategory
    Y: FinCategory
    Lambda: FunctorMap
    Phi: FunctorMap
    Psi: FunctorMap
    mode: str = "strict"            # "strict" | "weak"
    section: FunctorMap = None      # weak mode only: E : PB(Φ,Σ) → 𝕏


@dataclass
class ConstructorCheck:
    pullback: FinCategory
    comparison: FunctorMap    # Λ★Ψ : 𝕏 → PB(Φ,Σ)
    eliminator: FunctorMap    # E = (−)⟨−⟩ : PB(Φ,Σ) → 𝕏
    diagnostics: list


def phi_check(J: JdttData, C: ConstructorData) -> ConstructorCheck:
    """Check the constructor square and produce the eliminator.  Λ must
    land in Φ's domain, Φ in 𝕌 and Ψ in 𝕌̇; when one does not, the square
    is neither composed nor pulled back.  A weak-mode section must run
    from PB(Φ,Σ) to 𝕏, or it is not composed with the comparison."""
    T = J.theory
    bad = []
    bad += validate_functor(C.Lambda)
    bad += validate_functor(C.Phi)
    bad += validate_functor(C.Psi)
    alien = [f"{C.name}: {F.name} does not land in {c.name}"
             for F, c in ((C.Lambda, C.Phi.dom), (C.Phi, J.u.total),
                          (C.Psi, J.udot.total))
             if not same_category(F.cod, c)]
    if alien:
        return ConstructorCheck(None, None, None, bad + alien)
    if not bad and not same_functor(compose_functors(J.Sigma, C.Psi),
                                    compose_functors(C.Phi, C.Lambda)):
        bad.append(f"{C.name}: Σ∘Ψ ≠ Φ∘Λ (the constructor square does not commute)")
    pb, pY, pU = close_pullback(T, C.Phi, J.Sigma)
    if bad:
        return ConstructorCheck(pb, None, None, bad)
    # Λ★Ψ lies over whatever Ψ lies over, through the 𝕌̇ factor.
    over = None
    if C.Psi.over:
        p, q, path, h = C.Psi.over
        over = (p, (1, *q), path, h)
    cmp_f = mediating_functor("pullback", pb, (pY, pU), [C.Lambda, C.Psi],
                              name=f"{C.name}★", over=over)
    if C.mode == "strict":
        diag, inv = check_category_iso(cmp_f)
        if diag:
            bad.append(f"{C.name}: upper square is not a pullback: {diag[0]}")
            return ConstructorCheck(pb, cmp_f, None, bad)
        elim = inv
    elif C.mode == "weak":
        if C.section is None:
            bad.append(f"{C.name}: weak mode requires a distinguished section")
            return ConstructorCheck(pb, cmp_f, None, bad)
        elim = C.section
        bad += validate_functor(elim)
        bad += [f"{C.name}: {elim.name} does not {where} {c.name}"
                for where, end, c in (("start at", elim.dom, pb),
                                      ("land in", elim.cod, C.X))
                if not same_category(end, c)]
        if not bad and not same_functor(
                compose_functors(elim, cmp_f), identity_functor(C.X)):
            bad.append(f"{C.name}: section does not retract the comparison "
                       f"(E∘(Λ★Ψ) ≠ id)")
    else:
        bad.append(f"{C.name}: unknown mode {C.mode!r}")
        elim = None
    return ConstructorCheck(pb, cmp_f, elim, bad)


@dataclass
class DerivedConstructorRules:
    formation: FunctorMap      # F : 𝕐 → 𝕌
    introduction: FunctorMap   # I : 𝕏 → 𝕌̇
    elimination: FunctorMap    # E : PB(Φ,Σ) → 𝕏
    comparison: FunctorMap     # Λ★Ψ
    beta_holds: bool
    eta_holds: bool            # only claimed (and required) in strict mode
    has_eta: bool
    diagnostics: list


def phi_derive(J: JdttData, C: ConstructorData) -> DerivedConstructorRules:
    """Derive the formation/introduction/elimination/β(/η) package."""
    chk = phi_check(J, C)
    bad = list(chk.diagnostics)
    if bad:
        return DerivedConstructorRules(C.Phi, C.Psi, chk.eliminator,
                                       chk.comparison, False, False,
                                       C.mode == "strict", bad)
    elim, cmp_f = chk.eliminator, chk.comparison
    # β: Ψ∘((Λ−)⟨Ψ−⟩) = Ψ as tables.
    beta = same_functor(compose_functors(C.Psi, compose_functors(elim, cmp_f)),
                        C.Psi)
    if not beta:
        bad.append(f"{C.name}: β-identity fails")
    eta_ok = False
    if C.mode == "strict":
        eta_ok = same_functor(compose_functors(cmp_f, elim),
                              identity_functor(chk.pullback))
        if not eta_ok:
            bad.append(f"{C.name}: η-identity fails in strict mode")
    return DerivedConstructorRules(C.Phi, C.Psi, elim, cmp_f, beta, eta_ok,
                                   C.mode == "strict", bad)


# -- canonical constructor squares over a dtt ------------------------------


def make_pi_constructor(J: JdttData, Pi: FunctorMap, lam_intro: FunctorMap,
                        name="Π") -> ConstructorData:
    """Π-types: 𝕐 = 𝕌.Δ𝕌 (a type and a type over its extension),
    𝕏 = 𝕌.Δ𝕌̇ (a type and a term over its extension), Λ applies typing
    to the dependent part."""
    T = J.theory
    Y, yA, yB = close_pullback(T, J.functor("u̇Δ"), J.u.proj)
    X, xA, xb = close_pullback(T, J.functor("u̇Δ"), J.udot.proj)
    Lambda = mediating_functor(
        "pullback", Y, (yA, yB),
        [xA, compose_functors(J.Sigma, xb)], name=f"{name}Λ",
        over=(J.u.proj, (0,), (0,), J.u.proj))
    return ConstructorData(name, X, Y, Lambda, Pi, lam_intro)


def make_id_constructor(J: JdttData, Id: FunctorMap, refl: FunctorMap,
                        name="Id") -> ConstructorData:
    """Id-types: 𝕐 = 𝕌̇×_Σ𝕌̇ (pairs of terms of the same type),
    𝕏 = 𝕌̇ with the diagonal, Ψ = reflexivity."""
    T = J.theory
    Y, y1, y2 = close_pullback(T, J.Sigma, J.Sigma)
    idu = identity_functor(J.udot.total, name="id_𝕌̇")
    diag = mediating_functor("pullback", Y, (y1, y2), [idu, idu],
                             name=f"{name}diag",
                             over=(J.udot.proj, (0,), (), J.udot.proj))
    return ConstructorData(name, J.udot.total, Y, diag, Id, refl)


def id_extensionality(J: JdttData, C: ConstructorData) -> list:
    """The first Id eliminator: the reflexivity square factors through the
    equalizer of the two term projections, and every inhabited identity
    type sits over a pair with a = b (checked by enumeration)."""
    T = J.theory
    bad = []
    Yname = f"PB({J.Sigma.name},{J.Sigma.name})"
    e = T.registry[Yname]
    Y, y1, y2 = e.value, e.extras["p1"], e.extras["p2"]
    eq, incl = close_equalizer(T, y1, y2)
    try:
        mediating_functor("equalizer", eq, incl, C.Lambda, name="IdE1")
    except ValueError as exc:
        bad.append(f"Id E1: {exc}")
    sigma_of = J.Sigma.obj_map
    inhabited = {sigma_of[c] for c in J.udot.total.objects}
    for (a, b) in Y.objects:
        if C.Phi.obj_map[(a, b)] in inhabited and a != b:
            bad.append(f"Id E1: inhabited identity type over ({a!r},{b!r}) "
                       f"with a ≠ b")
    return bad


def dependent_type(J: JdttData, dep: DependencyRules) -> FunctorMap:
    """γ : 𝕌̇.ΣΔ𝕌 → 𝕌, type dependency followed by the type projection:
    (a, B) ↦ B⟨a⟩, over ctx through u̇ on a."""
    prem, rule = dep.dty.premise, dep.dty.rule
    return FunctorMap("γ", prem, J.u.total,
                      {o: rule.obj_map[o][1] for o in prem.objects},
                      {m: rule.mor_map[m][1] for m in prem.morphisms},
                      over=(J.u.proj, (), (0,), J.udot.proj))


def make_sum_constructor(J: JdttData, dep: DependencyRules, Fj: FunctorMap,
                         pair_intro: FunctorMap, name="Ⅎ") -> ConstructorData:
    """Dependent-sum types: 𝕐 = 𝕌.Δ𝕌 as for Π; the premise 𝕏 pairs a
    term a, a type B over the extension, and a term of B⟨a⟩."""
    T = J.theory
    Y, yA, yB = close_pullback(T, J.functor("u̇Δ"), J.u.proj)
    X, xAB, xb = close_pullback(T, dependent_type(J, dep), J.Sigma)
    Lambda = mediating_functor(
        "pullback", Y, (yA, yB),
        [compose_functors(J.Sigma,
                          FunctorMap("π_a", X, J.udot.total,
                                     {o: o[0][0] for o in X.objects},
                                     {m: m[0][0] for m in X.morphisms})),
         FunctorMap("π_B", X, J.u.total,
                    {o: o[0][1] for o in X.objects},
                    {m: m[0][1] for m in X.morphisms})], name=f"{name}Λ",
        over=(J.u.proj, (0,), (0, 0), J.udot.proj))
    return ConstructorData(name, X, Y, Lambda, Fj, pair_intro)
