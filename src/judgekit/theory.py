"""Judgemental theories: a context category, classifiers over it, rules
between their total categories, and policies (transformations) between
rules — together with the finite-limit closure of that data.

The two workhorses are the closure registry (every derived category is
recorded under a canonical construction term, so re-deriving is free and
names are stable) and ♯-lifting, which turns a policy over a triangle of
rules into a rule between pullback classifiers by re-indexing along a
fibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (FinCategory, FunctorMap, NatTrans, checking,
                   make_category, compose_functors, same_functor,
                   terminal_objects, validate_category, validate_functor,
                   validate_nat_trans)
from .limits import equalizer_category, pullback_category
from .fibrations import (Classifier, _cartesian, cartesian_lift,
                         factorizations, verify_kind)

VARIANCES = ("covariant", "contravariant", "strict")


@dataclass
class ConstructionTerm:
    """How a registry entry was built: an operation and argument names."""

    op: str
    args: tuple


@dataclass
class RegistryEntry:
    kind: str          # "classifier" | "rule" | "policy" | "category"
    value: object
    term: ConstructionTerm = None
    extras: dict = field(default_factory=dict)  # e.g. projections of a PB


@dataclass
class PreJudgementalTheory:
    """Contexts, judgement classifiers, rules and policies, plus the
    closure registry of everything derived from them."""

    name: str
    ctx: FinCategory
    judgements: dict = field(default_factory=dict)  # name -> Classifier
    rules: dict = field(default_factory=dict)       # name -> FunctorMap
    policies: dict = field(default_factory=dict)    # name -> (NatTrans, variance)
    registry: dict = field(default_factory=dict)    # canonical name -> RegistryEntry

    def add_judgement(self, cl: Classifier):
        self.judgements[cl.name] = cl
        self.registry[cl.name] = RegistryEntry(
            "classifier", cl, ConstructionTerm("gen", (cl.name,)))
        return cl

    def add_rule(self, F: FunctorMap):
        self.rules[F.name] = F
        self.registry[F.name] = RegistryEntry(
            "rule", F, ConstructionTerm("gen", (F.name,)))
        return F

    def add_policy(self, t: NatTrans, variance: str):
        if variance not in VARIANCES:
            raise ValueError(f"unknown variance {variance!r}")
        self.policies[t.name] = (t, variance)
        self.registry[t.name] = RegistryEntry(
            "policy", (t, variance), ConstructionTerm("gen", (t.name,)))
        return t

    def register(self, name: str, entry: RegistryEntry):
        if name not in self.registry:
            self.registry[name] = entry
        return self.registry[name]


@dataclass
class DerivedRule:
    """A rule packaged for export: where it was derived from, where it
    lands, the validated functor (or policy) realizing it, and the
    display schema used by the renderer."""

    name: str
    premise: str        # registry key of the premise classifier/category
    conclusion: str     # registry key of the conclusion
    underlying: object  # FunctorMap or NatTrans
    schema: object = None


def validate_prejt(T: PreJudgementalTheory) -> list:
    """Shape checks: every judgement projects to ctx, every rule runs
    between registered totals, every policy sits between registered rules.
    Validates every judgement's projection, every rule and every policy."""
    bad = []
    totals = {T.ctx.name: T.ctx}
    for e in T.registry.values():
        if e.kind == "category":
            totals[e.value.name] = e.value
    for j in T.judgements.values():
        if j.base.objects != T.ctx.objects or j.base.morphisms != T.ctx.morphisms:
            bad.append(f"{T.name}: judgement {j.name} is not over ctx")
        bad += validate_functor(j.proj)
        totals[j.total.name] = j.total
    for r in T.rules.values():
        bad += validate_functor(r)
        known = any(r.dom.objects == t.objects for t in totals.values())
        if not known:
            bad.append(f"{T.name}: rule {r.name} has unregistered domain {r.dom.name}")
        if r.cod.objects == T.ctx.objects and r.cod.morphisms == T.ctx.morphisms:
            if not any(same_functor(r, j.proj) for j in T.judgements.values()):
                bad.append(f"{T.name}: rule {r.name} lands in ctx but is not "
                           f"the projection of any judgement")
    for nm, (t, variance) in T.policies.items():
        bad += validate_nat_trans(t)
    return bad


def _pb_name(a, b):
    return f"PB({a},{b})"


def _refuse_others(key, olds, news):
    """A registry key holds only names, and two functors may share one:
    raise unless the functors registered under ``key`` are the new ones."""
    for old, new in zip(olds, news):
        if old is not new and not same_functor(old, new):
            raise ValueError(f"{key} is registered for other functors "
                             f"of the same names")


def _memo_hit(T: PreJudgementalTheory, key, f: FunctorMap, g: FunctorMap):
    """The registry entry under ``key``, provided it was built from these
    very legs."""
    e = T.registry[key]
    _refuse_others(key, e.extras["legs"], (f, g))
    return e


def close_pullback(T: PreJudgementalTheory, f: FunctorMap, g: FunctorMap):
    """Register (memoized) the pullback of two rules with common codomain.

    Returns ``(category, proj_f_side, proj_g_side)``.
    """
    key = _pb_name(f.name, g.name)
    if key in T.registry:
        e = _memo_hit(T, key, f, g)
        return e.value, e.extras["p1"], e.extras["p2"]
    cat, p1, p2 = pullback_category(f, g, name=key)
    T.register(key, RegistryEntry("category", cat,
                                  ConstructionTerm("PB", (f.name, g.name)),
                                  extras={"p1": p1, "p2": p2, "legs": (f, g)}))
    return cat, p1, p2


def close_equalizer(T: PreJudgementalTheory, f: FunctorMap, g: FunctorMap):
    key = f"EQ({f.name},{g.name})"
    if key in T.registry:
        e = _memo_hit(T, key, f, g)
        return e.value, e.extras["incl"]
    cat, incl = equalizer_category(f, g, name=key)
    T.register(key, RegistryEntry("category", cat,
                                  ConstructionTerm("EQ", (f.name, g.name)),
                                  extras={"incl": incl, "legs": (f, g)}))
    return cat, incl


def eager_close(T: PreJudgementalTheory, depth: int = 1) -> list:
    """Bounded eager closure: repeatedly close pullbacks of rule pairs
    with common codomain and equalizers of parallel rule pairs, feeding
    projection functors of earlier rounds back in.  Returns the list of
    newly registered keys."""
    new = []
    for _ in range(depth):
        rules = [j.proj for j in T.judgements.values()]
        for e in list(T.registry.values()):
            if e.kind == "rule":
                rules.append(e.value)
            elif e.kind == "category":
                for k in ("p1", "p2", "incl"):
                    if k in e.extras:
                        rules.append(e.extras[k])
        added = []
        for f in rules:
            for g in rules:
                if f.cod.objects == g.cod.objects and \
                        f.cod.morphisms == g.cod.morphisms:
                    key = _pb_name(f.name, g.name)
                    if key not in T.registry:
                        added.append(key)
                    close_pullback(T, f, g)
                    if f.name != g.name and \
                            f.dom.objects == g.dom.objects and \
                            f.dom.morphisms == g.dom.morphisms:
                        key = f"EQ({f.name},{g.name})"
                        if key not in T.registry:
                            added.append(key)
                        close_equalizer(T, f, g)
        new += added
        if not added:
            break
    return new


def empty_classifier(T: PreJudgementalTheory) -> Classifier:
    """The empty judgement ∅ → ctx (vacuously a fibration of every kind)."""
    key = "∅"
    if key in T.registry:
        return T.registry[key].value
    empty = make_category("∅", [], [], {}, {}, {}, {})
    cl = Classifier("∅", FunctorMap("0", empty, T.ctx, {}, {}))
    T.register(key, RegistryEntry("classifier", cl, ConstructionTerm("empty", ())))
    return cl


@dataclass
class SharpLiftResult:
    """Outcome of ♯-lifting a policy along a fibration."""

    rule: FunctorMap          # ℛ*λ : premise → conclusion
    policy: NatTrans          # lifted policy, components are cartesian lifts
    premise: FinCategory
    conclusion: FinCategory
    premise_projs: tuple      # (to 𝔽, to ℍ)
    conclusion_projs: tuple   # (to 𝔾, to ℍ)
    diagnostics: list


def sharp_lift(T: PreJudgementalTheory, lam: FunctorMap, f: FunctorMap,
               g: FunctorMap, pol: NatTrans, R: Classifier) -> SharpLiftResult:
    """♯-lift a contravariant policy along a fibration.

    Data: a triangle λ : 𝔽 → 𝔾 over 𝕏 with legs f : 𝔽 → 𝕏, g : 𝔾 → 𝕏
    and policy components ``pol_F : g(λF) → f(F)``, plus a fibration
    ``R.proj : ℍ → 𝕏``.  The lifted rule sends a premise pair (F, H) to
    (λF, H[pol_F]) where H[pol_F] is the chosen cartesian lift; the lifted
    policy's component at (F, H) is that lift, so it is cartesian by
    construction.  Both that and the strict commuting of the square over
    λ are checked.

    The image of (φ, η) has its ℍ component over g(λφ), so the rule lies
    over 𝕏 through R.proj on that component and through g on φ wherever
    g∘λ = g, as when λ is an identity: it records
    ``(R.proj, (1,), (0,), g)`` for ``validate_functor``.  It runs in one
    check context, so the cleavage of R is computed once.
    """
    with checking():
        bad = []
        P1, p1f, p1h = close_pullback(T, f, R.proj)
        P2, p2g, p2h = close_pullback(T, g, R.proj)
        total = R.total
        obj_map, lift_at = {}, {}
        for (F, H) in P1.objects:
            m = cartesian_lift(R, H, pol.components[F])
            obj_map[(F, H)] = (lam.obj_map[F], total.src[m])
            lift_at[(F, H)] = m
        mor_map = {}
        for (phi, eta) in P1.morphisms:
            m, m2 = lift_at[P1.src[(phi, eta)]], lift_at[P1.tgt[(phi, eta)]]
            want_proj = g.mor_map[lam.mor_map[phi]]
            hits = factorizations(R, m2, want_proj, total.comp(eta, m))
            if len(hits) != 1:
                bad.append(f"♯-lift of {pol.name}: {len(hits)} factorizations "
                           f"over {want_proj!r} at premise morphism "
                           f"({phi!r},{eta!r})")
                mor_map[(phi, eta)] = None
            else:
                mor_map[(phi, eta)] = (lam.mor_map[phi], hits[0])
        key = f"SHARP({pol.name},{R.name})"
        rule = FunctorMap(key, P1, P2, obj_map, mor_map,
                          over=(R.proj, (1,), (0,), g))
        if not bad:
            bad += validate_functor(rule)
        lifted = NatTrans(f"{pol.name}♯", compose_functors(p2h, rule), p1h,
                          {o: lift_at[o] for o in P1.objects})
        if not bad:
            bad += validate_nat_trans(lifted)
            if not same_functor(compose_functors(p2g, rule),
                                compose_functors(lam, p1f)):
                bad.append(f"♯-lift of {pol.name}: square over {lam.name} "
                           f"does not commute strictly")
            cartesian = _cartesian(R)
            for o, m in lifted.components.items():
                if not cartesian(m):
                    bad.append(f"♯-lift of {pol.name}: component at {o!r} "
                               f"is not cartesian")
        if not bad and key in T.registry:
            _refuse_others(key, (T.registry[key].value,), (rule,))
        elif not bad:
            T.register(key, RegistryEntry(
                "rule", rule, ConstructionTerm("SHARP", (pol.name, R.name)),
                extras={"policy": lifted}))
    return SharpLiftResult(rule, lifted, P1, P2, (p1f, p1h), (p2g, p2h), bad)


def check_axioms(T: PreJudgementalTheory, variances=None) -> list:
    """The closure axioms of a judgemental theory, checked exhaustively
    after validating ctx; every judgement is checked by ``verify_kind``:

    * ctx has a terminal object;
    * the empty classifier is available (and registered);
    * every judgement is a fibration/opfibration/discrete fibration as its
      declared variance demands.
    """
    bad = validate_category(T.ctx)
    if bad:
        return bad
    if not terminal_objects(T.ctx):
        bad.append(f"{T.name}: ctx has no terminal object")
    empty_classifier(T)
    variances = variances or {}
    for nm, j in T.judgements.items():
        expect = {"covariant": "opfibration",
                  "contravariant": "fibration",
                  "strict": "discrete"}.get(variances.get(nm, "contravariant"))
        bad += verify_kind(j, expect=expect)
    return bad


def expand_nested(T: PreJudgementalTheory, key: str) -> list:
    """Expand a derived classifier into its judgement reading.

    A pullback ``PB(λ∘g-side, f-side)`` of rules over ctx reads as a list
    of two judgements (the second in the context produced by the first);
    an equalizer reads as a membership judgement plus an equality
    judgement on the two compared rules.
    """
    entry = T.registry[key]
    term = entry.term
    if term is None or term.op not in ("PB", "EQ"):
        return [f"{key} ⊢ (generator)"]
    a, b = term.args
    if term.op == "PB":
        return [f"Γ ⊢ H {a}", f"{a}(H) ⊢ F {b}"]
    return [f"Γ ⊢ H {a}", f"Γ ⊢ {a}(H) = {b}(H)"]
