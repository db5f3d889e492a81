"""Judgemental theories: a context category, classifiers over it, rules
between their total categories, and policies (natural transformations)
between rules — together with the finite-limit closure of that data.

The two workhorses are the closure registry (every derived category is
recorded under a canonical name, such as ``PB(f,g)``, so re-deriving is
free and names are stable) and ♯-lifting, which turns a policy between
two rules out of one category into a rule between pullback classifiers
by re-indexing along a fibration.
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


@dataclass
class RegistryEntry:
    kind: str          # "classifier" | "rule" | "policy" | "category"
    value: object
    extras: dict = field(default_factory=dict)  # e.g. projections of a PB


@dataclass
class PreJudgementalTheory:
    """Contexts, judgement classifiers, rules and policies, plus the
    closure registry of everything derived from them."""

    name: str
    ctx: FinCategory
    judgements: dict = field(default_factory=dict)  # name -> Classifier
    rules: dict = field(default_factory=dict)       # name -> FunctorMap
    policies: dict = field(default_factory=dict)    # name -> NatTrans
    registry: dict = field(default_factory=dict)    # canonical name -> RegistryEntry

    def add_judgement(self, cl: Classifier):
        self.judgements[cl.name] = cl
        self.registry[cl.name] = RegistryEntry("classifier", cl)
        return cl

    def add_rule(self, F: FunctorMap):
        self.rules[F.name] = F
        self.registry[F.name] = RegistryEntry("rule", F)
        return F

    def add_policy(self, t: NatTrans):
        self.policies[t.name] = t
        self.registry[t.name] = RegistryEntry("policy", t)
        return t

    def register(self, name: str, entry: RegistryEntry):
        if name not in self.registry:
            self.registry[name] = entry
        return self.registry[name]


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
    for t in T.policies.values():
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
                                  extras={"p1": p1, "p2": p2, "legs": (f, g)}))
    return cat, p1, p2


def close_equalizer(T: PreJudgementalTheory, f: FunctorMap, g: FunctorMap):
    key = f"EQ({f.name},{g.name})"
    if key in T.registry:
        e = _memo_hit(T, key, f, g)
        return e.value, e.extras["incl"]
    cat, incl = equalizer_category(f, g, name=key)
    T.register(key, RegistryEntry("category", cat,
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
    T.register(key, RegistryEntry("classifier", cl))
    return cl


@dataclass
class SharpLiftResult:
    """Outcome of ♯-lifting a policy g ⇒ f over 𝔽 along a fibration."""

    rule: FunctorMap          # premise → conclusion, (F, H) ↦ (F, H[pol_F])
    policy: NatTrans          # lifted policy, components are cartesian lifts
    premise: FinCategory
    premise_projs: tuple      # (to 𝔽, to ℍ)
    conclusion_projs: tuple   # (to 𝔽, to ℍ)
    diagnostics: list


def sharp_lift(T: PreJudgementalTheory, f: FunctorMap, g: FunctorMap,
               pol: NatTrans, R: Classifier) -> SharpLiftResult:
    """♯-lift a policy along a fibration.

    Data: two rules f, g : 𝔽 → 𝕏 with policy components
    ``pol_F : g(F) → f(F)``, plus a fibration ``R.proj : ℍ → 𝕏``.  The
    lifted rule sends a premise pair (F, H) of PB(f, R.proj) to the pair
    (F, H[pol_F]) of PB(g, R.proj), where H[pol_F] is the chosen
    cartesian lift; the lifted policy's component at (F, H) is that lift,
    so it is cartesian by construction.  Both that and the strict
    commuting of the square over 𝔽 are checked.

    The image of (φ, η) is (φ, h) with h over g(φ), so the rule lies over
    𝕏 through R.proj on its ℍ component and through g on φ: it records
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
            obj_map[(F, H)] = (F, total.src[m])
            lift_at[(F, H)] = m
        mor_map = {}
        for (phi, eta) in P1.morphisms:
            m, m2 = lift_at[P1.src[(phi, eta)]], lift_at[P1.tgt[(phi, eta)]]
            want_proj = g.mor_map[phi]
            hits = factorizations(R, m2, want_proj, total.comp(eta, m))
            if len(hits) != 1:
                bad.append(f"♯-lift of {pol.name}: {len(hits)} factorizations "
                           f"over {want_proj!r} at premise morphism "
                           f"({phi!r},{eta!r})")
                mor_map[(phi, eta)] = None
            else:
                mor_map[(phi, eta)] = (phi, hits[0])
        key = f"SHARP({pol.name},{R.name})"
        rule = FunctorMap(key, P1, P2, obj_map, mor_map,
                          over=(R.proj, (1,), (0,), g))
        if not bad:
            bad += validate_functor(rule)
        lifted = NatTrans(f"{pol.name}♯", compose_functors(p2h, rule), p1h,
                          {o: lift_at[o] for o in P1.objects})
        if not bad:
            bad += validate_nat_trans(lifted)
            if not same_functor(compose_functors(p2g, rule), p1f):
                bad.append(f"♯-lift of {pol.name}: square over {f.dom.name} "
                           f"does not commute strictly")
            cartesian = _cartesian(R)
            for o, m in lifted.components.items():
                if not cartesian(m):
                    bad.append(f"♯-lift of {pol.name}: component at {o!r} "
                               f"is not cartesian")
        if not bad and key in T.registry:
            _refuse_others(key, (T.registry[key].value,), (rule,))
        elif not bad:
            T.register(key, RegistryEntry("rule", rule))
    return SharpLiftResult(rule, lifted, P1, (p1f, p1h), (p2g, p2h), bad)


def check_axioms(T: PreJudgementalTheory) -> list:
    """The closure axioms of a judgemental theory, checked exhaustively
    after validating ctx:

    * ctx has a terminal object;
    * the empty classifier is available (and registered);
    * every judgement is a fibration, as ``verify_kind`` checks it.
    """
    bad = validate_category(T.ctx)
    if bad:
        return bad
    if not terminal_objects(T.ctx):
        bad.append(f"{T.name}: ctx has no terminal object")
    empty_classifier(T)
    for j in T.judgements.values():
        bad += verify_kind(j, expect="fibration")
    return bad
