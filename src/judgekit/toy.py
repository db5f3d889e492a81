"""A miniature type theory over the one-object context category.

Three judgements — the trivial one, "is a context" and "is a type" —
are related by the rules picking the empty context (``e``), taking the
context of a type (``u``) and extending a context by a type (``ext``).
The single policy ``ε : ext ⇒ u`` compares the two, and its lift along
the type fibration produces the familiar context-extension rule

    Γ ⊢ A Type
    ─────────────────── (ext)
    ext(A) ⊢ A ε_A Type

All of it is materialized over small finite sets: contexts are the
skeleton of sets of size ≤ 1 and a "type" over a context is a subset
of it; extension takes a subset to a set of its own size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FunctorMap, NatTrans, identity_functor
from .fibrations import Classifier
from .finsets import canonical_inclusion, fin_skeleton, induced_map, preimage
from .limits import bang_functor, terminal_category
from .ndt import PowersetDoctrine, proposition_classifier
from .theory import PreJudgementalTheory, SharpLiftResult, sharp_lift


@dataclass
class ToyTheory:
    theory: PreJudgementalTheory
    U: Classifier                  # types 𝕌 fibred over ℂ
    u: FunctorMap
    ext: FunctorMap
    eps: NatTrans
    ext_lift: SharpLiftResult


def build_toy_theory() -> ToyTheory:
    one = terminal_category()
    star = one.sorted_objects()[0]
    C = fin_skeleton(1, name="ℂ")
    doc = PowersetDoctrine(1)
    U = proposition_classifier(doc, name="𝕌")

    t = Classifier("t", identity_functor(one, name="t"))
    c = Classifier("c", bang_functor(C, one, "c"))
    v = Classifier("v", bang_functor(U.total, one, "v"))

    e = FunctorMap("e", one, C, {star: 0},
                   {one.identity[star]: C.identity[0]})
    u = FunctorMap("u", U.total, C, dict(U.proj.obj_map), dict(U.proj.mor_map))

    # Extension: a subset becomes a context of its own size, and a
    # morphism (𝕌, σ, ψ, φ) : (θ,ψ) → (γ,φ) the map |ψ| → |φ| that σ
    # induces.
    ext = FunctorMap("ext", U.total, C,
                     {(x, s): len(s) for (x, s) in U.total.objects},
                     {m: induced_map(m[1], m[2], m[3])
                      for m in U.total.morphisms})

    eps = NatTrans("ε", ext, u,
                   {(x, s): canonical_inclusion(x, s)
                    for (x, s) in U.total.objects})

    T = PreJudgementalTheory("toy", one)
    for j in (t, c, v):
        T.add_judgement(j)
    for r in (e, u, ext, identity_functor(C)):
        T.add_rule(r)
    T.add_policy(eps)

    # The type classifier again, now over contexts.
    R = Classifier("𝕌/ℂ", u)
    lift = sharp_lift(T, u, ext, eps, R)

    return ToyTheory(T, U, u, ext, eps, lift)


def extension_oracle(toy: ToyTheory) -> list:
    """Check the lifted rule against direct subset reasoning: the
    conclusion of (ext) at a pair (A, H) must live over ext(A) and its
    fiber part must be the ε-preimage of H."""
    bad = []
    for (F, H) in toy.ext_lift.premise.objects:
        x, s = F
        _, h = H
        concl = toy.ext_lift.rule.obj_map[(F, H)]
        want = (len(s), preimage(toy.eps.components[F], h))
        if concl != (F, want):
            bad.append(f"(ext) at ({F!r},{H!r}): got {concl!r}, want {(F, want)!r}")
    return bad
