import pytest

from judgekit.core import (FunctorMap, compose_functors, identity_functor,
                           same_functor, validate_functor)
from judgekit.fibrations import Classifier, is_cartesian
from judgekit.finsets import fin_skeleton, preimage
from judgekit.limits import (bang_functor, terminal_category,
                             walking_arrow_category)
from judgekit.theory import (PreJudgementalTheory, RegistryEntry,
                             check_axioms, close_equalizer, close_pullback,
                             eager_close, empty_classifier, expand_nested,
                             sharp_lift, validate_prejt)
from judgekit.toy import build_toy_theory, extension_oracle


def test_toy_theory_is_well_formed(toy):
    assert validate_prejt(toy.theory) == []
    assert check_axioms(toy.theory) == []


def test_empty_classifier_registered(toy):
    cl = empty_classifier(toy.theory)
    assert cl.total.objects == frozenset()
    assert "∅" in toy.theory.registry


def test_closure_is_memoized(toy):
    T = toy.theory
    a = close_pullback(T, toy.u, toy.u)
    b = close_pullback(T, toy.u, toy.u)
    assert a[0] is b[0]
    e1 = close_equalizer(T, toy.u, toy.ext)
    e2 = close_equalizer(T, toy.u, toy.ext)
    assert e1[0] is e2[0]


def test_pullback_of_rules_over_contexts(toy):
    T = toy.theory
    pb, p1, p2 = close_pullback(T, toy.u, toy.u)
    # Pairs of types over the same context.
    for (A, B) in pb.objects:
        assert toy.u.obj_map[A] == toy.u.obj_map[B]
    assert validate_functor(p1) == [] and validate_functor(p2) == []


def test_equalizer_of_u_and_ext(toy):
    T = toy.theory
    eq, incl = close_equalizer(T, toy.u, toy.ext)
    # u = ext exactly on the types that fill their context.
    for A in eq.objects:
        x, s = A
        assert len(s) == x


def test_sharp_lift_components_are_cartesian(toy):
    lift = toy.ext_lift
    assert lift.diagnostics == []
    R = toy.theory.judgements["v"]  # same total as the type fibration
    cl = toy.U
    for obj, m in lift.policy.components.items():
        assert is_cartesian(cl, m)


def test_sharp_lift_square_commutes(toy):
    lift = toy.ext_lift
    lam = identity_functor(toy.U.total)
    p2g, _ = lift.conclusion_projs
    p1f, _ = lift.premise_projs
    assert same_functor(compose_functors(p2g, lift.rule),
                        compose_functors(lam, p1f))


def test_sharp_lift_conclusion_reindexes(toy):
    # The lifted rule re-indexes the second component along ε.
    assert extension_oracle(toy) == []
    for (F, H) in toy.ext_lift.premise.objects:
        x, s = F
        _, h = H
        concl = toy.ext_lift.rule.obj_map[(F, H)]
        assert concl[1] == (len(s), preimage(toy.eps.components[F], h))


def test_sharp_lift_registered(toy):
    keys = [k for k in toy.theory.registry if k.startswith("SHARP")]
    assert keys


def test_expand_nested(toy):
    T = toy.theory
    close_pullback(T, toy.u, toy.u)
    lines = expand_nested(T, "PB(u,u)")
    assert len(lines) == 2
    eq_lines = expand_nested(T, "EQ(u,ext)")
    assert any("=" in ln for ln in eq_lines)
    assert expand_nested(T, "v") == ["v ⊢ (generator)"]


def test_eager_close_rounds():
    # A fresh tiny theory so closure sizes are predictable.
    toy2 = build_toy_theory()
    T = toy2.theory
    before = set(T.registry)
    new = eager_close(T, depth=1)
    assert new and set(new).isdisjoint(before)
    assert all(k.startswith(("PB(", "EQ(")) for k in new)
    # A second closure round over the enlarged rule pool adds more.
    again = eager_close(T, depth=1)
    assert set(again).isdisjoint(set(new))


def test_validate_prejt_rejects_rule_into_ctx_that_is_no_judgement():
    ctx = fin_skeleton(1)
    T = PreJudgementalTheory("bad", ctx)
    T.add_rule(identity_functor(ctx, name="sneak"))
    diags = validate_prejt(T)
    assert any("lands in ctx" in d for d in diags)


def test_memo_refuses_other_functors_of_the_same_name():
    one, two = terminal_category(), walking_arrow_category()
    T = PreJudgementalTheory("memo", one)
    f, g = bang_functor(two, one, name="f"), bang_functor(two, one, name="g")
    pb = close_pullback(T, f, f)[0]
    assert len(pb.objects) == 4
    eq = close_equalizer(T, f, g)[0]
    # An equal copy of a leg is the same functor, so it hits the memo.
    f_copy = bang_functor(walking_arrow_category(), one, name="f")
    assert close_pullback(T, f_copy, f_copy)[0] is pb
    assert close_equalizer(T, f_copy, g)[0] is eq
    # Other functors under the same names are refused, not served PB(f,f).
    f1, g1 = identity_functor(one, name="f"), identity_functor(one, name="g")
    with pytest.raises(ValueError, match=r"^PB\(f,f\) is registered"):
        close_pullback(T, f1, f1)
    with pytest.raises(ValueError, match=r"^EQ\(f,g\) is registered"):
        close_equalizer(T, f1, g1)


def test_sharp_lift_refuses_a_key_held_by_another_rule():
    toy = build_toy_theory()
    T, rule = toy.theory, toy.ext_lift.rule
    R = Classifier("𝕌/ℂ", toy.u)
    args = (T, identity_functor(toy.U.total), toy.u, toy.ext, toy.eps, R)
    # Lifting the same data again finds its own rule under the key.
    assert sharp_lift(*args).diagnostics == []
    assert T.registry[rule.name].value is rule
    # Another rule under the same key is refused, not kept silently.
    T.registry[rule.name] = RegistryEntry(
        "rule", FunctorMap(rule.name, rule.dom, rule.cod, rule.obj_map, {}))
    with pytest.raises(ValueError, match=r"^SHARP\(ε,𝕌/ℂ\) is registered"):
        sharp_lift(*args)


def test_eager_close_checks_the_legs_of_a_registered_key():
    one, two = terminal_category(), walking_arrow_category()
    T = PreJudgementalTheory("memo", one)
    close_pullback(T, *[bang_functor(two, one, name="f")] * 2)
    T.add_rule(identity_functor(one, name="f"))
    with pytest.raises(ValueError, match=r"^PB\(f,f\) is registered"):
        eager_close(T)
