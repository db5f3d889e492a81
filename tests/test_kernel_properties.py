"""Properties of the category builders, the validators and the cleavages
derived from opposite classifiers."""

import pytest
from hypothesis import given, settings, strategies as st

from judgekit.core import (Composition, FunctorMap, category_from,
                           computed_category, identity_functor,
                           make_category, opposite, validate_category,
                           validate_functor)
from judgekit.fibrations import (compute_op_cleavage, coslice_classifier,
                                 slice_classifier)
from judgekit.finsets import fin_skeleton
from judgekit.limits import (bang_functor, power_category, product_category,
                             pullback_category, terminal_category,
                             walking_arrow_category)
from judgekit.ndt import (ChainDoctrine, PowersetDoctrine,
                          build_deduction_system, proposition_classifier)

from oracles import (naive_category_laws, naive_cocartesian_lifts,
                     naive_composition_preserved)

P1 = proposition_classifier(PowersetDoctrine(1))

# Outputs of the shared builder, one per construction family.
BUILT = {
    "skeleton": fin_skeleton(2),
    "power": power_category(walking_arrow_category(), 2)[0],
    "pullback": pullback_category(P1.proj, P1.proj)[0],
    "slice": slice_classifier(fin_skeleton(2), 2).total,
}


C21 = build_deduction_system(ChainDoctrine(2, 1))
TWO = walking_arrow_category()

# Categories that compose through their factors and keep no table.
COMPUTED = {
    "pullback": BUILT["pullback"],
    "pullback of pullbacks": pullback_category(C21.conj, C21.d)[0],
    "product": product_category(TWO, TWO)[0],
    "power": BUILT["power"],
}


def _with_table(c, compose):
    return make_category(c.name, c.objects, c.morphisms, c.src, c.tgt,
                         c.identity, compose)


@pytest.mark.parametrize("name", sorted(BUILT))
def test_built_categories_are_valid_and_so_are_their_opposites(name):
    c = BUILT[name]
    assert validate_category(c) == []
    op = opposite(c)
    assert validate_category(op) == []
    assert opposite(op).compose == c.compose


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(BUILT)), data=st.data())
def test_deleting_a_composite_is_flagged_missing(name, data):
    c = BUILT[name]
    keys = sorted(c.compose, key=repr)
    gone = data.draw(st.sampled_from(keys))
    broken = _with_table(c, {k: v for k, v in c.compose.items() if k != gone})
    g, f = gone
    assert f"{c.name}: composition missing for ({g!r}, {f!r})" \
        in validate_category(broken)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(BUILT)), data=st.data())
def test_an_entry_on_a_non_composable_pair_is_flagged(name, data):
    c = BUILT[name]
    mors = sorted(c.morphisms, key=repr)
    pairs = [(g, f) for g in mors for f in mors if c.tgt[f] != c.src[g]]
    g, f = data.draw(st.sampled_from(pairs))
    h = data.draw(st.sampled_from(mors))
    broken = _with_table(c, {**c.compose, (g, f): h})
    assert f"{c.name}: composition defined on non-composable pair " \
        f"({g!r}, {f!r})" in validate_category(broken)


@pytest.mark.parametrize("name", sorted(COMPUTED))
def test_computed_composition_is_the_table_it_replaces(name):
    c = COMPUTED[name]
    assert isinstance(c.compose, Composition)
    factors = c.compose.factors
    table = category_from(
        c.name, c.objects, c.morphisms, c.src, c.tgt, c.identity,
        lambda g, f: tuple(x.comp(*gf) for x, *gf in zip(factors, g, f))
    ).compose
    assert dict(c.compose.items()) == table
    pairs = {(g, f) for f in c.morphisms for g in c.morphisms
             if c.tgt[f] == c.src[g]}
    assert set(c.compose) == pairs
    assert len(c.compose) == len(pairs)
    assert all(gf in c.compose for gf in pairs)


@pytest.mark.parametrize("name", sorted(COMPUTED))
def test_computed_composition_refuses_what_a_table_lacks(name):
    c = COMPUTED[name]
    mors = sorted(c.morphisms, key=repr)
    g, f = next((g, f) for g in mors for f in mors if c.tgt[f] != c.src[g])
    for gf in ((g, f), (g, "alien"), ("alien", f)):
        assert gf not in c.compose
        with pytest.raises(KeyError):
            c.compose[gf]


@pytest.mark.parametrize("name", sorted(COMPUTED))
def test_a_wrong_computed_composition_is_flagged(name):
    c = COMPUTED[name]
    # Each factor becomes a literal table whose composite of (g, f) is g.
    wrong = computed_category(
        "wrong", c.objects, c.morphisms, c.src, c.tgt, c.identity,
        [_with_table(x, {(g, f): g for g, f in x.compose})
         for x in c.compose.factors])
    assert any(d.startswith("wrong: composite of (")
               and d.endswith(") has wrong endpoints")
               for d in validate_category(wrong))


# Wrong but well-formed tables: one composite, one image or one composite
# of a pullback's factor is replaced by another morphism with the same
# endpoints, so only the law sweeps can tell.  (The hom-sets of 𝔼 over
# PowersetDoctrine(1) hold one morphism each, so 𝔼 is taken over
# PowersetDoctrine(2).)
P2 = build_deduction_system(PowersetDoctrine(2))
LAWFUL = {
    "skeleton": fin_skeleton(3),
    "slice": BUILT["slice"],
    "sequents": P2.E.total,
}
ONE = terminal_category()
SQUARES = pullback_category(bang_functor(BUILT["skeleton"], ONE),
                            bang_functor(TWO, ONE))
FUNCTORS = {
    "table to table": slice_classifier(fin_skeleton(2), 2).proj,
    "pullback of pullbacks to pullback": pullback_category(
        SQUARES[1], identity_functor(BUILT["skeleton"]))[1],
    "out of a pullback": P2.conj,
    "into a pullback": FunctorMap(
        "Δ", P2.P.total, P2.pp, {o: (o, o) for o in P2.P.total.objects},
        {m: (m, m) for m in P2.P.total.morphisms}),
}


def _others(c, m):
    """The other morphisms of c with the endpoints of m."""
    return [n for n in c.hom(c.src[m], c.tgt[m]) if n != m]


def _wrong_composite(c, data):
    gf = data.draw(st.sampled_from(
        [k for k in sorted(c.compose, key=repr) if _others(c, c.compose[k])]))
    h = data.draw(st.sampled_from(_others(c, c.compose[gf])))
    return _with_table(c, {**c.compose, gf: h})


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(LAWFUL)), data=st.data())
def test_the_coded_category_laws_agree_with_the_identifier_sweep(name,
                                                                 data):
    broken = _wrong_composite(LAWFUL[name], data)
    assert sorted(validate_category(broken)) \
        == sorted(naive_category_laws(broken))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(FUNCTORS)), data=st.data())
def test_coded_composition_preservation_agrees_with_the_identifier_sweep(
        name, data):
    F = FUNCTORS[name]
    moved = data.draw(st.sampled_from(
        [m for m in sorted(F.dom.morphisms, key=repr)
         if not F.dom.is_identity(m) and _others(F.cod, F.mor_map[m])]))
    other = data.draw(st.sampled_from(_others(F.cod, F.mor_map[moved])))
    broken = FunctorMap(F.name, F.dom, F.cod, F.obj_map,
                        {**F.mor_map, moved: other})
    assert sorted(validate_functor(broken)) \
        == sorted(naive_composition_preserved(broken))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_pullback_over_a_wrong_factor_agrees_with_the_identifier_sweep(
        data):
    wrong = _wrong_composite(BUILT["skeleton"], data)
    pb = pullback_category(bang_functor(wrong, ONE), bang_functor(TWO, ONE))[0]
    assert sorted(validate_category(pb)) == sorted(naive_category_laws(pb))


OP_CASES = {
    "slice": lambda: slice_classifier(fin_skeleton(2), 2),
    "coslice": lambda: coslice_classifier(fin_skeleton(2), 0),
    "powerset": lambda: proposition_classifier(PowersetDoctrine(1)),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_cleavage_picks_cocartesian_lifts_and_reports_the_rest(name):
    cl = OP_CASES[name]()
    cleavage, bad = compute_op_cleavage(cl)
    lifts = naive_cocartesian_lifts(cl)
    for key, found in lifts.items():
        if found:
            assert cleavage[key] in found, key
        else:
            assert key not in cleavage, key
    holes = {f"{cl.name}ᵒᵖ: no cartesian lift of {sigma!r} at {E!r}"
             for (E, sigma), found in lifts.items() if not found}
    assert sorted(bad) == sorted(holes)
    assert set(cleavage) <= set(lifts)


def test_the_cases_cover_both_outcomes():
    """The slice is no opfibration; the coslice and the powerset are."""
    assert compute_op_cleavage(OP_CASES["slice"]())[1]
    assert not compute_op_cleavage(OP_CASES["coslice"]())[1]
    assert not compute_op_cleavage(OP_CASES["powerset"]())[1]
