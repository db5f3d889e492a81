"""Properties of the category builders, the validators, the cartesian
test and the cleavages of classifiers and of their opposites."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from judgekit import core, fibrations
from judgekit.core import (Composition, FunctorMap, ThinComposition, along,
                           category_from, identity_functor, make_category,
                           opposite, sort_key, validate_category,
                           validate_functor)
from judgekit.fibrations import (Classifier, cartesian_lift, compute_cleavage,
                                 factorizations, is_cartesian,
                                 is_cartesian_functor, is_thin, one_over,
                                 opposite_classifier, thin_classifier,
                                 verify_kind)
from judgekit.finset_topos import build_finset_topos, instantiate_constructor
from judgekit.finsets import fin_skeleton, preimage, subsets
from judgekit.limits import bang_functor, pullback_category, terminal_category
from judgekit.ndt import (ChainDoctrine, PowersetDoctrine,
                          build_deduction_system, derive_structural,
                          proposition_classifier)

from oracles import (Antitone, EmptyIdentity, coslice_classifier,
                     eager_verify_kind, lemmas_off,
                     naive_cartesian_lifts, naive_category_laws,
                     naive_cocartesian_lifts,
                     naive_composition_preserved, naive_factorizations,
                     naive_is_cartesian, naive_is_cocartesian,
                     product_category, slice_classifier, thin_table,
                     walking_arrow_category)

P1 = proposition_classifier(PowersetDoctrine(1))
TWO = walking_arrow_category()

# Outputs of the shared builder, one per construction family.  Products
# are pullbacks over the terminal category, and the power is the product
# (𝟚 × 𝟚) × 𝟚.
BUILT = {
    "skeleton": fin_skeleton(2),
    "power": product_category(product_category(TWO, TWO)[0], TWO)[0],
    "pullback": pullback_category(P1.proj, P1.proj)[0],
    "slice": slice_classifier(fin_skeleton(2), 2).total,
}


C21 = build_deduction_system(ChainDoctrine(2, 1))

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
    # The same legs on factors that are literal tables whose composite of
    # (g, f) is g.
    wrong = pullback_category(*[
        replace(leg, dom=_with_table(leg.dom,
                                     {gf: gf[0] for gf in leg.dom.compose}))
        for leg in c.compose.legs], name="wrong")[0]
    assert any(d.startswith("wrong: composite of (")
               and d.endswith(") has wrong endpoints")
               for d in validate_category(wrong))


def _over_a_broken_ctx():
    """The subsets over Fin(≤2), ordered by equality, over a copy of
    Fin(≤2) that lacks one composite of non-identities."""
    ctx = fin_skeleton(2)
    gone = next(gf for gf in sorted(ctx.compose, key=sort_key)
                if not (ctx.is_identity(gf[0]) or ctx.is_identity(gf[1])))
    broken = _with_table(ctx, {gf: h for gf, h in ctx.compose.items()
                               if gf != gone})
    return thin_classifier("T", broken, subsets, preimage,
                           lambda x, a, b: a == b)


F1, F2 = build_finset_topos(1), build_finset_topos(2)
# Every thin total is built by thin_classifier and composes through ctx.
THIN = {
    "powerset 1": P1,
    "powerset 1 sequents": build_deduction_system(PowersetDoctrine(1)).E,
    "powerset 2": proposition_classifier(PowersetDoctrine(2)),
    "powerset 2 sequents": build_deduction_system(PowersetDoctrine(2)).E,
    "chain 2 1": C21.P,
    "chain 2 1 sequents": C21.E,
    "u 1": F1.u, "u̇ 1": F1.udot, "u 2": F2.u, "u̇ 2": F2.udot,
    "antitone": proposition_classifier(Antitone(2)),
    "identity": proposition_classifier(EmptyIdentity(2)),
    "broken ctx": _over_a_broken_ctx(),
}


@pytest.mark.parametrize("name", sorted(THIN))
def test_thin_composition_is_the_table_it_replaces(name):
    """On every pair of morphisms, composable or not, the computed
    composition answers as the tabulated one does."""
    c = THIN[name].total
    assert isinstance(c.compose, ThinComposition)
    table = thin_table(THIN[name])
    assert dict(c.compose.items()) == table
    assert len(c.compose) == len(table)
    mors = sorted(c.morphisms, key=sort_key) + ["alien"]
    for g in mors:
        for f in mors:
            assert ((g, f) in c.compose) == ((g, f) in table)
            assert c.compose.get((g, f)) == table.get((g, f))


def _coded(c):
    """The table checks of c and its composites by identifier."""
    n = core._Codes(c)
    return n.errors, {(n.mors[i], n.mors[j]): n.mors[k]
                      for i, row in enumerate(n.rows) for j, k in row.items()}


def _mutations(c):
    """c itself, c without an identity and c without an endpoint."""
    o = min(c.objects, key=sort_key)
    m = max(c.morphisms, key=sort_key)
    identity = {x: i for x, i in c.identity.items() if x != o}
    src = {x: a for x, a in c.src.items() if x != m}
    yield c
    yield replace(c, identity=identity)
    yield replace(c, src=src, compose=ThinComposition(
        c.compose.name, c.compose.ctx, src, c.tgt))


@pytest.mark.parametrize("name", sorted(THIN))
def test_a_thin_total_is_numbered_as_its_table_is(name):
    """The numbering pass over a thin total, on codes, or on its entries
    when an identity or an endpoint is missing, gives the lines and the
    composites that it gives over a table copy."""
    for c in _mutations(THIN[name].total):
        with core.checking():
            assert _coded(c) == _coded(_with_table(c, dict(c.compose.items())))


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
@given(name=st.sampled_from(sorted(LAWFUL)), op=st.booleans(),
       data=st.data())
def test_the_coded_category_laws_agree_with_the_identifier_sweep(name, op,
                                                                 data):
    """Also on the opposite of the broken table, which reads it through
    a transposed view."""
    broken = _wrong_composite(LAWFUL[name], data)
    if op:
        broken = opposite(broken)
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


# The lemmas of judgekit.core against the sweeps.  The rules of a small
# deduction system record how they lie over ctx: ∧ and H along a factor of
# 𝔽 ×ctx 𝔽, W along the second factor of PB(q, 𝔽.p) and C two pullbacks
# deep, and d along the empty path, from its table domain 𝔼.  Over
# fin_skeleton(2) a hom-set of 𝔽 or 𝔼 holds morphisms over several base
# arrows, so an image can move to a parallel morphism.  λ of the Π
# constructor lies over ctx from 𝕌̇, and three rules into pullbacks read
# their base through a codomain path: the cut's ♯-lift SHARP(α,𝔼d)
# through 𝔼 (over chain 1 1 no hom-set has two morphisms, so chain 1 2 is
# used), ΠΛ through 𝕌, and Iddiag, from its table domain 𝕌̇, through 𝕌̇.
C12 = build_deduction_system(ChainDoctrine(1, 2))
C12_RULES = derive_structural(C12)
DTT2 = build_finset_topos(2)
PI2 = instantiate_constructor(DTT2, "pi")
OVER = {"∧": C12.conj, "H": C12_RULES.assumption, "W": C12_RULES.weakening,
        "C": C12_RULES.contraction, "SHARP(α,𝔼d)": C12_RULES.cut_lift.rule,
        "λ": PI2.Psi, "ΠΛ": PI2.Lambda, "d": C12.d,
        "Iddiag": instantiate_constructor(DTT2, "id").Lambda}


def _arrows(c):
    return [m for m in sorted(c.morphisms, key=repr) if not c.is_identity(m)]


def _base(F):
    """The base arrow of a morphism of F's codomain, p∘π_q."""
    p, q, _, _ = F.over
    return lambda n: p.mor_map[along(q, n)]


def _moved_image(F, data):
    """F with the image of a non-identity morphism m moved to a parallel
    morphism over another base arrow; returns (m, the new image, F')."""
    base, d, fm = _base(F), F.cod, F.mor_map
    m = data.draw(st.sampled_from(
        [m for m in _arrows(F.dom)
         if any(base(n) != base(fm[m]) for n in _others(d, fm[m]))]))
    n = data.draw(st.sampled_from(
        [n for n in _others(d, fm[m]) if base(n) != base(fm[m])]))
    return m, n, replace(F, mor_map={**fm, m: n})


def _duplicated_image(F, data):
    """F with a copy of the component n at q of one image added to the
    leaf of its codomain at q, parallel to n and over the same arrow,
    composing as n does: F sends one morphism to an image through the
    copy, and p∘π_q is no longer faithful.  A pullback codomain, read
    one step deep, is rebuilt on its leg extended to the copy."""
    p, q, path, h = F.over
    assert len(q) <= 1
    d = F.cod
    m = data.draw(st.sampled_from(_arrows(F.dom)))
    leaf = d.compose.factors[q[0]] if q else d
    n = along(q, F.mor_map[m])
    twin = ("twin", n)
    leaf2, p2 = _with_twin(leaf, p, n)
    if not q:
        return replace(F, cod=leaf2, mor_map={**F.mor_map, m: twin},
                       over=(p2, q, path, h))
    legs = list(d.compose.legs)
    legs[q[0]] = replace(legs[q[0]], dom=leaf2, mor_map={
        **legs[q[0]].mor_map, twin: legs[q[0]].mor_map[n]})
    d2 = pullback_category(*legs, name=d.name)[0]
    image = list(F.mor_map[m])
    image[q[0]] = twin
    return replace(F, cod=d2, mor_map={**F.mor_map, m: tuple(image)},
                   over=(p2, q, path, h))


def _hit_composite(F, data, keep):
    """A composable pair (F g, F f) of F's codomain, and a morphism that
    differs from its composite k and satisfies ``keep(k, morphism)``."""
    d = F.cod

    def others(k):
        return [n for n in _arrows(d) if n != k and keep(k, n)]

    pairs = [gf for gf in sorted({(F.mor_map[g], F.mor_map[f])
                                  for g, f in F.dom.compose}, key=repr)
             if others(d.compose[gf])]
    # In 𝕌̇ a morphism is fixed by its base arrow, so no composite there
    # can be misplaced.
    assume(pairs)
    gf = data.draw(st.sampled_from(pairs))
    return gf, data.draw(st.sampled_from(others(d.compose[gf])))


def _with_composite(F, gf, k):
    """F into a table copy of its codomain with the composite at gf
    replaced by k.  A pullback codomain becomes a table, so its path q
    leads nowhere."""
    p, q, path, h = F.over
    d2 = _with_table(F.cod, {**F.cod.compose, gf: k})
    return replace(F, cod=d2,
                   over=(p if q else replace(p, dom=d2), q, path, h))


def _broken_codomain(F, data):
    """F into its codomain with the composite of two of its images
    replaced by a parallel morphism."""
    d = F.cod
    return _with_composite(F, *_hit_composite(
        F, data, lambda k, n: (d.src[n], d.tgt[n]) == (d.src[k], d.tgt[k])))


def _misplaced_codomain(F, data):
    """F into its codomain with the composite of two of its images
    replaced by a morphism over the same base arrow between other objects,
    so that p stays a functor."""
    base = _base(F)
    return _with_composite(F, *_hit_composite(
        F, data, lambda k, n: base(n) == base(k)))


def _p_not_a_functor(F, data):
    """A moved image, with p changed to agree on it: p then sends two
    parallel morphisms to one arrow and is no functor."""
    p, q, path, h = F.over
    m, n, F2 = _moved_image(F, data)
    p2 = replace(p, mor_map={**p.mor_map,
                             along(q, n): _base(F)(F.mor_map[m])})
    return replace(F2, over=(p2, q, path, h))


def _h_not_a_functor(F, data):
    """h moved on one arrow x of its domain to a parallel base arrow σ′,
    and the image of every morphism whose component is x moved to the
    parallel morphism over σ′, so that p∘π_q∘F = h∘π still holds.  (Over
    a chain doctrine, restriction is the identity, and over the finite
    sets model 𝕌̇ has a morphism over every arrow, so that morphism
    exists.)"""
    p, q, path, h = F.over
    base, d = _base(F), F.cod
    x = data.draw(st.sampled_from(
        [x for x in _arrows(h.dom) if _others(h.cod, h.mor_map[x])]))
    arrow = data.draw(st.sampled_from(_others(h.cod, h.mor_map[x])))
    moved = {m: [n for n in d.hom(d.src[F.mor_map[m]], d.tgt[F.mor_map[m]])
                 if base(n) == arrow]
             for m in F.dom.morphisms if along(path, m) == x}
    assume(all(moved.values()))
    return replace(F, mor_map={**F.mor_map,
                               **{m: ns[0] for m, ns in moved.items()}},
                   over=(p, q, path, replace(h, mor_map={**h.mor_map,
                                                         x: arrow})))


MUTATIONS = {"moved image": lambda F, data: _moved_image(F, data)[2],
             "not faithful": _duplicated_image,
             "broken composite": _broken_codomain,
             "misplaced composite": _misplaced_codomain,
             "p no functor": _p_not_a_functor,
             "h no functor": _h_not_a_functor}


@pytest.mark.parametrize("name", sorted(OVER))
def test_the_functor_lemma_decides_without_sweeping_the_domain(name,
                                                               monkeypatch):
    F = OVER[name]
    assert F.over is not None
    numbered = []
    real = core._codes
    with core.checking():
        # Two premises of the lemma number a table domain: its soundness,
        # checked in the pass that numbers it, and, along the empty path,
        # that h, whose domain it is, is a functor.  A request checks
        # each once; the lemma numbers nothing more.
        core._sound(F.dom)
        validate_functor(F.over[3])
        monkeypatch.setattr(core, "_codes",
                            lambda c: numbered.append(c) or real(c))
        assert validate_functor(F) == []
        assert not any(c is F.dom for c in numbered)
        assert validate_functor(replace(F, over=None)) == []
        assert any(c is F.dom for c in numbered)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(OVER)),
       mutation=st.sampled_from(sorted(MUTATIONS)), data=st.data())
def test_the_functor_lemma_agrees_with_the_sweep(name, mutation, data):
    F = MUTATIONS[mutation](OVER[name], data)
    found = validate_functor(F)
    assert found == validate_functor(replace(F, over=None))
    assert sorted(found) == sorted(naive_composition_preserved(F))


def _twin_morphism(c, proj, data):
    return _with_twin(c, proj, data.draw(st.sampled_from(_arrows(c))))


def _with_twin(c, proj, n):
    """c with a copy of the morphism n, composing as it does, and proj
    extended to send the copy where it sends n: proj is not faithful."""
    twin = ("twin", n)
    c2 = category_from(c.name, c.objects, [*c.morphisms, twin],
                       {**c.src, twin: c.src[n]}, {**c.tgt, twin: c.tgt[n]},
                       c.identity,
                       lambda g, f: c.comp(n if g == twin else g,
                                           n if f == twin else f))
    return c2, replace(proj, dom=c2, mor_map={**proj.mor_map,
                                              twin: proj.mor_map[n]})


def _moved_projection(c, proj, data):
    m = data.draw(st.sampled_from(
        [m for m in _arrows(c) if _others(proj.cod, proj.mor_map[m])]))
    n = data.draw(st.sampled_from(_others(proj.cod, proj.mor_map[m])))
    return c, replace(proj, mor_map={**proj.mor_map, m: n})


def _broken_total(c, proj, data):
    c2 = _wrong_composite(c, data)
    return c2, replace(proj, dom=c2)


CATEGORY_MUTATIONS = {"none": lambda c, proj, data: (c, proj),
                      "not faithful": _twin_morphism,
                      "moved projection": _moved_projection,
                      "broken composite": _broken_total}


@settings(max_examples=40, deadline=None)
@given(cl=st.sampled_from(["𝔽", "𝔼"]),
       mutation=st.sampled_from(sorted(CATEGORY_MUTATIONS)), data=st.data())
def test_the_category_lemma_agrees_with_the_sweep(cl, mutation, data):
    j = C12.theory.judgements[cl]
    c, proj = CATEGORY_MUTATIONS[mutation](j.total, j.proj, data)
    found = validate_category(c, proj)
    assert found == validate_category(c)
    assert sorted(found) == sorted(naive_category_laws(c))


OP_CASES = {
    "slice": lambda: slice_classifier(fin_skeleton(2), 2),
    "coslice": lambda: coslice_classifier(fin_skeleton(2), 0),
    "powerset": lambda: proposition_classifier(PowersetDoctrine(1)),
}


@pytest.mark.parametrize("name", [*sorted(OP_CASES), "not a functor"])
def test_op_cleavage_picks_cocartesian_lifts_and_reports_the_rest(name):
    cl = {**OP_CASES, "not a functor": _moved_powerset}[name]()
    cleavage, bad = compute_cleavage(opposite_classifier(cl))
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
    def op_holes(name):
        return compute_cleavage(opposite_classifier(OP_CASES[name]()))[1]
    assert op_holes("slice")
    assert not op_holes("coslice")
    assert not op_holes("powerset")


def _moved(cl, m, image):
    """cl with the projection of m replaced by ``image``: no functor."""
    proj = FunctorMap(f"{cl.proj.name}'", cl.total, cl.base, cl.proj.obj_map,
                      {**cl.proj.mor_map, m: image})
    return Classifier(f"{cl.name}'", proj)


def _moved_powerset():
    cl = OP_CASES["powerset"]()
    m = min((m for m in cl.total.morphisms if not cl.total.is_identity(m)),
            key=sort_key)
    return _moved(cl, m, min((g for g in cl.base.morphisms
                              if g != cl.proj.mor_map[m]), key=sort_key))


def _doubled():
    """fin_skeleton(1) × (a ≅ b) projected onto fin_skeleton(1): each
    arrow has two cartesian lifts at each object, so the choice between
    them shows."""
    ab = {(x, y): f"{x}{y}" for x in "ab" for y in "ab"}
    iso = make_category("a≅b", "ab", ab.values(),
                        {m: x for (x, _), m in ab.items()},
                        {m: y for (_, y), m in ab.items()},
                        {x: ab[x, x] for x in "ab"},
                        {(ab[y, z], ab[x, y]): ab[x, z]
                         for x in "ab" for y in "ab" for z in "ab"})
    ctx = fin_skeleton(1)
    _, p1, _ = product_category(ctx, iso)
    return Classifier("doubled", p1)


def _twinned_powerset():
    """The powerset fibration with a twin of its least arrow: its
    projection is a functor but not faithful."""
    cl = OP_CASES["powerset"]()
    _, proj = _with_twin(cl.total, cl.proj, min(_arrows(cl.total),
                                                key=sort_key))
    return Classifier("twinned", proj)


CARTESIAN_CASES = {**OP_CASES, "dtt u": lambda: DTT2.u,
                   "dtt udot": lambda: DTT2.udot,
                   "not a functor": _moved_powerset, "doubled": _doubled,
                   "not faithful": _twinned_powerset}


def _agrees_with_the_naive_cartesian_test(cl):
    for m in cl.total.morphisms:
        assert is_cartesian(cl, m) == naive_is_cartesian(cl, m), m
    cleavage, bad = compute_cleavage(cl)
    lifts = naive_cartesian_lifts(cl)
    holes = {}
    for (F, sigma), found in lifts.items():
        if cl.base.is_identity(sigma):
            assert cleavage[(F, sigma)] == cl.total.identity[F]
        elif found:
            assert cleavage[(F, sigma)] == min(found, key=sort_key)
        else:
            holes[(F, sigma)] = \
                f"{cl.name}: no cartesian lift of {sigma!r} at {F!r}"
    assert sorted(bad) == sorted(holes.values())
    assert set(cleavage) == set(lifts) - set(holes)


@pytest.mark.parametrize("name", sorted(CARTESIAN_CASES))
def test_cartesian_test_and_cleavage_agree_with_the_naive_test(name):
    _agrees_with_the_naive_cartesian_test(CARTESIAN_CASES[name]())


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(OP_CASES)), data=st.data())
def test_cartesian_test_agrees_with_the_naive_test_off_a_functor(name, data):
    cl = OP_CASES[name]()
    m = data.draw(st.sampled_from(sorted(cl.total.morphisms, key=repr)))
    image = data.draw(st.sampled_from(sorted(
        (g for g in cl.base.morphisms if g != cl.proj.mor_map[m]), key=repr)))
    _agrees_with_the_naive_cartesian_test(_moved(cl, m, image))


def test_the_cartesian_cases_cover_both_outcomes():
    """The powerset fibration has morphisms that are not cartesian, the
    moved projection, which is no functor, has holes in its cleavage, and
    every morphism of the doubled case is cartesian."""
    P = CARTESIAN_CASES["powerset"]()
    assert not all(is_cartesian(P, m) for m in P.total.morphisms)
    moved = CARTESIAN_CASES["not a functor"]()
    assert validate_functor(moved.proj)
    assert compute_cleavage(moved)[1]
    twinned = CARTESIAN_CASES["not faithful"]()
    assert validate_functor(twinned.proj) == []
    assert is_thin(twinned)
    doubled = CARTESIAN_CASES["doubled"]()
    assert all(is_cartesian(doubled, m) for m in doubled.total.morphisms)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CARTESIAN_CASES)), data=st.data())
def test_factorizations_agree_with_the_naive_search(name, data):
    cl = CARTESIAN_CASES[name]()
    total, base, pobj = cl.total, cl.base, cl.proj.obj_map
    m = data.draw(st.sampled_from(sorted(total.morphisms, key=repr)))
    m2 = data.draw(st.sampled_from(sorted(total.into(total.tgt[m]), key=repr)))
    g = data.draw(st.sampled_from(sorted(
        base.out_of(pobj[total.src[m2]]), key=repr)))
    assert factorizations(cl, m, g, m2) == naive_factorizations(cl, m, g, m2)


def test_a_cleavage_with_holes_gives_the_same_answer_again():
    """Asking again about a classifier whose cleavage has a hole gives
    the same answer, in a new check context each time."""
    cl = CARTESIAN_CASES["not a functor"]()
    F = identity_functor(cl.total)
    holes = is_cartesian_functor(F, cl, cl)
    assert holes and is_cartesian_functor(F, cl, cl) == holes
    obj, sigma = next(key for key, found in naive_cartesian_lifts(cl).items()
                      if not found)
    for _ in range(2):
        with pytest.raises(ValueError, match="no cartesian lift"):
            cartesian_lift(cl, obj, sigma)


# The discrete-fibration lemma against the naive test and the count.  The
# slice, the coslice and the typing fibrations of dtt are discrete, so
# the lemma decides them, and so are the opposites of the coslice and of
# 𝕌̇, which read the other premises from their originals.  A second
# morphism over some σ, or a composite dropped from the table, breaks a
# premise: the lemma must decline, and the count it falls back to must
# agree with the naive test too.
DISCRETE_CASES = {"classifier": {"coslice", "dtt u", "dtt udot", "slice"},
                  "opposite": {"coslice", "dtt udot"}}


def _dropped_composite(c, proj, data):
    gone = data.draw(st.sampled_from(sorted(c.compose, key=repr)))
    c2 = _with_table(c, {gf: h for gf, h in c.compose.items() if gf != gone})
    return c2, replace(proj, dom=c2)


DECLINING = {"second lift": _twin_morphism,
             "dropped composite": _dropped_composite}


def test_one_over_raises_unless_exactly_one_morphism_lies_over_the_arrow():
    """The "not faithful" case has two morphisms over one arrow between
    the same objects; elsewhere some pair of objects has none over an
    arrow between their images."""
    cl = CARTESIAN_CASES["not faithful"]()
    total, pmor = cl.total, cl.proj.mor_map
    over = one_over(cl)

    def hits(E, F, sigma):
        return [m for m in total.hom(E, F) if pmor[m] == sigma]
    triples = [(E, F, sigma) for E in total.sorted_objects()
               for F in total.sorted_objects()
               for sigma in cl.base.hom(cl.proj.obj_map[E],
                                        cl.proj.obj_map[F])]
    for n in (0, 2):
        E, F, sigma = next(t for t in triples if len(hits(*t)) == n)
        with pytest.raises(ValueError) as raised:
            over(E, F, sigma)
        assert str(raised.value) == \
            f"twinned: {n} morphisms {E!r} → {F!r} over {sigma!r}"
    E, F, sigma = next(t for t in triples if len(hits(*t)) == 1)
    assert over(E, F, sigma) == hits(E, F, sigma)[0]


def _counted_cleavage(cl):
    """``compute_cleavage`` of cl with the lemmas off, so that every lift
    is found by counting factorizations."""
    with lemmas_off():
        return compute_cleavage(cl)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CARTESIAN_CASES)),
       side=st.sampled_from(sorted(DISCRETE_CASES)),
       mutation=st.sampled_from(["none", *sorted(DECLINING)]), data=st.data())
def test_the_discrete_fibration_lemma_agrees_with_the_count(name, side,
                                                            mutation, data):
    cl = CARTESIAN_CASES[name]()
    if mutation != "none":
        _, proj = DECLINING[mutation](cl.total, cl.proj, data)
        cl = Classifier(cl.name, proj)
    arrows = sorted(cl.total.morphisms, key=repr)
    with core.checking():
        asked = cl if side == "classifier" else opposite_classifier(cl)
        decided = fibrations._by_lemma(asked)
        verdicts = [is_cartesian(asked, m) for m in arrows]
        cleavage, bad = compute_cleavage(asked)
    assert decided == (mutation == "none" and name in DISCRETE_CASES[side])
    naive = naive_is_cartesian if side == "classifier" \
        else naive_is_cocartesian
    assert verdicts == [naive(cl, m) for m in arrows]
    counted, counted_bad = _counted_cleavage(asked)
    assert list(cleavage.items()) == list(counted.items())
    assert bad == counted_bad


# The cartesian test against the naive test on mutated tables.  A
# misplaced composite m∘h is replaced by a morphism over the same base
# arrow between other objects, so the projection stays a faithful functor
# and only the comparison of composites can tell.
MUTATED_CASES = {"𝔽": C12.theory.judgements["𝔽"],
                 "𝔼": C12.theory.judgements["𝔼"], "dtt u": DTT2.u}


def _misplaced_composite(c, proj, data):
    p = proj.mor_map

    def others(k):
        return [n for n in _arrows(c) if p[n] == p[k]
                and (c.src[n], c.tgt[n]) != (c.src[k], c.tgt[k])]

    gf = data.draw(st.sampled_from(
        [gf for gf in sorted(c.compose, key=repr) if others(c.compose[gf])]))
    c2 = _with_table(c, {**c.compose,
                         gf: data.draw(st.sampled_from(others(c.compose[gf])))})
    return c2, replace(proj, dom=c2)


TOTAL_MUTATIONS = {"none": lambda c, proj, data: (c, proj),
                   "not faithful": _twin_morphism,
                   "moved projection": _moved_projection,
                   "misplaced composite": _misplaced_composite}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(MUTATED_CASES)),
       mutation=st.sampled_from(sorted(TOTAL_MUTATIONS)), data=st.data())
def test_the_cartesian_test_agrees_with_the_naive_test_on_mutated_totals(
        name, mutation, data):
    """Over the classifier and over its opposite, whose count reads the
    classifier's numbering transposed, against the naive cocartesian
    test."""
    cl = MUTATED_CASES[name]
    total, proj = TOTAL_MUTATIONS[mutation](cl.total, cl.proj, data)
    cl = Classifier(cl.name, proj)
    arrows = sorted(total.morphisms, key=repr)
    for m in arrows:
        assert is_cartesian(cl, m) == naive_is_cartesian(cl, m), m
    with core.checking():
        op = opposite_classifier(cl)
        assert [is_cartesian(op, m) for m in arrows] \
            == [naive_is_cocartesian(cl, m) for m in arrows]


@pytest.mark.parametrize("name", ["𝔽", "dtt u"])
def test_faithful_projections_are_decided_without_counting(name,
                                                           monkeypatch):
    """Over a validated faithful projection, and over its opposite, every
    index entry the cartesian test reads holds at most one morphism, so
    each required pair is decided by one composite lookup, not a count
    over candidates; only ``validate_functor(cl.proj)`` sweeps, the
    opposite is not swept.  dtt u is a discrete fibration, so the
    discrete-fibration lemma decides it and no index of it is built; only
    its opposite, which is not discrete, is counted."""
    cl = MUTATED_CASES[name]
    indexes, swept = [], []
    real_coded, real_sweep = fibrations._Coded, core._composition_sweep
    monkeypatch.setattr(fibrations, "_Coded",
                        lambda c: indexes.append((c.total, real_coded(c)))
                        or indexes[-1][1])
    monkeypatch.setattr(core, "_composition_sweep",
                        lambda F: swept.append(F) or real_sweep(F))
    with core.checking():
        assert validate_functor(cl.proj) == []
        assert compute_cleavage(cl)[1] == []
        assert [is_cartesian(cl, m) for m in _arrows(cl.total)] \
            == [naive_is_cartesian(cl, m) for m in _arrows(cl.total)]
        compute_cleavage(opposite_classifier(cl))
    if name == "dtt u":
        assert not [c for c, _ in indexes if c is cl.total]
        assert len(indexes) == 1
    else:
        assert len(indexes) == 2
    assert all(len(over) <= 1 for _, coded in indexes
               for into in coded.index
               for by in into.values() for over in by.values())
    assert swept == [cl.proj]


def test_counting_the_opposite_numbers_no_transposed_category(monkeypatch):
    """𝔽ᵒᵖ is not discrete, so its cleavage is counted, on the numbering
    of 𝔽 read transposed: no category with a transposed composition is
    numbered, and the lifts are the naive cocartesian ones."""
    cl = MUTATED_CASES["𝔽"]
    numbered, coded = [], []
    real_codes, real_coded = core._Codes, fibrations._Coded
    monkeypatch.setattr(core, "_Codes",
                        lambda c: numbered.append(c) or real_codes(c))
    monkeypatch.setattr(fibrations, "_Coded",
                        lambda c: coded.append(c) or real_coded(c))
    with core.checking():
        op = opposite_classifier(cl)
        cleavage, bad = compute_cleavage(op)
    assert coded == [op] and numbered
    assert not [c for c in numbered if isinstance(c.compose, core._Transposed)]
    lifts = naive_cocartesian_lifts(cl)
    assert bad == [] and set(cleavage) == set(lifts)
    assert all(cleavage[key] == min(found, key=sort_key)
               for key, found in lifts.items() if not cl.base.is_identity(key[1]))


# ``verify_kind`` decides only the kinds it is asked about, and classifies
# fully only when one is missing; its lines are those of the eager
# classification for every expectation, on every classifier and its
# opposite, with and without a mutation that declines the lemma.
EXPECTS = [None, "fibration", "opfibration", "discrete", "thin",
           "fibration+opfibration+discrete", "fibration+thin", "cartesian"]


def _kind_lines(verify, cl, side):
    lines = []
    for expect in EXPECTS:
        with core.checking():
            asked = cl if side == "classifier" else opposite_classifier(cl)
            lines.append(verify(asked, expect))
    return lines


@pytest.mark.parametrize("side", sorted(DISCRETE_CASES))
@pytest.mark.parametrize("name", sorted(CARTESIAN_CASES))
def test_kinds_on_demand_agree_with_the_eager_classification(name, side):
    cl = CARTESIAN_CASES[name]()
    assert _kind_lines(verify_kind, cl, side) \
        == _kind_lines(eager_verify_kind, cl, side)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(CARTESIAN_CASES)),
       side=st.sampled_from(sorted(DISCRETE_CASES)),
       mutation=st.sampled_from(sorted(DECLINING)), data=st.data())
def test_kinds_on_demand_agree_with_the_eager_classification_when_mutated(
        name, side, mutation, data):
    cl = CARTESIAN_CASES[name]()
    _, proj = DECLINING[mutation](cl.total, cl.proj, data)
    cl = Classifier(cl.name, proj)
    assert _kind_lines(verify_kind, cl, side) \
        == _kind_lines(eager_verify_kind, cl, side)


def test_the_opposite_of_a_discrete_fibration_is_neither_swept_nor_numbered(
        monkeypatch):
    """𝕌̇ and its opposite are both discrete, so ``verify_kind`` decides
    both cleavages by the discrete-fibration lemma.  The opposite reads
    the functoriality of u̇ and the soundness of 𝕌̇ from the original:
    u̇ᵒᵖ is not swept, 𝕌̇ᵒᵖ is not numbered and no index is built."""
    cl = DTT2.udot
    indexes, swept, numbered = [], [], []
    real_index, real_sweep = fibrations._index, core._composition_sweep
    real_codes, real_coded = core._Codes, fibrations._Coded
    monkeypatch.setattr(fibrations, "_index",
                        lambda c, pmor: indexes.append(c) or real_index(c, pmor))
    monkeypatch.setattr(fibrations, "_Coded",
                        lambda cl: indexes.append(cl) or real_coded(cl))
    monkeypatch.setattr(core, "_composition_sweep",
                        lambda F: swept.append(F) or real_sweep(F))
    monkeypatch.setattr(core, "_Codes",
                        lambda c: numbered.append(c) or real_codes(c))
    with core.checking():
        assert verify_kind(cl, "fibration+opfibration+discrete") == []
    assert swept == [cl.proj]
    assert numbered and not [c for c in numbered
                             if isinstance(c.compose, core._Transposed)]
    assert indexes == []
