from dataclasses import fields

import pytest

from judgekit.core import (FunctorMap, check_category_iso, identity_functor,
                           validate_category, validate_functor)
from judgekit.fibrations import (Classifier, cartesian_lift,
                                 compute_cleavage, is_cartesian,
                                 is_cartesian_functor, is_discrete, is_thin,
                                 verify_kind)
from judgekit.finset_topos import build_finset_topos
from judgekit.finsets import fin_skeleton, preimage, subset_leq, subsets
from judgekit.limits import terminal_category
from judgekit.ndt import (ChainDoctrine, PowersetDoctrine, SequentDoctrine,
                          proposition_classifier)

from oracles import (Antitone, EmptyIdentity, coslice_classifier,
                     fiber_category, grothendieck_classifier,
                     slice_classifier, walking_arrow_category)


def powerset_classifier(n=2):
    return proposition_classifier(PowersetDoctrine(n))


def test_grothendieck_total_is_a_category():
    cl = powerset_classifier(2)
    assert validate_category(cl.total) == []
    assert validate_functor(cl.proj) == []
    # One object per (context, subset) pair.
    assert len(cl.total.objects) == sum(2 ** x for x in range(3))


def test_fiber_categories_are_the_subset_posets():
    cl = powerset_classifier(2)
    for x in range(3):
        fib = fiber_category(cl, x)
        assert validate_category(fib) == []
        assert len(fib.objects) == 2 ** x
        for m in fib.morphisms:
            a, b = fib.src[m], fib.tgt[m]
            assert subset_leq(a[1], b[1])


def test_split_cleavage_is_cartesian_and_deterministic():
    cl = powerset_classifier(2)
    cleavage, bad = compute_cleavage(cl)
    assert bad == []
    for ((obj, sigma), lift) in cleavage.items():
        assert is_cartesian(cl, lift)
        assert cl.proj.mor_map[lift] == sigma
        # Identity arrows lift to identities.
        if cl.base.is_identity(sigma):
            assert lift == cl.total.identity[obj]
    assert compute_cleavage(powerset_classifier(2)) == (cleavage, [])


def test_cartesian_lift_restricts_by_preimage():
    cl = powerset_classifier(2)
    base = cl.base
    for obj in cl.total.sorted_objects():
        x, s = obj
        for sigma in base.into(x):
            src = cl.total.src[cartesian_lift(cl, obj, sigma)]
            assert src == (base.src[sigma], preimage(sigma, s))


def test_verify_kind_classifies():
    cl = powerset_classifier(1)
    assert verify_kind(cl, expect="fibration") == []
    # The subset fibration over ≥1 contexts is not discrete: fibers have
    # non-identity inclusion arrows.
    assert is_discrete(cl)
    assert is_thin(cl) == []          # at most one arrow per (pair, base)


def test_a_classifier_is_its_projection():
    """Its total and base are read from its projection, so a classifier
    whose total or base disagrees with it cannot be built."""
    proj = powerset_classifier(1).proj
    cl = Classifier("P", proj)
    assert [f.name for f in fields(Classifier)] == ["name", "proj"]
    assert cl.total is proj.dom and cl.base is proj.cod


def test_verify_kind_rejects_wrong_expectation():
    one = terminal_category()
    two = walking_arrow_category()
    bang = FunctorMap("!", two, one, {0: "•", 1: "•"},
                      {m: ("id", "•") for m in two.morphisms})
    cl = Classifier("arrow", bang)
    assert verify_kind(cl, expect="discrete")   # two is no discrete fibration


@pytest.mark.parametrize("doctrine, diagnostic", [
    (Antitone, "mentions unknown morphisms"),
    (EmptyIdentity, "has no identity morphism"),
], ids=["antitone", "identity"])
def test_a_broken_doctrine_has_no_valid_total(doctrine, diagnostic):
    """The total of a doctrine whose restriction is not monotone, or not
    the identity along an identity, is rejected by ``validate_category``."""
    P = proposition_classifier(doctrine(2))
    bad = validate_category(P.total, P.proj)
    assert bad and diagnostic in bad[0]


class FinsetJudgement:
    """The doctrine of 𝕌 (``whole`` false) or 𝕌̇ (``whole`` true) of
    ``build_finset_topos(n)``: over x the subsets of x, or x alone,
    restricted by preimage and ordered by equality."""

    def __init__(self, n, whole):
        self.n, self.whole = n, whole
        self.ctx = fin_skeleton(n)

    def formulas(self, x):
        return [tuple(range(x))] if self.whole else subsets(x)

    def leq(self, x, a, b):
        return a == b

    def restrict(self, sigma, a):
        return preimage(sigma, a)

    def classifier(self):
        J = build_finset_topos(self.n)
        return J.udot if self.whole else J.u


GROTHENDIECK_CASES = {
    "powerset 1": PowersetDoctrine(1), "powerset 2": PowersetDoctrine(2),
    "chain 2 1": ChainDoctrine(2, 1),
    "sequents powerset 1": SequentDoctrine(PowersetDoctrine(1)),
    "sequents powerset 2": SequentDoctrine(PowersetDoctrine(2)),
    "sequents chain 2 1": SequentDoctrine(ChainDoctrine(2, 1)),
    "extend(1) powerset 1": PowersetDoctrine(1).extend(1),
    "extend(1) powerset 2": PowersetDoctrine(2).extend(1),
    "types of dtt-finset 1": FinsetJudgement(1, False),
    "types of dtt-finset 2": FinsetJudgement(2, False),
    "terms of dtt-finset 1": FinsetJudgement(1, True),
    "terms of dtt-finset 2": FinsetJudgement(2, True),
}


@pytest.mark.parametrize("name", GROTHENDIECK_CASES)
def test_thin_classifier_is_the_grothendieck_construction(name):
    """``proposition_classifier``, and u and u̇ of ``build_finset_topos``,
    are isomorphic to the Grothendieck construction of the doctrine's
    indexed posets, through (σ, b, a) ↦ (σ, a, b ≤ σ*a), and the computed
    cleavage is the split one: lifts in a fibration of posets are
    unique."""
    doc = GROTHENDIECK_CASES[name]
    if isinstance(doc, FinsetJudgement):
        P = doc.classifier()
    else:
        P = proposition_classifier(doc)
    ref, split = grothendieck_classifier(doc)
    ctx = doc.ctx
    assert validate_category(ref.total) == []
    to_ref = FunctorMap("iso", P.total, ref.total,
                        {o: o for o in P.total.objects},
                        {m: (m[1], m[3], ("≤", ctx.src[m[1]], m[2],
                                          doc.restrict(m[1], m[3])))
                         for m in P.total.morphisms})
    assert check_category_iso(to_ref)[0] == []
    cleavage, bad = compute_cleavage(P)
    assert bad == []
    assert {key: to_ref.mor_map[m] for key, m in cleavage.items()} == split


def test_slice_and_coslice():
    ctx = fin_skeleton(1)
    sl = slice_classifier(ctx, 1)
    assert validate_category(sl.total) == []
    assert verify_kind(sl, expect="fibration") == []
    # Objects of the slice over 1: one arrow from 0, one from 1.
    assert len(sl.total.objects) == 2
    co = coslice_classifier(ctx, 0)
    assert validate_category(co.total) == []
    assert len(co.total.objects) == 2   # id_0 and the arrow 0 → 1


def test_cartesian_functor_detection():
    cl = powerset_classifier(1)
    assert is_cartesian_functor(identity_functor(cl.total), cl, cl) == []
