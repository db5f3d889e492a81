from judgekit.core import (FunctorMap, identity_functor, validate_category,
                           validate_functor)
from judgekit.fibrations import (Classifier, IndexedData, cartesian_lift,
                                 compute_cleavage, is_cartesian,
                                 is_cartesian_functor, is_discrete, is_thin,
                                 validate_indexed, verify_kind)
from judgekit.finsets import fin_skeleton, preimage, subset_leq
from judgekit.limits import terminal_category, walking_arrow_category
from judgekit.ndt import PowersetDoctrine, proposition_classifier

from oracles import coslice_classifier, slice_classifier


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
        fib = cl.fiber_category(x)
        assert validate_category(fib) == []
        assert len(fib.objects) == 2 ** x
        for m in fib.morphisms:
            a, b = fib.src[m], fib.tgt[m]
            assert subset_leq(a[1], b[1])


def test_split_cleavage_is_cartesian_and_deterministic():
    cl = powerset_classifier(2)
    for ((obj, sigma), lift) in cl.cleavage.items():
        assert is_cartesian(cl, lift)
        assert cl.proj.mor_map[lift] == sigma
    recomputed, bad = compute_cleavage(cl)
    assert bad == []
    for key in cl.cleavage:
        # Identity arrows lift to identities.
        obj, sigma = key
        if cl.base.is_identity(sigma):
            assert recomputed[key] == cl.total.identity[obj]


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
    assert "fibration" in cl.kind
    # The subset fibration over ≥1 contexts is not discrete: fibers have
    # non-identity inclusion arrows.
    assert is_discrete(cl)
    assert is_thin(cl) == []          # at most one arrow per (pair, base)


def test_verify_kind_rejects_wrong_expectation():
    one = terminal_category()
    two = walking_arrow_category()
    bang = FunctorMap("!", two, one, {0: "•", 1: "•"},
                      {m: ("id", "•") for m in two.morphisms})
    cl = Classifier("arrow", two, one, bang)
    assert verify_kind(cl, expect="discrete")   # two is no discrete fibration


def test_indexed_data_validation_catches_non_functoriality():
    doc = PowersetDoctrine(1)
    cl = proposition_classifier(doc)
    # Rebuild the indexing and damage one restriction.
    ctx = doc.ctx
    fibers = {x: cl.fiber_category(x) for x in ctx.objects}
    restrictions = {}
    for sigma in ctx.morphisms:
        theta, x = ctx.src[sigma], ctx.tgt[sigma]
        obj_map = {o: (theta, preimage(sigma, o[1]))
                   for o in fibers[x].objects}
        mor_map = {m: fibers[theta].identity[obj_map[fibers[x].tgt[m]]]
                   for m in fibers[x].morphisms}
        restrictions[sigma] = FunctorMap(f"r{sigma}", fibers[x],
                                         fibers[theta], obj_map, mor_map)
    ix = IndexedData("broken", ctx, fibers, restrictions)
    assert validate_indexed(ix)


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
