import pytest

from judgekit.core import (FunctorMap, compose_functors, identity_functor,
                           same_functor, validate_category, validate_functor)
from judgekit.finsets import fin_skeleton
from judgekit.limits import (bang_functor, equalizer_category, joint_injectivity,
                             mediating_functor, pullback_category,
                             terminal_category)

from oracles import (product_category, verify_equalizer_universal,
                     verify_pullback_universal, walking_arrow_category)

ONE = terminal_category()
TWO = walking_arrow_category()
SK1 = fin_skeleton(1)
SK2 = fin_skeleton(2)


def _pick(c, obj, name=None):
    return FunctorMap(name or f"pick{obj}", ONE, c, {"•": obj},
                      {("id", "•"): c.identity[obj]})


def test_product_category_laws_and_projections():
    prod, p1, p2 = product_category(TWO, SK1)
    assert validate_category(prod) == []
    assert validate_functor(p1) == [] and validate_functor(p2) == []
    assert len(prod.objects) == len(TWO.objects) * len(SK1.objects)


def test_pullback_is_a_category_with_jointly_injective_projections():
    f = bang_functor(TWO, ONE)
    g = bang_functor(SK1, ONE)
    pb, p1, p2 = pullback_category(f, g)
    assert validate_category(pb) == []
    assert joint_injectivity(p1, p2) == []
    # Over the point a pullback is the product.
    assert len(pb.objects) == len(TWO.objects) * len(SK1.objects)


def test_pullback_universal_property():
    f = bang_functor(TWO, ONE)
    g = bang_functor(SK1, ONE)
    pb, p1, p2 = pullback_category(f, g)
    assert verify_pullback_universal(f, g, pb, p1, p2, [ONE, TWO]) == []


def test_pullback_of_nontrivial_legs():
    cod = FunctorMap("cod", TWO, SK1, {0: 0, 1: 1},
                     {("id", 0): SK1.identity[0], ("id", 1): SK1.identity[1],
                      ("a", 0, 1): next(m for m in SK1.morphisms
                                        if SK1.src[m] == 0 and SK1.tgt[m] == 1)})
    assert validate_functor(cod) == []
    pb, p1, p2 = pullback_category(cod, identity_functor(SK1))
    assert validate_category(pb) == []
    assert verify_pullback_universal(cod, identity_functor(SK1),
                                     pb, p1, p2, [ONE, TWO]) == []


def test_equalizer_category_and_universal_property():
    pick0 = _pick(SK1, 0)
    pick1 = _pick(SK1, 1)
    c01 = FunctorMap("c01", TWO, SK1, {0: 0, 1: 1},
                     {("id", 0): SK1.identity[0], ("id", 1): SK1.identity[1],
                      ("a", 0, 1): next(m for m in SK1.morphisms
                                        if SK1.src[m] == 0 and SK1.tgt[m] == 1)})
    c11 = FunctorMap("c11", TWO, SK1, {0: 1, 1: 1},
                     {m: SK1.identity[1] for m in TWO.morphisms})
    eq, incl = equalizer_category(c01, c11)
    assert validate_category(eq) == []
    assert validate_functor(incl) == []
    # They agree exactly on the object 1 and its identity.
    assert set(eq.objects) == {1}
    assert verify_equalizer_universal(c01, c11, eq, incl, [ONE, TWO]) == []


def test_equalizer_of_equal_functors_is_everything():
    eq, incl = equalizer_category(identity_functor(SK2),
                                  identity_functor(SK2))
    assert eq.objects == SK2.objects and eq.morphisms == SK2.morphisms


def test_power_category():
    """Powers are iterated products, that is pullbacks over the point."""
    pw, p1, p2 = product_category(TWO, TWO)
    assert validate_category(pw) == []
    for p in (p1, p2):
        assert validate_functor(p) == []
    assert len(pw.objects) == 4
    cube, q1, q2 = product_category(pw, TWO)
    assert validate_category(cube) == []
    assert validate_functor(compose_functors(p1, q1)) == []
    assert validate_functor(q2) == []
    assert len(cube.objects) == 8 and len(cube.morphisms) == 27


def test_mediating_functor_for_pullback():
    f = bang_functor(TWO, ONE)
    g = bang_functor(SK1, ONE)
    pb, p1, p2 = pullback_category(f, g)
    legs = [identity_functor(TWO), FunctorMap(
        "const0", TWO, SK1, {0: 0, 1: 0},
        {m: SK1.identity[0] for m in TWO.morphisms})]
    med = mediating_functor(pb, (p1, p2), legs, "med", None)
    assert validate_functor(med) == []
    assert same_functor(compose_functors(p1, med), legs[0])
    assert same_functor(compose_functors(p2, med), legs[1])


def test_mediating_functor_rejects_non_factoring_cone():
    pb, p1, p2 = pullback_category(_pick(SK2, 0), _pick(SK2, 1))
    assert len(pb.objects) == 0  # the two points never agree
    legs = [identity_functor(ONE), identity_functor(ONE)]
    with pytest.raises(ValueError, match=r"^cone does not factor through "):
        mediating_functor(pb, (p1, p2), legs, "med", None)
