import pytest

from judgekit.core import (AdjunctionData, FunctorMap, NatTrans,
                           all_functors, check_adjunction,
                           check_category_iso, compose_functors,
                           identity_functor, identity_nat_trans,
                           make_category, same_functor, sort_key,
                           terminal_objects, validate_category,
                           validate_functor, validate_nat_trans,
                           vertical_compose, whisker_left, whisker_right)
from judgekit.finsets import fin_skeleton
from judgekit.limits import terminal_category, walking_arrow_category


def test_terminal_category_laws():
    assert validate_category(terminal_category()) == []


def test_walking_arrow_laws():
    assert validate_category(walking_arrow_category()) == []


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_skeleton_laws(n):
    assert validate_category(fin_skeleton(n)) == []


def test_skeleton_sizes():
    c = fin_skeleton(2)
    assert sorted(c.objects) == [0, 1, 2]
    # One map y^x for each pair, none into the empty set from a
    # non-empty one: 1+1+1 + 1+2 + 1+4 = 11.
    assert len(c.morphisms) == 11


def test_missing_composite_detected():
    c = walking_arrow_category()
    broken = make_category("broken", c.objects, c.morphisms, c.src, c.tgt,
                           c.identity,
                           {k: v for k, v in c.compose.items()
                            if k != (("a", 0, 1), ("id", 0))})
    assert any("missing" in d for d in validate_category(broken))


def test_bad_identity_detected():
    a = ("a", 0, 1)
    broken = make_category(
        "loop", [0], [("id", 0), a], {("id", 0): 0, a: 0},
        {("id", 0): 0, a: 0}, {0: a},
        {(m, n): ("id", 0) for m in (("id", 0), a) for n in (("id", 0), a)})
    assert validate_category(broken)


def test_terminal_objects():
    assert terminal_objects(terminal_category()) == ["•"]
    assert terminal_objects(fin_skeleton(2)) == [1]


def test_identity_functor_valid():
    c = fin_skeleton(2)
    assert validate_functor(identity_functor(c)) == []


def test_functor_composition_and_table_equality():
    one = terminal_category()
    two = walking_arrow_category()
    pick0 = FunctorMap("pick0", one, two, {"•": 0}, {("id", "•"): ("id", 0)})
    bang = FunctorMap("!", two, one,
                      {0: "•", 1: "•"},
                      {m: ("id", "•") for m in two.morphisms})
    assert validate_functor(pick0) == []
    assert validate_functor(bang) == []
    assert same_functor(compose_functors(bang, pick0), identity_functor(one))
    assert not same_functor(pick0, FunctorMap(
        "pick1", one, two, {"•": 1}, {("id", "•"): ("id", 1)}))


def test_functor_must_preserve_composition():
    two = walking_arrow_category()
    c = fin_skeleton(1)
    h = next(m for m in c.morphisms if c.src[m] == 0 and c.tgt[m] == 1)
    bad = FunctorMap("bad", two, c,
                     {0: 0, 1: 1},
                     {("id", 0): c.identity[0], ("id", 1): c.identity[1],
                      ("a", 0, 1): h})
    assert validate_functor(bad) == []          # this one is fine
    worse = FunctorMap("worse", two, c,
                       {0: 0, 1: 0},
                       {("id", 0): c.identity[0], ("id", 1): c.identity[0],
                        ("a", 0, 1): h})
    assert validate_functor(worse)              # endpoints wrong


def test_nat_trans_naturality_enforced():
    c = fin_skeleton(1)
    idc = identity_functor(c)
    ok = identity_nat_trans(idc)
    assert validate_nat_trans(ok) == []
    h = next(m for m in c.morphisms if c.src[m] == 0 and c.tgt[m] == 1)
    skew = NatTrans("skew", idc, idc, {0: c.identity[0], 1: h})
    assert validate_nat_trans(skew)


def test_whiskering_and_vertical_composition():
    c = fin_skeleton(2)
    idc = identity_functor(c)
    t = identity_nat_trans(idc)
    assert vertical_compose(t, t).components == t.components
    assert whisker_left(idc, t).components == t.components
    assert whisker_right(t, idc).components == t.components


def test_adjunction_triangle_identities():
    c = walking_arrow_category()
    idc = identity_functor(c)
    t = identity_nat_trans(idc)
    good = AdjunctionData("id⊣id", idc, idc, t, t)
    assert check_adjunction(good) == []


def test_adjunction_failure_is_reported():
    s = ("s", "*")
    z2 = make_category("Z2", ["*"], [("id", "*"), s],
                       {("id", "*"): "*", s: "*"},
                       {("id", "*"): "*", s: "*"},
                       {"*": ("id", "*")},
                       {(("id", "*"), ("id", "*")): ("id", "*"),
                        (s, ("id", "*")): s, (("id", "*"), s): s,
                        (s, s): ("id", "*")})
    assert validate_category(z2) == []
    idz = identity_functor(z2)
    twist = NatTrans("twist", idz, idz, {"*": s})
    ident = identity_nat_trans(idz)
    assert validate_nat_trans(twist) == []
    bad = AdjunctionData("bad", idz, idz, twist, ident)
    diags = check_adjunction(bad)
    assert any("triangle identity" in d for d in diags)


def test_category_iso_round_trip():
    c = fin_skeleton(1)
    diag, inv = check_category_iso(identity_functor(c))
    assert diag == []
    assert same_functor(inv, identity_functor(c))
    one = terminal_category()
    two = walking_arrow_category()
    collapse = FunctorMap("!", two, one, {0: "•", 1: "•"},
                          {m: ("id", "•") for m in two.morphisms})
    diag, inv = check_category_iso(collapse)
    assert diag and inv is None


def test_all_functors_counts():
    one = terminal_category()
    two = walking_arrow_category()
    # Into the walking arrow from the point: one functor per object.
    assert len(all_functors(one, two)) == 2
    # From the walking arrow into itself: pick any arrow (3 of them).
    assert len(all_functors(two, two)) == 3
    for F in all_functors(two, fin_skeleton(1)):
        assert validate_functor(F) == []


def test_sort_key_is_total_on_mixed_identifiers():
    items = [("f", 0, 1, (0,)), 3, "x", ("id", 0), (0, (1, 2))]
    ordered = sorted(items, key=sort_key)
    assert sorted(ordered, key=sort_key) == ordered


def _discrete(name, objects):
    ids = {o: f"id_{o}" for o in objects}
    return make_category(name, objects, ids.values(),
                         {i: o for o, i in ids.items()},
                         {i: o for o, i in ids.items()}, ids,
                         {(i, i): i for i in ids.values()})


def test_compose_functors_compares_middle_categories_not_names():
    # Two different categories that share the name Z.
    f = identity_functor(_discrete("Z", ["a"]), name="f")
    g = identity_functor(_discrete("Z", ["b"]), name="g")
    with pytest.raises(ValueError, match="cannot compose g after f"):
        compose_functors(g, f)
    # A distinct but equal copy of the middle category is accepted.
    h = identity_functor(_discrete("Z′", ["a"]), name="h")
    assert compose_functors(h, f).obj_map == {"a": "a"}


def test_same_functor_compares_codomains():
    one = terminal_category()
    two = walking_arrow_category()
    # Same name and same maps as F's codomain, but one object fewer.
    point = make_category("𝟚", [0], [("id", 0)], {("id", 0): 0},
                          {("id", 0): 0}, {0: ("id", 0)},
                          {(("id", 0), ("id", 0)): ("id", 0)})
    obj_map, mor_map = {"•": 0}, {("id", "•"): ("id", 0)}
    F = FunctorMap("pick0", one, two, obj_map, mor_map)
    G = FunctorMap("pick0", one, point, obj_map, mor_map)
    assert not same_functor(F, G)
    copy = walking_arrow_category()
    assert same_functor(F, FunctorMap("pick0", one, copy, obj_map, mor_map))
