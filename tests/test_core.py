import pytest
from hypothesis import given, settings, strategies as st

from judgekit import cli, core
from judgekit.core import (AdjunctionData, FinCategory, FunctorMap,
                           NatTrans, check_adjunction, check_category_iso,
                           checking, compose_functors, identity_functor,
                           identity_nat_trans, make_category, same_functor,
                           sort_key, terminal_objects, validate_category,
                           validate_functor, validate_nat_trans,
                           vertical_compose, whisker_left, whisker_right)
from judgekit.fibrations import Classifier, verify_kind
from judgekit.finsets import fin_skeleton
from judgekit.limits import terminal_category

from oracles import all_functors, walking_arrow_category


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


# The table checks of validate_category, line by line.  The report stops
# at the first morphism without endpoints, and at the first composition
# entry that mentions an unknown morphism; lines of one kind are in
# sort_key order of the morphism or object they name.
ID0, ID1 = ("id", 0), ("id", 1)


def test_endpoint_failures_are_reported_up_to_the_first_missing_one():
    c = make_category("E", [0], [ID0, "a", "b", "c"],
                      {ID0: 0, "a": 9}, {ID0: 0, "a": 0, "c": 0},
                      {0: ID0}, {(ID0, ID0): ID0})
    assert validate_category(c) == [
        "E: morphism 'a' has endpoints outside the object set",
        "E: morphism 'b' lacks endpoints"]


def test_identity_failures_follow_endpoints_outside_the_object_set():
    f, g = ("f", 0, 1), ("g", 0, 7)
    c = make_category("I", [0, 1, "x"], [ID0, f, g],
                      {ID0: 0, f: 0, g: 0}, {ID0: 0, f: 1, g: 7},
                      {0: f, 1: ID1}, {(ID0, ID0): ID0})
    assert validate_category(c) == [
        "I: morphism ('g', 0, 7) has endpoints outside the object set",
        "I: identity of 0 is not an endomorphism",
        "I: object 1 has no identity morphism",
        "I: object 'x' has no identity morphism"]


def test_composition_entries_are_reported_up_to_an_unknown_morphism():
    c = make_category("C", [0, 1], [ID0, ID1, "f"],
                      {ID0: 0, ID1: 1, "f": 0}, {ID0: 0, ID1: 1, "f": 1},
                      {0: ID0, 1: ID1},
                      {("f", "f"): "f", (ID1, "f"): ID1, (ID0, ID0): "zz",
                       (ID1, ID1): ID1})
    assert validate_category(c) == [
        "C: composition defined on non-composable pair ('f', 'f')",
        "C: composite of (('id', 1), 'f') has wrong endpoints",
        "C: composition entry (('id', 0), ('id', 0)) mentions unknown morphisms"]


def test_missing_composites_are_reported_in_sort_key_order():
    """Integers sort before strings and strings before tuples."""
    c = make_category("M", [0, 1], [ID0, ID1, "f", 5],
                      {ID0: 0, ID1: 1, "f": 0, 5: 0},
                      {ID0: 0, ID1: 1, "f": 1, 5: 1},
                      {0: ID0, 1: ID1}, {(ID0, ID0): ID0, (ID1, ID1): ID1})
    assert validate_category(c) == [
        "M: composition missing for (('id', 1), 5)",
        "M: composition missing for (('id', 1), 'f')",
        "M: composition missing for (5, ('id', 0))",
        "M: composition missing for ('f', ('id', 0))"]


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


def test_an_identity_outside_the_tables_is_not_preserved():
    """An identity that is no morphism of the domain, or an image object
    without an identity in the codomain, is reported, not a KeyError."""
    one = terminal_category()
    star = next(iter(one.objects))
    c = make_category("C", ["o"], ["f"], {"f": "o"}, {"f": "o"},
                      {"o": "id_o"}, {("f", "f"): "f"})
    F = FunctorMap("F", c, one, {"o": star}, {"f": one.identity[star]})
    assert validate_functor(F) == ["F: identity of 'o' not preserved"]
    d = make_category("D", ["d"], ["e"], {"e": "d"}, {"e": "d"}, {},
                      {("e", "e"): "e"})
    G = FunctorMap("G", one, d, {star: "d"}, {one.identity[star]: "e"})
    assert validate_functor(G) == [f"G: identity of {star!r} not preserved"]


def test_an_endpoint_missing_from_a_table_is_a_wrong_endpoint():
    """An image morphism without endpoints in the codomain, or a morphism
    whose source is no object of the domain, gives the same line from
    every validator that checks a functor, not a KeyError."""
    c1 = make_category("C", ["a"], ["ia"], {"ia": "a"}, {"ia": "a"},
                       {"a": "ia"}, {("ia", "ia"): "ia"})
    d1 = make_category("D", ["x"], ["ix", "f"], {"ix": "x"}, {"ix": "x"},
                       {"x": "ix"}, {("ix", "ix"): "ix"})
    F = FunctorMap("F", c1, d1, {"a": "x"}, {"ia": "f"})
    c2 = make_category("C", ["a"], ["ia", "g"], {"ia": "a", "g": "zz"},
                       {"ia": "a", "g": "a"}, {"a": "ia"},
                       {("ia", "ia"): "ia"})
    d2 = make_category("E", ["x"], ["ix"], {"ix": "x"}, {"ix": "x"},
                       {"x": "ix"}, {("ix", "ix"): "ix"})
    G = FunctorMap("G", c2, d2, {"a": "x"}, {"ia": "ix", "g": "ix"})
    for H, line in ((F, "F: image of 'ia' has wrong endpoints"),
                    (G, "G: image of 'g' has wrong endpoints")):
        assert validate_functor(H) == [line]
        assert check_category_iso(H) == ([line], None)
        assert verify_kind(Classifier("K", H), "fibration") == [line]


def test_an_endpoint_missing_from_a_table_fails_a_naturality_square():
    """A morphism of the source category without a source, or a component
    without endpoints in the codomain, is a failed square or a component
    with wrong endpoints, not a KeyError."""
    c = make_category("C", ["a"], ["ia"], {}, {"ia": "a"}, {"a": "ia"},
                      {("ia", "ia"): "ia"})
    d = make_category("D", ["x"], ["ix"], {"ix": "x"}, {"ix": "x"},
                      {"x": "ix"}, {("ix", "ix"): "ix"})
    F = FunctorMap("F", c, d, {"a": "x"}, {"ia": "ix"})
    assert validate_nat_trans(NatTrans("t", F, F, {"a": "ix"})) == [
        "t: naturality square fails at 'ia'"]
    e = make_category("E", ["x"], ["ix"], {}, {"ix": "x"}, {"x": "ix"},
                      {("ix", "ix"): "ix"})
    G = FunctorMap("G", d, e, {"x": "x"}, {"ix": "ix"})
    assert validate_nat_trans(NatTrans("s", G, G, {"x": "ix"})) == [
        "s: component at 'x' has wrong endpoints"]


def test_a_classifier_over_a_broken_base_is_reported():
    """A base arrow that no morphism of the total lies over, and that
    lacks its target, makes the base fail its table checks; verify_kind
    says so instead of raising."""
    total = make_category("T", ["e"], ["ie"], {"ie": "e"}, {"ie": "e"},
                          {"e": "ie"}, {("ie", "ie"): "ie"})
    base = make_category("B", ["x"], ["ix", "f"], {"ix": "x", "f": "x"},
                         {"ix": "x"}, {"x": "ix"}, {("ix", "ix"): "ix"})
    P = FunctorMap("P", total, base, {"e": "x"}, {"ie": "ix"})
    assert verify_kind(Classifier("K", P), "fibration") == [
        "uses category B, which fails its table checks"]


def _without_g_after_f():
    """f : a → b and an idempotent g : b → b, with no entry for g ∘ f."""
    return make_category("M", ["a", "b"], ["id_a", "id_b", "f", "g"],
                         {"id_a": "a", "id_b": "b", "f": "a", "g": "b"},
                         {"id_a": "a", "id_b": "b", "f": "b", "g": "b"},
                         {"a": "id_a", "b": "id_b"},
                         {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
                          ("f", "id_a"): "f", ("id_b", "f"): "f",
                          ("g", "id_b"): "g", ("id_b", "g"): "g",
                          ("g", "g"): "g"})


def test_a_composite_the_codomain_lacks_is_not_preserved():
    """A functor into a table without g ∘ f is reported, not a KeyError."""
    m = _without_g_after_f()
    d = make_category("D", ["x", "y"], ["id_x", "id_y", "s", "e"],
                      {"id_x": "x", "id_y": "y", "s": "x", "e": "y"},
                      {"id_x": "x", "id_y": "y", "s": "y", "e": "y"},
                      {"x": "id_x", "y": "id_y"},
                      {("id_x", "id_x"): "id_x", ("id_y", "id_y"): "id_y",
                       ("s", "id_x"): "s", ("id_y", "s"): "s",
                       ("e", "id_y"): "e", ("id_y", "e"): "e",
                       ("e", "e"): "e", ("e", "s"): "s"})
    F = FunctorMap("F", d, m, {"x": "a", "y": "b"},
                   {"id_x": "id_a", "id_y": "id_b", "s": "f", "e": "g"})
    assert validate_functor(F) == [
        "F: composition not preserved at ('e', 's')"]


def test_nat_trans_naturality_enforced():
    c = fin_skeleton(1)
    idc = identity_functor(c)
    ok = identity_nat_trans(idc)
    assert validate_nat_trans(ok) == []
    h = next(m for m in c.morphisms if c.src[m] == 0 and c.tgt[m] == 1)
    skew = NatTrans("skew", idc, idc, {0: c.identity[0], 1: h})
    assert validate_nat_trans(skew)


def test_a_composite_a_naturality_square_lacks_is_a_failed_square():
    """t : Fa ⇒ Fg out of 𝟙 with component f : a → b reads g ∘ f, which
    the table lacks: the square fails, not with a KeyError."""
    one, m = terminal_category(), _without_g_after_f()
    star, i = "•", ("id", "•")
    fa = FunctorMap("Fa", one, m, {star: "a"}, {i: "id_a"})
    fg = FunctorMap("Fg", one, m, {star: "b"}, {i: "g"})
    t = NatTrans("t", fa, fg, {star: "f"})
    assert validate_nat_trans(t) == [f"t: naturality square fails at {i!r}"]


def test_an_image_a_functor_lacks_is_a_failed_naturality_check():
    """A source functor without an image of an object or a morphism fails
    the transformation's check instead of raising."""
    c = walking_arrow_category()
    idc = identity_functor(c)
    t = identity_nat_trans(idc)
    no_arrow = FunctorMap("F", c, c, idc.obj_map,
                          {m: n for m, n in idc.mor_map.items()
                           if m != ("a", 0, 1)})
    assert validate_nat_trans(NatTrans("t", no_arrow, idc, t.components)) \
        == ["t: naturality square fails at ('a', 0, 1)"]
    no_object = FunctorMap("F", c, c, {0: 0}, idc.mor_map)
    assert validate_nat_trans(NatTrans("t", no_object, idc, t.components)) \
        == ["t: component at 1 has wrong endpoints"]


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


def test_an_adjunction_whose_parts_do_not_fit_together_fails():
    """Every part passes its own check, but (a) the unit runs Id ⇒ K for
    the swap K of a ≅ b, and the counit K ⇒ Id, instead of Id ⇒ Id∘Id and
    Id∘Id ⇒ Id; (b) L lands in D and R starts at E, which have the same
    one object but not the same morphisms."""
    ab = {(x, y): f"{x}{y}" for x in "ab" for y in "ab"}
    iso = make_category("a≅b", "ab", ab.values(),
                        {m: x for (x, _), m in ab.items()},
                        {m: y for (_, y), m in ab.items()},
                        {x: ab[x, x] for x in "ab"},
                        {(ab[y, z], ab[x, y]): ab[x, z]
                         for x in "ab" for y in "ab" for z in "ab"})
    swap = {"a": "b", "b": "a"}
    Id = identity_functor(iso, name="Id")
    K = FunctorMap("K", iso, iso, swap,
                   {ab[x, y]: ab[swap[x], swap[y]] for (x, y) in ab})
    eta = NatTrans("η", Id, K, {"a": "ab", "b": "ba"})
    eps = NatTrans("ε", K, Id, {"a": "ba", "b": "ab"})
    assert validate_functor(K) == []
    assert validate_nat_trans(eta) == validate_nat_trans(eps) == []
    assert check_adjunction(AdjunctionData("bogus", Id, Id, eta, eps)) == [
        "bogus: unit η does not run Id ⇒ Id∘Id",
        "bogus: counit ε does not run Id∘Id ⇒ Id"]

    def one_object(name, obj, loops):
        mors = [f"id_{obj}", *loops]
        return make_category(name, [obj], mors, {m: obj for m in mors},
                             {m: obj for m in mors}, {obj: f"id_{obj}"},
                             {(g, f): f if g == f"id_{obj}" else g
                              for g in mors for f in mors})
    C, D, E = one_object("C", "c", []), one_object("D", "x", ["e"]), \
        one_object("E", "x", [])
    L = FunctorMap("L", C, D, {"c": "x"}, {"id_c": "id_x"})
    R = FunctorMap("R", E, C, {"x": "c"}, {"id_x": "id_c"})
    assert validate_category(D) == validate_functor(L) == \
        validate_functor(R) == []
    odd = AdjunctionData("odd", L, R, identity_nat_trans(identity_functor(C)),
                         identity_nat_trans(identity_functor(E)))
    assert check_adjunction(odd) == ["odd: functor endpoints do not match"]


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


def _arrow(name, broken=False):
    """The walking arrow a → b under ``name``; broken, it lacks the
    composite f ∘ id_a."""
    ids = {"a": "id_a", "b": "id_b"}
    ends = {"id_a": ("a", "a"), "id_b": ("b", "b"), "f": ("a", "b")}
    compose = {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
               ("f", "id_a"): "f", ("id_b", "f"): "f"}
    if broken:
        del compose[("f", "id_a")]
    return make_category(name, ids, ends, {m: e[0] for m, e in ends.items()},
                         {m: e[1] for m, e in ends.items()}, ids, compose)


MISSING = ["A: composition missing for ('f', 'id_a')"]


def test_a_repeated_check_in_one_request_gives_the_same_fresh_lines():
    two = walking_arrow_category()
    one = terminal_category()
    collapse = FunctorMap("!", two, one, {0: "•", 1: "•"},
                          {m: ("id", "•") for m in two.morphisms})
    with checking():
        diag, inv = check_category_iso(collapse)
        assert diag and inv is None
        # The iso check's collision lines are not added to the functor's
        # own verdict, which stays clean for the rest of the request.
        found = validate_functor(collapse)
        assert found == []
        found.append("changed by the caller")
        assert validate_functor(collapse) == []
        broken = _arrow("A", broken=True)
        found = validate_category(broken)
        found.append("changed by the caller")
        assert validate_category(broken) == MISSING


def test_a_dead_category_lends_its_verdict_to_no_new_one():
    tables = {k: v for k, v in vars(_arrow("A", broken=True)).items()
              if not k.startswith("_")}
    with checking():
        c = _arrow("A")
        assert validate_category(c) == []
        del c
        # CPython frees c here and mostly gives the next category its
        # address, and so its identity.
        assert validate_category(FinCategory(**tables)) == MISSING


def test_categories_of_one_name_get_their_own_verdicts():
    with checking():
        good, bad = _arrow("A"), _arrow("A", broken=True)
        assert validate_category(good) == []
        assert validate_category(bad) == MISSING
        assert validate_category(good) == []


def test_a_request_that_is_cut_leaves_no_context_behind(monkeypatch):
    c = _arrow("A")

    def cut(ns, report):
        assert validate_category(c) == []
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_check", cut)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["check", "any.jt"])
    assert core._request.get() is None
    del c.compose[("f", "id_a")]
    assert validate_category(c) == MISSING


def test_a_composite_a_triangle_identity_lacks_is_a_failed_triangle():
    """F ⊣ G for the inclusion F : 𝟚 → (a ≅ b) and G constant at 1.  Its
    left triangle at 0 reads ba ∘ ab, and no other check of
    ``check_adjunction`` does; a table without that entry fails the
    triangle, not with a KeyError."""
    two, arrow = walking_arrow_category(), ("a", 0, 1)
    ab = {(x, y): f"{x}{y}" for x in "ab" for y in "ab"}

    def adjunction(missing):
        iso = make_category("a≅b", "ab", ab.values(),
                            {m: x for (x, _), m in ab.items()},
                            {m: y for (_, y), m in ab.items()},
                            {x: ab[x, x] for x in "ab"},
                            {(ab[y, z], ab[x, y]): ab[x, z]
                             for x in "ab" for y in "ab" for z in "ab"
                             if (ab[y, z], ab[x, y]) not in missing})
        F = FunctorMap("F", two, iso, {0: "a", 1: "b"},
                       {("id", 0): "aa", ("id", 1): "bb", arrow: "ab"})
        G = FunctorMap("G", iso, two, {"a": 1, "b": 1},
                       {m: ("id", 1) for m in ab.values()})
        unit = NatTrans("η", identity_functor(two), compose_functors(G, F),
                        {0: arrow, 1: ("id", 1)})
        counit = NatTrans("ε", compose_functors(F, G), identity_functor(iso),
                          {"a": "ba", "b": "bb"})
        return AdjunctionData("F⊣G", F, G, unit, counit)
    assert check_adjunction(adjunction(())) == []
    assert check_adjunction(adjunction({("ba", "ab")})) == [
        "F⊣G: triangle identity (left leg) fails at 0"]


# Validators on broken tables: whatever a table lacks or gets wrong, each
# validator returns its diagnostics as a list of strings and raises
# nothing.

ALIEN = ("alien",)


@st.composite
def posets(draw):
    """The category of a partial order on 1–3 objects: ``("a", i, j)``
    for each i < j of the transitive closure of the drawn pairs, which
    one step reaches on three objects."""
    n = draw(st.integers(1, 3))
    below = {(i, j) for i in range(n) for j in range(i + 1, n)
             if draw(st.booleans())}
    below |= {(i, k) for (i, j) in below for (j2, k) in below if j == j2}
    arrow = {(i, i): ("id", i) for i in range(n)}
    arrow.update({(i, j): ("a", i, j) for (i, j) in below})
    return make_category(
        f"P{n}", range(n), arrow.values(),
        {m: i for (i, _), m in arrow.items()},
        {m: j for (_, j), m in arrow.items()},
        {i: arrow[i, i] for i in range(n)},
        {(g, f): arrow[i, k] for (i, j), f in arrow.items()
         for (j2, k), g in arrow.items() if j == j2})


def _corrupt(c, kind, draw):
    """A copy of c's tables with one thing lost or wrong."""
    objs, mors = sorted(c.objects), sorted(c.morphisms, key=sort_key)
    src, tgt, identity = dict(c.src), dict(c.tgt), dict(c.identity)
    compose = dict(c.compose)
    pick = lambda xs: draw(st.sampled_from(xs))
    pair = (pick(mors), pick(mors))
    if kind == "dropped composite":
        compose.pop(pair, None)
    elif kind == "alien composite":
        compose[pair] = pick(mors + [ALIEN])
    elif kind == "missing source":
        src.pop(pick(mors), None)
    elif kind == "wrong target":
        tgt[pick(mors)] = pick(objs + [len(objs)])
    elif kind == "wrong identity":
        identity[pick(objs)] = pick(mors + [ALIEN])
    else:
        identity.pop(pick(objs), None)
    return FinCategory(c.name, c.objects, c.morphisms, src, tgt, identity,
                       compose)


CORRUPTIONS = ("dropped composite", "alien composite", "missing source",
               "wrong target", "wrong identity", "missing identity")


@settings(max_examples=150, deadline=None)
@given(clean=posets(), kinds=st.lists(st.sampled_from(CORRUPTIONS),
                                      max_size=2), data=st.data())
def test_validators_on_broken_tables_return_diagnostics(clean, kinds, data):
    """F : B → C and G : C → B are identities on names between a broken
    copy B of a poset C and C itself; the unit and counit of F ⊣ G and a
    transformation F ⇒ F have identities of C as components."""
    broken = clean
    for kind in kinds:
        broken = _corrupt(broken, kind, data.draw)
    ids = {o: ("id", o) for o in clean.objects}
    F = FunctorMap("F", broken, clean, {o: o for o in broken.objects},
                   {m: m for m in broken.morphisms})
    G = FunctorMap("G", clean, broken, dict(F.obj_map), dict(F.mor_map))
    adjunction = AdjunctionData(
        "F⊣G", F, G,
        NatTrans("η", identity_functor(broken), compose_functors(G, F), ids),
        NatTrans("ε", compose_functors(F, G), identity_functor(clean), ids))
    with checking():
        found = [validate_category(broken), validate_category(clean),
                 validate_functor(F), validate_functor(G),
                 validate_nat_trans(NatTrans("t", F, F, ids)),
                 check_adjunction(adjunction),
                 check_category_iso(F)[0], check_category_iso(G)[0],
                 verify_kind(Classifier("B/C", F)),
                 verify_kind(Classifier("C/B", G), expect="fibration+thin")]
    for diagnostics in found:
        assert isinstance(diagnostics, list)
        assert all(isinstance(d, str) for d in diagnostics)
    if not kinds:
        assert found == [[]] * len(found)
