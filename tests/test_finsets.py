from hypothesis import given, strategies as st

from judgekit.finsets import (apply_map, canonical_inclusion, cross_map,
                              fin_skeleton, graph_map, implication, meet,
                              pair_index, preimage, subset_leq, subsets)

from oracles import all_subsets, dec, enc


def test_subsets_enumeration_order():
    # Bitmask order, each subset a sorted tuple.
    assert subsets(0) == [()]
    assert subsets(2) == [(), (0,), (1,), (0, 1)]
    assert len(subsets(3)) == 8


def test_map_application():
    m = ("f", 3, 2, (1, 0, 1))
    assert [apply_map(m, i) for i in range(3)] == [1, 0, 1]


@given(st.integers(0, 4), st.integers(1, 4), st.data())
def test_pair_index_bijective(x, y, data):
    i = data.draw(st.integers(0, max(x - 1, 0)))
    j = data.draw(st.integers(0, y - 1))
    k = pair_index(i, j, y)
    assert 0 <= k < max(x, 1) * y
    assert divmod(k, y) == (i, j)


@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_preimage_image_adjunction(x, y, data):
    if x == 0 and y > 0:
        images = ()
        x_dom = 0
    else:
        x_dom = x
        images = tuple(data.draw(st.integers(0, max(y - 1, 0)))
                       for _ in range(x)) if y else ()
    if y == 0 and x > 0:
        return  # no maps into the empty set
    m = ("f", x_dom, y, images)
    for s in subsets(x_dom):
        image = {images[i] for i in s}
        for t in subsets(y):
            # image(m, s) ⊆ t  ⇔  s ⊆ preimage(m, t)
            assert (image <= set(t)) == subset_leq(s, preimage(m, t))


def test_lattice_operations_match_set_algebra():
    for x in range(4):
        for s in all_subsets(x):
            for t in all_subsets(x):
                assert dec(meet(enc(s), enc(t))) == (s & t)
                imp = dec(implication(x, enc(s), enc(t)))
                assert imp == frozenset(i for i in range(x)
                                        if i not in s or i in t)
                # Heyting adjunction: u∧s ≤ t ⇔ u ≤ s→t.
                for u in all_subsets(x):
                    assert ((u & s) <= t) == (u <= imp)


def test_canonical_inclusion():
    inc = canonical_inclusion(4, (1, 3))
    assert inc == ("f", 2, 4, (1, 3))
    assert [apply_map(inc, i) for i in range(2)] == [1, 3]


def test_cross_and_graph_maps():
    s = ("f", 2, 2, (1, 0))
    t = ("f", 2, 3, (2, 0))
    c = cross_map(s, t)
    assert c[1] == 4 and c[2] == 6        # 2·2 → 2·3
    for i in range(2):
        for j in range(2):
            flat = pair_index(i, j, 2)
            want = pair_index(apply_map(s, i), apply_map(t, j), 3)
            assert apply_map(c, flat) == want
    g = graph_map(2, ("f", 2, 3, (0, 2)))
    for i in range(2):
        assert divmod(apply_map(g, i), 3) == (i, (0, 2)[i])


def test_skeleton_contains_exactly_the_maps():
    c = fin_skeleton(2)
    homs = {(a, b): [m for m in c.morphisms
                     if c.src[m] == a and c.tgt[m] == b]
            for a in (0, 1, 2) for b in (0, 1, 2)}
    assert {k: len(v) for k, v in homs.items()} == {
        (0, 0): 1, (0, 1): 1, (0, 2): 1,
        (1, 0): 0, (1, 1): 1, (1, 2): 2,
        (2, 0): 0, (2, 1): 1, (2, 2): 4}
