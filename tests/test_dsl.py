from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from judgekit.core import validate_category, validate_functor
from judgekit.dsl import (Decl, JtSyntaxError, TheoryDocument, load_document,
                          parse_dsl, print_dsl)

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.jt"))


def test_demo_corpus_exists():
    assert [p.name for p in DEMOS] == [
        "adjunction.jt", "broken_adjunction.jt", "dtt_finset.jt",
        "ndt_powerset.jt", "toy.jt"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_print_parse_is_a_fixpoint(path):
    doc = parse_dsl(path.read_text())
    once = print_dsl(doc)
    assert print_dsl(parse_dsl(once)) == once


def test_empty_document():
    doc = parse_dsl("\n# only a comment\n")
    assert doc.decls == []
    loaded = load_document(doc)
    assert loaded.errors == []


def test_category_loading_fills_in_identities():
    doc = parse_dsl("""category C
  object a
  object b
  morphism f : a -> b
  complete
""")
    loaded = load_document(doc)
    assert loaded.errors == []
    c = loaded.categories["C"]
    assert validate_category(c) == []
    assert set(c.objects) == {"a", "b"}
    # f plus the two implicit identities; unit compositions supplied.
    assert len(c.morphisms) == 3
    assert c.comp("f", "id_a") == "f"
    assert c.comp("id_b", "f") == "f"


def test_incomplete_table_is_rejected():
    doc = parse_dsl("""category M
  object a
  morphism s : a -> a
  complete
""")
    loaded = load_document(doc)
    assert any("complete" in e or "composite" in e for e in loaded.errors)


def test_functor_maps_identities_automatically():
    doc = parse_dsl("""category C
  object a
  object b
  morphism f : a -> b
  complete

functor F : C -> C
  object a |-> a
  object b |-> b
  morphism f |-> f
""")
    loaded = load_document(doc)
    assert loaded.errors == []
    F = loaded.functors["F"]
    assert validate_functor(F) == []
    assert F.mor_map["id_a"] == "id_a"


def test_syntax_error_reports_position():
    with pytest.raises(JtSyntaxError) as ei:
        parse_dsl("category C\n  object a\n  morphism f a -> b\n")
    assert ei.value.line == 3
    assert "line 3" in str(ei.value)
    assert "morphism" in str(ei.value)   # the message shows the item shape


def test_duplicate_names_are_rejected():
    with pytest.raises(JtSyntaxError) as ei:
        parse_dsl("category C\n  object a\n\ncategory C\n  object b\n")
    assert "C" in str(ei.value)


def test_item_outside_block():
    with pytest.raises(JtSyntaxError) as ei:
        parse_dsl("  object a\n")
    assert ei.value.line == 1


def test_unresolved_reference_is_a_load_error():
    doc = parse_dsl("functor F : C -> D\n")
    loaded = load_document(doc)
    assert any("C" in e for e in loaded.errors)


def test_toy_demo_declares_the_expected_theory():
    doc = parse_dsl((Path(__file__).parent.parent / "demos" / "toy.jt")
                    .read_text())
    loaded = load_document(doc)
    assert loaded.errors == []
    decl = doc.find("theory", "toy")
    judgements = [p for (_, k, p) in decl.items if k == "judgement"]
    rules = [p for (_, k, p) in decl.items if k == "rule"]
    policies = [p for (_, k, p) in decl.items if k == "policy"]
    assert judgements == ["t", "c", "v"]
    assert rules == ["e", "u", "ext", "idC"]
    assert policies == [("eps", "contravariant")]
    T = loaded.theories["toy"]
    assert set(T.judgements) == {"t", "c", "v"}
    assert set(T.rules) >= {"e", "u", "ext", "idC"}


def test_adjunction_and_classifier_blocks_load():
    path = Path(__file__).parent.parent / "demos" / "adjunction.jt"
    loaded = load_document(parse_dsl(path.read_text()))
    assert loaded.errors == []
    assert "triv" in loaded.adjunctions


def test_instance_blocks_record_builtin_and_args():
    doc = parse_dsl("instance dtt2 = dtt-finset 2\n")
    loaded = load_document(doc)
    assert loaded.errors == []
    builtin, args, _ = loaded.instances["dtt2"]
    assert builtin == "dtt-finset" and args == [2]


@pytest.mark.parametrize("header", ["doctrine D = powerset x",
                                    "doctrine D = chain 2 -1",
                                    "instance I = dtt-finset two"])
def test_non_numeric_header_argument_is_a_syntax_error(header):
    with pytest.raises(JtSyntaxError) as ei:
        parse_dsl("category C\n  object a\n\n" + header + "\n")
    assert ei.value.line == 4
    assert "not a natural number" in str(ei.value)


def test_conflicting_composites_are_a_load_error():
    doc = parse_dsl("""category M
  object a
  morphism f : a -> a
  f o f = f
  f o f = id_a
  complete
""")
    loaded = load_document(doc)
    assert loaded.errors == [
        "line 5: conflicting composites for (f ∘ f): f and id_a"]


NAME = st.text("abfgxyzAUV_'αβ𝔽𝕌0123", min_size=1, max_size=4)
NUMS = st.lists(st.integers(0, 40), max_size=3)
PAIR = st.tuples(NAME, NAME)

# One item ``(key, payload)`` of each kind of block that takes items.
ITEMS = {
    "category": st.one_of(
        st.tuples(st.just("object"), NAME),
        st.tuples(st.just("morphism"), st.tuples(NAME, NAME, NAME)),
        st.tuples(st.just("compose"), st.tuples(NAME, NAME, NAME)),
        st.just(("complete", None))),
    "functor": st.tuples(st.sampled_from(["object", "morphism"]), PAIR),
    "nat": st.tuples(st.just("at"), PAIR),
    "adjunction": st.tuples(st.sampled_from(["unit", "counit"]), NAME),
    "theory": st.one_of(
        st.tuples(st.sampled_from(["judgement", "rule"]), NAME),
        st.tuples(st.just("policy"), PAIR)),
    "constructor": st.tuples(
        st.sampled_from(["lambda", "phi", "psi", "section"]), NAME),
}

HEADS = {
    "category": st.just({}),
    "functor": st.fixed_dictionaries({"dom": NAME, "cod": NAME}),
    "nat": st.fixed_dictionaries({"source": NAME, "target": NAME}),
    "adjunction": st.fixed_dictionaries({"left": NAME, "right": NAME}),
    "classifier": st.fixed_dictionaries(
        {"proj": NAME, "kind": st.one_of(st.none(), NAME)}),
    "theory": st.fixed_dictionaries({"ctx": NAME}),
    "doctrine": st.fixed_dictionaries(
        {"family": NAME, "args": NUMS.filter(bool)}),
    "instance": st.fixed_dictionaries({"builtin": NAME, "args": NUMS}),
    "constructor": st.fixed_dictionaries(
        {"mode": st.sampled_from(["strict", "weak"])}),
}


@st.composite
def documents(draw):
    """A document of distinct blocks, every line number 0."""
    decls = []
    for kind, name in draw(st.lists(st.tuples(st.sampled_from(sorted(HEADS)),
                                              NAME),
                                    max_size=6, unique=True)):
        items = draw(st.lists(ITEMS[kind], max_size=4)) \
            if kind in ITEMS else []
        decls.append(Decl(kind, name, 0, draw(HEADS[kind]),
                          [(0, k, v) for k, v in items]))
    return TheoryDocument(decls)


def _without_lines(doc):
    return [(d.kind, d.name, d.head, [(k, v) for _, k, v in d.items])
            for d in doc.decls]


@settings(max_examples=200, deadline=None)
@given(doc=documents())
def test_generated_documents_round_trip(doc):
    text = print_dsl(doc)
    parsed = parse_dsl(text)
    assert print_dsl(parsed) == text
    assert _without_lines(parsed) == _without_lines(doc)
