from pathlib import Path

import pytest

from judgekit.render import (SCHEMAS, ascii_enabled, derived_rule, finalize,
                             latex_math, render_rule_tree)
from judgekit.theory import expand_nested

GOLDEN = Path(__file__).parent / "golden"

FIGURES = [
    ("ΠF", "pi_formation"),
    ("ΠI", "pi_introduction"),
    ("DTy", "type_dependency"),
    ("Cut", "cut"),
    ("∀I", "forall_introduction"),
]


def _rule(name):
    return derived_rule(name, "", "", None)


@pytest.mark.parametrize("name,stem", FIGURES)
def test_golden_text(name, stem):
    got = render_rule_tree(_rule(name), "text") + "\n"
    assert got == (GOLDEN / f"{stem}.txt").read_text()


@pytest.mark.parametrize("name,stem", FIGURES)
def test_golden_latex(name, stem):
    got = render_rule_tree(_rule(name), "latex") + "\n"
    assert got == (GOLDEN / f"{stem}.tex").read_text()


def test_invertible_rule_gets_a_double_line():
    txt = render_rule_tree(_rule("∀I"), "text")
    assert "═" in txt and "─" not in txt
    tex = render_rule_tree(_rule("∀I"), "latex")
    assert "\\doubleLine" in tex


def test_latex_is_bussproofs_shaped():
    tex = render_rule_tree(_rule("Cut"), "latex")
    assert tex.startswith("\\begin{prooftree}")
    assert tex.endswith("\\end{prooftree}")
    assert tex.count("\\AxiomC") == 2 and "\\BinaryInfC" in tex


def test_ascii_mode(monkeypatch):
    monkeypatch.setenv("JT_ASCII", "1")
    assert ascii_enabled()
    assert finalize("Γ ⊢ A") == "Gamma |- A"
    txt = render_rule_tree(_rule("Cut"), "text")
    assert "⊢" not in txt and "|-" in txt
    # The inference line still spans the widest row.
    lines = txt.splitlines()
    bar = lines[1].split(" (")[0]
    assert len(bar) >= max(len(lines[0]), len(lines[2]))
    monkeypatch.delenv("JT_ASCII")
    assert not ascii_enabled()


def test_latex_math_table():
    assert "\\vdash" in latex_math("⊢")
    assert "\\Gamma" in latex_math("Γ")


def test_expanded_tree_has_one_premise_per_component(toy):
    T = toy.theory
    rule = derived_rule("ε-ext", toy.ext_lift.premise.name,
                        toy.ext_lift.conclusion.name, toy.ext_lift.rule,
                        schema_name="ε-ext")
    expanded = render_rule_tree(rule, "text", expand=True, theory=T)
    premises = expand_nested(T, rule.premise)
    assert expanded.splitlines()[0].strip() == "   ".join(premises)
    assert expanded.splitlines()[-1].strip() == "ext(A) ⊢ A ε_A Type"


def test_unknown_schema_is_an_error():
    assert "nope" not in SCHEMAS
    with pytest.raises(ValueError):
        render_rule_tree(_rule("nope"), "text")
    with pytest.raises(ValueError):
        render_rule_tree(_rule("Cut"), "html")
