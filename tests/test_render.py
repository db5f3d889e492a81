import ast
from pathlib import Path

import pytest

from judgekit.render import (SCHEMAS, ascii_enabled, finalize, latex_math,
                             render_rule_tree)

GOLDEN = Path(__file__).parent / "golden"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "judgekit"

FIGURES = [
    ("ΠF", "pi_formation"),
    ("ΠI", "pi_introduction"),
    ("DTy", "type_dependency"),
    ("Cut", "cut"),
    ("∀I", "forall_introduction"),
]


@pytest.mark.parametrize("name,stem", FIGURES)
def test_golden_text(name, stem):
    got = render_rule_tree(name, "text") + "\n"
    assert got == (GOLDEN / f"{stem}.txt").read_text()


@pytest.mark.parametrize("name,stem", FIGURES)
def test_golden_latex(name, stem):
    got = render_rule_tree(name, "latex") + "\n"
    assert got == (GOLDEN / f"{stem}.tex").read_text()


def test_invertible_rule_gets_a_double_line():
    txt = render_rule_tree("∀I", "text")
    assert "═" in txt and "─" not in txt
    tex = render_rule_tree("∀I", "latex")
    assert "\\doubleLine" in tex


def test_latex_is_bussproofs_shaped():
    tex = render_rule_tree("Cut", "latex")
    assert tex.startswith("\\begin{prooftree}")
    assert tex.endswith("\\end{prooftree}")
    assert tex.count("\\AxiomC") == 2 and "\\BinaryInfC" in tex


def test_ascii_mode(monkeypatch):
    monkeypatch.setenv("JT_ASCII", "1")
    assert ascii_enabled()
    assert finalize("Γ ⊢ A") == "Gamma |- A"
    txt = render_rule_tree("Cut", "text")
    assert "⊢" not in txt and "|-" in txt
    # The inference line still spans the widest row.
    lines = txt.splitlines()
    bar = lines[1].split(" (")[0]
    assert len(bar) >= max(len(lines[0]), len(lines[2]))
    monkeypatch.delenv("JT_ASCII")
    assert not ascii_enabled()


def _string_constants(tree):
    """The string constants of a module, docstrings aside."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docs]


def test_ascii_mode_spells_every_symbol_the_library_prints(monkeypatch):
    """Every non-ASCII character of a string constant under
    ``src/judgekit``, docstrings aside, has an ASCII spelling; a letter
    with a combining mark is spelled as the letter and the mark."""
    monkeypatch.setenv("JT_ASCII", "1")
    left = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for s in _string_constants(tree):
            if not finalize(s).isascii():
                left[s] = path.name
    assert left == {}
    assert finalize("PB(u̇,𝕌̇) K̄ Cᵒᵖ F⁻¹ η′") == "PB(u.,U.) Kbar C^op F^-1 eta'"


def test_latex_math_table():
    assert "\\vdash" in latex_math("⊢")
    assert "\\Gamma" in latex_math("Γ")


def test_unknown_schema_is_an_error():
    assert "nope" not in SCHEMAS
    with pytest.raises(ValueError):
        render_rule_tree("nope", "text")
    with pytest.raises(ValueError):
        render_rule_tree("Cut", "html")
