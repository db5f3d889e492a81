"""Display of the rules the library derives as proof figures.

A rule is shown by its display schema in ``SCHEMAS``, looked up by
name.  Two output targets: plaintext proof trees (premises over a
labelled inference line) and LaTeX fragments for a standard proof-tree
package.  Each schema writes its judgements in the notation of its
calculus: ``Γ ⊢ a : A`` for the dependent types, ``x; Γ ⊢ ψ`` for the
sequents.  Output is deterministic: the same input always produces the
same bytes.  Setting ``JT_ASCII=1`` in the environment switches every
mathematical symbol to an ASCII spelling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: ASCII spellings, applied to every emitted character when JT_ASCII=1.
#: A combining mark is spelled after the letter it follows, so 𝕌̇ reads
#: U. and K̄ reads Kbar; ᵒᵖ reads ^op and ⁻¹ reads ^-1.
ASCII_TABLE = {
    "⊢": "|-", "⊣": "-|", "⊨": "|=", "∀": "forall ", "∃": "exists ",
    "∧": "/\\", "∨": "\\/", "¬": "~", "⊤": "T", "⊥": "F", "∅": "0",
    "Γ": "Gamma", "Δ": "Delta", "Θ": "Theta", "Σ": "Sigma", "Π": "Pi",
    "Φ": "Phi", "Ψ": "Psi", "Λ": "Lambda", "Ω": "Omega", "⅀": "Sum",
    "λ": "lambda", "φ": "phi", "ψ": "psi", "χ": "chi", "ε": "epsilon",
    "δ": "delta", "η": "eta", "β": "beta", "α": "alpha", "μ": "mu",
    "σ": "sigma", "τ": "tau", "γ": "gamma", "ι": "iota", "π": "pi",
    "×": "*", "∘": "o", "≤": "<=", "≥": ">=", "≅": "~=", "≠": "/=",
    "⟨": "<", "⟩": ">", "⇒": "=>", "→": "->", "↪": ">->", "∈": "in",
    "∣": "|", "⋆": "*", "∗": "*", "♯": "#", "·": ".", "𝟙": "1",
    "𝟚": "2", "𝕌": "U", "𝔽": "F", "𝔾": "G",
    "𝔼": "E", "ℍ": "H", "ℂ": "C", "𝔸": "A", "𝕏": "X", "𝕐": "Y",
    "─": "-", "═": "=", "ℰ": "E", "𝒥": "J", "ℛ": "R", "𝒫": "P",
    "Ⅎ": "Finv", "★": "*", "•": "*", "′": "'", "ᵒ": "^o", "ᵖ": "p",
    "⁻": "^-", "¹": "1", "↦": "|->", "\u0307": ".", "\u0304": "bar",
}

#: LaTeX math spellings for the same symbols (identity on plain ASCII).
LATEX_TABLE = {
    "⊢": "\\vdash ", "⊣": "\\dashv ", "∀": "\\forall ", "∃": "\\exists ",
    "∧": "\\land ", "∨": "\\lor ", "¬": "\\neg ", "⊤": "\\top ",
    "⊥": "\\bot ", "∅": "\\emptyset ", "Γ": "\\Gamma ", "Δ": "\\Delta ",
    "Θ": "\\Theta ", "Σ": "\\Sigma ", "Π": "\\Pi ", "Φ": "\\Phi ",
    "Ψ": "\\Psi ", "Λ": "\\Lambda ", "Ω": "\\Omega ", "⅀": "\\Sigma ",
    "λ": "\\lambda ", "φ": "\\phi ", "ψ": "\\psi ", "χ": "\\chi ",
    "ε": "\\epsilon ", "δ": "\\delta ", "η": "\\eta ", "β": "\\beta ",
    "α": "\\alpha ", "μ": "\\mu ", "σ": "\\sigma ", "τ": "\\tau ",
    "γ": "\\gamma ", "π": "\\pi ", "×": "\\times ", "∘": "\\circ ",
    "≤": "\\leq ", "≅": "\\cong ", "⟨": "\\langle ", "⟩": "\\rangle ",
    "⇒": "\\Rightarrow ", "→": "\\to ", "∈": "\\in ", "∣": "\\mid ",
    "⋆": "\\star ", "∗": "\\ast ", "·": ".", "𝕌": "\\mathbb{U}",
    "𝔽": "\\mathbb{F}", "𝔾": "\\mathbb{G}", "𝔼": "\\mathbb{E}",
    "ℍ": "\\mathbb{H}", "ℂ": "\\mathbb{C}", "𝔸": "\\mathbb{A}",
    "𝕏": "\\mathbb{X}", "𝕐": "\\mathbb{Y}", "𝟙": "\\mathsf{1}",
    "{": "\\{", "}": "\\}",
}


def ascii_enabled() -> bool:
    return os.environ.get("JT_ASCII") == "1"


def _apply(table: dict, s: str) -> str:
    return "".join(table.get(ch, ch) for ch in s)


def finalize(s: str) -> str:
    """Apply the ASCII fallback when requested (the last step of every
    text-producing function here)."""
    return _apply(ASCII_TABLE, s) if ascii_enabled() else s


def latex_math(s: str) -> str:
    return _apply(LATEX_TABLE, s)


# --------------------------------------------------------------------------
# Rule schemas and proof figures.
# --------------------------------------------------------------------------

@dataclass
class RuleSchema:
    """Display data for one inference rule: premise and conclusion
    templates plus the label printed beside the line."""

    name: str
    label: str
    premises: tuple
    conclusion: str
    double: bool = False          # invertible rules get a doubled line


#: The schemas of every rule the library derives, shaped after the
#: usual displays of these calculi.
SCHEMAS = {s.name: s for s in [
    # Context extension and dependency.
    RuleSchema("ext", "(δ)", ("Γ ⊢ A Type",), "Γ.A ⊢ q_A : A δ_A"),
    RuleSchema("DTy", "(DTy)", ("Γ ⊢ a : A", "Γ.A ⊢ B Type"),
               "Γ ⊢ B⟨a⟩ Type"),
    RuleSchema("DTm", "(DTm)", ("Γ ⊢ a : A", "Γ.A ⊢ b : B"),
               "Γ ⊢ b⟨a⟩ : B⟨a⟩"),
    # Dependent products.
    RuleSchema("ΠF", "(ΠF)", ("Γ ⊢ A Type", "Γ.A ⊢ B Type"),
               "Γ ⊢ Π_A B Type"),
    RuleSchema("ΠI", "(ΠI)", ("Γ ⊢ A Type", "Γ.A ⊢ b : B"),
               "Γ ⊢ λ_A b : Π_A B"),
    RuleSchema("ΠE", "(ΠE)", ("Γ ⊢ f : Π_A B", "Γ ⊢ a : A"),
               "Γ ⊢ f(a) : B⟨a⟩"),
    RuleSchema("ΠβC", "(ΠβC)", ("Γ.A ⊢ b : B", "Γ ⊢ a : A"),
               "Γ ⊢ (λ_A b)(a) = b⟨a⟩ : B⟨a⟩"),
    RuleSchema("ΠηC", "(ΠηC)", ("Γ ⊢ f : Π_A B",),
               "Γ ⊢ f = λ_A(f_B) : Π_A B"),
    # Identity types.
    RuleSchema("IdF", "(IdF)", ("Γ ⊢ A Type", "Γ ⊢ a : A", "Γ ⊢ b : A"),
               "Γ ⊢ Id_A(a,b) Type"),
    RuleSchema("IdI", "(IdI)", ("Γ ⊢ a : A",),
               "Γ ⊢ i(a) : Id_A(a,a)"),
    RuleSchema("IdE1", "(IdE1)", ("Γ ⊢ c : Id_A(a,b)",),
               "Γ ⊢ a = b : A"),
    RuleSchema("IdE2", "(IdE2)", ("Γ ⊢ c : Id_A(a,b)",),
               "Γ ⊢ c = i(a) : Id_A(a,a)"),
    # Dependent sums.
    RuleSchema("⅀F", "(⅀F)", ("Γ ⊢ A Type", "Γ.A ⊢ B Type"),
               "Γ ⊢ ⅀_A B Type"),
    RuleSchema("⅀I", "(⅀I)",
               ("Γ ⊢ A Type", "Γ.A ⊢ B Type", "Γ ⊢ a : A", "Γ ⊢ b : B⟨a⟩"),
               "Γ ⊢ ⟨a,b⟩ : ⅀_A B"),
    # Generic constructors.
    RuleSchema("ΦF", "(ΦF)", ("Γ ⊢ Y 𝕐",), "Γ ⊢ Φ Y Type"),
    RuleSchema("ΦI", "(ΦI)", ("Γ ⊢ X 𝕏",), "Γ ⊢ Ψ X : Φ Λ X"),
    # Structural rules of the sequent side.
    RuleSchema("H", "(H)", (), "x; Γ,φ ⊢ φ"),
    RuleSchema("Sw", "(Sw)", ("x; Γ,Δ ⊢ φ",), "x; Δ,Γ ⊢ φ"),
    RuleSchema("C", "(C)", ("x; Γ,ψ,ψ ⊢ φ",), "x; Γ,ψ ⊢ φ"),
    RuleSchema("W", "(W)", ("x; Γ ⊢ φ",), "x; Γ,ψ ⊢ φ"),
    RuleSchema("Cut", "(Cut)", ("x; Γ ⊢ φ", "x; Γ,φ ⊢ ψ"), "x; Γ ⊢ ψ"),
    # Connectives and quantifiers.
    RuleSchema("∧I", "(∧I)", ("x; Γ ⊢ φ", "x; Γ ⊢ ψ"), "x; Γ ⊢ φ∧ψ"),
    RuleSchema("∧E1", "(∧E1)", ("x; Γ ⊢ φ∧ψ",), "x; Γ ⊢ φ"),
    RuleSchema("∧E2", "(∧E2)", ("x; Γ ⊢ φ∧ψ",), "x; Γ ⊢ ψ"),
    RuleSchema("∀I", "(∀I)", ("x×y; w_y Γ ⊢ φ",), "x; Γ ⊢ ∀_y φ",
               double=True),
    RuleSchema("∀E", "(∀E)", ("x; Γ ⊢ ∀_y φ",), "x; Γ ⊢ φ[t/y]"),
    # The toy theory.
    RuleSchema("e", "(e)", (), "⊢ e(∗) Ctx"),
    RuleSchema("u", "(u)", ("⊢ A Type",), "⊢ Ctx(A) Ctx"),
    RuleSchema("ε-ext", "(ext)", ("Γ ⊢ A Type",), "ext(A) ⊢ A ε_A Type"),
]}


def render_rule_tree(name: str, format: str = "text") -> str:
    """The rule ``name`` as a proof figure, its premises in their
    synthetic (aliased) form."""
    schema = SCHEMAS.get(name)
    if schema is None:
        raise ValueError(f"rule {name} has no display schema")
    premises = list(schema.premises)
    if format == "text":
        return _text_tree(premises, schema)
    if format == "latex":
        return _latex_tree(premises, schema)
    raise ValueError(f"unknown format {format!r}")


def _text_tree(premises, schema: RuleSchema) -> str:
    # Substitute symbols first so widths are computed on what is shown.
    top = finalize("   ".join(premises))
    conclusion = finalize(schema.conclusion)
    width = max(len(top), len(conclusion)) + 2
    bar = finalize("═" if schema.double else "─") * width
    lines = []
    if top:
        lines.append(top.center(width).rstrip())
    lines.append(f"{bar} {finalize(schema.label)}")
    lines.append(conclusion.center(width).rstrip())
    return "\n".join(lines)


def _latex_tree(premises, schema: RuleSchema) -> str:
    n = len(premises)
    inf = {0: "UnaryInfC", 1: "UnaryInfC", 2: "BinaryInfC",
           3: "TrinaryInfC", 4: "QuaternaryInfC", 5: "QuinaryInfC"}[n]
    lines = ["\\begin{prooftree}"]
    if n == 0:
        lines.append("\\AxiomC{}")
    for p in premises:
        lines.append(f"\\AxiomC{{${latex_math(p)}$}}")
    if schema.double:
        lines.append("\\doubleLine")
    lines.append(f"\\LeftLabel{{{latex_math(schema.label)}}}")
    lines.append(f"\\{inf}{{${latex_math(schema.conclusion)}$}}")
    lines.append("\\end{prooftree}")
    return "\n".join(lines)
