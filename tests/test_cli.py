import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from judgekit import core
from judgekit.cli import REPORT_VERSION, build_parser, main

DEMOS = Path(__file__).parent.parent / "demos"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_report_version():
    assert REPORT_VERSION == "jt/1"


def test_check_toy_demo(capsys):
    code, out = run(capsys, "check", str(DEMOS / "toy.jt"))
    assert code == 0
    assert out.startswith("report jt/1\n")
    assert "status: ok" in out
    assert "FAIL" not in out


def test_check_broken_adjunction(capsys):
    code, out = run(capsys, "check", str(DEMOS / "broken_adjunction.jt"))
    assert code == 1
    assert "triangle identity" in out
    assert "status: fail" in out


def test_a_nat_over_a_functor_that_failed_is_a_failed_check(tmp_path,
                                                             capsys):
    """Sending f to id_a breaks the functor Id of adjunction.jt; the nat
    and the adjunction over it then report failed squares, not a
    traceback."""
    text = (DEMOS / "adjunction.jt").read_text()
    assert "morphism f |-> f\n" in text
    path = tmp_path / "adjunction.jt"
    path.write_text(text.replace("morphism f |-> f\n",
                                 "morphism f |-> id_a\n"))
    code, out = run(capsys, "check", str(path))
    assert code == 1
    assert out.split("check category Two: ok\n")[1] == (
        "check functor Id: FAIL\n"
        "  - Id: image of 'f' has wrong endpoints\n"
        "check nat idt: FAIL\n"
        "  - idt: naturality square fails at 'f'\n"
        "check adjunction triv: FAIL\n"
        "  - Id: image of 'f' has wrong endpoints\n"
        "  - Id: image of 'f' has wrong endpoints\n"
        "  - idt: naturality square fails at 'f'\n"
        "  - idt: naturality square fails at 'f'\n"
        "status: fail\n")


BOGUS_ADJUNCTION = """\
category C
  object a
  object b
  morphism i : a -> b
  morphism j : b -> a
  j ∘ i = id_a
  i ∘ j = id_b
  complete

functor Id : C -> C
  object a |-> a
  object b |-> b
  morphism i |-> i
  morphism j |-> j

functor K : C -> C
  object a |-> b
  object b |-> a
  morphism i |-> j
  morphism j |-> i

nat eta : Id => K
  at a = i
  at b = j

nat eps : K => Id
  at a = j
  at b = i

adjunction bogus : Id -| Id
  unit eta
  counit eps
"""

ODD_ADJUNCTION = """\
category C
  object c

category D
  object x
  morphism e : x -> x
  e ∘ e = e
  complete

category E
  object x

functor L : C -> D
  object c |-> x

functor R : E -> C
  object x |-> c

functor IdC : C -> C
  object c |-> c

functor IdE : E -> E
  object x |-> x

nat u : IdC => IdC
  at c = id_c

nat v : IdE => IdE
  at x = id_x

adjunction odd : L -| R
  unit u
  counit v
"""


@pytest.mark.parametrize("text, tail", [
    (BOGUS_ADJUNCTION,
     "check nat eps: ok\n"
     "check adjunction bogus: FAIL\n"
     "  - bogus: unit eta does not run Id ⇒ Id∘Id\n"
     "  - bogus: counit eps does not run Id∘Id ⇒ Id\n"
     "status: fail\n"),
    (ODD_ADJUNCTION,
     "check nat v: ok\n"
     "check adjunction odd: FAIL\n"
     "  - odd: functor endpoints do not match\n"
     "status: fail\n")], ids=["unit between the wrong functors",
                               "categories that share only objects"])
def test_an_adjunction_whose_parts_do_not_fit_together_fails(tmp_path,
                                                             capsys, text,
                                                             tail):
    """Every category, functor and nat of the document passes its check,
    but the adjunction's parts do not fit together, so it fails."""
    path = tmp_path / "adjunction.jt"
    path.write_text(text)
    code, out = run(capsys, "check", str(path))
    assert code == 1
    assert out.endswith(tail)
    assert out.count("FAIL") == 1


DEMO_LINES = {p.name: p.read_text(encoding="utf-8").splitlines()
              for p in sorted(DEMOS.glob("*.jt"))}


@st.composite
def edited_demos(draw):
    """A demo document after one to three edits: delete a line, duplicate
    a line, or replace a name on a line by another name of the document."""
    lines = list(DEMO_LINES[draw(st.sampled_from(sorted(DEMO_LINES)))])
    names = sorted({w for line in lines
                    for w in re.findall(r"\w+", line.partition("#")[0])})
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "rename"]))
        spans = [w.span() for w in
                 re.finditer(r"\w+", lines[i].partition("#")[0])]
        if edit == "delete" and len(lines) > 1:
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "rename" and spans:
            a, b = draw(st.sampled_from(spans))
            lines[i] = lines[i][:a] + draw(st.sampled_from(names)) \
                + lines[i][b:]
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None)
@given(text=edited_demos())
def test_an_edited_demo_ends_in_a_status_line(text):
    """However a demo is edited, ``jt check`` ends in a report with a
    ``status:`` line, never in an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.jt"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", str(path)])
    assert code in (0, 1)
    assert out.getvalue().splitlines()[-1] in ("status: ok", "status: fail")


def test_check_json(capsys):
    code, out = run(capsys, "check", "--json", str(DEMOS / "toy.jt"))
    assert code == 0
    data = json.loads(out)
    assert data["report"] == "jt/1"
    assert data["status"] == "ok"
    assert all(c["status"] == "ok" for c in data["checks"])


def test_check_json_failure_carries_diagnostics(capsys):
    code, out = run(capsys, "check", "--json",
                    str(DEMOS / "broken_adjunction.jt"))
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "fail"
    bad = [c for c in data["checks"] if c["status"] == "fail"]
    assert bad and any("triangle identity" in d
                       for c in bad for d in c["diagnostics"])


def test_check_syntax_error(tmp_path, capsys):
    f = tmp_path / "bad.jt"
    for text, line in [("category C\n  object\n", 2),
                       ("doctrine D = powerset x\n", 1)]:
        f.write_text(text)
        code, out = run(capsys, "check", str(f))
        assert code == 1
        assert f"check parse {f}: FAIL" in out
        assert f"line {line}" in out


@pytest.mark.parametrize("argv", [["check"], ["close"],
                                  ["derive", "--rule", "cut"]])
def test_a_file_that_is_not_utf8_is_a_read_failure(tmp_path, capsys, argv):
    f = tmp_path / "bad.jt"
    f.write_bytes(b"category C\n  object a\xff\n")
    code, out = run(capsys, argv[0], str(f), *argv[1:])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "report jt/1"
    assert lines[2:] == [
        f"check read {f}: FAIL",
        "  - 'utf-8' codec can't decode byte 0xff in position 21: "
        "invalid start byte",
        "status: fail"]


def test_a_leading_byte_order_mark_is_not_part_of_the_document(tmp_path,
                                                               capsys):
    plain = DEMOS / "toy.jt"
    marked = tmp_path / "toy.jt"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    code, out = run(capsys, "check", str(marked))
    assert code == 0
    assert out == run(capsys, "check", str(plain))[1].replace(str(plain),
                                                               str(marked))


INCOMPLETE_M = """category M
  object a
  object b
  morphism f : a -> b
  morphism g : b -> b
"""


@pytest.mark.parametrize("text, label", [
    # A classifier whose total category lacks g ∘ f.
    (INCOMPLETE_M + """
category A
  object x
  object y
  morphism s : x -> y
  complete

functor P : M -> A
  object a |-> x
  object b |-> y
  morphism f |-> s
  morphism g |-> id_y

classifier U : P kind fibration
""", "classifier U"),
    # A functor into a category that lacks a composite.
    (INCOMPLETE_M + """
category D
  object x
  object y
  morphism s : x -> y
  morphism e : y -> y
  e ∘ s = s
  e ∘ e = e
  complete

functor F : D -> M
  object x |-> a
  object y |-> b
  morphism s |-> f
  morphism e |-> g
""", "functor F"),
    # A theory over it.
    (INCOMPLETE_M + """
theory T over M
""", "theory T: shape"),
], ids=["classifier", "functor", "theory"])
def test_check_never_runs_over_a_broken_category(tmp_path, capsys, text,
                                                   label):
    f = tmp_path / "broken.jt"
    f.write_text(text)
    code, out = run(capsys, "check", str(f))
    assert code == 1
    assert "check category M: FAIL" in out
    assert f"check {label}: FAIL\n  - uses category M, which failed its " \
        "check\n" in out
    assert out.rstrip().endswith("status: fail")


KINDS_DOC = """category One
  object *

category Two
  object x
  object y
  morphism a : x -> y
  complete

functor top : One -> Two
  object * |-> y

functor bang : Two -> One
  object x |-> *
  object y |-> *
  morphism a |-> id_*

classifier Y : top kind functor
classifier B : bang kind discrete
classifier P : top

theory T over Two
  judgement Y
  judgement P

theory S over One
  judgement B
"""


def test_a_declared_kind_is_checked_once_per_classifier(tmp_path, capsys):
    """``top`` picks y, so no morphism lies over a : x → y: Y and P are
    no fibrations.  Declared ``kind functor``, or no kind, expects
    nothing, so their classifier checks pass; B declares a kind it does
    not have.  As judgements, each is checked again against the variance
    of its theory."""
    f = tmp_path / "kinds.jt"
    f.write_text(KINDS_DOC)
    code, out = run(capsys, "check", str(f))
    assert code == 1
    assert out.splitlines()[2:] == [
        f"check parse {f}: ok",
        "check resolve names: ok",
        "check category One: ok",
        "check category Two: ok",
        "check functor top: ok",
        "check functor bang: ok",
        "check classifier Y: ok",
        "check classifier B: FAIL",
        "  - B: expected discrete, got fibration+opfibration: B: not discrete",
        "check classifier P: ok",
        "check theory T: shape: ok",
        "check theory T: closure axioms: FAIL",
        "  - Y: expected fibration, got opfibration: Y: no cartesian lift "
        "of 'a' at '*'",
        "  - P: expected fibration, got opfibration: P: no cartesian lift "
        "of 'a' at '*'",
        "check theory S: shape: ok",
        "check theory S: closure axioms: ok",
        "status: fail"]


CONSTRUCTOR_DOC = """category X
  object x

category Y
  object y

category Z
  object z

functor L : X -> Y
  object x |-> y

functor P : Y -> Z
  object y |-> z

functor Q : X -> Z
  object x |-> z

instance dtt2 = dtt-finset 2

constructor K mode {mode}
  lambda L
  phi P
  psi Q
"""


@pytest.mark.parametrize("mode, extra", [("strict", ""),
                                         ("weak", "  section L\n")])
def test_a_constructor_block_is_a_parse_failure(tmp_path, capsys, mode,
                                                extra):
    """The language has no ``constructor`` block: a document that still
    declares one, in either mode, ends in the parse failure of a jt/1
    report."""
    f = tmp_path / "constructor.jt"
    f.write_text(CONSTRUCTOR_DOC.format(mode=mode) + extra)
    code, out = run(capsys, "check", str(f))
    assert code == 1
    assert out == (
        "report jt/1\n"
        f"command: check {f}\n"
        f"check parse {f}: FAIL\n"
        "  - line 21, column 1: unknown block 'constructor' (expected "
        "category, functor, nat, adjunction, classifier, theory, doctrine, "
        "instance)\n"
        "status: fail\n")


def test_demo_toy(capsys):
    code, out = run(capsys, "demo", "toy")
    assert code == 0
    assert "judgements: t, c, v" in out
    assert "ext(A) ⊢ A ε_A Type" in out


def test_demo_dtt(capsys):
    code, out = run(capsys, "demo", "dtt-finset")
    assert code == 0
    for label in ("(ΠF)", "(ΠI)", "(ΠE)", "(ΠβC)", "(ΠηC)", "(IdF)",
                  "(⅀F)", "(⅀I)", "(DTy)", "(DTm)"):
        assert label in out


def test_demo_ndt(capsys):
    code, out = run(capsys, "demo", "ndt-powerset")
    assert code == 0
    for label in ("(H)", "(Sw)", "(C)", "(W)", "(Cut)", "(∧I)", "(∀I)",
                  "(∀E)"):
        assert label in out


def test_derive_pi(capsys):
    code, out = run(capsys, "derive", "--rule", "pi",
                    str(DEMOS / "dtt_finset.jt"))
    assert code == 0
    assert out.count("(Π") == 5


def test_derive_cut(capsys):
    code, out = run(capsys, "derive", "--rule", "cut",
                    str(DEMOS / "ndt_powerset.jt"))
    assert code == 0
    assert "(Cut)" in out


def test_derive_forall(capsys):
    code, out = run(capsys, "derive", "--rule", "forall",
                    str(DEMOS / "ndt_powerset.jt"))
    assert code == 0
    assert "(∀I)" in out


def test_derive_forall_on_a_chain_doctrine_fails_in_the_report(tmp_path,
                                                               capsys):
    f = tmp_path / "chain.jt"
    f.write_text("doctrine D = chain 2 1\n")
    code, out = run(capsys, "derive", "--rule", "forall", str(f))
    assert code == 1
    assert "check quantifier adjunctions (sort 1): FAIL" in out
    assert "quantifiers need a powerset doctrine" in out
    assert out.rstrip().endswith("status: fail")


def test_render_latex(capsys):
    code, out = run(capsys, "render", "--rule", "Cut", "--format", "latex")
    assert code == 0
    assert "\\begin{prooftree}" in out and "\\BinaryInfC" in out


def test_render_unknown_rule(capsys):
    code, out = run(capsys, "render", "--rule", "nope")
    assert code == 1


def test_close_reports_new_keys(capsys):
    code, out = run(capsys, "close", str(DEMOS / "toy.jt"))
    assert code == 0
    assert "PB(" in out


def test_running_out_of_memory_ends_in_a_failing_report(monkeypatch,
                                                         capsys):
    """`close --depth 3` on the toy demo outgrows memory in a pullback;
    the request still ends in a jt/1 report."""
    import judgekit.theory

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(judgekit.theory, "pullback_category", out_of_memory)
    path = str(DEMOS / "toy.jt")
    code, out = run(capsys, "close", "--depth", "3", path)
    assert code == 1
    lines = out.splitlines()
    assert lines[:2] == ["report jt/1", f"command: close {path} --depth 3"]
    assert "check memory: FAIL" in lines
    assert lines[-1] == "status: fail"


def test_parser_rejects_unknown_command(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def _law_breaks_document():
    """A category whose composition x ∘ y = x - y (mod 4) is total but
    breaks associativity at many triples, and, in the monoid of maps on
    {0, 1, 2}, a transformation whose component is a constant map, so
    that naturality fails at every map that moves 0."""
    names = "abcd"
    lines = ["category M", "  object *"]
    lines += [f"  morphism {x} : * -> *" for x in names]
    lines += [f"  {x} ∘ {y} = {names[(i - j) % 4]}"
              for i, x in enumerate(names) for j, y in enumerate(names)]
    lines += ["  complete", "", "category E", "  object *"]
    maps = [m for m in product(range(3), repeat=3) if m != (0, 1, 2)]

    def name(m):
        return "id_*" if m == (0, 1, 2) else "m" + "".join(map(str, m))
    lines += [f"  morphism {name(m)} : * -> *" for m in maps]
    lines += [f"  {name(g)} ∘ {name(f)} = {name(tuple(g[i] for i in f))}"
              for g in maps for f in maps]
    lines += ["  complete", "", "functor I : E -> E", "  object * |-> *"]
    lines += [f"  morphism {name(m)} |-> {name(m)}" for m in maps]
    lines += ["", "nat k : I => I", "  at * = m000", ""]
    return "\n".join(lines)


def _unmapped_parallels_document():
    """A functor that gives no image to three parallel morphisms, so that
    the well-formedness pass of ``validate_functor`` reports three lines."""
    lines = ["category A", "  object a", "  object b"]
    lines += [f"  morphism f{i} : a -> b" for i in (1, 2, 3)]
    lines += ["  complete", "", "functor F : A -> A",
              "  object a |-> a", "  object b |-> b", ""]
    return "\n".join(lines)


def test_check_reports_do_not_depend_on_the_hash_seed(tmp_path):
    docs = {"breaks.jt": _law_breaks_document(),
            "unmapped.jt": _unmapped_parallels_document()}
    src = str(Path(__file__).parent.parent / "src")
    outs = {name: set() for name in docs}
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for name in docs:
            run = subprocess.run([sys.executable, "-m", "judgekit.cli",
                                  "check", str(tmp_path / name)], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 1, run.stderr
            outs[name].add(run.stdout)
    assert all(len(o) == 1 for o in outs.values())
    out = outs["breaks.jt"].pop()
    assert out.count("associativity fails") > 10
    assert out.count("naturality square fails") == 18
    assert outs["unmapped.jt"].pop().count("no image for morphism") == 3


def test_reports_do_not_depend_on_what_the_check_context_keeps(
        tmp_path, monkeypatch, capsys):
    """Each request made with a check context that keeps nothing, so
    that every check runs again, gives the report it gives with one."""
    (tmp_path / "chain.jt").write_text("doctrine D = chain 2 2\n")
    (tmp_path / "dtt.jt").write_text("instance J = dtt-finset 2\n")
    chain, dtt = str(tmp_path / "chain.jt"), str(tmp_path / "dtt.jt")
    requests = [("check", str(p)) for p in sorted(DEMOS.glob("*.jt"))]
    requests += [("demo", w) for w in ("toy", "dtt-finset", "ndt-powerset")]
    requests += [("derive", chain, "--rule", r)
                 for r in ("cut", "structural:W", "structural:C")]
    requests += [("check", dtt)] + [("derive", dtt, "--rule", r)
                                    for r in ("pi", "sum", "id")]

    def reports():
        return [run(capsys, *argv) for argv in requests]

    kept = reports()
    monkeypatch.setattr(core._Context, "recall",
                        lambda self, make, kind, obj: make())
    assert reports() == kept


# Rules into 𝕌, 𝕌̇, 𝔽, 𝔼 or a pullback of them that lie over ctx, or over
# 𝔽, from their domain or a factor of their pullback domain: the functor
# lemma decides each, so a derive request sweeps none of them.
DECIDED_OVER_A_BASE = {"Π", "ΠΛ", "λ", "Π★", "Ⅎ", "ℲΛ", "pair", "Ⅎ★",
                       "SHARP(η′,𝕌)", "SHARP(η′,𝕌̇)", "SHARP(α,𝔼d)",
                       "d", "c", "Iddiag", "Id★", "refl", "Σ"}
# Swept, since none of them records a base: the projections u : 𝕌 → ctx
# and u̇ : 𝕌̇ → ctx, Δ : 𝕌 → 𝕌̇, the composites u̇Δ and u̇ΔΣ, and IdE1,
# which corestricts Iddiag to the equalizer of the two term projections.
SWEPT_DTT = {"u", "u̇", "Δ", "u̇Δ", "u̇ΔΣ", "IdE1"}


@pytest.mark.parametrize(("doc", "rule"), [
    ("instance J = dtt-finset 2", "pi"), ("instance J = dtt-finset 2", "sum"),
    ("instance J = dtt-finset 2", "dty"), ("instance J = dtt-finset 2", "id"),
    ("doctrine D = chain 2 2", "cut")])
def test_rules_over_a_base_are_decided_without_sweeping(tmp_path, capsys,
                                                         monkeypatch, doc,
                                                         rule):
    swept = []
    real = core._composition_sweep
    monkeypatch.setattr(core, "_composition_sweep",
                        lambda F: swept.append(F) or real(F))
    (tmp_path / "d.jt").write_text(doc + "\n")
    code, out = run(capsys, "derive", str(tmp_path / "d.jt"), "--rule", rule)
    assert code == 0, out
    names = {F.name for F in swept}
    assert not names & DECIDED_OVER_A_BASE
    assert not [F.name for F in swept
                if isinstance(F.dom.compose, core.Composition)
                or isinstance(F.cod.compose, core.Composition)]
    if doc.startswith("instance"):
        assert names <= SWEPT_DTT
