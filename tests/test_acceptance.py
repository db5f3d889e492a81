"""The acceptance gate: one test per shipped guarantee.

Every test prints a single ``criterion N (...): PASS|FAIL`` line so the
suite's verdict can be read off the log at a glance.  All checks are
exact (table equality, byte equality, or exhaustive enumeration); none
involve numerical tolerances.
"""

import json
from pathlib import Path

from judgekit.core import (check_adjunction, check_category_iso,
                           compose_functors, identity_functor, same_functor,
                           validate_category, validate_functor)
from judgekit.cli import main as cli_main
from judgekit.dtt import (context_extension, derive_dependency,
                          derive_display_transport, id_extensionality,
                          jdtt_to_nm, natural_model_round_trip, phi_derive,
                          validate_natural_model)
from judgekit.fibrations import Classifier, is_cartesian
from judgekit.finset_topos import (instantiate_constructor,
                                   make_weak_constructor_example)
from judgekit.finsets import fin_skeleton
from judgekit.limits import (bang_functor, equalizer_category,
                             pullback_category, terminal_category,
                             verify_equalizer_universal,
                             verify_pullback_universal,
                             walking_arrow_category)
from judgekit.ndt import (PowersetDoctrine, derive_connectives,
                          derive_structural, forall_rules, pair_comparison,
                          quantifier_package, sequent_monad)
from judgekit.render import derived_rule, render_rule_tree

from oracles import (all_maps, cut_reindex_oracle, dec, naive_forall,
                     naive_substitute, quantifier_oracle, rule_tables,
                     skeleton_map, structural_oracle, substitution_oracle,
                     valid)

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"


def _verdict(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num} ({desc}): {status}")
    assert not failures, failures[:10]


def _lift_sound(lift, classifier, lam):
    """Every lifted-policy component cartesian; the lifted square commutes
    as tables."""
    bad = list(lift.diagnostics)
    for m in lift.policy.components.values():
        if not is_cartesian(classifier, m):
            bad.append(f"non-cartesian component {m!r}")
    p1f, _ = lift.premise_projs
    p2g, _ = lift.conclusion_projs
    if not same_functor(compose_functors(p2g, lift.rule),
                        compose_functors(lam, p1f)):
        bad.append("lifted square does not commute")
    return bad


def test_criterion_1_category_laws_and_limits(ds2, toy, topos2):
    bad = []
    corpus = [terminal_category(), walking_arrow_category(),
              fin_skeleton(0), fin_skeleton(1), fin_skeleton(2),
              toy.U.total, topos2.u.total, topos2.udot.total,
              ds2.P.total, ds2.E.total]
    for c in corpus:
        bad += validate_category(c)
    one, two = terminal_category(), walking_arrow_category()
    apexes = [one, two]
    f = bang_functor(two, one)
    g = bang_functor(fin_skeleton(1), one)
    pb, p1, p2 = pullback_category(f, g)
    bad += verify_pullback_universal(f, g, pb, p1, p2, apexes)
    eq, incl = equalizer_category(identity_functor(two),
                                  identity_functor(two))
    bad += verify_equalizer_universal(identity_functor(two),
                                      identity_functor(two), eq, incl, apexes)
    h = bang_functor(toy.U.total, one)
    pb2, q1, q2 = pullback_category(h, bang_functor(two, one))
    bad += verify_pullback_universal(h, bang_functor(two, one),
                                     pb2, q1, q2, apexes)
    _verdict(1, "category laws and limit universal properties", bad)


def test_criterion_2_sharp_lift_soundness(toy, topos2, ds2):
    bad = []
    lam_toy = identity_functor(toy.U.total)
    bad += _lift_sound(toy.ext_lift, toy.U, lam_toy)
    dep = derive_dependency(topos2)
    bad += dep.diagnostics
    lam = identity_functor(topos2.udot.total)
    bad += _lift_sound(dep.dty, topos2.u, lam)
    bad += _lift_sound(dep.dtm, topos2.udot, lam)
    tr = derive_display_transport(topos2, dep)
    bad += tr.diagnostics
    bad += _lift_sound(tr.transport, topos2.udot, lam)
    st = derive_structural(ds2)
    bad += st.diagnostics
    e_over_p = Classifier("𝔼d", ds2.d)
    bad += _lift_sound(st.cut_lift, e_over_p, identity_functor(ds2.E.total))
    _verdict(2, "lifted policies cartesian, squares commute", bad)


def test_criterion_3_extension_equation(topos2):
    bad = []
    for A in topos2.u.total.objects:
        bad += context_extension(topos2, A).diagnostics
    _verdict(3, "ΣΔA = A[δ_A] up to unique vertical iso, all A", bad)


def test_criterion_4_natural_model_bridge(topos2):
    bad = list(natural_model_round_trip(topos2))
    bad += validate_natural_model(jdtt_to_nm(topos2))
    _verdict(4, "natural-model round trip and representability", bad)


def test_criterion_5_constructor_engine(topos2):
    bad = []
    dep = derive_dependency(topos2)
    for which in ("pi", "id", "sum"):
        out = phi_derive(topos2, instantiate_constructor(topos2, which, dep))
        bad += out.diagnostics
        if not (out.beta_holds and out.eta_holds and out.has_eta):
            bad.append(f"{which}: strict β/η not established")
    weak = phi_derive(topos2, make_weak_constructor_example(topos2))
    bad += weak.diagnostics
    if not weak.beta_holds:
        bad.append("weak mode: β lost")
    if weak.has_eta or weak.eta_holds:
        bad.append("weak mode: η wrongly claimed")
    _verdict(5, "strict Π/Id/⅀ engine; weak mode drops η only", bad)


def test_criterion_6_identity_extensionality(topos2):
    C = instantiate_constructor(topos2, "id")
    bad = list(id_extensionality(topos2, C))
    inhabited = {topos2.Sigma.obj_map[c] for c in topos2.udot.total.objects}
    for a in topos2.udot.total.objects:
        for b in topos2.udot.total.objects:
            if topos2.Sigma.obj_map[a] != topos2.Sigma.obj_map[b]:
                continue
            if C.Phi.obj_map[(a, b)] in inhabited and a != b:
                bad.append(f"inhabited Id over distinct terms ({a!r},{b!r})")
    _verdict(6, "inhabited identity types force a = b", bad)


def test_criterion_7_sequent_rules_vs_subset_semantics(ds2):
    bad = []
    # Contexts ≤ 2: the derived functors equal the reference tables
    # key for key, so the tables *are* the categorical rules there.
    st = derive_structural(ds2)
    cn = derive_connectives(ds2)
    qr = forall_rules(ds2, 1)
    got = {"t": st.trivial, "H": st.assumption, "Sw": st.exchange,
           "C": st.contraction, "W": st.weakening, "Cut": st.cut,
           "∧I": cn.intro, "∧E1": cn.proj1, "∧E2": cn.proj2,
           "∀I": qr.intro}
    tables2 = rule_tables(2, y=1)
    for name, rule in got.items():
        if dict(rule.obj_map) != tables2[name]:
            bad.append(f"{name}: derived rule differs from reference table")
    # Contexts ≤ 3: the same tables against naive subset semantics,
    # exhaustively on every premise object.
    tables3 = rule_tables(3, y=1)
    for name, table in tables3.items():
        for prem, concl in table.items():
            if not valid(concl):
                bad.append(f"{name}: invalid conclusion at {prem!r}")
    for ((_, (a, _)), (_, (_, c2))), (x, (ant, cons)) in tables3["Cut"].items():
        if ant != a or cons != c2:
            bad.append(f"Cut formula wrong at context {x}")
    for (x, (g, f)), (_, (g2, fa)) in tables3["∀I"].items():
        if g2 != g or dec(fa) != naive_forall(x, 1, dec(f)):
            bad.append(f"∀I formula wrong at ({x},{g},{f})")
    # ∀E: substitution instances over all terms, contexts ≤ 3.
    from judgekit.finsets import subset_leq, subsets
    doc = PowersetDoctrine(3)
    for x in range(4):
        for y in range(1, 4):
            for im in all_maps(x, y):
                t = skeleton_map(x, y, im)
                for f in subsets(x * y):
                    sub = doc.substitute(x, y, t, f)
                    if dec(sub) != naive_substitute(x, y, im, dec(f)):
                        bad.append(f"∀E substitution wrong at {t}:{f}")
                    if not subset_leq(doc.forall(x, y, f), sub):
                        bad.append(f"∀E unsound at {t}:{f}")
    bad += structural_oracle(3)
    bad += cut_reindex_oracle(3)
    _verdict(7, "sequent rules ≡ subset semantics over Fin(≤3)", bad)


def test_criterion_8_sequent_monad_and_kleisli(ds2):
    bad = []
    mon = sequent_monad(ds2)
    bad += mon.diagnostics
    if not mon.idempotent:
        bad.append("monad not idempotent")
    pc = pair_comparison(ds2, mon)
    bad += pc.diagnostics
    diag, _ = check_category_iso(pc.skeleton_iso)
    bad += diag
    diag, _ = check_category_iso(pc.base_embed)
    bad += diag
    _verdict(8, "monad laws; Kleisli ≅ proposition pairs", bad)


def test_criterion_9_quantifier_adjunctions(ds2):
    bad = list(quantifier_oracle(3))
    for y in (0, 1, 2):
        qp = quantifier_package(ds2, y)
        bad += qp.diagnostics
        bad += check_adjunction(qp.left_adjunction)
        bad += check_adjunction(qp.right_adjunction)
    bad += substitution_oracle(3)
    _verdict(9, "∃ ⊣ w ⊣ ∀ with stability and trivial substitution", bad)


def test_criterion_10_renderer_goldens():
    bad = []
    for name, stem in (("ΠF", "pi_formation"), ("ΠI", "pi_introduction"),
                       ("DTy", "type_dependency"), ("Cut", "cut"),
                       ("∀I", "forall_introduction")):
        rule = derived_rule(name, "", "", None)
        if render_rule_tree(rule, "text") + "\n" != \
                (GOLDEN / f"{stem}.txt").read_text():
            bad.append(f"{stem}.txt differs")
        if render_rule_tree(rule, "latex") + "\n" != \
                (GOLDEN / f"{stem}.tex").read_text():
            bad.append(f"{stem}.tex differs")
    _verdict(10, "proof figures byte-equal to goldens", bad)


def test_criterion_11_cli_end_to_end(capsys):
    bad = []
    for which, needles in (
            ("toy", ("judgements: t, c, v", "ext(A) ⊢ A ε_A Type")),
            ("dtt-finset", ("(ΠF)", "(IdF)", "(⅀I)", "(DTm)")),
            ("ndt-powerset", ("(H)", "(Cut)", "(∀I)", "(∀E)"))):
        code = cli_main(["demo", which])
        out = capsys.readouterr().out
        if code != 0:
            bad.append(f"demo {which} exited {code}")
        for needle in needles:
            if needle not in out:
                bad.append(f"demo {which} missing {needle!r}")
    code = cli_main(["check", str(DEMOS / "broken_adjunction.jt")])
    out = capsys.readouterr().out
    if code == 0:
        bad.append("corrupted adjunction not rejected")
    if "triangle identity" not in out:
        bad.append("missing triangle-identity diagnostic")
    code = cli_main(["check", "--json", str(DEMOS / "toy.jt")])
    data = json.loads(capsys.readouterr().out)
    if code != 0 or data["status"] != "ok":
        bad.append("toy demo file fails its checks")
    with capsys.disabled():
        _verdict(11, "CLI demos green; corruption diagnosed", bad)