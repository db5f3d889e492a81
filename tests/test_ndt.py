from dataclasses import replace

import pytest

from judgekit import fibrations, finset_topos, ndt
from judgekit.core import (FunctorMap, along, check_adjunction,
                           check_category_iso, compose_functors,
                           identity_functor, same_functor, subcategory,
                           validate_category, validate_functor)
from judgekit.dtt import derive_dependency
from judgekit.fibrations import Classifier, is_cartesian
from judgekit.finset_topos import build_finset_topos, instantiate_constructor
from judgekit.finsets import cross_map, preimage
from judgekit.ndt import (ChainDoctrine, PowersetDoctrine,
                          build_deduction_system, derive_connectives,
                          derive_structural, forall_rules, pair_comparison,
                          quantifier_package, sequent_monad, validate_system)

from oracles import (all_maps, all_subsets, context_maps, cut_reindex_oracle,
                     dec, enc, naive_exists, naive_forall, naive_restrict,
                     naive_restrict_extended, naive_substitute, naive_weaken,
                     quantifier_full_stability_failures, quantifier_oracle,
                     rule_tables, skeleton_map, structural_oracle,
                     substitution_oracle, valid)


def test_system_is_well_formed(ds2):
    assert validate_system(ds2) == []


def test_chain_system_is_well_formed(chain_ds):
    assert validate_system(chain_ds) == []


def test_system_reports_a_non_fibration_once():
    ds = build_deduction_system(ChainDoctrine(1, 1))
    P, ctx = ds.P, ds.ctx
    # The vertical subcategory of 𝔽 has no lift of a non-identity arrow.
    vert = subcategory(P.total, P.total.objects,
                       lambda m: ctx.is_identity(P.proj.mor_map[m]), "𝔽")
    proj = FunctorMap(P.proj.name, vert, ctx, dict(P.proj.obj_map),
                      {m: P.proj.mor_map[m] for m in vert.morphisms})
    F = Classifier(P.name, proj)
    ds.theory.judgements[P.name] = F
    fib = [b for b in validate_system(replace(ds, P=F))
           if "expected fibration" in b]
    assert len(fib) == 1 and fib[0].startswith("𝔽: expected fibration")


THIN_RULES = ["d", "c", "∧", "H", "W", "∧∧", "C", "Sw", "cut∘"]


def _structural(doc):
    derive_structural(build_deduction_system(doc))


def _quantifiers(doc):
    ds = build_deduction_system(doc)
    derive_structural(ds)
    quantifier_package(ds, 1)


def _dtt_rules(n):
    J = build_finset_topos(n)
    dep = derive_dependency(J)
    for which in ("pi", "id", "sum"):
        instantiate_constructor(J, which, dep)


@pytest.mark.parametrize("build, names", [
    (lambda: _structural(ChainDoctrine(2, 2)), THIN_RULES),
    (lambda: _quantifiers(PowersetDoctrine(2)),
     [*THIN_RULES, "w1", "∀1", "∃1"]),
    (lambda: _dtt_rules(2), ["Σ", "Π", "λ", "Id", "Ⅎ", "pair"])],
    ids=["chain 2 2", "powerset 2", "dtt-finset 2"])
def test_every_thin_rule_takes_the_one_morphism_over_its_base_arrow(
        build, names, monkeypatch):
    """Each image of a thin rule is the one morphism of its target between
    the images of the endpoints over the rule's base arrow, found here by
    a scan of the target's hom-set.  The lookups that build a rule are its
    only check of these images, so this scan is their oracle."""
    built, thin_rule = [], fibrations.thin_rule

    def recorded(name, dom_cat, target, obj_fn, path, source):
        rule = thin_rule(name, dom_cat, target, obj_fn, path, source)
        built.append((rule, target, path, source))
        return rule
    monkeypatch.setattr(ndt, "thin_rule", recorded)
    monkeypatch.setattr(finset_topos, "thin_rule", recorded)
    build()
    assert [rule.name for rule, *_ in built] == names
    for rule, target, path, source in built:
        c, pmor = rule.dom, target.proj.mor_map

        def scanned(m):
            sigma = source.proj.mor_map[along(path, m)]
            hits = [n for n in target.total.hom(rule.obj_map[c.src[m]],
                                                rule.obj_map[c.tgt[m]])
                    if pmor[n] == sigma]
            assert len(hits) == 1, (rule.name, m)
            return hits[0]
        assert rule.mor_map == {m: scanned(m) for m in c.morphisms}, \
            rule.name


def test_sequents_are_entailments(ds2):
    # Every object of the sequent classifier is a valid entailment.
    for e in ds2.E.total.objects:
        assert valid(e)


def test_structural_rules_derive_cleanly(ds2):
    st = derive_structural(ds2)
    assert st.diagnostics == []


def test_structural_rules_preserve_validity(ds2):
    st = derive_structural(ds2)
    for rule in (st.assumption, st.weakening, st.contraction, st.exchange,
                 st.cut):
        for o in rule.dom.objects:
            assert valid(rule.obj_map[o])


def test_cut_lift_is_cartesian(ds2):
    st = derive_structural(ds2)
    lift = st.cut_lift
    assert lift.diagnostics == []
    # The lifted policy consists of cartesian arrows of 𝔼 regarded as
    # fibered over the propositions via the antecedent projection.
    e_over_p = Classifier("𝔼d", ds2.d)
    for m in lift.policy.components.values():
        assert is_cartesian(e_over_p, m)


def test_connectives_derive_cleanly(ds2):
    cn = derive_connectives(ds2)
    assert cn.diagnostics == []
    for rule in (cn.intro, cn.proj1, cn.proj2):
        for o in rule.dom.objects:
            assert valid(rule.obj_map[o])


def test_rule_tables_match_derived_functors_exactly(ds2):
    """At contexts ≤ 2 the independently computed object tables coincide
    with the derived rules' object maps, key for key."""
    st = derive_structural(ds2)
    cn = derive_connectives(ds2)
    qr = forall_rules(ds2, 1)
    tables = rule_tables(2, y=1)
    assert dict(st.trivial.obj_map) == tables["t"]
    assert dict(st.assumption.obj_map) == tables["H"]
    assert dict(st.exchange.obj_map) == tables["Sw"]
    assert dict(st.contraction.obj_map) == tables["C"]
    assert dict(st.weakening.obj_map) == tables["W"]
    assert dict(st.cut.obj_map) == tables["Cut"]
    assert dict(cn.intro.obj_map) == tables["∧I"]
    assert dict(cn.proj1.obj_map) == tables["∧E1"]
    assert dict(cn.proj2.obj_map) == tables["∧E2"]
    assert dict(qr.intro.obj_map) == tables["∀I"]


def test_rule_tables_against_naive_semantics_at_three():
    """At contexts ≤ 3 (too large to build categorically in full) the same
    tables are checked object by object against plain set computations."""
    tables = rule_tables(3, y=1)
    for name, table in tables.items():
        assert name == "t" or table
        for prem, concl in table.items():
            assert valid(concl)
    # Spot semantics beyond bare validity.
    for ((_, (a, _)), (_, (_, c2))), (x, (ant, cons)) in tables["Cut"].items():
        assert ant == a and cons == c2
    for (x, (g, f)), (_, (g2, fa)) in tables["∀I"].items():
        assert g2 == g
        assert dec(fa) == naive_forall(x, 1, dec(f))


def test_structural_oracle_sweeps():
    assert structural_oracle(3) == []
    assert cut_reindex_oracle(3) == []


def test_sequent_monad(ds2):
    mon = sequent_monad(ds2)
    assert mon.diagnostics == []
    assert mon.idempotent
    assert validate_category(mon.kleisli) == []


def test_kleisli_is_equivalent_to_proposition_pairs(ds2):
    mon = sequent_monad(ds2)
    pc = pair_comparison(ds2, mon)
    assert pc.diagnostics == []
    diag, inv = check_category_iso(pc.skeleton_iso)
    assert diag == []
    assert same_functor(inv, pc.skeleton_iso_inverse)
    # The propositions embed isomorphically as the top-second-component pairs.
    diag2, _ = check_category_iso(pc.base_embed)
    assert diag2 == []
    assert validate_functor(pc.comprehension) == []


@pytest.mark.parametrize("y", [0, 1, 2])
def test_quantifier_package(ds2, y):
    qp = quantifier_package(ds2, y)
    assert qp.diagnostics == []
    assert check_adjunction(qp.left_adjunction) == []
    assert check_adjunction(qp.right_adjunction) == []
    # The quantifiers compute the naive set formulas.
    for (x, f) in qp.extension.total.objects:
        assert dec(qp.forall.obj_map[(x, f)][1]) == naive_forall(x, y, dec(f))


def test_weakening_computes_naively(ds2):
    qp = quantifier_package(ds2, 2)
    for (x, s) in ds2.P.total.objects:
        assert dec(qp.weaken.obj_map[(x, s)][1]) == naive_weaken(x, 2, dec(s))


def test_forall_rules_invertible(ds2):
    qr = forall_rules(ds2, 1)
    assert qr.diagnostics == []
    assert qr.invertible
    assert same_functor(compose_functors(qr.intro, qr.resume),
                        identity_functor(ds2.E.total))


def test_forall_elimination():
    # ∀-elimination at a concrete instance and its failure mode.
    doc = PowersetDoctrine(2)
    f = (0, 1, 2, 3)                   # the full subset of 2·2
    assert doc.forall_elim(2, 2, ("f", 2, 2, (1, 0)), (0,), f) == \
        (2, ((0,), (0, 1)))
    with pytest.raises(ValueError):
        doc.forall_elim(2, 2, ("f", 2, 2, (0, 0)), (0, 1), (0,))


def test_substitution_matches_naive():
    doc = PowersetDoctrine(1)
    for t in ((0,), (1,)):
        for f in ((), (0,), (1,), (0, 1)):
            got = doc.substitute(1, 2, ("f", 1, 2, t), f)
            assert dec(got) == naive_substitute(1, 2, t, frozenset(f))


def test_doctrine_helpers_match_naive_at_three():
    """The doctrine's own weaken, forall, exists, substitute and restrict
    against the naive set versions, over the sweep of the oracles."""
    doc = PowersetDoctrine(3)
    maps = context_maps(3)
    for x in range(4):
        for y in range(4):
            ext = doc.extend(y)
            for s in all_subsets(x):
                assert dec(doc.weaken(x, y, enc(s))) == naive_weaken(x, y, s)
            for f in all_subsets(x * y):
                assert dec(doc.forall(x, y, enc(f))) == naive_forall(x, y, f)
                assert dec(doc.exists(x, y, enc(f))) == naive_exists(x, y, f)
                for t in all_maps(x, y):
                    got = doc.substitute(x, y, skeleton_map(x, y, t), enc(f))
                    assert dec(got) == naive_substitute(x, y, t, f)
            for theta, x2, im in maps:
                if x2 != x:
                    continue
                sigma = skeleton_map(theta, x, im)
                for s in all_subsets(x):
                    assert dec(doc.restrict(sigma, enc(s))) == \
                        naive_restrict(im, s)
                for f in all_subsets(x * y):
                    assert dec(ext.restrict(sigma, enc(f))) == \
                        naive_restrict_extended(im, y, f)


def test_quantifier_oracles():
    assert quantifier_oracle(3) == []
    assert substitution_oracle(3) == []


def test_full_stability_fails_without_fixed_variable_sort():
    wit = quantifier_full_stability_failures(2)
    assert len(wit) == 8
    # Each witness really is a counterexample to the unrestricted square.
    doc = PowersetDoctrine(2)
    for (x, y, y2, tau, f, lhs, rhs) in wit:
        cm = cross_map(("f", x, x, tuple(range(x))), tau)
        assert dec(doc.forall(x, y, preimage(cm, enc(f)))) == lhs
        assert dec(doc.forall(x, y2, enc(f))) == rhs
        assert lhs != rhs
