from dataclasses import replace

from judgekit.core import (FunctorMap, identity_functor, make_category,
                           same_functor, sort_key, whisker_left)
from judgekit.dtt import (context_extension, derive_dependency,
                          derive_display_transport, id_extensionality,
                          jdtt_to_nm, natural_model_round_trip, nm_to_jdtt,
                          phi_check, phi_derive, validate_jdtt,
                          validate_natural_model)
from judgekit.finset_topos import (_pi_subset, build_finset_topos,
                                   instantiate_constructor,
                                   make_weak_constructor_example)
from judgekit.finsets import preimage

from oracles import dec, enc, pi_adjunction_oracle


def test_finset_model_is_well_formed(topos2):
    assert validate_jdtt(topos2) == []


def test_sigma_outside_types_is_a_diagnostic(topos2):
    J = topos2
    S = J.Sigma
    m = next(m for m in S.dom.sorted_morphisms() if not S.dom.is_identity(m))
    broken = FunctorMap(S.name, S.dom, S.cod, S.obj_map,
                        {**S.mor_map, m: "alien"})
    bad = validate_jdtt(replace(J, Sigma=broken))
    assert bad == [f"Σ: morphism image 'alien' not in {J.u.total.name}"]


def test_a_missing_composite_of_types_is_reported_as_such():
    """validate_jdtt checks the table of 𝕌 before it classifies u.  𝕌
    computes its composites, so u is put over a table copy of 𝕌 that
    lacks one."""
    J = build_finset_topos(2)
    U = J.u.total
    gf = next(gf for gf in sorted(U.compose, key=sort_key)
              if not (U.is_identity(gf[0]) or U.is_identity(gf[1])))
    table = dict(U.compose.items())
    del table[gf]
    copy = make_category(U.name, U.objects, U.morphisms, U.src, U.tgt,
                         U.identity, table)
    J = replace(J, u=replace(J.u, proj=replace(J.u.proj, dom=copy)))
    assert validate_jdtt(J) == [
        f"𝕌: composition missing for ({gf[0]!r}, {gf[1]!r})"]


def test_context_extension_for_every_type(topos2):
    J = topos2
    for A in J.u.total.objects:
        e = context_extension(J, A)
        assert e.diagnostics == []
        (x, s) = A
        # Extending by the subtype S of X yields the context |S|.
        assert e.ext == len(s)
        assert J.theory.ctx.src[e.delta] == e.ext
        assert J.theory.ctx.tgt[e.delta] == x
        # The generic term lives over the extended context.
        assert J.udot.proj.obj_map[e.q] == e.ext


def test_dependency_rules(topos2):
    dep = derive_dependency(topos2)
    assert dep.diagnostics == []
    J = topos2
    # Type dependency re-indexes B along the substitution induced by the
    # unit at a (here, the identity on the context of a).
    eta_p = whisker_left(J.udot.proj, J.eta)
    for (a, B) in dep.dty.premise.objects:
        got = dep.dty.rule.obj_map[(a, B)]
        assert got[0] == a
        (x, t) = B
        assert got[1] == (x, preimage(eta_p.components[a], t))


def test_display_transport_inverts_dependency(topos2):
    tr = derive_display_transport(topos2)
    assert tr.diagnostics == []


def test_natural_model_round_trip(topos2):
    assert natural_model_round_trip(topos2) == []


def test_natural_model_validation_catches_damage(topos2):
    M = jdtt_to_nm(topos2)
    assert validate_natural_model(M) == []
    # Damage one piece of representability data.
    A = next(iter(M.repr_data))
    ext, delta, q = M.repr_data[A]
    other_q = next(t for t in M.terms.total.objects if t != q)
    M.repr_data[A] = (ext, delta, other_q)
    assert validate_natural_model(M)
    M.repr_data[A] = (ext, delta, q)


def test_nm_rebuild_agrees(topos2):
    M = jdtt_to_nm(topos2)
    J2 = nm_to_jdtt(M)
    assert validate_jdtt(J2) == []
    assert same_functor(J2.Delta, topos2.Delta)
    assert J2.eps.components == topos2.eps.components
    assert J2.eta.components == topos2.eta.components


def test_pi_constructor_is_strict(topos2):
    C = instantiate_constructor(topos2, "pi")
    out = phi_derive(topos2, C)
    assert out.diagnostics == []
    assert out.beta_holds and out.eta_holds and out.has_eta


def test_pi_matches_subset_implication(topos2):
    # Formation computes the dependent product of subsets.
    C = instantiate_constructor(topos2, "pi")
    for (A, B) in C.Y.objects:
        (x, s) = A
        (xs, t) = B
        assert xs == len(s)
        got = C.Phi.obj_map[(A, B)]
        # Every v ∈ S whose index lies outside T blocks membership.
        want = frozenset(v for v in range(x)
                         if v not in s or s.index(v) in set(t))
        assert dec(got[1]) == want


def test_id_constructor_is_strict(topos2):
    C = instantiate_constructor(topos2, "id")
    out = phi_derive(topos2, C)
    assert out.diagnostics == []
    assert out.beta_holds and out.eta_holds


def test_sum_constructor_is_strict(topos2):
    dep = derive_dependency(topos2)
    C = instantiate_constructor(topos2, "sum", dep)
    out = phi_derive(topos2, C)
    assert out.diagnostics == []
    assert out.beta_holds and out.eta_holds


def test_weak_constructor_keeps_beta_loses_eta(topos2):
    C = make_weak_constructor_example(topos2)
    out = phi_derive(topos2, C)
    assert out.diagnostics == []
    assert out.beta_holds
    assert not out.has_eta and not out.eta_holds


def test_a_weak_section_off_the_pullback_is_a_diagnostic(topos2):
    """A section that does not start at PB(Φ,Σ) is reported, not composed
    with the comparison."""
    C = instantiate_constructor(topos2, "id")
    C.section = identity_functor(C.X)
    chk = phi_check(topos2, C)
    assert chk.diagnostics == [
        f"Id: {C.section.name} does not start at {chk.pullback.name}"]
    assert chk.comparison is not None


def test_id_extensionality(topos2):
    C = instantiate_constructor(topos2, "id")
    assert id_extensionality(topos2, C) == []
    # Independent brute force: for every pair of terms of the same type,
    # an inhabited identity type forces the terms to coincide.
    J = topos2
    inhabited = {J.Sigma.obj_map[c] for c in J.udot.total.objects}
    for a in J.udot.total.objects:
        for b in J.udot.total.objects:
            if J.Sigma.obj_map[a] != J.Sigma.obj_map[b]:
                continue
            if C.Phi.obj_map[(a, b)] in inhabited:
                assert a == b


def test_a_reflexivity_off_the_equalizer_is_one_diagnostic(topos2):
    """A Λ that sends one term off the diagonal does not corestrict to
    the equalizer of the two term projections: id_extensionality reports
    that in one line, naming the equalizer."""
    C = instantiate_constructor(topos2, "id")
    L = C.Lambda
    o = L.dom.sorted_objects()[0]
    C2 = replace(C, Lambda=FunctorMap(L.name, L.dom, L.cod,
                                      {**L.obj_map, o: "alien"}, L.mor_map))
    bad = id_extensionality(topos2, C2)
    assert len(bad) == 1
    assert bad[0].startswith("Id E1: cone does not factor through EQ(")
    assert "'alien'" in bad[0]


def test_pi_adjunction_oracle():
    def pi(x, s, t):
        return dec(_pi_subset(x, s, enc(t)))
    assert pi_adjunction_oracle(2, pi) == []
    assert pi_adjunction_oracle(3, pi) == []
