"""Independent reference computations used by the tests.

Everything here works on plain Python sets and dicts, deliberately
avoiding the library's own subset helpers, so agreement between the
derived rules and these functions is meaningful evidence.  The builders
at the top are the exception: they give the tests a product, a slice, a
coslice, the fiber of a classifier, the walking arrow, the Grothendieck
construction of a doctrine and the composition table of a thin total out
of the library's category builders, pullback and opposite, and two
broken doctrines out of its powerset doctrine.  The brute-force checks of
the universal properties of pullbacks and equalizers, and the canonical
printer of the ``.jt`` language, sit at the end; no ``jt`` request needs
them, so they live with the tests.  So do ``eager_verify_kind``, which
classifies a classifier fully before it reads the kinds expected, and
``lemmas_off``, which makes every validator sweep or count.
"""

from contextlib import contextmanager
from itertools import product

from judgekit import core
from judgekit.core import (FunctorMap, category_from, compose_functors,
                           make_category, opposite, same_functor, subcategory,
                           validate_functor)
from judgekit.fibrations import (Classifier, _discrete, _first_hole,
                                 compute_cleavage, is_thin,
                                 opposite_classifier)
from judgekit.finsets import preimage
from judgekit.limits import bang_functor, pullback_category, terminal_category
from judgekit.ndt import PowersetDoctrine


def product_category(a, b):
    """a × b with its projections: the pullback over the terminal category."""
    one = terminal_category()
    return pullback_category(bang_functor(a, one), bang_functor(b, one))


def slice_classifier(ctx, gamma):
    """The slice ctx/Γ with its domain projection (a discrete fibration).

    Objects are arrows into Γ; morphisms (σ', σ, τ) are triangles σ∘τ = σ'.
    """
    nm = f"{ctx.name}/{gamma}"
    objs = list(ctx.into(gamma))
    mors, src, tgt = [], {}, {}
    for s1 in objs:
        for s2 in objs:
            for tau in ctx.hom(ctx.src[s1], ctx.src[s2]):
                if ctx.comp(s2, tau) == s1:
                    m = (s1, s2, tau)
                    mors.append(m)
                    src[m] = s1
                    tgt[m] = s2
    identity = {s: (s, s, ctx.identity[ctx.src[s]]) for s in objs}
    total = category_from(nm, objs, mors, src, tgt, identity,
                          lambda g, f: (f[0], g[1], ctx.comp(g[2], f[2])))
    proj = FunctorMap(f"{nm}.dom", total, ctx,
                      {s: ctx.src[s] for s in objs}, {m: m[2] for m in mors})
    return Classifier(nm, proj)


def coslice_classifier(ctx, gamma):
    """The coslice Γ/ctx with its codomain projection, as the opposite of
    the slice of ctxᵒᵖ over Γ."""
    return opposite_classifier(slice_classifier(opposite(ctx), gamma))


def fiber_category(cl, gamma):
    """The fiber of a classifier over an object: vertical morphisms only."""
    vid = cl.base.identity[gamma]
    return subcategory(cl.total, cl.fiber_objects(gamma),
                       lambda m: cl.proj.mor_map[m] == vid,
                       f"{cl.name}({gamma})")


def walking_arrow_category(name="𝟚"):
    """The category • → • (two objects, one non-identity morphism)."""
    objs = [0, 1]
    i0, i1, a = ("id", 0), ("id", 1), ("a", 0, 1)
    mors = [i0, i1, a]
    src = {i0: 0, i1: 1, a: 0}
    tgt = {i0: 0, i1: 1, a: 1}
    compose = {(i0, i0): i0, (i1, i1): i1, (a, i0): a, (i1, a): a}
    return make_category(name, objs, mors, src, tgt, {0: i0, 1: i1}, compose)


def grothendieck_classifier(doc, name="∫"):
    """The Grothendieck construction of a doctrine's indexed posets, with
    its split cleavage.  Returns ``(classifier, cleavage)``.

    The fiber over x is the poset of ``doc.formulas(x)``, with a morphism
    ``("≤", x, b, c)`` for each b ≤ c, and σ : θ → x restricts it by
    ``doc.restrict``.  A morphism (θ, b) → (x, a) over σ is (σ, a, α) for
    α : b → σ*a in the fiber over θ, and (σ, a, α) ∘ (τ, b, β) is
    (σ∘τ, a, τ*α ∘ β).  The lift of σ at (x, a) is (σ, a, id of σ*a)."""
    ctx = doc.ctx
    fiber = {x: list(doc.formulas(x)) for x in ctx.objects}
    restrict = {sigma: {a: doc.restrict(sigma, a)
                        for a in fiber[ctx.tgt[sigma]]}
                for sigma in ctx.morphisms}
    objs = [(x, a) for x in ctx.objects for a in fiber[x]]
    mors, src, tgt = [], {}, {}
    for sigma in ctx.morphisms:
        theta, x = ctx.src[sigma], ctx.tgt[sigma]
        for a in fiber[x]:
            ra = restrict[sigma][a]
            for b in fiber[theta]:
                if doc.leq(theta, b, ra):
                    m = (sigma, a, ("≤", theta, b, ra))
                    mors.append(m)
                    src[m], tgt[m] = (theta, b), (x, a)
    identity = {(x, a): (ctx.identity[x], a, ("≤", x, a, a))
                for (x, a) in objs}

    def compose(g, f):
        (sigma, a, (_, _, _, ra)), (tau, _, (_, xi, c, _)) = g, f
        # τ*α runs from τ*b to τ*(σ*a), so τ*α ∘ β runs from c to τ*(σ*a).
        return (ctx.comp(sigma, tau), a, ("≤", xi, c, restrict[tau][ra]))

    total = category_from(name, objs, mors, src, tgt, identity, compose)
    proj = FunctorMap(f"{name}.p", total, ctx,
                      {o: o[0] for o in objs}, {m: m[0] for m in mors})
    cleavage = {}
    for (x, a) in objs:
        for sigma in ctx.into(x):
            ra = restrict[sigma][a]
            cleavage[((x, a), sigma)] = (sigma, a,
                                         ("≤", ctx.src[sigma], ra, ra))
    return Classifier(name, proj), cleavage


def thin_table(cl):
    """The composition table of a thin classifier's total, as
    ``category_from`` tabulated it before thin totals composed through
    their base: ``(name, σ, b, a) ∘ (name, τ, c, b)`` is
    ``(name, σ∘τ, c, a)`` on every composable pair, with σ∘τ read from the
    base's table, or None where the base lacks it."""
    c, ctx = cl.total, cl.base
    return category_from(
        c.name, c.objects, c.morphisms, dict(c.src), dict(c.tgt),
        dict(c.identity),
        lambda g, f: (c.name, ctx.compose.get((g[1], f[1])), f[2], g[3])
    ).compose


class Antitone(PowersetDoctrine):
    """A broken doctrine: restriction along a non-identity map is the
    complement of the preimage, so it reverses the order and composites
    leave the total."""

    def restrict(self, sigma, a):
        pre = preimage(sigma, a)
        if sigma[3] == tuple(range(sigma[2])):
            return pre
        return tuple(i for i in range(sigma[1]) if i not in pre)


class EmptyIdentity(PowersetDoctrine):
    """A broken doctrine: restriction along an identity sends every subset
    to the empty one, so most objects of the total have no identity."""

    def restrict(self, sigma, a):
        return () if sigma[3] == tuple(range(sigma[2])) else preimage(sigma, a)


def all_subsets(x):
    """All subsets of {0..x-1} as frozensets."""
    out = []
    for mask in range(1 << x):
        out.append(frozenset(i for i in range(x) if mask >> i & 1))
    return out


def enc(s):
    """The library's encoding of a subset: a sorted tuple."""
    return tuple(sorted(s))


def dec(t):
    return frozenset(t)


def pair(i, j, y):
    """The library's flat encoding of (i, j) with j ranging over y."""
    return i * y + j


def naive_forall(x, y, f):
    """{i < x : (i, j) ∈ f for every j < y} on frozensets."""
    return frozenset(i for i in range(x)
                     if all(pair(i, j, y) in f for j in range(y)))


def naive_exists(x, y, f):
    return frozenset(i for i in range(x)
                     if any(pair(i, j, y) in f for j in range(y)))


def naive_weaken(x, y, s):
    return frozenset(pair(i, j, y) for i in s for j in range(y))


def naive_substitute(x, y, t, f):
    """φ[t/y] for a term t given as a tuple of images of 0..x-1."""
    return frozenset(i for i in range(x) if pair(i, t[i], y) in f)


def naive_restrict(images, s):
    """σ*s: the preimage of s under the map with the given images."""
    return frozenset(i for i, v in enumerate(images) if v in s)


def naive_restrict_extended(images, y, f):
    """(σ × id_y)*f for f ⊆ x·y: the (i, j) with (σ(i), j) ∈ f."""
    return frozenset(pair(i, j, y) for i, v in enumerate(images)
                     for j in range(y) if pair(v, j, y) in f)


def all_maps(x, y):
    """Every function {0..x-1} → {0..y-1} as a tuple of images."""
    if x == 0:
        return [()]
    return [tuple(im) for im in product(range(y), repeat=x)]


def skeleton_map(x, y, images):
    """The library's encoding of a map between skeletal finite sets."""
    return ("f", x, y, tuple(images))


# --------------------------------------------------------------------------
# The eleven sequent-side rules as object tables.
#
# Premise objects use the same encodings as the derived rules' premise
# classifiers (pullback pairs over a common context), so at small sizes
# the tables can be compared against the functors' object maps verbatim,
# while at larger sizes they are checked against the naive semantics
# above.  Sequents are pairs (antecedent, consequent) of encoded subsets.
# --------------------------------------------------------------------------

def sequents(x):
    subs = all_subsets(x)
    return [(a, c) for c in subs for a in subs if a <= c]


def rule_tables(n, y=1):
    """Object tables of the derived sequent rules over contexts ≤ n."""
    tables = {name: {} for name in
              ("t", "H", "Sw", "C", "W", "Cut", "∧I", "∧E1", "∧E2", "∀I")}
    for x in range(n + 1):
        subs = all_subsets(x)
        for a in subs:
            for b in subs:
                p = ((x, enc(a)), (x, enc(b)))
                tables["H"][p] = (x, (enc(a & b), enc(b)))
                tables["∧E1"][p] = (x, (enc(a & b), enc(a)))
                tables["∧E2"][p] = (x, (enc(a & b), enc(b)))
        for (a, c) in sequents(x):
            e = (x, (enc(a), enc(c)))
            for p in subs:
                # Weakening premise: a sequent and a proposition.
                tables["W"][(e, (x, enc(p)))] = (x, (enc(a & p), enc(c)))
            for (a2, c2) in sequents(x):
                e2 = (x, (enc(a2), enc(c2)))
                if c == a2:       # composable: consequent feeds antecedent
                    tables["Cut"][(e, e2)] = (x, (enc(a), enc(c2)))
                if a == a2:       # shared antecedent
                    tables["∧I"][(e, e2)] = (x, (enc(a), enc(c & c2)))
            # Contraction premise: (Γ, φ) presented with a doubled meet.
            for g in subs:
                for f in subs:
                    if g & f & f == a:
                        tables["C"][(((x, enc(g)), (x, enc(f))), e)] = \
                            (x, (enc(g & f), enc(c)))
                    if g & f == a:
                        tables["Sw"][(((x, enc(g)), (x, enc(f))), e)] = \
                            (x, (enc(f & g), enc(c)))
        # Universal introduction: hypotheses with weakened context.
        for g in subs:
            wg = naive_weaken(x, y, g)
            for f in all_subsets(x * y):
                if wg <= f:
                    tables["∀I"][(x, (enc(g), enc(f)))] = \
                        (x, (enc(g), enc(naive_forall(x, y, f))))
    return tables


def valid(seq_obj):
    """Naive validity of an encoded sequent object (x, (a, c)): the
    antecedent entails the consequent pointwise."""
    _, (a, c) = seq_obj
    return dec(a) <= dec(c)


# --------------------------------------------------------------------------
# Cartesian and cocartesian morphisms by brute force over the raw tables.
#
# Only the ``src``/``tgt``/``compose`` tables and the functor's maps are
# read; the library's indexes, cartesian tests and opposite categories are
# not used, so this checks the derived cleavages independently.  Nothing
# assumes that the projection is a functor.
# --------------------------------------------------------------------------

def naive_is_cartesian(cl, m):
    """m : E → F over σ is cartesian when every m2 : E2 → F whose image
    is σ∘g, for g : P(E2) → src σ, factors as m∘h through exactly one
    h : E2 → E over g.  A composite m∘h the table lacks is no factor."""
    tot, base = cl.total, cl.base
    pobj, pmor = cl.proj.obj_map, cl.proj.mor_map
    E, F, sigma = tot.src[m], tot.tgt[m], pmor[m]
    for m2 in tot.morphisms:
        if tot.tgt[m2] != F:
            continue
        E2 = tot.src[m2]
        for g in base.morphisms:
            if base.src[g] != pobj[E2] or base.tgt[g] != base.src[sigma]:
                continue
            if base.compose[(sigma, g)] != pmor[m2]:
                continue
            hits = [h for h in tot.morphisms
                    if tot.src[h] == E2 and tot.tgt[h] == E
                    and pmor[h] == g and tot.compose.get((m, h)) == m2]
            if len(hits) != 1:
                return False
    return True


def naive_factorizations(cl, m, g, m2):
    """The h : src m2 → src m over g with m∘h = m2, in the library's
    order of identifiers: by type name, then by ``repr``."""
    tot, pmor = cl.total, cl.proj.mor_map
    return sorted((h for h in tot.morphisms
                   if tot.src[h] == tot.src[m2] and tot.tgt[h] == tot.src[m]
                   and pmor[h] == g and tot.compose[(m, h)] == m2),
                  key=lambda h: (type(h).__name__, repr(h)))


def naive_cartesian_lifts(cl):
    """{(F, σ): cartesian lifts of σ into F} for every object F and every
    base arrow σ into its image."""
    tot, base = cl.total, cl.base
    pobj, pmor = cl.proj.obj_map, cl.proj.mor_map
    return {(F, sigma): [m for m in tot.morphisms
                         if tot.tgt[m] == F and pmor[m] == sigma
                         and naive_is_cartesian(cl, m)]
            for F in tot.objects for sigma in base.morphisms
            if base.tgt[sigma] == pobj[F]}


def naive_is_cocartesian(cl, m):
    """m : E → F over σ is cocartesian when every m2 : E → F2 whose image
    is g∘σ factors as h∘m through exactly one h : F → F2 over g.  A
    composite h∘m the table lacks is no factor."""
    tot, base = cl.total, cl.base
    pobj, pmor = cl.proj.obj_map, cl.proj.mor_map
    E, F, sigma = tot.src[m], tot.tgt[m], pmor[m]
    for m2 in tot.morphisms:
        if tot.src[m2] != E:
            continue
        F2 = tot.tgt[m2]
        for g in base.morphisms:
            if base.src[g] != base.tgt[sigma] or base.tgt[g] != pobj[F2]:
                continue
            if base.compose[(g, sigma)] != pmor[m2]:
                continue
            hits = [h for h in tot.morphisms
                    if tot.src[h] == F and tot.tgt[h] == F2
                    and pmor[h] == g and tot.compose.get((h, m)) == m2]
            if len(hits) != 1:
                return False
    return True


def naive_cocartesian_lifts(cl):
    """{(E, σ): cocartesian lifts of σ out of E} for every object E and
    every base arrow σ leaving its image."""
    tot, base = cl.total, cl.base
    pobj, pmor = cl.proj.obj_map, cl.proj.mor_map
    return {(E, sigma): [m for m in tot.morphisms
                         if tot.src[m] == E and pmor[m] == sigma
                         and naive_is_cocartesian(cl, m)]
            for E in tot.objects for sigma in base.morphisms
            if base.src[sigma] == pobj[E]}


@contextmanager
def lemmas_off():
    """No lemma decides a law inside the block: the category, functor and
    discrete-fibration lemmas and the soundness of a pullback decline, so
    every law is swept and every cartesian test counted."""
    token = core._no_lemmas.set(True)
    try:
        yield
    finally:
        core._no_lemmas.reset(token)


def eager_verify_kind(cl, expect=None):
    """``verify_kind`` computing every kind of cl: the cleavage, the first
    hole of the opposite's, discreteness and, when ``expect`` mentions it,
    thinness, and then one diagnostic per kind expected and missing."""
    with core.checking():
        bad = validate_functor(cl.proj)
        if bad:
            return bad
        if not core._sound(cl.base):
            return [f"uses category {cl.base.name}, which fails its table checks"]
        kinds = []
        fib_bad = compute_cleavage(cl)[1]
        if not fib_bad:
            kinds.append("fibration")
        opfib_bad = _first_hole(opposite_classifier(cl))
        if not opfib_bad:
            kinds.append("opfibration")
        if _discrete(cl):
            kinds.append("discrete")
        if expect and "thin" in expect:
            if not is_thin(cl):
                kinds.append("thin")
        if expect:
            kind = "+".join(kinds) if kinds else "functor"
            for want in expect.split("+"):
                if want not in kinds:
                    reason = fib_bad or opfib_bad or [f"{cl.name}: not {want}"]
                    bad.append(f"{cl.name}: expected {want}, got {kind}: {reason[0]}")
        return bad


# --------------------------------------------------------------------------
# Exhaustive object-level sweeps: the laws of the derived rules by raw
# set computation over every context of size ≤ n.  Each returns a list of
# diagnostics ([] = every law holds).
# --------------------------------------------------------------------------

def context_maps(n):
    """Every map θ → x between contexts of size ≤ n as (θ, x, images)."""
    return [(theta, x, im) for x in range(n + 1) for theta in range(n + 1)
            for im in all_maps(theta, x)]


def structural_oracle(n):
    """Assumption, weakening, contraction, exchange, cut, and stability
    of sequents under restriction, for every context of size ≤ n."""
    bad = []
    for x in range(n + 1):
        for g, f, p in product(all_subsets(x), repeat=3):
            gf = g & f
            if not gf <= f:
                bad.append(f"assumption fails at {x}:{enc(g)}:{enc(f)}")
            if g <= p and not gf <= p:
                bad.append(f"weakening fails at {x}:{enc(g)}:{enc(f)}:{enc(p)}")
            if gf & f != gf:
                bad.append(f"contraction fails at {x}:{enc(g)}:{enc(f)}")
            if gf != f & g:
                bad.append(f"exchange fails at {x}:{enc(g)}:{enc(f)}")
            if g <= f <= p and not g <= p:
                bad.append(f"cut fails at {x}:{enc(g)}:{enc(f)}:{enc(p)}")
    for theta, x, im in context_maps(n):
        for g, f in product(all_subsets(x), repeat=2):
            if g <= f and not naive_restrict(im, g) <= naive_restrict(im, f):
                bad.append(f"restriction breaks a sequent at "
                           f"{skeleton_map(theta, x, im)}")
    return bad


def cut_reindex_oracle(n):
    """The object formula behind the re-indexed cut: pulling a sequent
    (a ⊢ c) over x back along a proposition morphism (σ, ψ ≤ σ*a) yields
    (ψ ⊢ σ*c), which is a valid sequent and the largest re-indexing of
    the consequent compatible with the antecedent."""
    bad = []
    for theta, x, im in context_maps(n):
        sigma = skeleton_map(theta, x, im)
        for a, cc in product(all_subsets(x), repeat=2):
            if not a <= cc:
                continue
            ra, rc = naive_restrict(im, a), naive_restrict(im, cc)
            for psi in all_subsets(theta):
                if not psi <= ra:
                    continue
                where = f"{sigma}:{enc(psi)}:{enc(a)}:{enc(cc)}"
                if not psi <= rc:
                    bad.append(f"re-indexed sequent invalid at {where}")
                best = max((c2 for c2 in all_subsets(theta)
                            if psi <= c2 <= rc), key=len)
                if best != rc:
                    bad.append(f"re-indexing not maximal at {where}")
    return bad


def quantifier_oracle(n):
    """Both quantifier adjunctions as biconditionals on raw subsets, plus
    their exchange with restriction along σ × id (the squares for which
    the quantifiers are required to be stable)."""
    bad = []
    maps = context_maps(n)
    for x in range(n + 1):
        for y in range(n + 1):
            for f in all_subsets(x * y):
                fa, ex = naive_forall(x, y, f), naive_exists(x, y, f)
                for g in all_subsets(x):
                    where = f"{x}×{y}:{enc(g)}:{enc(f)}"
                    if (naive_weaken(x, y, g) <= f) != (g <= fa):
                        bad.append(f"∀ adjunction fails at {where}")
                    if (f <= naive_weaken(x, y, g)) != (ex <= g):
                        bad.append(f"∃ adjunction fails at {where}")
                for theta, x2, im in maps:
                    if x2 != x:
                        continue
                    rf = naive_restrict_extended(im, y, f)
                    sigma = skeleton_map(theta, x, im)
                    if naive_forall(theta, y, rf) != naive_restrict(im, fa):
                        bad.append(f"∀ unstable along {sigma}×id at {enc(f)}")
                    if naive_exists(theta, y, rf) != naive_restrict(im, ex):
                        bad.append(f"∃ unstable along {sigma}×id at {enc(f)}")
    return bad


def quantifier_full_stability_failures(n):
    """Witnesses that ∀ does *not* commute with restriction along maps
    that move the quantified variable (id × τ with τ non-surjective) —
    the reason the quantifier rules keep the variable sort fixed.  Each
    witness is (x, y, y2, τ, f, ∀_y (id × τ)*f, ∀_y2 f), one per x, y, y2
    and τ that has one."""
    out = []
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            for y2 in range(1, n + 1):
                for timages in all_maps(y, y2):
                    if set(timages) == set(range(y2)):
                        continue
                    for f in all_subsets(x * y2):
                        pulled = frozenset(
                            pair(i, j, y) for i in range(x) for j in range(y)
                            if pair(i, timages[j], y2) in f)
                        lhs = naive_forall(x, y, pulled)
                        rhs = naive_forall(x, y2, f)
                        if lhs != rhs:
                            out.append((x, y, y2,
                                        skeleton_map(y, y2, timages),
                                        f, lhs, rhs))
                            break
    return out


def substitution_oracle(n):
    """Trivial substitution (w_y ψ)[t/y] = ψ and soundness of universal
    elimination, swept over every term t : x → y with x, y ≤ n."""
    bad = []
    for x in range(n + 1):
        for y in range(1, n + 1):
            for t in all_maps(x, y):
                term = skeleton_map(x, y, t)
                for s in all_subsets(x):
                    if naive_substitute(x, y, t, naive_weaken(x, y, s)) != s:
                        bad.append(f"trivial substitution fails at "
                                   f"{term}:{enc(s)}")
                for f in all_subsets(x * y):
                    fa = naive_forall(x, y, f)
                    sub = naive_substitute(x, y, t, f)
                    for g in all_subsets(x):
                        if g <= fa and not g <= sub:
                            bad.append(f"∀-elimination unsound at "
                                       f"{term}:{enc(g)}:{enc(f)}")
    return bad


def pi_adjunction_oracle(n, pi):
    """Π right adjoint to restriction along the display map: for all
    x, S ⊆ x, T ⊆ |S| and C ⊆ x, C·δ_S ⊆ T  ⇔  C ⊆ Π_S T, where
    ``pi(x, s, t)`` computes Π_S T (s a sorted tuple, t a frozenset of
    positions in s) and C·δ_S is the positions in s of C ∩ S."""
    bad = []
    for x in range(n + 1):
        for s in map(enc, all_subsets(x)):
            for t in all_subsets(len(s)):
                p = pi(x, s, t)
                for c in all_subsets(x):
                    restricted = frozenset(k for k, v in enumerate(s) if v in c)
                    if (restricted <= t) != (c <= p):
                        bad.append(f"Π adjunction fails at x={x} S={s} "
                                   f"T={enc(t)} C={enc(c)}")
    return bad


# --------------------------------------------------------------------------
# The category and functor laws by identifier lookups: the sweeps the
# validators made before they numbered morphisms.  Each composite is
# looked up by its pair of identifiers in ``compose``.  Only for
# categories that pass the well-formedness checks (endpoints, identities,
# a composite for exactly the composable pairs).
# --------------------------------------------------------------------------

def naive_category_laws(c):
    """Unit and associativity diagnostics, in the validator's wording."""
    comp, bad = c.compose, []
    out = {}
    for m in c.morphisms:
        out.setdefault(c.src[m], []).append(m)
    for f in c.morphisms:
        if comp[f, c.identity[c.src[f]]] != f:
            bad.append(f"{c.name}: right unit law fails at {f!r}")
        if comp[c.identity[c.tgt[f]], f] != f:
            bad.append(f"{c.name}: left unit law fails at {f!r}")
    for f in c.morphisms:
        for g in out[c.tgt[f]]:
            for h in out[c.tgt[g]]:
                if comp[h, comp[g, f]] != comp[comp[h, g], f]:
                    bad.append(f"{c.name}: associativity fails at "
                               f"({h!r}, {g!r}, {f!r})")
    return bad


def naive_composition_preserved(F):
    """Composition-preservation diagnostics of a functor whose images
    have the right endpoints, in the validator's wording."""
    image, cod = F.mor_map, F.cod.compose
    return [f"{F.name}: composition not preserved at ({g!r}, {f!r})"
            for (g, f), h in F.dom.compose.items()
            if cod[image[g], image[f]] != image[h]]


# --------------------------------------------------------------------------
# The universal properties of the library's limits by brute force: every
# functor from a small apex is enumerated, and every commuting cone must
# factor through the limit in exactly one way.
# --------------------------------------------------------------------------

def all_functors(c, d):
    """Enumerate every functor c → d (exhaustive; use on tiny categories)."""
    objs = c.sorted_objects()
    results = []
    for images in product(d.sorted_objects(), repeat=len(objs)):
        obj_map = dict(zip(objs, images))
        mors = c.sorted_morphisms()
        choices = []
        ok = True
        for m in mors:
            cands = d.hom(obj_map[c.src[m]], obj_map[c.tgt[m]])
            if c.is_identity(m):
                cands = [d.identity[obj_map[c.src[m]]]]
            if not cands:
                ok = False
                break
            choices.append(cands)
        if not ok:
            continue
        for picks in product(*choices):
            F = FunctorMap("cand", c, d, obj_map, dict(zip(mors, picks)))
            if not validate_functor(F):
                results.append(F)
    return results


def verify_pullback_universal(F, G, pb, p1, p2, apexes) -> list:
    """Brute-force universal-property check of a pullback square.

    For every commuting cone whose apex is one of ``apexes`` (enumerating
    all functors), exactly one functor into the pullback commutes with
    both projections.
    """
    bad = []
    for W in apexes:
        into_pb = all_functors(W, pb)
        for l1 in all_functors(W, F.dom):
            fl1 = compose_functors(F, l1)
            for l2 in all_functors(W, G.dom):
                if not same_functor(fl1, compose_functors(G, l2)):
                    continue
                hits = [H for H in into_pb
                        if same_functor(compose_functors(p1, H), l1)
                        and same_functor(compose_functors(p2, H), l2)]
                if len(hits) != 1:
                    bad.append(
                        f"{pb.name}: cone from {W.name} via ({l1.name},{l2.name}) "
                        f"has {len(hits)} mediating functors")
    return bad


def verify_equalizer_universal(F, G, eq, incl, apexes) -> list:
    """Brute-force universal-property check of an equalizer."""
    bad = []
    for W in apexes:
        into_eq = all_functors(W, eq)
        for leg in all_functors(W, F.dom):
            if not same_functor(compose_functors(F, leg), compose_functors(G, leg)):
                continue
            hits = [H for H in into_eq
                    if same_functor(compose_functors(incl, H), leg)]
            if len(hits) != 1:
                bad.append(f"{eq.name}: cone from {W.name} via {leg.name} "
                           f"has {len(hits)} mediating functors")
    return bad


# --------------------------------------------------------------------------
# The canonical printer of a parsed ``.jt`` document.
# --------------------------------------------------------------------------

def print_dsl(doc):
    """Canonical text of a parsed document: parse → print → parse is a
    fixpoint."""
    lines = []
    for d in doc.decls:
        if d.kind == "category":
            lines.append(f"category {d.name}")
        elif d.kind == "functor":
            lines.append(f"functor {d.name} : {d.head['dom']} -> {d.head['cod']}")
        elif d.kind == "nat":
            lines.append(f"nat {d.name} : {d.head['source']} => {d.head['target']}")
        elif d.kind == "adjunction":
            lines.append(f"adjunction {d.name} : {d.head['left']} -| {d.head['right']}")
        elif d.kind == "classifier":
            tail = f" kind {d.head['kind']}" if d.head["kind"] else ""
            lines.append(f"classifier {d.name} : {d.head['proj']}{tail}")
        elif d.kind == "theory":
            lines.append(f"theory {d.name} over {d.head['ctx']}")
        elif d.kind == "doctrine":
            args = " ".join(str(a) for a in d.head["args"])
            lines.append(f"doctrine {d.name} = {d.head['family']} {args}")
        elif d.kind == "instance":
            args = " ".join(str(a) for a in d.head["args"])
            lines.append(f"instance {d.name} = {d.head['builtin']}"
                         + (f" {args}" if args else ""))
        for (_, k, v) in d.items:
            if k == "object" and d.kind == "category":
                lines.append(f"  object {v}")
            elif k == "morphism" and d.kind == "category":
                lines.append(f"  morphism {v[0]} : {v[1]} -> {v[2]}")
            elif k == "compose":
                lines.append(f"  {v[0]} ∘ {v[1]} = {v[2]}")
            elif k == "complete":
                lines.append("  complete")
            elif d.kind == "functor":
                lines.append(f"  {k} {v[0]} |-> {v[1]}")
            elif k == "at":
                lines.append(f"  at {v[0]} = {v[1]}")
            elif d.kind in ("adjunction", "theory"):
                lines.append(f"  {k} {v}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
