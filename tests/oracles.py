"""Independent reference computations used by the tests.

Everything here works on plain Python sets and dicts, deliberately
avoiding the library's own subset helpers, so agreement between the
derived rules and these functions is meaningful evidence.
"""

from itertools import product


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
# Cocartesian morphisms by brute force over the raw tables.
#
# Only the ``src``/``tgt``/``compose`` dicts and the functor's maps are
# read; the library's indexes, cartesian tests and opposite categories are
# not used, so this checks the derived op-cleavage independently.
# --------------------------------------------------------------------------

def naive_is_cocartesian(cl, m):
    """m : E → F over σ is cocartesian when every m2 : E → F2 whose image
    is g∘σ factors as h∘m through exactly one h : F → F2 over g."""
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
                    and pmor[h] == g and tot.compose[(h, m)] == m2]
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
