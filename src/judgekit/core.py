"""Explicit finite categories with total composition.

Everything downstream (limits, fibrations, derived deduction rules) is
built on four kinds of data: finite categories, functors between them,
natural transformations, and adjunctions.  All of them are plain tables,
except for two compositions that are computed, not stored: a pullback
keeps its legs and composes through their domains (``Composition``), and
a thin total over ctx, whose morphism over σ after the one over τ is
forced to be the one over σ∘τ, composes through ctx
(``ThinComposition``).  All laws are checked by exhaustive enumeration.

``validate_category`` and ``validate_functor`` number the morphisms of
the categories they read and decide the laws on those integer codes.
Every category is numbered in one pass over its composition that also
checks it: endpoints, identities, and a composite with the right
endpoints for exactly the composable pairs, compared on the codes of
morphisms and objects.  A table or a pullback is read entry by entry; a
thin total whose endpoints and identities pass is read on codes, each
composite keyed from ctx's numbering, and every composable pair is still
checked.  The unit, associativity and composition laws are then swept on
the codes.  Failures are reported in ``sort_key`` order, so a report does
not depend on hash order.

Every check runs inside a check context (``checking``): one per ``jt``
request, or one per call when a validator is called outside a request.
It keeps what the request learns about each object, for as long as the
object lives: the verdicts of ``validate_category`` and
``validate_functor``, failures included, the numbering, table checks
and soundness of every category, the faithfulness of functors, the
discreteness and cleavages of classifiers, and the indexes that
cartesian tests read.  So a category, functor or numbering is
checked or built once per request, and a repeated check returns the same
lines.  A pullback is numbered only when a validator sweeps a law over
it, which the functor lemma below spares every rule whose premises hold.

Two lemmas let a validator decide a law on smaller categories instead of
sweeping it.  Both rest on one fact: a faithful functor p, one that is
injective on every hom-set, reflects equations between parallel arrows
(Mac Lane, *Categories for the Working Mathematician*, I.3).

*Category lemma.*  Let C be a table in which every composable pair has a
composite with the right endpoints, and p : C → X a faithful functor into
a category X.  Then C satisfies the unit and associativity laws.  Proof:
for f : a → b, g : b → c and h : c → d, both (h∘g)∘f and h∘(g∘f) lie in
C(a, d), and p sends both to p h ∘ p g ∘ p f, so they are equal; f∘id_a
and f both lie in C(a, b) and p sends both to p f.

*Functor lemma.*  Let F : C → D preserve endpoints, where C is a category
whose composites lie in C with the right endpoints, π : C → L a functor
read along a path: the projection onto one of C's leaf factors when C is
a pullback (a functor, since C composes componentwise), or, for the empty
path, the identity of C, with L = C.  Let h : L → X and p : D → X be
functors with p faithful, p∘F = h∘π on morphisms, and D a category whose
composable pairs have composites with the right endpoints.  Then F
preserves composition.  Proof: for g∘f in C, F(g∘f) and F g ∘ F f both
lie in D(F a, F c), and p sends both to h(π g) ∘ h(π f), so they are
equal.

*Codomain paths.*  p may itself be read through a path into D: when D is
a pullback, p = k∘π_q for the projection π_q : D → K onto a leaf factor
and a functor k : K → X.  π_q is a functor, since D composes
componentwise, so p is one when k is, and the lemma applies as stated
once p is faithful; that is tested on p's images of D's morphisms, in
time linear in them.  A rule into a pullback of judgements, such as a
♯-lift or a constructor's comparison functor, lies over the base of one
of its factors this way.

The fibers of a preorder fibration are thin, so its projection is
faithful (Jacobs, *Categorical Logic and Type Theory*, ch. 1): 𝔽 and 𝔼
lie faithfully over their contexts, and every rule between them lies over
ctx.  A validator uses a lemma only after checking each premise within
the call; when one fails it runs the sweep, so the laws are decided
exhaustively either way and the diagnostics are the same.

*Construction lemma.*  Let the index of D along p : D → X file each
morphism of D under its target, source and image by p, as D's ``src``,
``tgt`` and p's table give them.  If F's image of each m : a → b of C is
found in the index at (F b, F a, h(π m)), then it is a morphism of D
from F a to F b, and p∘F = h∘π.  Proof: the index files a morphism under
its own endpoints and image.  ``fibrations.thin_rule`` builds each rule
so, and with the lemmas on a check context records it (``_looked_up``):
``validate_functor`` then skips the rule's checks of morphism images,
endpoints and that equation.  The record dies with its context, like a
verdict, since the lookups read the tables as they were then.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from weakref import ref


def sort_key(x):
    """Deterministic ordering key for arbitrary (hashable) identifiers."""
    return (x.__class__.__name__, repr(x))


class _Context:
    """What one request has computed about each object it read, under the
    object's identity.  A weak reference drops an object's values when
    the object dies, before its identity can be reused, so the values of
    a dead object are never read for a new one and a temporary object's
    values do not outlive it."""

    def __init__(self):
        self.kept = {}      # id(obj) -> (weak reference, {kind: value})

    def recall(self, make, kind, obj):
        """The value of ``kind`` for obj, made by ``make()`` the first time
        it is asked for."""
        kept, key = self.kept, id(obj)
        entry = kept.get(key)
        if entry is None:
            entry = kept[key] = (ref(obj, lambda _: kept.pop(key, None)), {})
        values = entry[1]
        if kind not in values:
            values[kind] = make()
        return values[kind]


_request = ContextVar("judgekit_checking", default=None)

# When set, the category and functor lemmas, the soundness of a pullback
# and the discrete-fibration lemma of ``fibrations`` all decline, so every
# law is swept or counted.  Only tests set it.
_no_lemmas = ContextVar("judgekit_no_lemmas", default=False)


def _recall(make, kind, obj):
    """``recall`` in the open check context; outside one, ``make()``."""
    ctx = _request.get()
    return make() if ctx is None else ctx.recall(make, kind, obj)


@contextmanager
def checking():
    """The check context of a request.  The outermost ``with checking():``
    opens one and drops it on exit, however it exits; a nested one joins
    it.  Objects checked in a context must not be changed within it."""
    if _request.get() is not None:
        yield
        return
    ctx = _Context()
    token = _request.set(ctx)
    try:
        yield
    finally:
        _request.reset(token)
        ctx.kept.clear()


def _in_order(found) -> list:
    """The lines of ``found``, ``(item, line)`` pairs collected in hash
    order, in the ``sort_key`` order of their items; the lines of one item
    keep their order.  Only failures are sorted, so a check that passes
    pays nothing for a report that does not depend on hash order."""
    found.sort(key=lambda e: sort_key(e[0]))
    return [line for _, line in found]


@dataclass
class FinCategory:
    """A finite category given by explicit tables.

    * ``objects`` and ``morphisms`` are sets of hashable identifiers.
    * ``src``/``tgt`` assign endpoints to every morphism.
    * ``identity`` maps each object to its identity morphism.
    * ``compose`` is a read-only ``Mapping`` from every composable pair
      ``(g, f)`` (meaning g after f) to the composite morphism: a dict, a
      ``Composition`` or ``ThinComposition`` that computes each composite
      when it is asked for, or the transposed view of an opposite
      category's original.
    """

    name: str
    objects: frozenset
    morphisms: frozenset
    src: dict
    tgt: dict
    identity: dict
    compose: Mapping
    _hom: dict = field(default=None, repr=False, compare=False)
    _into: dict = field(default=None, repr=False, compare=False)
    _out: dict = field(default=None, repr=False, compare=False)

    def comp(self, g, f):
        """Composite ``g ∘ f`` (first f, then g)."""
        return self.compose[(g, f)]

    def is_identity(self, m):
        return self.identity.get(self.src[m]) == m

    def _indexed(self, attr, key, at):
        table = getattr(self, attr)
        if table is None:
            table = {}
            for m in self.sorted_morphisms():
                table.setdefault(key(m), []).append(m)
            setattr(self, attr, table)
        return table.get(at, [])

    def hom(self, a, b):
        """All morphisms a → b, deterministically ordered."""
        return self._indexed("_hom", lambda m: (self.src[m], self.tgt[m]),
                             (a, b))

    def into(self, b):
        """All morphisms with target b, deterministically ordered."""
        return self._indexed("_into", self.tgt.__getitem__, b)

    def out_of(self, a):
        """All morphisms with source a, deterministically ordered."""
        return self._indexed("_out", self.src.__getitem__, a)

    def sorted_objects(self):
        return sorted(self.objects, key=sort_key)

    def sorted_morphisms(self):
        return sorted(self.morphisms, key=sort_key)


def make_category(name, objects, morphisms, src, tgt, identity, compose):
    """A category from literal tables, composition included."""
    return FinCategory(
        name=name,
        objects=frozenset(objects),
        morphisms=frozenset(morphisms),
        src=dict(src),
        tgt=dict(tgt),
        identity=dict(identity),
        compose=dict(compose),
    )


def category_from(name, objects, morphisms, src, tgt, identity, compose_fn):
    """A category whose composition table holds ``compose_fn(g, f)`` for
    exactly the composable pairs ``(g, f)`` (g after f).

    The table dicts are taken over, not copied.  Keys and composites are
    the identifiers in ``morphisms`` themselves, so the table holds no
    rebuilt copy of an identifier, and comparing composites mostly stops
    at an identity test.
    """
    out_of, canon = {}, {}
    for m in morphisms:
        out_of.setdefault(src[m], []).append(m)
        canon[m] = m
    compose = {}
    for f in morphisms:
        for g in out_of.get(tgt[f], ()):
            h = compose_fn(g, f)
            compose[(g, f)] = canon.get(h, h)
    return FinCategory(name, frozenset(objects), frozenset(morphisms),
                       src, tgt, identity, compose)


class _Pairs(Mapping):
    """A composition computed when it is asked for, defined on exactly the
    composable pairs ``(g, f)`` of the morphisms in ``src`` and ``tgt``.
    Iteration walks those pairs, the morphisms grouped by source, in the
    order of ``tgt`` and ``src``; it reads the endpoint tables as they
    are, so it holds the pairs that membership holds."""

    def __contains__(self, gf):
        try:
            g, f = gf
            return self.tgt[f] == self.src[g]
        except KeyError:
            return False

    def __iter__(self):
        by_src = {}
        for g, a in self.src.items():
            by_src.setdefault(a, []).append(g)
        for f, t in self.tgt.items():
            for g in by_src.get(t, ()):
                yield g, f

    def __len__(self):
        out = Counter(self.src.values())
        return sum(out[t] for t in self.tgt.values())


class Composition(_Pairs):
    """The composition of a pullback, whose morphisms are tuples of
    morphisms of its ``factors``, the domains of its ``legs``, composed
    componentwise: ``self[(g, f)]`` is the tuple of the factors'
    composites ``g[k] ∘ f[k]`` for each composable pair and a ``KeyError``
    otherwise, as with a table."""

    def __init__(self, src, tgt, legs):
        self.src, self.tgt = src, tgt
        self.legs = tuple(legs)
        self.factors = tuple(leg.dom for leg in self.legs)

    def __getitem__(self, gf):
        if gf not in self:
            raise KeyError(gf)
        g, f = gf
        return tuple(x.compose[gk, fk]
                     for x, gk, fk in zip(self.factors, g, f))


class ThinComposition(_Pairs):
    """The composition of a thin total over ``ctx``, whose morphisms are
    ``(name, σ, b, a)`` : (src σ, b) → (tgt σ, a): the composite of
    ``(name, σ, b, a)`` after ``(name, τ, c, b)`` is ``(name, σ∘τ, c, a)``,
    with σ∘τ read from ctx, for each composable pair, and a ``KeyError``
    otherwise, as with a table.  When ctx lacks σ∘τ it reads None, so the
    composite is no morphism of the total."""

    def __init__(self, name, ctx, src, tgt):
        self.name, self.ctx, self.src, self.tgt = name, ctx, src, tgt

    def get(self, gf, default=None):
        g, f = gf
        a = self.src.get(g)
        if a is None or a != self.tgt.get(f):
            return default
        return (self.name, self.ctx.compose.get((g[1], f[1])), f[2], g[3])

    def __getitem__(self, gf):
        h = self.get(gf)
        if h is None:
            raise KeyError(gf)
        return h


class _Codes:
    """The morphisms of one category numbered 0..M-1, for the law sweeps.
    ``mors[i]`` is the morphism with code i, ``code`` the inverse, and
    ``rows[i][j]`` is the code of ``mors[j] ∘ mors[i]``.  The rows are
    filled in the pass that makes the table checks of the category, over
    ``compose.items()`` or, for a thin total, on codes, and ``errors``
    holds their diagnostics."""

    def __init__(self, c: FinCategory):
        self.mors = mors = list(c.morphisms)
        self.code = code = dict(zip(mors, range(len(mors))))
        self.rows = [{} for _ in mors]
        self.errors = _table_errors(c, mors, code, self.rows)


def _codes(c: FinCategory) -> _Codes:
    """The numbering of c, kept in the check context."""
    return _recall(lambda: _Codes(c), "codes", c)


def subcategory(c: FinCategory, objects, keep, name) -> FinCategory:
    """The subcategory of c on ``objects`` and the morphisms between them
    that satisfy ``keep``.  The composite in c of each composable pair of
    kept morphisms is kept where it is kept; the caller chooses ``keep``
    closed under identities and composites."""
    objs = set(objects)
    mors = [m for m in c.morphisms
            if c.src[m] in objs and c.tgt[m] in objs and keep(m)]
    kept, out = set(mors), {}
    for g in mors:
        out.setdefault(c.src[g], []).append(g)
    compose = {}
    for f in mors:
        for g in out.get(c.tgt[f], ()):
            h = c.compose.get((g, f))
            if h in kept:
                compose[g, f] = h
    return make_category(name, objs, mors,
                         {m: c.src[m] for m in mors},
                         {m: c.tgt[m] for m in mors},
                         {o: c.identity[o] for o in objs}, compose)


class _Transposed(Mapping):
    """The composition of an opposite category: ``self[(f, g)]`` is the
    original's ``compose[(g, f)]``, read when it is asked for, with its
    entries in the original's order."""

    def __init__(self, compose):
        self.compose = compose

    def __getitem__(self, fg):
        f, g = fg
        try:
            return self.compose[g, f]
        except KeyError:
            raise KeyError(fg) from None

    def __iter__(self):
        return ((f, g) for g, f in self.compose)

    def __len__(self):
        return len(self.compose)


def opposite(c: FinCategory) -> FinCategory:
    """The opposite category: endpoints swapped, ``g ∘ᵒᵖ f = f ∘ g``.

    The composition is a transposed view of c's, so the opposite of a
    table that breaks a law breaks it at the same entries, and the
    opposite of an opposite reads the original composition again.
    """
    compose = c.compose
    compose = compose.compose if isinstance(compose, _Transposed) \
        else _Transposed(compose)
    return FinCategory(f"{c.name}ᵒᵖ", c.objects, c.morphisms,
                       c.tgt, c.src, c.identity, compose)


def _table_errors(c: FinCategory, mors: list, code: dict, rows: list) -> list:
    """The well-formedness checks of ``validate_category``: endpoints,
    identities, and a composite with the right endpoints for exactly the
    composable pairs.  The composition entries are checked on ``code``,
    which numbers ``mors``, the morphisms of c, and on codes of c's
    objects; each entry of known morphisms is filled into ``rows`` in the
    same pass, whether the checks pass or not.  Returns diagnostics ([] =
    ok)."""
    bad, ends = [], []
    for m in c.morphisms:
        if m not in c.src or m not in c.tgt:
            ends.append((m, f"{c.name}: morphism {m!r} lacks endpoints"))
        elif c.src[m] not in c.objects or c.tgt[m] not in c.objects:
            ends.append((m, f"{c.name}: morphism {m!r} has endpoints outside the object set"))
    # In sort_key order, the report stops at the first morphism without
    # endpoints: the checks below would look them up.
    for m, line in sorted(ends, key=lambda e: sort_key(e[0])):
        bad.append(line)
        if m not in c.src or m not in c.tgt:
            break
    else:
        ids = []
        for o in c.objects:
            i = c.identity.get(o)
            if i is None or i not in c.morphisms:
                ids.append((o, f"{c.name}: object {o!r} has no identity morphism"))
            elif c.src[i] != o or c.tgt[i] != o:
                ids.append((o, f"{c.name}: identity of {o!r} is not an endomorphism"))
        bad += _in_order(ids)
    # Composition is total on composable pairs and only on them, checked
    # on codes once endpoints and identities pass.
    checked = not bad
    if checked:
        obj = {o: k for k, o in enumerate(c.objects)}
        s = [obj[c.src[m]] for m in mors]
        t = [obj[c.tgt[m]] for m in mors]
        thin = _thin_entries(c, mors, code, rows, s, t)
        if thin is not None:
            return thin
    for (g, f), h in c.compose.items():
        i, j, k = code.get(f), code.get(g), code.get(h)
        if i is None or j is None or k is None:
            if checked:
                bad.append(f"{c.name}: composition entry ({g!r}, {f!r}) mentions unknown morphisms")
                checked = False
            continue
        rows[i][j] = k
        if checked:
            if t[i] != s[j]:
                bad.append(f"{c.name}: composition defined on non-composable pair ({g!r}, {f!r})")
            elif s[k] != s[i] or t[k] != t[j]:
                bad.append(f"{c.name}: composite of ({g!r}, {f!r}) has wrong endpoints")
    if not checked:
        return bad
    # Every entry is a distinct composable pair unless one was flagged, so
    # then none is missing when there are as many entries as such pairs.
    out = Counter(s)
    if bad or len(c.compose) != sum(out[b] for b in t):
        bad += _in_order([(f, f"{c.name}: composition missing for ({g!r}, {f!r})")
                          for f in mors for g in c.out_of(c.tgt[f])
                          if (g, f) not in c.compose])
    return bad


def _thin_entries(c: FinCategory, mors, code, rows, s, t):
    """The composition checks of ``_table_errors`` over a thin total
    (``ThinComposition``) whose endpoints and identities passed, on
    codes, or None for any other category.  A morphism (name, σ, b, a) is
    keyed by (ctx's code of σ, b, a), so the composite of codes i and j
    is the morphism keyed (ctx's code of σⱼ∘σᵢ, bᵢ, aⱼ), read from ctx's
    numbering.  Every composable pair is walked, in the composition's
    order, and its composite checked as a table entry is: a missing key
    is an unknown morphism, and endpoints are compared on codes."""
    comp = c.compose
    if not isinstance(comp, ThinComposition) or comp.src is not c.src \
            or comp.tgt is not c.tgt or len(c.src) != len(mors) \
            or len(c.tgt) != len(mors):
        return None
    n = _codes(comp.ctx)
    sig = [n.code[m[1]] for m in mors]
    # The key (x, b, a) is the int x·F² + b·F + a on F codes of formulas;
    # a composite that ctx lacks reads x = -1, which keys nothing.
    formula = {}
    low = [formula.setdefault(m[2], len(formula)) for m in mors]
    high = [formula.setdefault(m[3], len(formula)) for m in mors]
    nf = len(formula)
    ff = nf * nf
    key = {x * ff + b * nf + a: i
           for i, (x, b, a) in enumerate(zip(sig, low, high))}
    out = [[] for _ in c.objects]
    for g in comp.src:
        j = code[g]
        out[s[j]].append((j, sig[j], high[j], t[j]))
    bad, checked, after = [], True, n.rows
    for f in comp.tgt:
        i = code[f]
        row, then, b, si = rows[i], after[sig[i]], low[i] * nf, s[i]
        for j, x, a, tj in out[t[i]]:
            k = key.get(then.get(x, -1) * ff + b + a)
            if k is None:
                if checked:
                    bad.append(f"{c.name}: composition entry ({mors[j]!r}, {f!r}) mentions unknown morphisms")
                    checked = False
                continue
            row[j] = k
            if checked and (s[k] != si or t[k] != tj):
                bad.append(f"{c.name}: composite of ({mors[j]!r}, {f!r}) has wrong endpoints")
    return bad


def _sound(c: FinCategory) -> bool:
    """Whether every composable pair of c has a composite in c with the
    right endpoints, kept in the check context.  A table passes the
    checks of ``_table_errors``.  A pullback is sound when its legs share
    one sound codomain, their domains are sound and they preserve
    composition: then the componentwise composite (g₁∘f₁, g₂∘f₂) of two of
    its morphisms has legs' images G₁g₁∘G₁f₁ = G₂g₂∘G₂f₂, so it is a
    morphism of the pullback, with the endpoints of its components."""
    def sound():
        if _no_lemmas.get() or not isinstance(c.compose, Composition):
            return not _codes(c).errors
        legs = c.compose.legs
        return legs[0].cod is legs[1].cod and _sound(legs[0].cod) \
            and all(_sound(leg.dom) and not _validated(leg) for leg in legs)
    return _recall(sound, "sound", c)


def parallel_morphisms(c: FinCategory, image):
    """The pairs of distinct parallel morphisms of c that ``image`` sends to
    the same morphism, as ``(first, second, image)``: a functor with those
    images is faithful when there are none."""
    seen = {}
    for m in c.morphisms:
        key = (c.src[m], c.tgt[m], image(m))
        if key in seen:
            yield seen[key], m, key[2]
        seen[key] = m


def _faithful(p: "FunctorMap") -> bool:
    """Whether p is faithful, kept in the check context."""
    return _recall(lambda: next(parallel_morphisms(p.dom, p.mor_map.__getitem__),
                                None) is None, "faithful", p)


def validate_category(c: FinCategory, proj=None) -> list:
    """Exhaustively check the category laws.  Returns diagnostics ([] = ok).

    With ``proj``, a functor p : c → X, the unit and associativity laws
    are decided by the category lemma of this module when its premises
    hold: c passes the table checks, X passes ``validate_category``, p
    passes ``validate_functor`` (so it preserves identities and
    composition) and p is faithful.  The laws then hold, since p reflects
    each of them from X.  When a premise fails the laws are swept, so the
    diagnostics do not depend on ``proj``, and the verdict is kept in the
    check context per category."""
    with checking():
        return list(_recall(lambda: _category_laws(c, proj), "category", c))


def _category_laws(c: FinCategory, proj) -> list:
    bad = _codes(c).errors
    if bad:
        return bad
    if proj is not None and not _no_lemmas.get() and proj.dom is c \
            and not validate_category(proj.cod) \
            and not _validated(proj) and _faithful(proj):
        return []
    # Unit and associativity laws, swept on codes.
    n = _codes(c)
    mors, rows, code = n.mors, n.rows, n.code
    ident = {o: code[m] for o, m in c.identity.items()}
    units = []
    for i, f in enumerate(mors):
        if rows[ident[c.src[f]]][i] != i:
            units.append((f, f"{c.name}: right unit law fails at {f!r}"))
        if rows[i][ident[c.tgt[f]]] != i:
            units.append((f, f"{c.name}: left unit law fails at {f!r}"))
    triples = []
    for i in range(len(mors)):
        row_f = rows[i]
        for j, gf in row_f.items():
            row_gf = rows[gf]
            for k, hg in rows[j].items():
                if row_gf[k] != row_f[hg]:
                    hgf = (mors[k], mors[j], mors[i])
                    triples.append((hgf, f"{c.name}: associativity fails at "
                                         f"({hgf[0]!r}, {hgf[1]!r}, {hgf[2]!r})"))
    return _in_order(units) + _in_order(triples)


def terminal_objects(c: FinCategory) -> list:
    """Objects receiving exactly one morphism from every object."""
    return [t for t in c.sorted_objects()
            if all(len(c.hom(a, t)) == 1 for a in c.objects)]


@dataclass
class FunctorMap:
    """A functor given by explicit object and morphism tables.

    ``over``, when set, is ``(p, q, path, h)``: the functor F lies over a
    base through p, read from the component of F's images at ``q``, and
    reads its base arrow of a morphism m through h from the component of
    m at ``path`` (see ``along``), so that p∘π_q∘F = h∘π_path.  For the
    empty q, p's domain is F's codomain, and for the empty path, h's
    domain is F's domain.  ``validate_functor`` may then use the functor
    lemma; the record is no claim, since every premise is checked, and
    the mark of ``_looked_up`` records checks already made."""

    name: str
    dom: FinCategory
    cod: FinCategory
    obj_map: dict
    mor_map: dict
    over: tuple = field(default=None, repr=False, compare=False)


def along(path, m):
    """The component of a morphism of a pullback at ``path``:
    ``m[path[0]][path[1]]…``, and m itself for the empty path."""
    for k in path:
        m = m[k]
    return m


def identity_functor(c: FinCategory, name=None) -> FunctorMap:
    return FunctorMap(
        name=name or f"id_{c.name}",
        dom=c,
        cod=c,
        obj_map={o: o for o in c.objects},
        mor_map={m: m for m in c.morphisms},
    )


def same_category(c: FinCategory, d: FinCategory) -> bool:
    """Whether c and d are one category as functors read it: the same
    object, or the same objects and morphisms."""
    return c is d or (c.objects == d.objects and c.morphisms == d.morphisms)


def compose_functors(g: FunctorMap, f: FunctorMap, name=None) -> FunctorMap:
    if not same_category(f.cod, g.dom):
        raise ValueError(f"cannot compose {g.name} after {f.name}: middle categories differ")
    return FunctorMap(
        name=name or f"({g.name}∘{f.name})",
        dom=f.dom,
        cod=g.cod,
        obj_map={o: g.obj_map[f.obj_map[o]] for o in f.dom.objects},
        mor_map={m: g.mor_map[f.mor_map[m]] for m in f.dom.morphisms},
    )


def validate_functor(F: FunctorMap) -> list:
    """Exhaustively check functoriality.  Returns diagnostics ([] = ok).

    Images, endpoints and identities are checked on the tables.  When F
    records ``over = (p, q, path, h)``, composition is decided by the
    functor lemma of this module if its premises hold, each checked here:
    the path leads through pullbacks of F's domain to the domain of h (the
    empty path to F's domain itself), q leads through pullbacks of F's
    codomain to the domain of p, and p and h share their codomain X; F's
    domain and codomain and X are sound (every composite exists, with the
    right endpoints); p and h pass ``validate_functor``; p∘π_q is
    faithful; and p∘π_q∘F = h∘π_path, unless the construction lemma
    checked it.  When a premise fails, composition preservation is swept,
    so the diagnostics do not depend on ``over``.  The verdict is kept."""
    with checking():
        return list(_validated(F))


def _validated(F: FunctorMap) -> list:
    """``validate_functor``'s verdict on F, kept in the check context, so
    the premises of nested lemmas are checked once per request."""
    return _recall(lambda: _functoriality(F), "functor", F)


def _functoriality(F: FunctorMap) -> list:
    c, d = F.dom, F.cod
    images = []
    for o in c.objects:
        if o not in F.obj_map:
            images.append((o, f"{F.name}: no image for object {o!r}"))
        elif F.obj_map[o] not in d.objects:
            images.append((o, f"{F.name}: object image {F.obj_map[o]!r} not in {d.name}"))
    bad = _in_order(images)
    if not _looked_up(F):
        bad += _in_order([(m, f"{F.name}: no image for morphism {m!r}")
                          for m in c.morphisms if m not in F.mor_map])
        if not bad:
            bad = _endpoints(F)
    if not bad:
        # An identity that is no morphism of c, or an image object without
        # an identity in d, is an identity not preserved.
        def preserved(o):
            i, a = c.identity.get(o), F.obj_map[o]
            return i in c.morphisms and a in d.identity \
                and F.mor_map[i] == d.identity[a]
        bad = _in_order([(o, f"{F.name}: identity of {o!r} not preserved")
                         for o in c.objects if not preserved(o)])
        if not (F.over and _reflected(F)):
            bad += _composition_sweep(F)
    return bad


def _endpoints(F: FunctorMap) -> list:
    """The images of F's morphisms, one for each, that are no morphisms of
    F's codomain or have wrong endpoints, missing from a table included."""
    c, d, obj = F.dom, F.cod, F.obj_map
    ends = []
    for m in c.morphisms:
        fm = F.mor_map[m]
        if fm not in d.morphisms:
            ends.append((m, f"{F.name}: morphism image {fm!r} not in {d.name}"))
            continue
        try:
            fits = d.src[fm] == obj[c.src[m]] and d.tgt[fm] == obj[c.tgt[m]]
        except KeyError:
            fits = False
        if not fits:
            ends.append((m, f"{F.name}: image of {m!r} has wrong endpoints"))
    return _in_order(ends)


def _looked_up(F: FunctorMap, built=False) -> bool:
    """Whether F was built in the open check context by the lookups of the
    construction lemma; ``built`` records that it was, unless the lemmas
    are off."""
    return not _no_lemmas.get() and _recall(lambda: built, "looked up", F)


def _leaf(c: FinCategory, path):
    """The factor of c at ``path``, through nested pullbacks, or None when
    the path leaves them."""
    for k in path:
        if not isinstance(c.compose, Composition):
            return None
        c = c.compose.factors[k]
    return c


def _reflected(F: FunctorMap) -> bool:
    """Whether the premises of the functor lemma hold for F, whose
    endpoints are already checked."""
    p, q, path, h = F.over
    c, d = F.dom, F.cod
    if _no_lemmas.get() or _leaf(c, path) is not h.dom \
            or _leaf(d, q) is not p.dom or p.cod is not h.cod:
        return False
    if not (_sound(c) and _sound(d) and _sound(p.cod)):
        return False
    if _validated(p) or _validated(h):
        return False
    pm, hm, fm = p.mor_map, h.mor_map, F.mor_map

    def base(m):
        return pm[along(q, m)]
    faithful = next(parallel_morphisms(d, base), None) is None if q \
        else _faithful(p)
    return faithful and (_looked_up(F) or all(
        base(fm[m]) == hm[along(path, m)] for m in c.morphisms))


def _composition_sweep(F: FunctorMap) -> list:
    """Composition preservation, swept on codes.  A composite of images
    that the codomain lacks is a composite not preserved."""
    cn, dn = _codes(F.dom), _codes(F.cod)
    image = [dn.code[F.mor_map[m]] for m in cn.mors]
    rows_d = dn.rows
    pairs = []
    for i, row_c in enumerate(cn.rows):
        row_d = rows_d[image[i]]
        for j, k in row_c.items():
            if row_d.get(image[j]) != image[k]:
                gf = (cn.mors[j], cn.mors[i])
                pairs.append((gf, f"{F.name}: composition not preserved "
                                  f"at ({gf[0]!r}, {gf[1]!r})"))
    return _in_order(pairs)


def same_functor(F: FunctorMap, G: FunctorMap) -> bool:
    """Table equality of two functors (strict identifier equality)."""
    return (F.dom.objects == G.dom.objects
            and F.dom.morphisms == G.dom.morphisms
            and same_category(F.cod, G.cod)
            and F.obj_map == G.obj_map
            and F.mor_map == G.mor_map)


@dataclass
class NatTrans:
    """A natural transformation ``source ⇒ target`` as a component table."""

    name: str
    source: FunctorMap
    target: FunctorMap
    components: dict  # object of source.dom -> morphism of source.cod


def validate_nat_trans(t: NatTrans) -> list:
    """Exhaustively check every naturality square.  Returns diagnostics.

    The functors are not validated here: an image a functor lacks, or an
    endpoint a table lacks, is a component with wrong endpoints or a
    square that fails, and so is a composite the codomain lacks."""
    F, G = t.source, t.target
    if F.dom.objects != G.dom.objects or F.cod.objects != G.cod.objects:
        return [f"{t.name}: source and target functors are not parallel"]
    c, d = F.dom, F.cod

    def fits(o, m):
        try:
            return d.src[m] == F.obj_map[o] and d.tgt[m] == G.obj_map[o]
        except KeyError:
            return False
    comps = []
    for o in c.objects:
        m = t.components.get(o)
        if m is None or m not in d.morphisms:
            comps.append((o, f"{t.name}: missing or alien component at {o!r}"))
        elif not fits(o, m):
            comps.append((o, f"{t.name}: component at {o!r} has wrong endpoints"))
    if comps:
        return _in_order(comps)
    at, compose = t.components, d.compose

    def fails(f):
        try:
            lhs = compose.get((at[c.tgt[f]], F.mor_map.get(f)))
            return lhs is None \
                or lhs != compose.get((G.mor_map.get(f), at[c.src[f]]))
        except KeyError:
            return True
    return _in_order([(f, f"{t.name}: naturality square fails at {f!r}")
                      for f in c.morphisms if fails(f)])


def identity_nat_trans(F: FunctorMap) -> NatTrans:
    return NatTrans(
        name=f"id_{F.name}",
        source=F,
        target=F,
        components={o: F.cod.identity[F.obj_map[o]] for o in F.dom.objects},
    )


def whisker_left(H: FunctorMap, t: NatTrans, name=None) -> NatTrans:
    """Post-compose: ``H·t : H∘source ⇒ H∘target`` with components H(t_o)."""
    return NatTrans(
        name=name or f"({H.name}·{t.name})",
        source=compose_functors(H, t.source),
        target=compose_functors(H, t.target),
        components={o: H.mor_map[t.components[o]] for o in t.source.dom.objects},
    )


def whisker_right(t: NatTrans, K: FunctorMap, name=None) -> NatTrans:
    """Pre-compose: ``t·K : source∘K ⇒ target∘K`` with components t_{K o}."""
    return NatTrans(
        name=name or f"({t.name}·{K.name})",
        source=compose_functors(t.source, K),
        target=compose_functors(t.target, K),
        components={o: t.components[K.obj_map[o]] for o in K.dom.objects},
    )


def vertical_compose(u: NatTrans, t: NatTrans) -> NatTrans:
    """``u ∘ t`` where t: F ⇒ G and u: G ⇒ H."""
    d = t.source.cod
    return NatTrans(
        name=f"({u.name}∘{t.name})",
        source=t.source,
        target=u.target,
        components={o: d.comp(u.components[o], t.components[o])
                    for o in t.source.dom.objects},
    )


@dataclass
class AdjunctionData:
    """An adjunction ``left ⊣ right`` with explicit unit and counit."""

    name: str
    left: FunctorMap   # F : A → B
    right: FunctorMap  # G : B → A
    unit: NatTrans     # Id_A ⇒ G∘F
    counit: NatTrans   # F∘G ⇒ Id_B


def check_adjunction(adj: AdjunctionData) -> list:
    """Validate both functors and both transformations (naturality
    included), check that the unit runs Id_A ⇒ G∘F and the counit
    F∘G ⇒ Id_B, then check both triangle identities."""
    bad = []
    F, G = adj.left, adj.right
    A, B = F.dom, G.dom
    if not (same_category(F.cod, B) and same_category(G.cod, A)):
        return [f"{adj.name}: functor endpoints do not match"]
    bad += validate_functor(F)
    bad += validate_functor(G)
    bad += validate_nat_trans(adj.unit)
    bad += validate_nat_trans(adj.counit)
    if bad:
        return bad
    unit, counit = adj.unit, adj.counit
    if not (same_functor(unit.source, identity_functor(A))
            and same_functor(unit.target, compose_functors(G, F))):
        bad.append(f"{adj.name}: unit {unit.name} does not run "
                   f"Id ⇒ {G.name}∘{F.name}")
    if not (same_functor(counit.source, compose_functors(F, G))
            and same_functor(counit.target, identity_functor(B))):
        bad.append(f"{adj.name}: counit {counit.name} does not run "
                   f"{F.name}∘{G.name} ⇒ Id")
    if bad:
        return bad
    # A composite the category lacks is a triangle that fails.
    # counit_{F a} ∘ F(unit_a) = id_{F a}
    left = [(a, f"{adj.name}: triangle identity (left leg) fails at {a!r}")
            for a in A.objects
            if B.compose.get((adj.counit.components[F.obj_map[a]],
                              F.mor_map[adj.unit.components[a]]))
            != B.identity[F.obj_map[a]]]
    # G(counit_b) ∘ unit_{G b} = id_{G b}
    right = [(b, f"{adj.name}: triangle identity (right leg) fails at {b!r}")
             for b in B.objects
             if A.compose.get((G.mor_map[adj.counit.components[b]],
                               adj.unit.components[G.obj_map[b]]))
             != A.identity[G.obj_map[b]]]
    return _in_order(left) + _in_order(right)


def check_category_iso(F: FunctorMap):
    """Check that F is an isomorphism of categories; validates F first.

    Returns ``(diagnostics, inverse_or_None)``; the inverse is produced only
    when the check succeeds.
    """
    bad = validate_functor(F)
    if bad:
        return bad, None
    c, d = F.dom, F.cod
    bad, obj_inv, mor_inv = [], {}, {}
    for o in c.objects:
        img = F.obj_map[o]
        if img in obj_inv:
            bad.append(f"{F.name}: objects {obj_inv[img]!r} and {o!r} collide at {img!r}")
        obj_inv[img] = o
    for m in c.morphisms:
        img = F.mor_map[m]
        if img in mor_inv:
            bad.append(f"{F.name}: morphisms {mor_inv[img]!r} and {m!r} collide at {img!r}")
        mor_inv[img] = m
    for o in d.objects:
        if o not in obj_inv:
            bad.append(f"{F.name}: object {o!r} of {d.name} is not hit")
    for m in d.morphisms:
        if m not in mor_inv:
            bad.append(f"{F.name}: morphism {m!r} of {d.name} is not hit")
    if bad:
        return bad, None
    inverse = FunctorMap(
        name=f"{F.name}⁻¹", dom=d, cod=c, obj_map=obj_inv, mor_map=mor_inv)
    return [], inverse
