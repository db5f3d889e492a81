"""Seeded inputs for the verdict benchmark.

Each workload is a *cycle*: a fixed list of requests, every one carrying
its known answer.  The seed shuffles each cycle independently and picks
the names, maps and law-break positions inside the generated documents,
so the same seed always gives the same request sequence while the cost
mix of a cycle stays the same from seed to seed.

Known answers are fixed here, when the input is made: valid documents
are expected ``ok``; a document with a law break is expected ``fail``,
together with the checks of which at least one must report ``FAIL``.
Where a break is drawn at random, an independent oracle in this file
confirms that it really breaks the law; the checker under test is never
consulted.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

WORKLOADS = ("ndt-derive", "dtt-derive", "jt-corpus")


@dataclass(frozen=True)
class Request:
    """One ``jt`` request and its known answer.

    ``argv`` names documents by file name; :func:`argv_in` resolves them
    against the directory the documents were written to.  ``kind`` names
    the path through the command (``check``, ``derive cut``, ...).
    ``defect`` is set on the inputs that today's checker gets wrong; their
    expected answer is still the right one.
    """

    kind: str
    argv: tuple
    expect: str = "ok"
    fail_checks: tuple = ()
    defect: str = ""
    doc: str = ""


@dataclass
class Workload:
    name: str
    docs: dict        # file name -> text
    cycle: list       # Request, one cycle in canonical order
    warmup: list      # Request, one of each kind, on the smallest inputs


# Seconds one cycle takes on a shared 2-vCPU Xeon VM with Python 3.11.
# A run measures a fixed number of cycles worked out from ``--seconds``
# with these, never from the speed it sees, so a run of the same length
# measures the same requests on both sides of a change.
CYCLE_S = {"ndt-derive": 16.5, "dtt-derive": 5.0, "jt-corpus": 1.15}


def cycles(wl: Workload, seconds: float, least: int = 1) -> int:
    """How many cycles a run of ``seconds`` measures: at least ``least``."""
    return max(least, round(seconds / CYCLE_S[wl.name]))


def argv_in(req: Request, where: str) -> list:
    return [os.path.join(where, a) if a == req.doc else a for a in req.argv]


def sequence(wl: Workload, seed: int, cycle_no: int) -> list:
    """The requests of cycle ``cycle_no``: the cycle in a seeded order."""
    order = list(wl.cycle)
    random.Random(f"{wl.name}/{seed}/{cycle_no}").shuffle(order)
    return order


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}/{seed}/docs")
    return {"ndt-derive": _ndt, "dtt-derive": _dtt, "jt-corpus": _corpus}[name](rng)


def _name(rng, taken=()):
    """A fresh identifier prefix of two letters (never ``id`` or ``o``)."""
    while True:
        p = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(2))
        if p != "id" and p not in taken:
            return p


def _header(rng, what):
    what = " ".join(what.split())
    return f"# {what} (generated, tag {rng.randrange(16 ** 6):06x})\n"


# --------------------------------------------------------------------------
# ndt-derive: sequent calculi of poset doctrines.
# --------------------------------------------------------------------------

# (file stem, doctrine) — powerset 2 and chain k n with k <= 3, n <= 2.
_NDT_DOCS = {"ps2": "powerset 2", "c22": "chain 2 2", "c31": "chain 3 1",
             "c32": "chain 3 2", "c12": "chain 1 2", "c21": "chain 2 1",
             "c11": "chain 1 1", "ps1": "powerset 1"}

# One cycle, about 16 s.  derive cut/W/C all run the structural
# derivation.  A tail needs two cycles (40 samples) and they have to fit
# in a run, so `derive cut` on powerset 2 (2.6 s) is left out: the demo
# runs the same derivation on powerset 2.  The chain 2 2 derivations run
# twice a cycle, so the tail (see verdicts.tail) sits among them.
_NDT_CYCLE = [("demo", None, None), ("derive", "ps2", "forall"), ("check", "ps2", None),
              ("check", "c22", None), ("check", "c32", None),
              ("derive", "c31", "cut"), ("derive", "c31", "structural:W"),
              ("derive", "c31", "structural:C"),
              ("derive", "c12", "cut"), ("derive", "c12", "structural:W"),
              ("derive", "c12", "structural:C"), ("derive", "c21", "cut"),
              ("derive", "c21", "structural:W"), ("derive", "c21", "structural:C")] + [
              ("derive", "c22", "cut"), ("derive", "c22", "structural:W"),
              ("derive", "c22", "structural:C")] * 2

_NDT_WARMUP = [("derive", "c11", "cut"), ("derive", "c11", "structural:W"),
               ("derive", "c11", "structural:C"), ("derive", "ps1", "forall"),
               ("check", "c11", None), ("demo", None, None)]


def _ndt_request(cmd, stem, rule, docs, warm=False):
    if cmd == "demo":
        # The ndt-powerset demo has one fixed size; the warm-up runs the
        # toy demo instead, which takes the same path through `jt demo`.
        which = "toy" if warm else "ndt-powerset"
        return Request("demo", ("demo", which))
    doc = docs[stem]
    if cmd == "check":
        return Request("check", ("check", doc), doc=doc)
    return Request(f"derive {rule}", ("derive", doc, "--rule", rule), doc=doc)


def _ndt(rng):
    docs, files = {}, {}
    for stem, doctrine in _NDT_DOCS.items():
        fname = f"{stem}-{_name(rng)}.jt"
        files[stem] = fname
        docs[fname] = (_header(rng, f"sequent calculus of {doctrine}")
                       + f"doctrine {_name(rng).upper()} = {doctrine}\n")
    cycle = [_ndt_request(c, s, r, files) for (c, s, r) in _NDT_CYCLE]
    warm = [_ndt_request(c, s, r, files, warm=True) for (c, s, r) in _NDT_WARMUP]
    return Workload("ndt-derive", docs, cycle, warm)


# --------------------------------------------------------------------------
# dtt-derive: the subset model of dependent types over FinSet(3).
# --------------------------------------------------------------------------

_DTT_RULES = ("pi", "id", "sum", "dty", "dtm")


def _dtt(rng):
    docs, files = {}, {}
    for n in (2, 3):
        fname = f"dtt{n}-{_name(rng)}.jt"
        files[n] = fname
        docs[fname] = (_header(rng, f"dependent types over FinSet({n})")
                       + f"instance {_name(rng).upper()} = dtt-finset {n}\n")

    def reqs(doc):
        out = [Request(f"derive {r}", ("derive", doc, "--rule", r), doc=doc)
               for r in _DTT_RULES]
        out.append(Request("check", ("check", doc), doc=doc))
        out.append(Request("close", ("close", doc, "--depth", "1"), doc=doc))
        return out

    # Every kind once per cycle on dtt-finset 3; dtt-finset 2 (7-14 ms a
    # request) only warms up.
    return Workload("dtt-derive", docs, reqs(files[3]), reqs(files[2]))


# --------------------------------------------------------------------------
# jt-corpus: hand-written style documents with explicit tables.
# --------------------------------------------------------------------------

class _Chain:
    """The chain 0 < 1 < ... < n-1 as an explicit category."""

    def __init__(self, name, prefix, n):
        self.name, self.p, self.n = name, prefix, n

    def obj(self, i):
        return f"{self.p}{i}"

    def mor(self, i, j):
        return f"{self.p}{i}_{j}" if i < j else f"id_{self.p}{i}"

    def lines(self, comp, wrong=None):
        """The category block; ``wrong = (i, j, k)`` gives that composite
        the endpoints of its first factor instead of ``i -> k``."""
        n = self.n
        out = [f"category {self.name}"]
        out += [f"  object {self.obj(i)}" for i in range(n)]
        out += [f"  morphism {self.mor(i, j)} : {self.obj(i)} -> {self.obj(j)}"
                for i in range(n) for j in range(i + 1, n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    h = self.mor(i, j) if (i, j, k) == wrong else self.mor(i, k)
                    out.append(f"  {self.mor(j, k)} {comp} {self.mor(i, j)} = {h}")
        return out + ["  complete", ""]


def _monotone(name, A, B, phi):
    out = [f"functor {name} : {A.name} -> {B.name}"]
    out += [f"  object {A.obj(i)} |-> {B.obj(phi[i])}" for i in range(A.n)]
    out += [f"  morphism {A.mor(i, j)} |-> {B.mor(phi[i], phi[j])}"
            for i in range(A.n) for j in range(i + 1, A.n)]
    return out + [""]


def _below(name, F, G, A, B, phi, psi):
    """The natural transformation F => G of monotone maps phi <= psi."""
    out = [f"nat {name} : {F} => {G}"]
    out += [f"  at {A.obj(i)} = {B.mor(phi[i], psi[i])}" for i in range(A.n)]
    return out + [""]


def _random_monotone(rng, n, m):
    return sorted(rng.randrange(m) for _ in range(n))


def _fibration_map(n, m):
    """The monotone surjection chain n -> chain m with evenly spaced
    steps of one (a fibration).  Fixed by the sizes, so that a theory's
    cleavage costs the same for every seed."""
    return [i * m // n for i in range(n)]


def chain_map_is_fibration(phi):
    """Oracle: a monotone map of chains is a Grothendieck fibration iff
    every j <= phi(i) is hit at or below i."""
    return all(j in phi[:i + 1] for i in range(len(phi)) for j in range(phi[i] + 1))


def _galois(rng, A, B, names):
    """A Galois connection L -| R between chains A and B, with the
    composites and identities it needs spelled out as tables."""
    L, R, IA, IB, RL, LR, eta, eps, adj = names
    r = sorted(rng.randrange(A.n) for _ in range(B.n - 1)) + [A.n - 1]
    l = [min(j for j in range(B.n) if i <= r[j]) for i in range(A.n)]
    rl = [r[l[i]] for i in range(A.n)]
    lr = [l[r[j]] for j in range(B.n)]
    ida, idb = list(range(A.n)), list(range(B.n))
    out = (_monotone(L, A, B, l) + _monotone(R, B, A, r)
           + _monotone(IA, A, A, ida) + _monotone(IB, B, B, idb)
           + _monotone(RL, A, A, rl) + _monotone(LR, B, B, lr)
           + _below(eta, IA, RL, A, A, ida, rl)
           + _below(eps, LR, IB, B, B, lr, idb))
    return out + [f"adjunction {adj} : {L} -| {R}", f"  unit {eta}",
                  f"  counit {eps}", ""]


class _Cyclic:
    """The cyclic group Z_n as a one-object category with an explicit
    multiplication table; r0 is the identity."""

    def __init__(self, name, prefix, n):
        self.name, self.p, self.n = name, prefix, n

    def mor(self, i):
        i %= self.n
        return f"{self.p}r{i}" if i else f"id_{self.p}"

    def table(self):
        n = self.n
        return {(i, j): (i + j) % n for i in range(1, n) for j in range(1, n)}

    def lines(self, comp, table, extra=()):
        out = [f"category {self.name}", f"  object {self.p}"]
        out += [f"  morphism {self.mor(i)} : {self.p} -> {self.p}"
                for i in range(1, self.n)]
        out += [f"  {self.mor(i)} {comp} {self.mor(j)} = {self.mor(h)}"
                for (i, j), h in table.items()]
        out += [f"  {self.mor(i)} {comp} {self.mor(j)} = {self.mor(h)}"
                for (i, j, h) in extra]
        return out + ["  complete", ""]

    def endo(self, name, images):
        out = [f"functor {name} : {self.name} -> {self.name}",
               f"  object {self.p} |-> {self.p}"]
        out += [f"  morphism {self.mor(i)} |-> {self.mor(images[i])}"
                for i in range(1, self.n)]
        return out + [""]


def _full_table(n, table):
    full = dict(table)
    for i in range(n):
        full[(0, i)] = full[(i, 0)] = i
    return full


def monoid_is_associative(n, table):
    """Oracle: associativity of a multiplication table on 0..n-1 whose
    unit 0 is implicit."""
    t = _full_table(n, table)
    return all(t[(t[(a, b)], c)] == t[(a, t[(b, c)])]
               for a in range(n) for b in range(n) for c in range(n))


def preserves_products(n, table, images):
    """Oracle: is the map i -> images[i] a monoid homomorphism?"""
    t = _full_table(n, table)
    return all(images[t[(a, b)]] == t[(images[a], images[b])]
               for a in range(n) for b in range(n))


def _comp_token(rng):
    return rng.choice(("o", "∘"))


class _Product:
    """The product poset of chains a x b as an explicit category."""

    def __init__(self, name, prefix, a, b):
        self.name, self.p, self.a, self.b = name, prefix, a, b
        self.elems = [(i, j) for i in range(a) for j in range(b)]

    def obj(self, u):
        return f"{self.p}{u[0]}x{u[1]}"

    def mor(self, u, v):
        return (f"{self.p}{u[0]}x{u[1]}_{v[0]}x{v[1]}" if u != v
                else f"id_{self.obj(u)}")

    def strictly_above(self, u):
        return [v for v in self.elems
                if v != u and u[0] <= v[0] and u[1] <= v[1]]

    def lines(self, comp):
        out = [f"category {self.name}"]
        out += [f"  object {self.obj(u)}" for u in self.elems]
        out += [f"  morphism {self.mor(u, v)} : {self.obj(u)} -> {self.obj(v)}"
                for u in self.elems for v in self.strictly_above(u)]
        out += [f"  {self.mor(v, w)} {comp} {self.mor(u, v)} = {self.mor(u, w)}"
                for u in self.elems for v in self.strictly_above(u)
                for w in self.strictly_above(v)]
        return out + ["  complete", ""]

    def projection(self, name, A):
        """The first projection onto the chain A (a fibration)."""
        out = [f"functor {name} : {self.name} -> {A.name}"]
        out += [f"  object {self.obj(u)} |-> {A.obj(u[0])}" for u in self.elems]
        out += [f"  morphism {self.mor(u, v)} |-> {A.mor(u[0], v[0])}"
                for u in self.elems for v in self.strictly_above(u)]
        return out + [""]


def _names(rng, k):
    taken = []
    for _ in range(k):
        taken.append(_name(rng, taken))
    return taken


def _chain_doc(rng, n_a, n_b, brk=""):
    """Two chains, monotone maps with a natural transformation, a Galois
    connection, a fibration declared as a classifier and a theory using
    it.  ``brk`` is "", "composite" or "classifier"."""
    comp = _comp_token(rng)
    pa, pb = _names(rng, 2)
    A, B = _Chain(pa.upper(), pa, n_a), _Chain(pb.upper(), pb, n_b)
    wrong = None
    if brk == "composite":
        i, j, k = sorted(rng.sample(range(n_a), 3))
        wrong = (i, j, k)
    phi = _random_monotone(rng, n_a, n_b)
    psi = [max(x, y) for x, y in zip(phi, _random_monotone(rng, n_a, n_b))]
    proj = _fibration_map(n_a, n_b)
    if brk == "classifier":
        # Skip a value from a random point on, until some j <= proj(i) is
        # never hit at or below i.
        while chain_map_is_fibration(proj):
            cut = rng.randrange(1, n_a)
            proj = [min(x + (i >= cut), n_b - 1) for i, x in enumerate(proj)]
    lines = A.lines(comp, wrong) + B.lines(comp)
    lines += _monotone("F", A, B, phi) + _monotone("G", A, B, psi)
    lines += _below("t", "F", "G", A, B, phi, psi)
    lines += _galois(rng, A, B, ["L", "R", "IA", "IB", "RL", "LR", "eta",
                                 "eps", "gc"])
    lines += _monotone("P", A, B, proj)
    lines += ["classifier U : P kind fibration", "",
              f"theory T over {B.name}", "  judgement U", "  rule P", ""]
    fails = {"": (), "composite": (f"category {A.name}",),
             "classifier": ("classifier U",)}[brk]
    return "\n".join(lines), fails


def _group_doc(rng, n, brk=""):
    """Z_n with endofunctors, a natural transformation and the adjunction
    Id -| Id.  ``brk`` is "", "assoc", "functor", "nat" or "adjunction"."""
    comp = _comp_token(rng)
    p = _name(rng)
    Z = _Cyclic(p.upper(), p, n)
    table = Z.table()
    if brk == "assoc":
        while True:
            i, j = rng.randrange(1, n), rng.randrange(1, n)
            h = rng.choice([x for x in range(n) if x != table[(i, j)]])
            bad = dict(table)
            bad[(i, j)] = h
            if not monoid_is_associative(n, bad):
                table = bad
                break
    units = [k for k in range(2, n) if all((k * i) % n for i in range(1, n))]
    k1, k2 = rng.sample(units, 2)
    f_img = [(k1 * i) % n for i in range(n)]
    if brk == "functor":
        while True:
            i = rng.randrange(1, n)
            bad = list(f_img)
            bad[i] = rng.choice([x for x in range(1, n) if x != f_img[i]])
            if not preserves_products(n, table, bad):
                f_img = bad
                break
    g_img = [(k2 * i) % n for i in range(n)]
    a = rng.randrange(1, n)
    b = (-a) % n if brk != "adjunction" else rng.choice(
        [x for x in range(n) if (a + x) % n])
    c = rng.randrange(1, n)
    target = "G" if brk == "nat" else "F"
    lines = Z.lines(comp, table)
    lines += Z.endo("F", f_img) + Z.endo("G", g_img) + Z.endo("I", list(range(n)))
    lines += [f"nat t : F => {target}", f"  at {p} = {Z.mor(c)}", "",
              "nat eta : I => I", f"  at {p} = {Z.mor(a)}", "",
              "nat eps : I => I", f"  at {p} = {Z.mor(b)}", "",
              "adjunction A : I -| I", "  unit eta", "  counit eps", ""]
    fails = {"": (), "assoc": (f"category {Z.name}",), "functor": ("functor F",),
             "nat": ("nat t",), "adjunction": ("adjunction A",)}[brk]
    return "\n".join(lines), fails


def _product_doc(rng, a, b):
    """A product poset with its first projection as a fibration classifier
    and a theory over the first factor."""
    comp = _comp_token(rng)
    pa, pp = _names(rng, 2)
    A, P = _Chain(pa.upper(), pa, a), _Product(pp.upper(), pp, a, b)
    lines = A.lines(comp) + P.lines(comp) + P.projection("pi", A)
    lines += ["classifier U : pi kind fibration", "",
              f"theory T over {A.name}", "  judgement U", "  rule pi", ""]
    return "\n".join(lines), ()


def _theory_doc(rng, c, chains, products):
    """A theory over a chain with one judgement per fibration: chains of
    the given lengths and products with chains of the given lengths,
    each projecting onto the context chain.  For `jt close`."""
    comp = _comp_token(rng)
    prefixes = _names(rng, 1 + len(chains) + len(products))
    C = _Chain(prefixes[0].upper(), prefixes[0], c)
    lines, rules = C.lines(comp), []
    for n, p in zip(chains, prefixes[1:]):
        N = _Chain(p.upper(), p, n)
        rules.append(f"q{len(rules)}")
        lines += N.lines(comp) + _monotone(rules[-1], N, C, _fibration_map(n, c))
    for b, p in zip(products, prefixes[1 + len(chains):]):
        P = _Product(p.upper(), p, c, b)
        rules.append(f"q{len(rules)}")
        lines += P.lines(comp) + P.projection(rules[-1], C)
    lines += [f"classifier U{r} : {r} kind fibration" for r in rules]
    lines += ["", f"theory T over {C.name}"]
    lines += [f"  judgement U{r}" for r in rules] + [f"  rule {r}" for r in rules]
    return "\n".join(lines + [""]), ()


def _conflict_doc(rng, n):
    """Known defect: a valid Z_n document plus a category whose table
    gives ``f o f`` twice, once as ``f`` and once as ``id_a``.  Either
    entry alone is a valid category; the pair is a contradiction that
    must be reported, and today the last entry silently wins."""
    text, _ = _group_doc(rng, n)
    comp = _comp_token(rng)
    a, f = _names(rng, 2)
    name = a.upper() + "M"
    text += "\n".join([f"category {name}", f"  object {a}",
                       f"  morphism {f} : {a} -> {a}",
                       f"  {f} {comp} {f} = {f}", f"  {f} {comp} {f} = id_{a}",
                       "  complete", ""])
    return text, ("resolve names", f"category {name}")


def _bad_header_doc(rng, n_a, n_b):
    """Known defect: a valid chain document whose last block is the
    doctrine header ``powerset x``.  It must end in a parse diagnostic;
    today int() raises ValueError out of the parser."""
    text, _ = _chain_doc(rng, n_a, n_b)
    return text + f"doctrine {_name(rng).upper()} = powerset x\n", ("parse {doc}",)


# One jt-corpus cycle: (kind, document builder, arguments, known defect).
# Sizes are fixed so that every seed gives the same cost mix; the seed
# picks names, maps and break positions.
_CORPUS_CYCLE = [
    # about 20 ms: small documents and the three known defects
    ("check", _chain_doc, (12, 6, ""), ""),
    ("check", _bad_header_doc, (16, 8), "powerset-header"),
    ("check", _conflict_doc, (24,), "conflicting-composites"),
    ("derive forall", None, ("chain 2 1",), "forall-on-chain"),
    # about 50 ms: the bulk, around the median
    ("check", _group_doc, (32, ""), ""),
    ("check", _group_doc, (32, "assoc"), ""),
    ("check", _group_doc, (32, "functor"), ""),
    ("check", _group_doc, (32, "nat"), ""),
    ("check", _group_doc, (32, "adjunction"), ""),
    ("check", _chain_doc, (16, 8, ""), ""),
    ("check", _product_doc, (4, 6), ""),
    ("check", _product_doc, (5, 5), ""),
    ("close", _theory_doc, (2, (3, 3, 3), ()), ""),
    # 70-200 ms: large tables and the wider closures
    ("check", _chain_doc, (24, 10, ""), ""),
    ("check", _chain_doc, (24, 10, "composite"), ""),
    ("check", _chain_doc, (20, 8, "classifier"), ""),
    ("close", _theory_doc, (2, (3, 3), (2,)), ""),
    ("close", _theory_doc, (2, (2, 3, 4), (2,)), ""),
    # the largest check, so that the tail sits on one fixed-cost document
    ("check", _product_doc, (6, 7), ""),
]

_CORPUS_WARMUP = [
    ("check", _group_doc, (8, ""), ""),
    ("close", _theory_doc, (2, (2,), ()), ""),
    ("derive forall", None, ("chain 1 1",), "forall-on-chain"),
]


def _corpus_requests(rng, plan, docs):
    out = []
    for kind, make, args, defect in plan:
        fname = f"{kind.split()[0]}-{len(docs):02d}-{_name(rng)}.jt"
        if make is None:
            # derive --rule forall on a chain doctrine: quantifiers need a
            # powerset doctrine, which the report must say.
            docs[fname] = (_header(rng, "chain doctrine")
                           + f"doctrine {_name(rng).upper()} = {args[0]}\n")
            fails = ("quantifier adjunctions (sort 1)", "universal introduction",
                     "derive forall")
            out.append(Request(kind, ("derive", fname, "--rule", "forall"),
                               "fail", fails, defect, fname))
            continue
        text, fails = make(rng, *args)
        docs[fname] = _header(rng, make.__doc__.split(".")[0]) + text
        argv = ("check", fname) if kind == "check" else ("close", fname, "--depth", "2")
        out.append(Request(kind, argv, "fail" if fails else "ok", fails, defect, fname))
    return out


def _corpus(rng):
    docs = {}
    cycle = _corpus_requests(rng, _CORPUS_CYCLE, docs)
    warm = _corpus_requests(rng, _CORPUS_WARMUP, docs)
    return Workload("jt-corpus", docs, cycle, warm)
