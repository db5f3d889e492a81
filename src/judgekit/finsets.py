"""Skeleton of finite sets, with chosen products and subset bookkeeping.

Objects are the natural numbers 0..N standing for the sets {0,…,k−1};
morphisms are identifiers ``("f", x, y, images)`` recording the full graph
of a function.  Products are chosen once and for all by lexicographic
pairing: the product of x and y is the number x·y with (i, j) ↦ i·y + j.
Subsets are canonical sorted tuples.
"""

from __future__ import annotations

from itertools import product as iproduct

from .core import category_from


def apply_map(m: tuple, i: int) -> int:
    return m[3][i]


def fin_skeleton(n: int, name=None):
    """The full skeleton Fin(≤n): objects 0..n, all functions between them."""
    nm = name or f"Fin(≤{n})"
    objs = list(range(n + 1))
    mors, src, tgt = [], {}, {}
    for x in objs:
        for y in objs:
            if x == 0:
                choices = [()]
            elif y == 0:
                choices = []
            else:
                choices = iproduct(range(y), repeat=x)
            for images in choices:
                m = ("f", x, y, tuple(images))
                mors.append(m)
                src[m] = x
                tgt[m] = y
    identity = {x: ("f", x, x, tuple(range(x))) for x in objs}
    return category_from(nm, objs, mors, src, tgt, identity,
                         lambda g, f: ("f", f[1], g[2],
                                       tuple(g[3][i] for i in f[3])))


def pair_index(i: int, j: int, y: int) -> int:
    """Chosen pairing (i, j) ∈ x × y ↦ i·y + j."""
    return i * y + j


def cross_map(m: tuple, n: tuple) -> tuple:
    """The function m × n : x·y → x'·y' under the chosen pairing.

    The skeleton 0..N is not closed under multiplication, so products are
    handled at the level of encoded sets {0,…,x·y−1} rather than as an
    endofunctor of the skeleton.
    """
    x, y = m[1], n[1]
    x2, y2 = m[2], n[2]
    images = []
    for i in range(x):
        for j in range(y):
            images.append(pair_index(m[3][i], n[3][j], y2))
    return ("f", x * y, x2 * y2, tuple(images))


def graph_map(x: int, t: tuple) -> tuple:
    """The graph ⟨id, t⟩ : x → x·y of a function t : x → y."""
    y = t[2]
    return ("f", x, x * y, tuple(pair_index(i, t[3][i], y) for i in range(x)))


def subsets(x: int):
    """All subsets of {0,…,x−1} as sorted tuples, in bitmask order."""
    out = []
    for mask in range(1 << x):
        out.append(tuple(i for i in range(x) if mask >> i & 1))
    return out


def preimage(m: tuple, s: tuple) -> tuple:
    """Preimage of a subset of the codomain under a function identifier."""
    keep = set(s)
    return tuple(i for i in range(m[1]) if m[3][i] in keep)


def meet(s: tuple, t: tuple) -> tuple:
    keep = set(t)
    return tuple(i for i in s if i in keep)


def implication(x: int, s: tuple, t: tuple) -> tuple:
    """Heyting implication in the powerset of {0,…,x−1} (here Boolean)."""
    sset, tset = set(s), set(t)
    return tuple(i for i in range(x) if i not in sset or i in tset)


def subset_leq(s: tuple, t: tuple) -> bool:
    return set(s) <= set(t)


def canonical_inclusion(x: int, s: tuple) -> tuple:
    """The order-preserving injection {0,…,|s|−1} → {0,…,x−1} onto s."""
    return ("f", len(s), x, tuple(s))
