"""Fort certificates: lower bounds on gamma that a few-line checker re-verifies.

A k-fort is a nonempty vertex set F such that every vertex outside F has
either no neighbour in F or at least k+1.  A set S that misses N[F] never
monitors F: each monitored vertex touching F from outside sees k+1
unmonitored members of it.  So every k-PDS meets N[F] for every k-fort F
(the fort argument of Brimkov, Fast and Hicks, EJOR 2019, generalised to k).

A certificate is a list of groups ``(c, forts)``, each fort a set of
ordinals.  When the supports (the unions of the N[F]) of different groups
are pairwise disjoint and no c-1 vertices meet every N[F] of a group, every
k-PDS holds c vertices of that group's support, so gamma >= the sum of the c.

The package does not import this module, so the command line's start-up
does not compile it; import ``wkpdom.forts``.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .topology import WKP, ParameterDomainError, PyramidGraph, check_k

#: Groups ``(c, forts)``, each fort a set of vertex ordinals.
Certificate = list[tuple[int, list[frozenset[int]]]]


def block_fort_certificate(g: PyramidGraph, k: int) -> Certificate:
    """One group per level-L block w, of bound C-k-1: the forts
    F_{w,K} = {w a b : a != b in K} for every (k+2)-subset K of [C]_0.

    For a in K, the parent w a and each clique mate w a d outside F see the
    k+1 members w a b, b in K - {a}; w a b's bridge partner w b a is in F;
    no other vertex touches F.  A support vertex (in block w or a parent
    w a) meets N[F_{w,K}] iff its clique digit a is in K, so meeting every
    N[F] takes C-k-1 distinct digits.  Empty when k >= C-1.
    """
    if g.family != WKP or g.L < 2:
        raise ParameterDomainError("block forts are defined on WKP graphs with L >= 2")
    check_k(k)
    # w a b is offset(L) + w C^2 + a C + b: one list of a C + b per K, added to each block base.
    forts = [[a * g.C + b for a, b in itertools.permutations(K, 2)]
             for K in itertools.combinations(range(g.C), k + 2)]
    if not forts:
        return []
    return [(g.C - k - 1, [frozenset([base + x for x in F]) for F in forts])
            for base in range(g.offsets[g.L], g.n, g.C ** 2)]


def check_fort_certificate(g: PyramidGraph, k: int, cert: Certificate) -> int:
    """The lower bound on gamma that ``cert`` proves; ValueError if any part fails.

    Reads only ``g.adjacency``.
    """
    adj, seen, total = g.adjacency, set(), 0
    check_k(k)
    for c, forts in cert:
        # The forts' type is checked before they are read, so a malformed
        # group is a ValueError, never a TypeError from ``len`` or ``for``.
        if type(c) is not int or c < 1 \
                or not isinstance(forts, (list, tuple, set, frozenset)) or not forts:
            raise ValueError(f"a group needs a bound c >= 1, an int, and a nonempty "
                             f"list of forts, got {c!r} and a {type(forts).__name__}")
        closed = []
        for F in forts:
            if not isinstance(F, (set, frozenset)) or not F \
                    or not all(type(v) is int and 0 <= v < len(adj) for v in F):
                raise ValueError(f"a fort must be a nonempty set of ordinals, got {F!r}")
            NF = F.union(*(adj[v] for v in F))
            for u in NF - F:
                if sum(x in F for x in adj[u]) <= k:
                    raise ValueError(f"{sorted(F)} is not a {k}-fort: {u} sees at most {k}")
            closed.append(NF)
        support = set().union(*closed)
        if support & seen:
            raise ValueError("the supports of two groups overlap")
        seen |= support
        # Vertices meeting the same N[F]s are interchangeable: try their patterns.
        hits = {sum(1 << i for i, NF in enumerate(closed) if v in NF) for v in support}
        for few in itertools.combinations(hits, min(c - 1, len(hits))):
            if functools.reduce(operator.or_, few, 0) == (1 << len(closed)) - 1:
                raise ValueError(f"{c - 1} vertices meet every N[F] of a group of bound {c}")
        total += c
    return total
