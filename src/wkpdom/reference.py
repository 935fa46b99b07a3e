"""Deliberately naive re-implementations used as independent oracles.

Everything here mirrors the public propagation and search semantics with
plain Python sets and exhaustive loops.  ``naive_round`` is one
simultaneous round, the step of ``naive_fixpoint_rounds``; the package runs
rounds only from the closed neighborhood of a seed set, so the tests
compare whole runs.  No code is shared with the two
fast implementations of the rounds: the counter loop of ``propagation``
(one fixpoint on a graph of any size) and the bit-parallel kernel of
``exact`` (millions of fixpoints on a few hundred vertices), which share
none with each other either.  The tests compare the rounds and radii of
all three on every WK(C, L) and WKP(C, L) with C <= 10, L <= 6 and at
most 100 vertices, and ``min_kpds`` against ``naive_min_kpds``, which runs
every subset of each size up to the first size that holds a k-PDS; the
reproduction report compares the two solvers on small instances.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

from .topology import PyramidGraph


def _closed(g: PyramidGraph, v: int) -> set[int]:
    nb = set(g.adjacency[v])
    nb.add(v)
    return nb


def naive_round(g: PyramidGraph, k: int, P: set[int]) -> set[int]:
    """Direct set-comprehension transcription of one simultaneous round."""
    out: set[int] = set()
    for v in P:
        nb = _closed(g, v)
        if len(nb - P) <= k:
            out |= nb
    return out


def naive_fixpoint_rounds(g: PyramidGraph, k: int, S: Iterable[int]) -> list[set[int]]:
    """All rounds from N[S] until coverage, or until two equal rounds."""
    P: set[int] = set()
    for v in S:
        P |= _closed(g, v)
    rounds = [set(P)]
    while len(P) < g.n:
        nxt = naive_round(g, k, P)
        rounds.append(set(nxt))
        if nxt == P:
            break
        P = nxt
    return rounds


def naive_is_kpds(g: PyramidGraph, k: int, S: Iterable[int]) -> bool:
    return len(naive_fixpoint_rounds(g, k, S)[-1]) == g.n


def naive_radius(g: PyramidGraph, k: int, S: Iterable[int]) -> int | float:
    rounds = naive_fixpoint_rounds(g, k, S)
    if len(rounds[-1]) != g.n:
        return math.inf
    return len(rounds)


def naive_min_kpds(g: PyramidGraph, k: int) -> tuple[int, list[frozenset[int]], int | float]:
    """Minimum k-power-dominating sets by scanning subsets size by size.

    Runs every subset of each size 0, 1, ... once, up to and including the
    first size that holds a k-PDS: that size is gamma, and no smaller
    subset was left out.  Returns (gamma, all optimal sets sorted, min
    radius over optimal sets).  Only sensible for very small graphs.
    """
    for size in itertools.count():
        found: dict[frozenset[int], int | float] = {}
        for S in itertools.combinations(range(g.n), size):
            radius = naive_radius(g, k, S)
            if radius != math.inf:
                found[frozenset(S)] = radius
        if found:
            return size, sorted(found, key=sorted), min(found.values())
