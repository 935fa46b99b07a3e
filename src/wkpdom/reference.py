"""Deliberately naive re-implementations used as independent oracles.

Everything here mirrors the public propagation and search semantics with
plain Python sets and exhaustive loops.  ``naive_round`` is one
simultaneous round, the step of ``naive_fixpoint_rounds``; the package runs
rounds only from the closed neighborhood of a seed set, so the tests
compare whole runs.  Each public call builds the closed neighborhood N[v]
of every vertex once, as a frozenset; every round of every subset it runs
reads those sets.  No code is shared with the two fast implementations of
the rounds: the counter loop of ``propagation`` (one fixpoint on a graph
of any size) and the bit-parallel kernel of ``exact`` (millions of
fixpoints on a few hundred vertices), which share none with each other
either; a test holds this module to importing only ``topology``.  The
tests compare the rounds and radii of all three on every WK(C, L) and
WKP(C, L) with C <= 10, L <= 6 and at most 100 vertices, and ``min_kpds``
against ``naive_min_kpds``, which runs every subset of each size up to the
first size that holds a k-PDS; the reproduction report compares the two
solvers on small instances.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

from .topology import PyramidGraph


def _closed_sets(g: PyramidGraph) -> list[frozenset[int]]:
    """N[v] for every vertex v, indexed by ordinal."""
    return [frozenset(nbrs) | {v} for v, nbrs in enumerate(g.adjacency)]


def _round(closed: list[frozenset[int]], k: int, P: set[int]) -> set[int]:
    out: set[int] = set()
    for v in P:
        nb = closed[v]
        if len(nb - P) <= k:
            out |= nb
    return out


def _rounds(closed: list[frozenset[int]], k: int, S: Iterable[int]) -> list[set[int]]:
    """All rounds from N[S] until coverage, or until two equal rounds."""
    P: set[int] = set()
    for v in S:
        P |= closed[v]
    rounds = [P]
    while len(P) < len(closed):
        nxt = _round(closed, k, P)
        rounds.append(nxt)
        if nxt == P:
            break
        P = nxt
    return rounds


def naive_round(g: PyramidGraph, k: int, P: set[int]) -> set[int]:
    """Direct set-comprehension transcription of one simultaneous round."""
    return _round(_closed_sets(g), k, P)


def naive_fixpoint_rounds(g: PyramidGraph, k: int, S: Iterable[int]) -> list[set[int]]:
    """All rounds from N[S] until coverage, or until two equal rounds."""
    return _rounds(_closed_sets(g), k, S)


def naive_fixpoint_runs(g: PyramidGraph, k: int,
                        seeds: Iterable[Iterable[int]]) -> Iterator[list[set[int]]]:
    """``naive_fixpoint_rounds`` of each seed set in turn, all read from one N[v] table."""
    closed = _closed_sets(g)
    for S in seeds:
        yield _rounds(closed, k, S)


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
    closed = _closed_sets(g)
    for size in itertools.count():
        found: dict[frozenset[int], int] = {}
        for S in itertools.combinations(range(g.n), size):
            rounds = _rounds(closed, k, S)
            if len(rounds[-1]) == g.n:
                found[frozenset(S)] = len(rounds)
        if found:
            return size, sorted(found, key=sorted), min(found.values())
