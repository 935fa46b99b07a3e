"""Monitored-set propagation and k-power-domination predicates.

Monitoring seeds on the closed neighborhood of a seed set and then runs
simultaneous rounds: every monitored vertex with at most k unmonitored
closed neighbors extends monitoring to its whole closed neighborhood.
Round t+1 is computed entirely from the frozen monitored set P_t of round
t; cascading within a round would shorten radii and is deliberately not
done.

Rounds only grow: P_0 = N[S] is the union of the closed neighborhoods of
the seed vertices, each of which has no unmonitored closed neighbor and so
fires again in round 1; inductively P_t is the union of N[v] over the
vertices v that fired in round t, and each of those still has no
unmonitored closed neighbor in round t+1.  Hence P_t is a subset of
P_{t+1}.

The engine, ``_run``, is the one round loop behind every public call, and
every call starts it from N[S] for a seed set S, so rounds only grow as
shown above.  It works on the adjacency rows and two per-vertex lists: the
round at which each vertex was first monitored, and its count of
unmonitored neighbors, which for a monitored vertex is its count of
unmonitored closed neighbors (a list of ints, since degrees exceed 255 for
large C).  Round 0's counts are taken from the smaller side of N[S]: when
2|N[S]| <= n, every degree less the rows of N[S]; otherwise the rows of the
vertices outside N[S], added up from zero.  After each later round t,
every vertex first monitored in round t is counted out of its neighbors'
counts, so counts stay frozen within a round and rounds stay
simultaneous; the round that monitors the last vertex is not counted out.
Round 1 examines every vertex of P_0.  Round t+1 examines the vertices new
in round t and the older monitored vertices whose count fell to k while
those were counted.  No other vertex can fire anything new: it either kept
its count, so it fired already or still cannot, or its count was at most k
already when it was last examined, so it fired then.  A vertex is new
once, falls to k at most once, and fires with an unmonitored neighbor at
most once, so a whole run reads |S| rows for N[S]; for round 0's counts
either every row's length and the |N[S]| rows of N[S], or the n - |N[S]|
rows outside it; at most n - |N[S]| to count later new vertices out; and
at most min(n, 2|E|) to fire.  That is at most |S| + 2n + 2|E| rows, and
|S| + 2(n - |N[S]|) + 2|E| when 2|N[S]| > n, and O(n + |E|) work, however
many rounds it takes.  No n-bit set is ever built.  The loop ends once it
has counted n monitored vertices or a round monitors nothing new, so it
knows its verdict when it stops.
``MonitorTrace`` is the one result of a run: the round of every vertex
and that verdict, stored as ``covered``, from which ``radius`` follows;
``is_kpds`` and ``radius_of_set`` return its ``covered`` and ``radius``
without a scan.  This module only computes the rounds; ``cli`` writes
them out.

An intentionally naive mirror of these semantics lives in ``reference``
and is compared against this engine by the test suite, as is the
bit-parallel kernel of the exhaustive search in ``exact``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Iterable, NamedTuple

from .topology import ParameterDomainError, PyramidGraph, check_k

#: Radius / first-step sentinel for "never monitored".
NEVER = math.inf

Rows = Sequence[tuple[int, ...]]


def _closed(adj: Rows, S: Iterable[int], first: list) -> list[int]:
    """The vertices of N[S] not yet monitored in ``first``, now stamped round 0."""
    P = []
    for v in S:
        if first[v] is NEVER:
            first[v] = 0
            P.append(v)
        for w in adj[v]:
            if first[w] is NEVER:
                first[w] = 0
                P.append(w)
    return P


def _run(adj: Rows, k: int, S: Iterable[int]) -> tuple[list, int, bool]:
    """The one round loop: simultaneous rounds from N[S] to coverage or fixpoint.

    Returns ``first``, the round at which each vertex was first monitored
    (0 for N[S], NEVER if never), the index of the last round, and whether
    every vertex is monitored.  The loop ends after the first round that
    covers every vertex or monitors nothing new; that round counts too.
    """
    n = len(adj)
    first = [NEVER] * n
    examine = _closed(adj, S, first)
    covered = len(examine)
    # Unmonitored neighbors of each vertex; for a monitored vertex, the only
    # kind ever examined, that is its count of unmonitored closed neighbors.
    # Round 0's counts come from the smaller side of N[S]: every degree less
    # the rows of N[S], or the rows outside N[S] added up from zero.
    if 2 * covered <= n:
        unmon = list(map(len, adj))
        for u in examine:
            for w in adj[u]:
                unmon[w] -= 1
    else:
        unmon = [0] * n
        for u, s in enumerate(first):
            if s is NEVER:
                for w in adj[u]:
                    unmon[w] += 1
    t = 0
    while covered < n:
        t += 1
        new = []
        for v in examine:
            if 0 < unmon[v] <= k:
                for w in adj[v]:
                    if first[w] is NEVER:
                        first[w] = t
                        new.append(w)
        covered += len(new)
        if not new or covered == n:
            break
        # Count the vertices of new_t out of their neighbors' counts; an
        # older monitored vertex whose count falls to k can now fire.
        fell = []
        for u in new:
            for w in adj[u]:
                c = unmon[w] - 1
                unmon[w] = c
                if c == k and first[w] < t:
                    fell.append(w)
        examine = new + fell
    return first, t, covered == n


class _Rounds(Sequence):
    """The rounds of a trace, each built from ``first_step`` on access.

    Round i is the frozenset of vertices first monitored at a step <= i.
    Equal to the tuple of those frozensets; its length costs nothing.
    """

    __slots__ = ("_first_step", "_count")

    def __init__(self, first_step: tuple[int | float, ...], count: int):
        self._first_step = first_step
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        i = range(self._count)[i]  # a slice gives a range; out of range raises IndexError
        if isinstance(i, range):
            return tuple(self[j] for j in i)
        return frozenset(v for v, s in enumerate(self._first_step) if s <= i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, _Rounds)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


class MonitorTrace(NamedTuple):
    """Record of one propagation run: when each vertex became monitored.

    ``first_step[v]`` is the round at which v became monitored (0 for the
    seed's closed neighborhood), or ``NEVER``.  ``round_count`` is the
    number of rounds, counting round 0.  ``covered`` is the run's verdict:
    True iff the last round monitors every vertex.  ``rounds`` derives the
    monitored set of every round from ``first_step`` and ``round_count``:
    ``rounds[0]`` is the closed neighborhood of the seed, rounds grow
    monotonically, and the run ends either at full coverage or with two
    equal entries witnessing the fixpoint (``(frozenset(), frozenset())``
    for an empty seed).
    """

    k: int
    seed: frozenset[int]
    first_step: tuple[int | float, ...]
    round_count: int
    covered: bool

    @property
    def rounds(self) -> Sequence[frozenset[int]]:
        return _Rounds(self.first_step, self.round_count)

    @property
    def radius(self) -> int | float:
        """``round_count`` when the run covers every vertex, else ``NEVER``."""
        return self.round_count if self.covered else NEVER


def propagate_fixpoint(g: PyramidGraph, k: int, S: Iterable[int]) -> MonitorTrace:
    """Run rounds from the closed neighborhood of S until coverage or fixpoint."""
    check_k(k)
    S, n = tuple(S), g.n  # every seed is checked, before a set could fold True into 1
    for v in S:
        if type(v) is not int or not 0 <= v < n:
            raise ParameterDomainError(f"seed {v!r} is not a vertex ordinal, an int in range({n})")
    first, step, covered = _run(g.adjacency, k, S)
    return MonitorTrace(k, frozenset(S), tuple(first), step + 1, covered)


def is_kpds(g: PyramidGraph, k: int, S: Iterable[int]) -> bool:
    """True iff the propagation fixpoint of S covers every vertex.

    For k=0 this is exactly the dominating-set predicate.
    """
    return propagate_fixpoint(g, k, S).covered


def radius_of_set(g: PyramidGraph, k: int, S: Iterable[int]) -> int | float:
    """The run's round count when S is a k-PDS, else NEVER (``MonitorTrace.radius``)."""
    return propagate_fixpoint(g, k, S).radius

