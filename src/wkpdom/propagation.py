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

The engine (``_rounds``, the one round loop behind every public call)
works on the adjacency rows and two per-vertex lists: the round at which
each vertex was first monitored, and its count of unmonitored neighbors,
which for a monitored vertex is its count of unmonitored closed neighbors
(a list of ints, since degrees exceed 255 for large C).  Between rounds,
every vertex first monitored in round t is counted out of its neighbors'
counts, so counts stay frozen within a round and rounds stay
simultaneous.  Round 1 examines every vertex of P_0.  Round t+1 examines
the vertices new in round t and the older monitored vertices whose count
fell to k while those were counted.  No other vertex can fire anything
new: it either kept its count, so it fired already or still cannot, or
its count was at most k already when it was last examined, so it fired
then.  A vertex is new once, falls to k at most once, and fires with an
unmonitored neighbor at most once, so a whole run reads |S| rows for
N[S], n for the initial counts, at most n to count new vertices and at
most min(n, 2|E|) to fire: at most |S| + 2n + 2|E| rows and O(n + |E|)
work, however many rounds it takes.  No n-bit set is ever built.

An intentionally naive mirror of these semantics lives in ``reference``
and is compared against this engine by the test suite, as is the
bit-parallel kernel of the exhaustive search in ``exact``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator

from .topology import ParameterDomainError, PyramidGraph, address_list, check_printable

#: Radius / first-step sentinel for "never monitored".
NEVER = math.inf

Rows = Sequence[tuple[int, ...]]


def _vertex_set(g: PyramidGraph, S: Iterable[int]) -> set[int]:
    S = set(S)
    n = g.n
    for v in S:
        if not 0 <= v < n:
            raise ParameterDomainError(f"vertex ordinal {v} out of range for |V|={n}")
    return S


def _check_k(k: int) -> None:
    if k < 0:
        raise ParameterDomainError(f"k must be >= 0, got {k}")


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


def _rounds(adj: Rows, k: int, first: list,
            P: list[int]) -> Iterator[tuple[list[int], list[int]]]:
    """The one round loop: (fired, new) for each simultaneous round from P.

    ``P`` lists the distinct monitored vertices, each stamped 0 in
    ``first`` (NEVER everywhere else); every vertex first monitored in
    round t is stamped t.  ``fired`` holds the examined vertices with at
    most k unmonitored closed neighbors, ``new`` the vertices they monitor
    first.  Round 1 examines every vertex of P, so its ``fired`` is exact
    for any P; later rounds examine only the frontier (see the module
    docstring), which is exact when P is a union of closed neighborhoods
    such as N[S].  The iterator ends after the first round that covers
    every vertex or monitors nothing new; that round is yielded too.
    """
    # Unmonitored neighbors of each vertex; for a monitored vertex, the only
    # kind ever examined, that is its count of unmonitored closed neighbors.
    unmon = list(map(len, adj))
    covered = len(P)
    n = len(adj)
    new = P
    t = 0
    while True:
        # Count the vertices of new_t out of their neighbors' counts; an
        # older monitored vertex whose count falls to k can now fire.
        fell = []
        for u in new:
            for w in adj[u]:
                c = unmon[w] - 1
                unmon[w] = c
                if c == k and first[w] < t:
                    fell.append(w)
        t += 1
        fired = []
        nxt = []
        for v in new + fell:
            c = unmon[v]
            if c <= k:
                fired.append(v)
                if c:
                    for w in adj[v]:
                        if first[w] is NEVER:
                            first[w] = t
                            nxt.append(w)
        yield fired, nxt
        covered += len(nxt)
        if not nxt or covered == n:
            return
        new = nxt


def _run(adj: Rows, k: int, S: Iterable[int]) -> tuple[list, int, bool]:
    """Rounds from N[S] to coverage or fixpoint: first steps, last round, covered."""
    first = [NEVER] * len(adj)
    P = _closed(adj, S, first)
    covered = len(P)
    step = 0
    if covered < len(adj):
        for step, (_, new) in enumerate(_rounds(adj, k, first, P), 1):
            covered += len(new)
    return first, step, covered == len(adj)


def _cover_step(adj: Rows, k: int, S: Iterable[int]) -> int | None:
    """First round index at which monitoring covers every vertex, else None."""
    _, step, covered = _run(adj, k, S)
    return step if covered else None


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
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(self._count)))
        i = operator.index(i)
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError("round index out of range")
        return frozenset(v for v, s in enumerate(self._first_step) if s <= i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, _Rounds)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class MonitorTrace:
    """Record of one propagation run: when each vertex became monitored.

    ``first_step[v]`` is the round at which v became monitored (0 for the
    seed's closed neighborhood), or ``NEVER``.  ``round_count`` is the
    number of rounds, counting round 0.  ``rounds`` derives the monitored
    set of every round from these two: ``rounds[0]`` is the closed
    neighborhood of the seed, rounds grow monotonically, and the run ends
    either at full coverage or with two equal entries witnessing the
    fixpoint (``(frozenset(), frozenset())`` for an empty seed).
    """

    k: int
    seed: frozenset[int]
    first_step: tuple[int | float, ...]
    round_count: int

    @property
    def rounds(self) -> Sequence[frozenset[int]]:
        return _Rounds(self.first_step, self.round_count)

    @property
    def covered(self) -> bool:
        """True iff the last round monitors every vertex."""
        return NEVER not in self.first_step


@dataclass(frozen=True)
class PdsCertificate:
    """A candidate set together with the evidence of what it monitors."""

    members: frozenset[int]
    is_kpds: bool
    radius: int | float
    trace: MonitorTrace
    provenance: str


def closed_neighborhood(g: PyramidGraph, S: Iterable[int]) -> set[int]:
    """Union of closed neighborhoods N[v] over v in S."""
    return set(_closed(g.adjacency, _vertex_set(g, S), [NEVER] * g.n))


def propagate_round(g: PyramidGraph, k: int, P: Iterable[int]) -> set[int]:
    """One simultaneous round from monitored set P.

    Returns the union of N[v] over monitored v with at most k unmonitored
    closed neighbors, computed against the input set only.  Callers keep P
    a union of closed neighborhoods, which makes rounds monotone.
    """
    _check_k(k)
    P = _vertex_set(g, P)
    first = [NEVER] * g.n
    for v in P:
        first[v] = 0
    fired, _ = next(_rounds(g.adjacency, k, first, list(P)))
    return closed_neighborhood(g, fired)


def propagate_fixpoint(g: PyramidGraph, k: int, S: Iterable[int]) -> MonitorTrace:
    """Run rounds from the closed neighborhood of S until coverage or fixpoint."""
    _check_k(k)
    S = _vertex_set(g, S)
    first, step, _ = _run(g.adjacency, k, S)
    return MonitorTrace(k=k, seed=frozenset(S), first_step=tuple(first), round_count=step + 1)


def is_kpds(g: PyramidGraph, k: int, S: Iterable[int]) -> bool:
    """True iff the propagation fixpoint of S covers every vertex.

    For k=0 this is exactly the dominating-set predicate.
    """
    _check_k(k)
    return _cover_step(g.adjacency, k, _vertex_set(g, S)) is not None


def radius_of_set(g: PyramidGraph, k: int, S: Iterable[int]) -> int | float:
    """1 + the first round index with full coverage; NEVER when S is no k-PDS."""
    _check_k(k)
    step = _cover_step(g.adjacency, k, _vertex_set(g, S))
    return NEVER if step is None else 1 + step


def make_certificate(g: PyramidGraph, k: int, S: Iterable[int],
                     provenance: str = "user") -> PdsCertificate:
    """Run a full trace for S and package the verdict."""
    trace = propagate_fixpoint(g, k, S)
    return PdsCertificate(
        members=frozenset(trace.seed),
        is_kpds=trace.covered,
        radius=trace.round_count if trace.covered else NEVER,
        trace=trace,
        provenance=provenance,
    )


def _round_lists(g: PyramidGraph, trace: MonitorTrace) -> list[list[str]]:
    """Addresses monitored by each round, in ordinal order, one str() per vertex."""
    check_printable(g.C)
    named = [(s, str(g.vertices[v])) for v, s in enumerate(trace.first_step) if s != NEVER]
    return [[a for s, a in named if s <= i] for i in range(trace.round_count)]


def trace_to_json(g: PyramidGraph, trace: MonitorTrace) -> dict:
    """Trace as {k, seed, rounds, radius}; radius is null for a stuck run."""
    return {
        "k": trace.k,
        "seed": address_list(g, trace.seed),
        "rounds": _round_lists(g, trace),
        "radius": trace.round_count if trace.covered else None,
    }


def certificate_to_json(g: PyramidGraph, cert: PdsCertificate) -> dict:
    return {
        "set": address_list(g, cert.members),
        "size": len(cert.members),
        "is_kpds": cert.is_kpds,
        "radius": None if math.isinf(cert.radius) else cert.radius,
        "provenance": cert.provenance,
        "trace": trace_to_json(g, cert.trace),
    }
