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
large C).  Between rounds, every vertex first monitored in round t is
counted out of its neighbors' counts, so counts stay frozen within a round
and rounds stay simultaneous.  Round 1 examines every vertex of P_0.
Round t+1 examines the vertices new in round t and the older monitored
vertices whose count fell to k while those were counted.  No other vertex
can fire anything new: it either kept its count, so it fired already or
still cannot, or its count was at most k already when it was last
examined, so it fired then.  A vertex is new once, falls to k at most
once, and fires with an unmonitored neighbor at most once, so a whole run
reads |S| rows for N[S], n for the initial counts, at most n to count new
vertices and at most min(n, 2|E|) to fire: at most |S| + 2n + 2|E| rows
and O(n + |E|) work, however many rounds it takes.  No n-bit set is ever
built.  ``MonitorTrace`` is the one result of a run: whether it covers,
its radius, and the round of every vertex; ``is_kpds`` and
``radius_of_set`` return its ``covered`` and ``radius``.

A trace has one JSON encoder, ``trace_fields`` written out by
``json_text``.  Every address literal is quoted once, and each round's
list is made from the round before only when the text before it has been
taken, so ``construct`` and ``trace`` write a trace of any length a round
at a time, never holding its rounds as lists or its document as one
string.  ``trace_to_json`` reads the same text back.

An intentionally naive mirror of these semantics lives in ``reference``
and is compared against this engine by the test suite, as is the
bit-parallel kernel of the exhaustive search in ``exact``.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Iterable

from .topology import ParameterDomainError, PyramidGraph, address_literals, check_k

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


def _run(adj: Rows, k: int, S: Iterable[int]) -> tuple[list, int]:
    """The one round loop: simultaneous rounds from N[S] to coverage or fixpoint.

    Returns ``first``, the round at which each vertex was first monitored
    (0 for N[S], NEVER if never), and the index of the last round.  The
    loop ends after the first round that covers every vertex or monitors
    nothing new; that round counts too.
    """
    n = len(adj)
    first = [NEVER] * n
    new = _closed(adj, S, first)
    covered = len(new)
    # Unmonitored neighbors of each vertex; for a monitored vertex, the only
    # kind ever examined, that is its count of unmonitored closed neighbors.
    unmon = list(map(len, adj))
    t = 0
    while covered < n:
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
        nxt = []
        for v in new + fell:
            if 0 < unmon[v] <= k:
                for w in adj[v]:
                    if first[w] is NEVER:
                        first[w] = t
                        nxt.append(w)
        if not nxt:
            break
        covered += len(nxt)
        new = nxt
    return first, t


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

    @functools.cached_property
    def covered(self) -> bool:
        """True iff the last round monitors every vertex (one scan, then cached)."""
        return NEVER not in self.first_step

    @property
    def radius(self) -> int | float:
        """``round_count`` when the run covers every vertex, else ``NEVER``."""
        return self.round_count if self.covered else NEVER


def propagate_fixpoint(g: PyramidGraph, k: int, S: Iterable[int]) -> MonitorTrace:
    """Run rounds from the closed neighborhood of S until coverage or fixpoint."""
    check_k(k)
    S = _vertex_set(g, S)
    first, step = _run(g.adjacency, k, S)
    return MonitorTrace(k=k, seed=frozenset(S), first_step=tuple(first), round_count=step + 1)


def is_kpds(g: PyramidGraph, k: int, S: Iterable[int]) -> bool:
    """True iff the propagation fixpoint of S covers every vertex.

    For k=0 this is exactly the dominating-set predicate.
    """
    return propagate_fixpoint(g, k, S).covered


def radius_of_set(g: PyramidGraph, k: int, S: Iterable[int]) -> int | float:
    """The run's round count when S is a k-PDS, else NEVER (``MonitorTrace.radius``)."""
    return propagate_fixpoint(g, k, S).radius


def _round_texts(quoted: list[str], trace: MonitorTrace) -> Iterator[str]:
    """JSON text of the list of rounds, made one round at a time as it is read.

    Each round is the list of the addresses it monitors, in ordinal order.
    The vertices first monitored in round i are merged into the sorted list
    of round i-1 (a sorted list plus a sorted run, which ``sort`` merges in
    linear time), so every round costs its own length.
    """
    fresh = [[] for _ in range(trace.round_count)]
    for v, s in enumerate(trace.first_step):
        if s != NEVER:
            fresh[s].append(v)
    monitored = []
    yield "["
    for i, new in enumerate(fresh):
        monitored += new
        monitored.sort()
        yield (", [" if i else "[") + ", ".join(map(quoted.__getitem__, monitored)) + "]"
    yield "]"


def radius_to_json(trace: MonitorTrace) -> int | None:
    """``MonitorTrace.radius`` as JSON: the round count, or null for a stuck run."""
    return trace.round_count if trace.covered else None


def trace_fields(g: PyramidGraph, trace: MonitorTrace) -> dict:
    """Trace as {k, seed, rounds, radius} for ``json_text``; radius is null for a stuck run.

    ``rounds`` is a one-shot iterator of JSON text, one piece per round
    (see ``_round_texts``), so the rounds are never held as lists.  Every
    literal is quoted once: literals hold only digits, commas and
    parentheses, so quoting is their JSON encoding.
    """
    literals = address_literals(g)
    return {
        "k": trace.k,
        "seed": [literals[v] for v in sorted(trace.seed)],
        "rounds": _round_texts([f'"{s}"' for s in literals], trace),
        "radius": radius_to_json(trace),
    }


def json_text(value) -> Iterator[str]:
    """The text of ``json.dumps(value)`` in pieces.

    A dict (with str keys) is written key by key, and an iterator is taken
    to yield pieces of JSON text, which pass through as they come; so a
    document holding ``trace_fields`` is written a round at a time and
    never joined into one string.
    """
    if isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield (", " if i else "") + json.dumps(key) + ": "
            yield from json_text(item)
        yield "}"
    elif isinstance(value, Iterator):
        yield from value
    else:
        yield json.dumps(value)


def trace_to_json(g: PyramidGraph, trace: MonitorTrace) -> dict:
    """Trace as {k, seed, rounds, radius}: ``trace_fields`` read back from its JSON text."""
    return json.loads("".join(json_text(trace_fields(g, trace))))
