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
keeps monitored sets as integer bitmasks over vertex ordinals and works
from a frontier.  Round 1 examines every vertex of P_0.  Round t+1
examines only the monitored vertices of N[new_t], where new_t = P_t - P_{t-1}
holds the vertices first monitored in round t.  Any other monitored
vertex v has no closed neighbor in new_t, so it has exactly as many
unmonitored closed neighbors as in round t: either it fired then, and
N[v] is already inside P_t, or it still cannot fire.  Each vertex is new
in one round only, so a whole fixpoint reads at most |S| + 2n + 2|E|
closed-neighborhood masks, however many rounds it takes, and does a few
n-bit integer operations per read.

An intentionally naive mirror of these semantics lives in ``reference``
and is compared against this engine by the test suite.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator

from .topology import ParameterDomainError, PyramidGraph, check_printable

#: Radius / first-step sentinel for "never monitored".
NEVER = math.inf


def _iter_bits(mask: int) -> Iterator[int]:
    """Set bits of mask, highest first: clearing the top bit shrinks the int."""
    while mask:
        v = mask.bit_length() - 1
        yield v
        mask ^= 1 << v


def _mask_of(g: PyramidGraph, S: Iterable[int]) -> int:
    mask = 0
    n = g.n
    for v in S:
        if not 0 <= v < n:
            raise ParameterDomainError(f"vertex ordinal {v} out of range for |V|={n}")
        mask |= 1 << v
    return mask


def _check_k(k: int) -> None:
    if k < 0:
        raise ParameterDomainError(f"k must be >= 0, got {k}")


def _seed_neighborhood(masks: tuple[int, ...], seed_mask: int) -> int:
    P = 0
    for v in _iter_bits(seed_mask):
        P |= masks[v]
    return P


def _rounds(masks: tuple[int, ...], full: int, k: int, P: int) -> Iterator[int]:
    """Monitored set after each simultaneous round from P; the one round loop.

    The first value is the union of N[v] over the vertices v of P with at
    most k unmonitored closed neighbors, computed against P alone, for any
    P.  Later rounds examine only the frontier (see the module docstring),
    which is exact when P is a union of closed neighborhoods such as N[S].
    The iterator ends after the first round that monitors nothing new; that
    round is yielded too.
    """
    frontier = P
    nxt = 0
    while True:
        not_p = full ^ P  # positive, so & costs no two's-complement copy
        while frontier:
            v = frontier.bit_length() - 1
            m = masks[v]
            if (m & not_p).bit_count() <= k:
                nxt |= m
            frontier ^= 1 << v
        yield nxt
        new = nxt & not_p
        if not new:
            return
        P = nxt
        while new:
            v = new.bit_length() - 1
            frontier |= masks[v]
            new ^= 1 << v
        frontier &= P


def _cover_step(masks: tuple[int, ...], full: int, k: int, seed_mask: int) -> int | None:
    """First round index at which monitoring covers every vertex, else None."""
    P = _seed_neighborhood(masks, seed_mask)
    if P == full:
        return 0
    for step, P in enumerate(_rounds(masks, full, k, P), 1):
        if P == full:
            return step
    return None


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
    out = 0
    for v in _iter_bits(_mask_of(g, S)):
        out |= g.closed_masks[v]
    return set(_iter_bits(out))


def propagate_round(g: PyramidGraph, k: int, P: Iterable[int]) -> set[int]:
    """One simultaneous round from monitored set P.

    Returns the union of N[v] over monitored v with at most k unmonitored
    closed neighbors, computed against the input set only.  Callers keep P
    a union of closed neighborhoods, which makes rounds monotone.
    """
    _check_k(k)
    return set(_iter_bits(next(_rounds(g.closed_masks, g.full_mask, k, _mask_of(g, P)))))


def propagate_fixpoint(g: PyramidGraph, k: int, S: Iterable[int]) -> MonitorTrace:
    """Run rounds from the closed neighborhood of S until coverage or fixpoint."""
    _check_k(k)
    seed_mask = _mask_of(g, S)
    masks = g.closed_masks
    full = g.full_mask
    P = _seed_neighborhood(masks, seed_mask)
    first: list[int | float] = [NEVER] * g.n
    for v in _iter_bits(P):
        first[v] = 0
    step = 0
    if P != full:
        for step, nxt in enumerate(_rounds(masks, full, k, P), 1):
            for v in _iter_bits(nxt ^ P):
                first[v] = step
            if nxt == full:
                break
            P = nxt
    return MonitorTrace(
        k=k,
        seed=frozenset(_iter_bits(seed_mask)),
        first_step=tuple(first),
        round_count=step + 1,
    )


def is_kpds(g: PyramidGraph, k: int, S: Iterable[int]) -> bool:
    """True iff the propagation fixpoint of S covers every vertex.

    For k=0 this is exactly the dominating-set predicate.
    """
    _check_k(k)
    return _cover_step(g.closed_masks, g.full_mask, k, _mask_of(g, S)) is not None


def radius_of_set(g: PyramidGraph, k: int, S: Iterable[int]) -> int | float:
    """1 + the first round index with full coverage; NEVER when S is no k-PDS."""
    _check_k(k)
    step = _cover_step(g.closed_masks, g.full_mask, k, _mask_of(g, S))
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


def _address_list(g: PyramidGraph, ordinals: Iterable[int]) -> list[str]:
    check_printable(g.C)
    return [str(g.vertices[v]) for v in sorted(ordinals)]


def _round_lists(g: PyramidGraph, trace: MonitorTrace) -> list[list[str]]:
    """Addresses monitored by each round, in ordinal order, one str() per vertex."""
    check_printable(g.C)
    named = [(s, str(g.vertices[v])) for v, s in enumerate(trace.first_step) if s != NEVER]
    return [[a for s, a in named if s <= i] for i in range(trace.round_count)]


def trace_to_json(g: PyramidGraph, trace: MonitorTrace) -> dict:
    """Trace as {k, seed, rounds, radius}; radius is null for a stuck run."""
    return {
        "k": trace.k,
        "seed": _address_list(g, trace.seed),
        "rounds": _round_lists(g, trace),
        "radius": trace.round_count if trace.covered else None,
    }


def certificate_to_json(g: PyramidGraph, cert: PdsCertificate) -> dict:
    return {
        "set": _address_list(g, cert.members),
        "size": len(cert.members),
        "is_kpds": cert.is_kpds,
        "radius": None if math.isinf(cert.radius) else cert.radius,
        "provenance": cert.provenance,
        "trace": trace_to_json(g, cert.trace),
    }
