"""Exhaustive minimum k-power-domination oracle.

Ascending-cardinality search: subsets of size 1, 2, ... are enumerated in
lexicographic ordinal order, and each is checked with one propagation
fixpoint.  There is no pruning and no symmetry reduction: every subset is
still checked and counted, and the point of this module is to be
trivially trustworthy at desk scale, not fast.  Budgets cap only the
number of propagation fixpoint runs, so runaway instances fail loudly with
the partial bound that was established; subset sizes need no cap, because
V itself is a k-PDS.

The checks run on a private bit-parallel kernel (``_bit_step``) rather
than on ``propagation``: millions of fixpoints on graphs of a few hundred
vertices favour whole-set integer operations over per-vertex counters.
Each search packs N[v] of every vertex into an n-bit int once, from
``g.adjacency``; the masks live only as long as the search.  Each check
computes its own round 1; the rounds after it depend only on the round-1
set P_1, so a search runs them once per distinct P_1 and reuses the step
count for every later subset that reaches the same P_1 (at most
``LATER_ROUNDS_CAP`` sets are kept at a time).  The tests check the
kernel's step against ``propagation.radius_of_set`` and
``reference.naive_radius`` on the small WK and WKP graphs, and the reused
steps against both on every subset of up to two vertices.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .constructions import RegimeError
from .topology import WKP, ParameterDomainError, PyramidGraph, address_list, check_k

#: How often the progress callback fires, in propagation checks.
PROGRESS_INTERVAL = 5_000

#: Default cap on propagation checks per search call.
DEFAULT_MAX_CHECKS = 10_000_000

#: Most round-1 sets whose later rounds one search keeps; the store is
#: emptied when it is full.
LATER_ROUNDS_CAP = 4_096

ProgressFn = Callable[[int, int, int], None]


@dataclass(frozen=True)
class SearchBudget:
    """Limit for one exhaustive-search call: at most ``max_subset_count`` fixpoint runs."""

    max_subset_count: int = DEFAULT_MAX_CHECKS

    def __post_init__(self) -> None:
        if self.max_subset_count < 1:
            raise ParameterDomainError("max_subset_count must be positive")


class BudgetExceededError(RuntimeError):
    """Search stopped before it could certify its answer.

    ``gamma_exceeds`` is the largest cardinality that was fully enumerated
    without finding a k-PDS, i.e. the established bound gamma > gamma_exceeds.
    """

    def __init__(self, message: str, *, gamma_exceeds: int, checks_performed: int):
        super().__init__(message)
        self.gamma_exceeds = gamma_exceeds
        self.checks_performed = checks_performed


@dataclass(frozen=True)
class ExactResult:
    """Outcome of ``min_kpds``.

    ``witnesses`` holds optimal sets up to the ``witness_cap`` of
    ``min_kpds`` in lexicographic order; ``radius`` is minimized over every
    optimal set found, and ``exhausted`` records whether the whole
    cardinality level of ``gamma`` was enumerated (required for the radius
    to be the graph's).
    """

    gamma: int
    witnesses: tuple[frozenset[int], ...]
    radius: int
    exhausted: bool
    checks_performed: int


def _closed_masks(g: PyramidGraph) -> tuple[tuple[int, ...], int]:
    """N[v] of every vertex v as an int with bit i set for ordinal i, and the all-ones mask."""
    masks = []
    for i, row in enumerate(g.adjacency):
        m = 1 << i
        for j in row:
            m |= 1 << j
        masks.append(m)
    return tuple(masks), (1 << g.n) - 1


def _bit_step(masks: tuple[int, ...], full: int, k: int, P: int, new: int) -> int | None:
    """Rounds after the monitored set P until monitoring covers ``full``, else None.

    ``new`` holds the vertices that joined P in the round that made it (all
    of P for a seed's N[S]).  Each round examines the monitored vertices of
    N[new], the only ones whose unmonitored count changed, each against the
    frozen P, so the rounds are those of ``propagation``.  Set bits are
    taken from the top: clearing the top bit shrinks the int.
    """
    if P == full:
        return 0
    step = 0
    nxt = P
    while True:
        step += 1
        frontier = 0
        while new:
            v = new.bit_length() - 1
            frontier |= masks[v]
            new ^= 1 << v
        frontier &= P
        not_p = full ^ P  # positive, so & costs no two's-complement copy
        while frontier:
            v = frontier.bit_length() - 1
            m = masks[v]
            if (m & not_p).bit_count() <= k:
                nxt |= m
            frontier ^= 1 << v
        new = nxt & not_p
        if not new:
            return None
        if nxt == full:
            return step
        P = nxt


def _covering_sets(g: PyramidGraph, k: int, sizes: range, budget: SearchBudget | None,
                   progress: ProgressFn | None) -> Iterator[tuple[tuple[int, ...], int]]:
    """The one enumeration loop: every k-PDS among the subsets of each size.

    Subsets of each size in ``sizes`` are checked in lexicographic order;
    each k-PDS is yielded with its step, and the scan ends with the first
    size that holds one.  Every check counts against the budget before it
    runs; running out raises ``BudgetExceededError``.

    A check runs round 1 itself, from the masks of N[s] for each seed s
    (together they are the vertices of P_0 = N[S]).  Round t+1 reads only
    P_t, so the rounds after P_1 are a function of P_1: their count comes
    from ``later``, keyed by P_1, and ``_bit_step`` runs only for a P_1 not
    seen yet.
    """
    check_k(k)
    budget = budget or SearchBudget()
    masks, full = _closed_masks(g)
    n = g.n
    rows = [tuple(masks[u] for u in (v, *g.adjacency[v])) for v in range(n)]
    later: dict[int, int | None] = {}
    checks = 0
    for size in sizes:
        total = math.comb(n, size)
        done = 0
        found = False
        for combo in itertools.combinations(range(n), size):
            if checks >= budget.max_subset_count:
                raise BudgetExceededError(
                    f"budget of {budget.max_subset_count} checks exhausted while "
                    f"enumerating size {size}; established gamma > {size - 1}",
                    gamma_exceeds=size - 1,
                    checks_performed=checks,
                )
            checks += 1
            done += 1
            if progress is not None and checks % PROGRESS_INTERVAL == 0:
                progress(size, done, total)
            P = 0
            for v in combo:
                P |= masks[v]
            step = 0
            if P != full:
                not_p = full ^ P
                nxt = P
                for v in combo:
                    for m in rows[v]:
                        if (m & not_p).bit_count() <= k:
                            nxt |= m
                if nxt == P:
                    continue
                if nxt not in later:
                    if len(later) >= LATER_ROUNDS_CAP:
                        later.clear()
                    later[nxt] = _bit_step(masks, full, k, nxt, nxt & not_p)
                rest = later[nxt]
                if rest is None:
                    continue
                step = 1 + rest
            found = True
            yield combo, step
        if found:
            return


def min_kpds(g: PyramidGraph, k: int, budget: SearchBudget | None = None, *,
             witness_cap: int = 1000, progress: ProgressFn | None = None) -> ExactResult:
    """Minimum k-power-dominating-set size by ascending exhaustive search.

    Finds gamma, collects optimal witnesses (capped), and tracks the minimum
    radius across every optimal set.  Raises ``BudgetExceededError`` when the
    budget runs out before gamma is certified; if it runs out while sweeping
    the rest of gamma's own cardinality level, the result is returned with
    ``exhausted=False`` instead.  Without a budget stop the search always
    ends with a gamma <= n: V itself is a k-PDS, since N[V] = V.
    """
    gamma = 0
    witnesses: list[frozenset[int]] = []
    radius: int | float = math.inf
    try:
        for combo, step in _covering_sets(g, k, range(1, g.n + 1), budget, progress):
            gamma = len(combo)
            radius = min(radius, 1 + step)
            if len(witnesses) < witness_cap:
                witnesses.append(frozenset(combo))
    except BudgetExceededError as exc:
        if not gamma:
            raise
        return ExactResult(gamma, tuple(witnesses), radius, exhausted=False,
                           checks_performed=exc.checks_performed)
    # No budget stop, so every subset of sizes 1..gamma was checked.
    checks = sum(math.comb(g.n, size) for size in range(1, gamma + 1))
    return ExactResult(gamma, tuple(witnesses), radius, exhausted=True,
                       checks_performed=checks)


def _whole_level(result: ExactResult, prefix: str) -> ExactResult:
    """``result`` if its search checked every set of size gamma, else the budget error."""
    if not result.exhausted:
        raise BudgetExceededError(
            f"{prefix}needs every size-{result.gamma} set enumerated; budget ran out",
            gamma_exceeds=result.gamma - 1,
            checks_performed=result.checks_performed,
        )
    return result


def propagation_radius(g: PyramidGraph, k: int, budget: SearchBudget | None = None, *,
                       progress: ProgressFn | None = None) -> int:
    """Minimum radius over all minimum k-power-dominating sets.

    Requires the exhaustive sweep of the optimal cardinality level to
    complete within budget.
    """
    return _whole_level(min_kpds(g, k, budget, progress=progress), "radius ").radius


def level1_intersection_check(g: PyramidGraph, k: int,
                              budget: SearchBudget | None = None) -> bool:
    """True iff every minimum k-PDS of WKP(C, 2) contains a level-1 vertex.

    Applies to C >= 3 and k in [C-1]; enumerates the full optimal
    cardinality level once, keeping every optimal set.
    """
    if g.family != WKP or g.L != 2:
        raise RegimeError("the level-1 intersection property is about WKP(C, 2)")
    if g.C < 3:
        raise RegimeError(f"the level-1 intersection property needs C >= 3, got C={g.C}")
    if not 1 <= k <= g.C - 1:
        raise RegimeError(f"the level-1 intersection property needs k in [C-1], got k={k}")
    result = _whole_level(min_kpds(g, k, budget, witness_cap=sys.maxsize), "")
    level1 = set(g.level_ordinals(1))
    return all(level1.intersection(witness) for witness in result.witnesses)


def exact_result_to_json(g: PyramidGraph, k: int, result: ExactResult) -> dict:
    witness: Iterable[int] = result.witnesses[0] if result.witnesses else ()
    return {
        "C": g.C,
        "L": g.L,
        "k": k,
        "gamma": result.gamma,
        "witness": address_list(g, witness),
        "radius": result.radius,
        "exhausted": result.exhausted,
        "checks_performed": result.checks_performed,
    }
