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
``g.adjacency``; the masks live only as long as the search.  A subset is
a prefix of all its seeds but the last, followed by a last seed above
it; the prefix's union, and its neighbours that fire whatever seed
follows, are found once, so each check adds one closed neighbourhood and
computes only the rest of its round 1.  The rounds after it depend only
on the monitored set, so a run of them stores every set it passes with
the rounds left after it and stops at a set already stored: the 10,700
checks of gamma WKP(3,3) at k=1 start 861 runs, which store 1,797 sets
(at most ``LATER_ROUNDS_CAP`` sets are kept at a time).  The tests
check the kernel's step against ``propagation.radius_of_set`` and
``reference.naive_radius`` on the small WK and WKP graphs, the reused
steps against both on every subset of up to two vertices, every stored
count against the naive rounds, and the order of checks, budget stops
and progress calls against ``itertools.combinations``.

The searches return records (``ExactResult``, or a tuple of ordinals);
``cli`` turns them into the documents it prints.  The solver holds for
any graph and k and knows no claim of the paper, so it imports only
``topology``: ``report`` asks its questions of ``min_kpds``.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, NamedTuple

from .topology import ParameterDomainError, PyramidGraph, check_k

#: How often the progress callback fires, in propagation checks.
PROGRESS_INTERVAL = 5_000

#: Default cap on propagation checks per search call.
DEFAULT_MAX_CHECKS = 10_000_000

#: Most monitored sets whose later rounds one search keeps; the store is
#: emptied when a run's sets would not fit.
LATER_ROUNDS_CAP = 4_096

ProgressFn = Callable[[int, int, int], None]


class SearchBudget:
    """Limit for one exhaustive-search call: at most ``max_subset_count`` fixpoint runs."""

    __slots__ = ("max_subset_count",)

    def __init__(self, max_subset_count: int = DEFAULT_MAX_CHECKS):
        if max_subset_count < 1:
            raise ParameterDomainError("max_subset_count must be positive")
        self.max_subset_count = max_subset_count


class BudgetExceededError(RuntimeError):
    """Search stopped before it could certify its answer.

    ``gamma_exceeds`` is the largest cardinality that was fully enumerated
    without finding a k-PDS, i.e. the established bound gamma > gamma_exceeds.
    """

    def __init__(self, message: str, *, gamma_exceeds: int, checks_performed: int):
        super().__init__(message)
        self.gamma_exceeds = gamma_exceeds
        self.checks_performed = checks_performed


class ExactResult(NamedTuple):
    """Outcome of ``min_kpds``.

    ``witnesses`` holds optimal sets up to the ``witness_cap`` of
    ``min_kpds`` in lexicographic order; ``radius`` is minimized over every
    optimal set found, and ``exhausted`` records whether the whole
    cardinality level of ``gamma`` was enumerated (required for the radius
    to be the graph's; ``whole_level`` insists on it).
    """

    gamma: int
    witnesses: tuple[frozenset[int], ...]
    radius: int
    exhausted: bool
    checks_performed: int

    def whole_level(self) -> ExactResult:
        """This result if its search checked every set of size gamma, else the budget error."""
        if not self.exhausted:
            raise BudgetExceededError(
                f"needs every size-{self.gamma} set enumerated; budget ran out",
                gamma_exceeds=self.gamma - 1,
                checks_performed=self.checks_performed,
            )
        return self


def _closed_masks(g: PyramidGraph) -> tuple[tuple[int, ...], int]:
    """N[v] of every vertex v as an int with bit i set for ordinal i, and the all-ones mask."""
    masks = []
    for i, row in enumerate(g.adjacency):
        m = 1 << i
        for j in row:
            m |= 1 << j
        masks.append(m)
    return tuple(masks), (1 << g.n) - 1


def _bit_step(masks: tuple[int, ...], full: int, k: int, P: int, new: int,
              store: dict[int, int | None]) -> int | None:
    """Rounds after the monitored set P until monitoring covers ``full``, else None.

    ``new`` holds the vertices that joined P in the round that made it (all
    of P for a seed's N[S]).  Each round examines the monitored vertices of
    N[new], the only ones whose unmonitored count changed, each against the
    frozen P, so the rounds are those of ``propagation``.  Set bits are
    taken from the top: clearing the top bit shrinks the int.

    Round t+1 reads only P_t, so the rounds left after a set depend on the
    set alone.  The run stops at the first set it meets in ``store`` and
    then stores every set it passed with that set's own count (None for a
    run that stalls).  ``store`` is emptied first when the sets would take
    it past ``LATER_ROUNDS_CAP``; a longer run keeps only its first sets.
    """
    chain: list[int] = []
    while P != full and P not in store:
        chain.append(P)
        frontier = 0
        while new:
            v = new.bit_length() - 1
            frontier |= masks[v]
            new ^= 1 << v
        frontier &= P
        not_p = full ^ P  # positive, so & costs no two's-complement copy
        nxt = P
        while frontier:
            v = frontier.bit_length() - 1
            m = masks[v]
            if (m & not_p).bit_count() <= k:
                nxt |= m
            frontier ^= 1 << v
        new = nxt & not_p
        if not new:
            rest = None
            break
        P = nxt
    else:
        rest = store.get(P, 0)  # the covered set is never stored
        if rest is not None:
            rest += len(chain)
    if len(store) + len(chain) > LATER_ROUNDS_CAP:
        store.clear()
    for t, P in enumerate(chain[:LATER_ROUNDS_CAP]):
        store[P] = None if rest is None else rest - t
    return rest


def _covering_sets(g: PyramidGraph, k: int, sizes: range, budget: SearchBudget | None,
                   progress: ProgressFn | None) -> Iterator[tuple[tuple[int, ...], int]]:
    """The one enumeration loop: every k-PDS among the subsets of each size.

    Subsets of each size in ``sizes`` are checked in lexicographic order;
    each k-PDS is yielded with its step, and the scan ends with the first
    size that holds one.  Every check counts against the budget before it
    runs; running out raises ``BudgetExceededError``.

    The order is that of ``itertools.combinations(range(n), size)``, taken
    as a prefix of size - 1 seeds followed by each last seed c above it.
    Round 1 tests every vertex of P_0 = N[S] but the seeds, whose closed
    neighbourhoods lie inside P_0 and add nothing.  A neighbour of the
    prefix with at most k vertices outside the prefix's union has at most
    k outside any P_0 of its subsets, so ``fired`` takes its mask once per
    prefix, and ``pending`` keeps the rest; each c then adds N[c] and tests
    ``pending`` and the rows of its own neighbours.  Round t+1 reads only
    P_t, so the rounds after P_1 are a function of P_1: their count comes
    from ``later``, which ``_bit_step`` fills with every set its runs pass,
    and a run starts only for a P_1 that is neither stored nor covering.
    """
    check_k(k)
    budget = budget or SearchBudget()
    masks, full = _closed_masks(g)
    n = g.n
    rows = [tuple(masks[u] for u in g.adjacency[v]) for v in range(n)]
    later: dict[int, int | None] = {}
    cap = budget.max_subset_count
    checks = 0
    for size in sizes:
        total = math.comb(n, size)
        start = checks
        found = False
        for prefix in itertools.combinations(range(n - 1), size - 1):
            P0 = 0
            for v in prefix:
                P0 |= masks[v]
            not_p0 = full ^ P0
            fired = P0
            pending = []
            for v in prefix:
                for m in rows[v]:
                    if (m & not_p0).bit_count() <= k:
                        fired |= m
                    else:
                        pending.append(m)
            for c in range(prefix[-1] + 1 if prefix else 0, n):
                if checks >= cap:
                    raise BudgetExceededError(
                        f"budget of {cap} checks exhausted while "
                        f"enumerating size {size}; established gamma > {size - 1}",
                        gamma_exceeds=size - 1,
                        checks_performed=checks,
                    )
                checks += 1
                if progress is not None and checks % PROGRESS_INTERVAL == 0:
                    progress(size, checks - start, total)
                P = P0 | masks[c]
                step = 0
                if P != full:
                    not_p = full ^ P
                    nxt = fired | P
                    for m in pending:
                        if (m & not_p).bit_count() <= k:
                            nxt |= m
                    for m in rows[c]:
                        if (m & not_p).bit_count() <= k:
                            nxt |= m
                    if nxt == P:
                        continue
                    if nxt == full:
                        step = 1
                    else:
                        rest = later.get(nxt, -1)
                        if rest == -1:
                            rest = _bit_step(masks, full, k, nxt, nxt & not_p, later)
                        if rest is None:
                            continue
                        step = 1 + rest
                found = True
                yield (*prefix, c), step
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
    ends with a gamma <= n: V itself is a k-PDS, since N[V] = V.  A
    ``witness_cap`` below 1 is refused, so a result always has a witness.
    """
    if witness_cap < 1:
        raise ParameterDomainError(f"witness_cap must be at least 1, got {witness_cap}")
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


def first_min_kpds(g: PyramidGraph, k: int,
                   budget: SearchBudget | None = None) -> tuple[int, ...]:
    """The lexicographically first minimum k-PDS, as ascending ordinals.

    Every smaller subset has been checked when it is found, so its size is
    gamma; the rest of gamma's level is not swept.  Raises
    ``BudgetExceededError`` exactly where ``min_kpds`` does.
    """
    return next(_covering_sets(g, k, range(1, g.n + 1), budget, None))[0]


def propagation_radius(g: PyramidGraph, k: int, budget: SearchBudget | None = None, *,
                       progress: ProgressFn | None = None) -> int:
    """Minimum radius over all minimum k-power-dominating sets.

    Requires the exhaustive sweep of the optimal cardinality level to
    complete within budget.
    """
    return min_kpds(g, k, budget, progress=progress).whole_level().radius

