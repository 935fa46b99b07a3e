"""Closed-form k-power-dominating sets for WK-pyramid graphs.

Four parameter regimes cover all C, L >= 1 and k >= 1:

* ``TRIVIAL_ONE``   (C=1, L=1, or k>=C): the apex alone suffices.
* ``LEVEL2``        (L=2, C>=2, k<=C-1): the C-k highest level-1 vertices.
* ``GENERAL``       (L>=3, C>=3, k<=C-2): thread the level-L blocks into a
  Hamiltonian cyclic order and pick C-k-1 vertices per block: the level-(L-1)
  parent of the block's outgoing bridge endpoint plus C-k-2 level-L vertices
  spread over cliques that avoid both bridge cliques.
* ``K_EQ_C_MINUS_1_UPPER`` (L>=3, C>=2, k=C-1): a chain of all-zero spine
  vertices spaced three levels apart; size ceil((L+1)/3) is only an upper
  bound on the optimum.

``regime_of`` returns the ``RegimeTag`` and ``ham_cycle_wk`` the cycle's
WK(C, m) ordinals in cyclic order.  ``construct_kpds`` is the one
construction entry point, read by both ``construct`` and ``check-paper``:
it decides the regime once, builds the apex and level-2 sets inline and
the general and spine sets with private helpers, and checks every set's
size against ``gamma_formula`` once.  Sets are WKP(C, L) ordinals, worked
out from the level offsets and base-C block values; no graph is built.
The helpers only assemble vertex sets and check their own bookkeeping
(the general set's bridge cliques); whether a set is a k-PDS is decided
once, by the caller that reports it, with the propagation engine.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .topology import WKP, ParameterDomainError, _level_offsets, check_dimensions, check_k


class RegimeError(ValueError):
    """Parameters fall outside every regime, or outside the one a check needs."""


class ConstructionError(RuntimeError):
    """Internal consistency failure while assembling a construction."""


class RegimeTag(Enum):
    TRIVIAL_ONE = "TRIVIAL_ONE"
    LEVEL2 = "LEVEL2"
    GENERAL = "GENERAL"
    K_EQ_C_MINUS_1_UPPER = "K_EQ_C_MINUS_1_UPPER"


class GammaValue(NamedTuple):
    """A minimum-set size, either exact or only an upper bound."""

    value: int
    exact: bool


def regime_of(C: int, L: int, k: int) -> RegimeTag:
    """Classify (C, L, k) into the regime that decides formula and construction.

    The four regimes are mutually exclusive and cover every C, L >= 1, k >= 1.
    k=0 is plain domination and has no closed-form regime here; a negative
    k is a parameter error.
    """
    check_dimensions(C, L)
    check_k(k)
    if k == 0:
        raise RegimeError("k=0 is plain domination; regimes require k >= 1")
    if C == 1 or L == 1 or k >= C:
        return RegimeTag.TRIVIAL_ONE
    if L == 2:
        return RegimeTag.LEVEL2
    if k == C - 1:
        return RegimeTag.K_EQ_C_MINUS_1_UPPER
    return RegimeTag.GENERAL


def gamma_formula(C: int, L: int, k: int) -> GammaValue:
    """Minimum k-power-dominating-set size of WKP(C, L) by regime.

    Exact in every regime except k=C-1 with L>=3, where ceil((L+1)/3) is an
    upper bound.
    """
    tag = regime_of(C, L, k)
    if tag is RegimeTag.TRIVIAL_ONE:
        return GammaValue(1, True)
    if tag is RegimeTag.LEVEL2:
        return GammaValue(C - k, True)
    if tag is RegimeTag.GENERAL:
        return GammaValue((C - k - 1) * C ** (L - 2), True)
    return GammaValue((L + 3) // 3, False)  # ceil((L+1)/3)


def _ham_path(C: int, m: int, ends: list[int], memo: dict) -> list[int]:
    """Hamiltonian path of WK(C, m) through the sub-meshes ``ends[1:-1]`` in order.

    Sub-mesh s = ends[t] is crossed from its extreme vertex toward a =
    ends[t-1] to the one toward b = ends[t+1], s (a)^(m-1) to s (b)^(m-1),
    by the path through its own sub-meshes a, ascending others, b.
    Consecutive sub-meshes i and j are joined by their unique bridge, which
    attaches at i (j)^(m-1) and j (i)^(m-1); toward itself, a sub-mesh's
    extreme vertex is that of WK(C, m).  A string is its base-C value, so
    sub-mesh s holds the values s C^(m-1) + x, x a string of WK(C, m-1).
    That inner path depends on (m, a, b) alone, so ``memo`` keeps each one.
    """
    if m == 1:
        return ends[1:-1]
    path: list[int] = []
    size = C ** (m - 1)
    for t in range(1, len(ends) - 1):
        a, b = ends[t - 1], ends[t + 1]
        inner = memo.get((m, a, b))
        if inner is None:
            ends_ab = [a, a, *(d for d in range(C) if d not in (a, b)), b, b]
            inner = memo[m, a, b] = _ham_path(C, m - 1, ends_ab, memo)
        base = ends[t] * size
        path += [base + x for x in inner]
    return path


def ham_cycle_wk(C: int, m: int) -> tuple[int, ...]:
    """Fixed recursive Hamiltonian cycle of WK(C, m), C >= 3: its ordinals in cyclic order.

    A vertex's ordinal is its digit string read in base C.  Sub-meshes are
    visited in the order 0..C-1; sub-mesh i is crossed by a Hamiltonian
    path from its bridge endpoint toward i-1 to the one toward i+1 (mod C).
    Deterministic, O(C^m); validity is machine-checked in the test suite
    rather than argued here.
    """
    if C < 3:
        raise ParameterDomainError(f"a Hamiltonian cycle needs C >= 3, got C={C}")
    if m < 1:
        raise ParameterDomainError(f"m must be >= 1, got {m}")
    return tuple(_ham_path(C, m, [C - 1, *range(C), 0], {}))


def _bridge_cliques(C: int, a: int, b: int) -> tuple[int, int] | None:
    """The cliques (out, in) of the level-L edge from block a to block b, or None.

    Blocks are the strings of WK(C, L-2) as base-C values, and the edge
    joins a out out to b in in.  Cliques stay inside a block, so the only
    level-L edges leaving block a are the rule-2 bridges of its strings
    a d d.  For clique-mates (a and b differ in the last digit alone) d is
    b's last digit: the bridge swaps the run d d with a's last digit, so
    out is b's last digit and in is a's.  Otherwise d is a's last digit,
    whose run reaches into a: for a = P c d^t the bridge joins P c d^(t+2)
    to P d c^(t+2), so it ends in block b only if b is P d c^t, a's own
    rule-2 partner, and then out is d and in is c.
    """
    d, c = a % C, b % C
    if a // C == b // C:
        return (c, d) if c != d else None
    if c == d:
        return None
    while a % C == d and b % C == c:
        a //= C
        b //= C
    return (d, c) if a % C == c and b % C == d and a // C == b // C else None


def _general(C: int, L: int, k: int) -> set[int]:
    """The GENERAL set: C-k-1 vertices per level-L block, (C-k-1) * C^(L-2) in all.

    The level-L blocks are threaded into the cyclic order of ``ham_cycle_wk``;
    consecutive blocks meet in exactly one crossing edge whose endpoints are
    repeated-last-two-digit vertices.  Per block b the set takes the
    level-(L-1) parent b out of the outgoing endpoint plus C-k-2 level-L
    vertices, one from each of the smallest cliques c that avoid both the
    incoming clique and the outgoing clique (inside a chosen clique: the
    smallest member that is not extreme in its block, b c 1 for c = 0 and
    b c 0 otherwise).
    """
    cycle = ham_cycle_wk(C, L - 2)
    up, low = _level_offsets(WKP, C, L)[L - 1:L + 1]
    chosen: set[int] = set()
    # Each crossing edge is computed once: a block's outgoing edge is the
    # next block's incoming one.
    edge_in = _bridge_cliques(C, cycle[-1], cycle[0])
    for t, block in enumerate(cycle):
        prev_block, next_block = cycle[t - 1], cycle[(t + 1) % len(cycle)]
        edge_out = _bridge_cliques(C, block, next_block)
        if edge_in is None or edge_out is None:
            raise ConstructionError(
                f"blocks {prev_block}->{block}->{next_block} are not consecutive-adjacent"
            )
        clique_in, clique_out = edge_in[1], edge_out[0]
        if clique_in == clique_out:
            raise ConstructionError(
                f"block {block}: incoming and outgoing bridges attach to the same "
                f"C-clique {clique_in}; the cyclic block order is unusable"
            )
        chosen.add(up + block * C + clique_out)
        spare = [c for c in range(C) if c != clique_in and c != clique_out]
        chosen.update(low + (block * C + c) * C + (c == 0) for c in spare[: C - k - 2])
        edge_in = edge_out
    return chosen


def _spine(C: int, L: int) -> set[int]:
    """The K_EQ_C_MINUS_1_UPPER set: all-zero spine vertices three levels apart.

    The spine vertex 0^r is the first of level r, ordinal offset(r).  The
    level pattern depends on L mod 3 and for L=3m includes the apex.
    """
    offset = _level_offsets(WKP, C, L)
    m, rem = divmod(L, 3)
    if rem == 0:
        return {0, *(offset[3 * i - 1] for i in range(1, m + 1))}
    if rem == 1:
        return {offset[1], *(offset[3 * i] for i in range(1, m + 1))}
    return {offset[3 * i - 2] for i in range(1, m + 2)}


def construct_kpds(C: int, L: int, k: int) -> tuple[set[int], str]:
    """The regime's k-PDS of WKP(C, L) as ordinals, and its provenance tag.

    The tags are ``trivial-apex``, ``level2``, ``general-hamiltonian`` and,
    for the k=C-1 spine, ``kc1-case1/2/3``, which names its level pattern by
    L mod 3.  Every set's size is checked against ``gamma_formula``.
    """
    tag = regime_of(C, L, k)
    if tag is RegimeTag.TRIVIAL_ONE:
        # With k >= C each vertex can propagate past its C children, so
        # monitoring cascades level by level from the apex; for C=1 and L=1
        # the graph is a path or a complete graph.
        chosen, provenance = {0}, "trivial-apex"
    elif tag is RegimeTag.LEVEL2:
        # Each seed (i), k <= i <= C-1, monitors the apex, level 1 and its
        # children; a child (i j) with j < k then lacks only its bridge
        # partner (j i), so each unseeded (j) is left with its k children
        # (j j'), j' < k, unmonitored and fires.
        chosen, provenance = {1 + i for i in range(k, C)}, "level2"
    elif tag is RegimeTag.GENERAL:
        chosen, provenance = _general(C, L, k), "general-hamiltonian"
    else:
        chosen, provenance = _spine(C, L), f"kc1-case{L % 3 + 1}"
    expected = gamma_formula(C, L, k).value
    if len(chosen) != expected:
        raise ConstructionError(f"built {len(chosen)} vertices, expected {expected}")
    return chosen, provenance
