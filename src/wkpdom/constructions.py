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
digit strings in cyclic order.  The builders only assemble vertex sets and
check their own bookkeeping (sizes, bridge cliques); whether a set is a
k-PDS is decided once, by the caller that reports it, with the propagation
engine.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .topology import APEX, Address, ParameterDomainError, block_bridge


class RegimeError(ValueError):
    """Parameters fall outside the regime required by a construction."""


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

    def to_json(self) -> dict:
        return {"exact": self.value} if self.exact else {"upper_bound": self.value}


def regime_of(C: int, L: int, k: int) -> RegimeTag:
    """Classify (C, L, k) into the regime that decides formula and construction.

    The four regimes are mutually exclusive and cover every C, L >= 1, k >= 1.
    k=0 is plain domination and has no closed-form regime here.
    """
    if C < 1:
        raise ParameterDomainError(f"C must be >= 1, got {C}")
    if L < 1:
        raise ParameterDomainError(f"L must be >= 1, got {L}")
    if k < 1:
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


def _require(C: int, L: int, k: int, tag: RegimeTag, what: str) -> None:
    actual = regime_of(C, L, k)
    if actual is not tag:
        raise RegimeError(
            f"{what} needs regime {tag.value}, but (C={C}, L={L}, k={k}) "
            f"is {actual.value}"
        )


def construct_trivial(C: int, L: int, k: int) -> set[Address]:
    """The singleton {apex}, a k-PDS whenever C=1, L=1 or k>=C.

    With k >= C each vertex can propagate past its C children, so monitoring
    cascades level by level from the apex; for C=1 and L=1 the graph is a
    path or a complete graph.
    """
    _require(C, L, k, RegimeTag.TRIVIAL_ONE, "construct_trivial")
    return {APEX}


def construct_level2(C: int, k: int) -> set[Address]:
    """The C-k level-1 vertices {(1,(i)): k <= i <= C-1}, a k-PDS of WKP(C, 2)."""
    _require(C, 2, k, RegimeTag.LEVEL2, "construct_level2")
    return {Address(1, (i,)) for i in range(k, C)}


def _ham_path(C: int, m: int, a: int, b: int) -> list[tuple[int, ...]]:
    """Hamiltonian path of WK(C, m) from extreme vertex (a)^m to (b)^m, a != b.

    Visits the C sub-meshes in the order a, ascending others, b; consecutive
    sub-meshes are joined by their unique bridge, which attaches at the
    extreme vertices i (j)^(m-1) and j (i)^(m-1).
    """
    if m == 1:
        return [(a,)] + [(d,) for d in range(C) if d not in (a, b)] + [(b,)]
    order = [a] + [d for d in range(C) if d not in (a, b)] + [b]
    last = len(order) - 1
    path: list[tuple[int, ...]] = []
    for t, s in enumerate(order):
        enter = a if t == 0 else order[t - 1]
        leave = b if t == last else order[t + 1]
        path.extend((s,) + suffix for suffix in _ham_path(C, m - 1, enter, leave))
    return path


def ham_cycle_wk(C: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Fixed recursive Hamiltonian cycle of WK(C, m), C >= 3: its digit strings in cyclic order.

    Sub-meshes are visited in the order 0..C-1; sub-mesh i is crossed by a
    Hamiltonian path from its bridge endpoint toward i-1 to the one toward
    i+1 (mod C).  Deterministic, O(C^m); validity is machine-checked in the
    test suite rather than argued here.
    """
    if C < 3:
        raise ParameterDomainError(f"a Hamiltonian cycle needs C >= 3, got C={C}")
    if m < 1:
        raise ParameterDomainError(f"m must be >= 1, got {m}")
    if m == 1:
        return tuple((d,) for d in range(C))
    seq: list[tuple[int, ...]] = []
    for i in range(C):
        enter = (i - 1) % C
        leave = (i + 1) % C
        seq.extend((i,) + suffix for suffix in _ham_path(C, m - 1, enter, leave))
    return tuple(seq)


def construct_general(C: int, L: int, k: int) -> set[Address]:
    """A k-PDS of WKP(C, L) of size (C-k-1) * C^(L-2) for L>=3, C>=3, k<=C-2.

    The level-L blocks are threaded into the cyclic order of ``ham_cycle_wk``;
    consecutive blocks meet in exactly one crossing edge whose endpoints are
    repeated-last-two-digit vertices.  Per block the set takes the
    level-(L-1) parent of the outgoing endpoint plus C-k-2 level-L vertices,
    one from each of the lexicographically smallest cliques that avoid both
    the incoming-endpoint clique and the outgoing-endpoint clique (inside a
    chosen clique: the smallest member that is not extreme in its block).
    """
    _require(C, L, k, RegimeTag.GENERAL, "construct_general")
    cycle = ham_cycle_wk(C, L - 2)
    chosen: set[Address] = set()
    for t, block in enumerate(cycle):
        prev_block, next_block = cycle[t - 1], cycle[(t + 1) % len(cycle)]
        edge_in = block_bridge(prev_block, block, C)
        edge_out = block_bridge(block, next_block, C)
        if edge_in is None or edge_out is None:
            raise ConstructionError(
                f"blocks {prev_block}->{block}->{next_block} are not consecutive-adjacent"
            )
        clique_in = edge_in[1][-1]
        clique_out = edge_out[0][-1]
        if clique_in == clique_out:
            raise ConstructionError(
                f"block {block}: incoming and outgoing bridges attach to the same "
                f"C-clique {clique_in}; the cyclic block order is unusable"
            )
        chosen.add(Address(L - 1, block + (clique_out,)))
        spare = [c for c in range(C) if c not in (clique_in, clique_out)]
        for c in spare[: C - k - 2]:
            chosen.add(Address(L, block + (c, 1 if c == 0 else 0)))
    expected = (C - k - 1) * C ** (L - 2)
    if len(chosen) != expected:
        raise ConstructionError(f"built {len(chosen)} vertices, expected {expected}")
    return chosen


def construct_kc1(C: int, L: int) -> set[Address]:
    """A (C-1)-PDS of WKP(C, L) of size ceil((L+1)/3) for C>=2, L>=3.

    All-zero spine vertices spaced three levels apart; the level pattern
    depends on L mod 3 and for L=3m includes the apex.
    """
    _require(C, L, C - 1, RegimeTag.K_EQ_C_MINUS_1_UPPER, "construct_kc1")
    m, rem = divmod(L, 3)
    if rem == 0:
        chosen = {Address(3 * i - 1, (0,) * (3 * i - 1)) for i in range(1, m + 1)}
        chosen.add(APEX)
    elif rem == 1:
        chosen = {Address(3 * i, (0,) * (3 * i)) for i in range(1, m + 1)}
        chosen.add(Address(1, (0,)))
    else:
        chosen = {Address(3 * i - 2, (0,) * (3 * i - 2)) for i in range(1, m + 2)}
    expected = (L + 3) // 3
    if len(chosen) != expected:
        raise ConstructionError(f"built {len(chosen)} vertices, expected {expected}")
    return chosen


def construct_kpds(C: int, L: int, k: int) -> tuple[set[Address], str]:
    """Dispatch to the regime's construction; returns (vertex set, provenance tag).

    The k=C-1 spine tag ``kc1-case1/2/3`` names its level pattern, by L mod 3.
    """
    tag = regime_of(C, L, k)
    if tag is RegimeTag.TRIVIAL_ONE:
        return construct_trivial(C, L, k), "trivial-apex"
    if tag is RegimeTag.LEVEL2:
        return construct_level2(C, k), "level2"
    if tag is RegimeTag.GENERAL:
        return construct_general(C, L, k), "general-hamiltonian"
    return construct_kc1(C, L), f"kc1-case{L % 3 + 1}"
