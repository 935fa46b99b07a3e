"""One-shot reproduction report for the published closed-form results.

``run_check_paper`` re-derives every claim in the acceptance table with the
exhaustive oracle (or, where enumeration is infeasible at desk scale, with a
verified construction plus a block-fort certificate for the lower bound,
re-checked by ``forts.check_fort_certificate``) and reports one row per
claim.  A row that prints only gamma stops its search at the first
minimum set, which the engine re-checks; the radius and level-1 rows
sweep gamma's whole level.  Constructions come from
``construct_kpds``, the dispatch ``construct`` prints, and the property
rows about rounds hold the engine against ``reference``.  Rows are grouped
by acceptance-criterion number; criterion 0 collects informational probes
that assert only a bound, not equality.

Every row takes its graphs from ``_graph``, a cache that ``run_check_paper``
empties on entry and on exit, so each graph is built once per call; a row
called on its own builds into the same cache.

Everything here is deterministic: fixed instance lists, fixed budgets,
no randomness.
"""

from __future__ import annotations

import functools
import sys
from typing import Iterator, NamedTuple

from . import reference
from .constructions import construct_kpds, ham_cycle_wk
from .exact import SearchBudget, first_min_kpds, min_kpds, propagation_radius
from .propagation import is_kpds, propagate_fixpoint, radius_of_set
from .topology import (
    WK,
    WKP,
    PyramidGraph,
    address_list,
    build_wk,
    build_wkp,
    extreme_vertices,
    format_address,
)

MATCH = "match"
BOUND_HOLDS = "bound-holds"
FAIL = "fail"


class ReportRow(NamedTuple):
    criterion: int
    claim: str
    expected: str
    computed: str
    status: str

    @property
    def ok(self) -> bool:
        return self.status != FAIL


class ReproReport(NamedTuple):
    rows: tuple[ReportRow, ...]

    @property
    def failures(self) -> tuple[ReportRow, ...]:
        return tuple(r for r in self.rows if not r.ok)

    def rows_for(self, criterion: int) -> tuple[ReportRow, ...]:
        return tuple(r for r in self.rows if r.criterion == criterion)


@functools.cache
def _graph(family: str, C: int, L: int) -> PyramidGraph:
    return build_wkp(C, L) if family == WKP else build_wk(C, L)


def _row(criterion: int, claim: str, expected: str, computed: str,
         ok: bool, kind: str = MATCH) -> ReportRow:
    return ReportRow(criterion, claim, expected, computed, kind if ok else FAIL)


def _gamma(g: PyramidGraph, k: int, budget: SearchBudget) -> tuple[int | None, str]:
    """gamma as the size of the first minimum k-PDS, once the engine confirms that set.

    ``first_min_kpds`` has checked every smaller set with the solver's
    kernel; ``is_kpds`` re-checks the witness on the per-vertex engine.
    Returns (gamma, its text), or (None, a text naming the rejected witness).
    """
    witness = first_min_kpds(g, k, budget)
    if is_kpds(g, k, witness):
        return len(witness), str(len(witness))
    return None, f'engine rejects witness "{";".join(address_list(g, witness))}"'


# --- criterion 1: exact gamma on two-level pyramids -------------------------

GAMMA_L2_CASES = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 4))


def _rows_gamma_level2(budget: SearchBudget) -> Iterator[ReportRow]:
    for C, k in GAMMA_L2_CASES:
        expected = C - k
        got, text = _gamma(_graph(WKP, C, 2), k, budget)
        yield _row(1, f"gamma WKP({C},2) k={k}", str(expected), text,
                   got == expected)


# --- criterion 2: exact gamma in the general regime -------------------------

def _rows_gamma_general(budget: SearchBudget) -> Iterator[ReportRow]:
    # Imported on use: ``wkpdom.cli`` imports this module, and every start
    # that reuses no .pyc file compiles whatever the CLI imports.
    from .forts import block_fort_certificate, check_fort_certificate

    got, text = _gamma(_graph(WKP, 3, 3), 1, budget)
    yield _row(2, "gamma WKP(3,3) k=1", "3", text, got == 3)

    # WKP(4,3) at gamma=8 is out of exhaustive reach: certify the upper bound
    # by construction and the lower bound by one fort group per level-3 block.
    g = _graph(WKP, 4, 3)
    S, _ = construct_kpds(4, 3, 1)
    ok = len(S) == 8 and is_kpds(g, 1, S)
    yield _row(2, "construction WKP(4,3) k=1", "verified 1-PDS of size 8",
               f"size {len(S)}, verified={ok}", ok)
    cert = block_fort_certificate(g, 1)
    try:
        bound = check_fort_certificate(g, 1, cert)
        computed = f"certified by {len(cert)} block-fort groups: gamma >= {bound}"
    except ValueError as exc:
        bound, computed = 0, f"certificate rejected: {exc}"
    yield _row(2, "lower bound WKP(4,3) k=1", "no 1-PDS below size 8",
               computed, bound >= 8)


# --- criterion 3: the single-vertex regime -----------------------------------

GAMMA_ONE_CASES = ((1, 5, 1), (4, 1, 2), (3, 3, 3), (2, 4, 2))


def _rows_gamma_one(budget: SearchBudget) -> Iterator[ReportRow]:
    for C, L, k in GAMMA_ONE_CASES:
        g = _graph(WKP, C, L)
        apex_ok = is_kpds(g, k, [0])
        got, text = _gamma(g, k, budget)
        yield _row(3, f"gamma WKP({C},{L}) k={k}", "1 (apex suffices)",
                   f"{text} (apex suffices: {apex_ok})", apex_ok and got == 1)


# --- criterion 4: k=C-1 spine construction -----------------------------------

KC1_CASES = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3))


def _rows_kc1() -> Iterator[ReportRow]:
    for C, L in KC1_CASES:
        g = _graph(WKP, C, L)
        expected = (L + 3) // 3
        S, _ = construct_kpds(C, L, C - 1)
        ok = len(S) == expected and is_kpds(g, C - 1, S)
        yield _row(4, f"spine set WKP({C},{L}) k={C - 1}",
                   f"verified PDS of size {expected}",
                   f"size {len(S)}, verified={ok}", ok)


# --- criteria 5 and 6: propagation radii -------------------------------------

RADIUS_L2_CASES = (((2, 2), 2), ((3, 3), 2), ((2, 1), 3), ((3, 1), 3),
                   ((3, 2), 3), ((4, 2), 3))


def _rows_radius_level2(budget: SearchBudget) -> Iterator[ReportRow]:
    for (C, k), expected in RADIUS_L2_CASES:
        got = propagation_radius(_graph(WKP, C, 2), k, budget)
        yield _row(5, f"radius WKP({C},2) k={k}", str(expected), str(got),
                   got == expected)


def _rows_radius_path(budget: SearchBudget) -> Iterator[ReportRow]:
    for L in range(1, 9):
        expected = (L + 1) // 2
        got = propagation_radius(_graph(WKP, 1, L), 1, budget)
        yield _row(6, f"radius WKP(1,{L}) k=1", str(expected), str(got),
                   got == expected)


# --- criterion 7: radius upper bounds ----------------------------------------

RADIUS_NOTE_GENERAL = ((3, 3, 1), (4, 3, 1), (4, 3, 2), (3, 4, 1))
RADIUS_NOTE_APEX = ((2, 3), (3, 3), (2, 4))


def _rows_radius_note() -> Iterator[ReportRow]:
    for C, L, k in RADIUS_NOTE_GENERAL:
        g = _graph(WKP, C, L)
        S, _ = construct_kpds(C, L, k)
        bound = max(5, L - 1)
        got = radius_of_set(g, k, S)
        yield _row(7, f"radius of built set WKP({C},{L}) k={k}", f"<= {bound}",
                   str(got), got <= bound, BOUND_HOLDS)
    for C, L in RADIUS_NOTE_APEX:
        g = _graph(WKP, C, L)
        got = radius_of_set(g, C, [0])
        yield _row(7, f"radius of apex WKP({C},{L}) k={C}", f"<= {L}",
                   str(got), got <= L, BOUND_HOLDS)


# --- criterion 8: minimum sets meet level 1 ----------------------------------

LEVEL1_CASES = ((3, 1), (3, 2), (4, 3))


def _rows_level1(budget: SearchBudget) -> Iterator[ReportRow]:
    # One search per case keeps every optimal set, which needs gamma's whole level.
    for C, k in LEVEL1_CASES:
        g = _graph(WKP, C, 2)
        level1 = g.level_ordinals(1)
        optimal = min_kpds(g, k, budget, witness_cap=sys.maxsize).whole_level().witnesses
        got = all(any(v in level1 for v in witness) for witness in optimal)
        yield _row(8, f"minimum sets meet level 1, WKP({C},2) k={k}",
                   "True", str(got), got)


# --- criterion 9: property suites ---------------------------------------------

def _property_graphs():
    return (_graph(WKP, 3, 2), _graph(WKP, 2, 3))


def _seed_sets(g: PyramidGraph) -> list[set[int]]:
    """The seed sets of the round and k=0 suites: every {v}, then every {0, v}."""
    return [{v} for v in range(g.n)] + [{0, v} for v in range(1, g.n)]


def _prop_round_monotonicity() -> tuple[bool, str]:
    # The engine's rounds must equal the naive ones, which are then checked
    # for growth; the engine's own rounds grow by construction.
    checked = 0
    for g in _property_graphs():
        seeds = _seed_sets(g)
        for k in (0, 1, 2):
            for seed, rounds in zip(seeds, reference.naive_fixpoint_runs(g, k, seeds)):
                if list(propagate_fixpoint(g, k, seed).rounds) != rounds:
                    return False, f"engine rounds differ from the naive ones for seed {seed} (k={k})"
                for a, b in zip(rounds, rounds[1:]):
                    if not a <= b:
                        return False, f"non-monotone rounds for seed {seed} (k={k})"
                checked += 1
    return True, f"{checked} traces monotone"


def _prop_seed_monotonicity() -> tuple[bool, str]:
    checked = 0
    for g in _property_graphs():
        for k in (0, 1, 2):
            single = [propagate_fixpoint(g, k, {v}).rounds[-1] for v in range(g.n)]
            # One run per seed set {v, u}, u > v, checks both ordered pairs
            # (v, u) and (u, v); `checked` still counts ordered pairs, and
            # the n diagonal pairs (v, v) hold by identity.
            checked += g.n
            for v in range(g.n):
                for u in range(v + 1, g.n):
                    bigger = propagate_fixpoint(g, k, {v, u}).rounds[-1]
                    for seed in (v, u):
                        if not single[seed] <= bigger:
                            return False, f"seed {{{seed}}} vs {{{v},{u}}} violates containment (k={k})"
                    checked += 2
    return True, f"{checked} seed pairs contained"


def _prop_k_monotonicity() -> tuple[bool, str]:
    checked = 0
    for g in _property_graphs():
        for k in (0, 1, 2):
            for v in range(g.n):
                low = propagate_fixpoint(g, k, {v}).rounds[-1]
                high = propagate_fixpoint(g, k + 1, {v}).rounds[-1]
                if not low <= high:
                    return False, f"fixpoint(k={k}) not within fixpoint(k={k + 1}) for seed {{{v}}}"
                checked += 1
    return True, f"{checked} k steps contained"


def _prop_k0_domination() -> tuple[bool, str]:
    checked = 0
    for g in _property_graphs():
        for seed in _seed_sets(g):
            dominating = len(seed.union(*(g.adjacency[v] for v in seed))) == g.n
            if is_kpds(g, 0, seed) != dominating:
                return False, f"k=0 disagrees with domination for seed {seed}"
            checked += 1
    return True, f"{checked} seeds agree with domination"


def _wkp_order(C: int, L: int) -> int:
    """The vertex count 1 + C + ... + C^L of WKP(C, L)."""
    return sum(C ** r for r in range(L + 1))


def _structure_cases():
    for C in range(1, 7):
        for L in range(1, 6):
            if _wkp_order(C, L) <= 2000:
                yield WKP, C, L
            if C ** L <= 2000:
                yield WK, C, L


def _check_structure(family: str, C: int, L: int) -> str | None:
    g = _graph(family, C, L)
    adj = g.adjacency
    extremes = extreme_vertices(g)
    if g.n != (_wkp_order(C, L) if family == WKP else C ** L):
        return f"{family}({C},{L}): bad vertex count {g.n}"
    for r in range(L + 1):
        for i in g.level_ordinals(r):
            row = adj[i]
            d = len(row)
            if family == WK:
                want = C - 1 if i in extremes else C
            elif r == 0:
                want = C
            elif r < L:
                want = 2 * C if i in extremes else 2 * C + 1
            else:
                want = C if i in extremes else C + 1
            if d != want:
                return f"{family}({C},{L}): {format_address(g.address(i))} has degree {d}, expected {want}"
            if i in row:
                return f"{family}({C},{L}): self-loop at {format_address(g.address(i))}"
            for j in row:
                if i not in adj[j]:
                    return f"{family}({C},{L}): asymmetric edge {i},{j}"
    return None


def _prop_structure() -> tuple[bool, str]:
    count = 0
    for family, C, L in _structure_cases():
        problem = _check_structure(family, C, L)
        if problem is not None:
            return False, problem
        count += 1
    return True, f"{count} graphs pass count/degree/symmetry checks"


def _prop_ham_cycles() -> tuple[bool, str]:
    count = 0
    for C in (3, 4, 5):
        for m in (1, 2, 3):
            g = _graph(WK, C, m)
            cycle = ham_cycle_wk(C, m)
            if sorted(cycle) != list(range(C ** m)):
                return False, f"WK({C},{m}): cycle is not a permutation of the vertices"
            for t, w in enumerate(cycle):
                nxt = cycle[(t + 1) % len(cycle)]
                if not g.has_edge(w, nxt):
                    return False, f"WK({C},{m}): {w} and {nxt} are not adjacent"
            count += 1
    return True, f"{count} cycles valid"


def _small_wkp_cases():
    for C in range(1, 12):
        for L in range(1, 12):
            if _wkp_order(C, L) <= 12:
                yield C, L


def _prop_oracle_equivalence(budget: SearchBudget) -> tuple[bool, str]:
    count = 0
    for C, L in _small_wkp_cases():
        g = _graph(WKP, C, L)
        for k in (0, 1, 2):
            gamma, optimal, radius = reference.naive_min_kpds(g, k)
            result = min_kpds(g, k, budget, witness_cap=10_000)
            mine = sorted(result.witnesses, key=sorted)
            if (result.gamma, result.radius) != (gamma, radius) or mine != optimal:
                return False, f"WKP({C},{L}) k={k}: solver disagrees with 2^n scan"
            count += 1
    return True, f"{count} instances agree with the 2^n scan"


def _rows_properties(budget: SearchBudget) -> Iterator[ReportRow]:
    for claim, (ok, computed) in (
        ("rounds are monotone", _prop_round_monotonicity()),
        ("fixpoint grows with the seed", _prop_seed_monotonicity()),
        ("fixpoint grows with k", _prop_k_monotonicity()),
        ("k=0 equals domination", _prop_k0_domination()),
        ("counts and degree profiles", _prop_structure()),
        ("hamiltonian cycles valid", _prop_ham_cycles()),
        ("solver equals 2^n scan", _prop_oracle_equivalence(budget)),
    ):
        yield _row(9, claim, "holds", computed, ok)


# --- informational: is the k=C-1 bound tight at desk scale? -------------------

TIGHTNESS_PROBES = ((2, 3), (2, 4), (3, 3))


def _rows_tightness(budget: SearchBudget) -> Iterator[ReportRow]:
    # Recorded as data only: the bound's tightness is an open question.
    for C, L in TIGHTNESS_PROBES:
        bound = (L + 3) // 3
        got, text = _gamma(_graph(WKP, C, L), C - 1, budget)
        yield _row(0, f"observed gamma WKP({C},{L}) k={C - 1}", f"<= {bound}",
                   text, got is not None and got <= bound, BOUND_HOLDS)


def run_check_paper(budget: SearchBudget | None = None) -> ReproReport:
    """Run every reproduction row; deterministic and idempotent.

    Without a budget the default ``SearchBudget()`` applies; the command line
    passes ``--budget`` or WKPDOM_MAX_CHECKS through ``cli._budget``.  Each
    graph is built once per call into ``_graph``, which this empties on
    entry and on exit.
    """
    budget = budget or SearchBudget()
    _graph.cache_clear()
    try:
        return ReproReport((
            *_rows_gamma_level2(budget), *_rows_gamma_general(budget), *_rows_gamma_one(budget),
            *_rows_kc1(), *_rows_radius_level2(budget), *_rows_radius_path(budget),
            *_rows_radius_note(), *_rows_level1(budget), *_rows_properties(budget),
            *_rows_tightness(budget)))
    finally:
        _graph.cache_clear()
