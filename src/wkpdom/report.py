"""One-shot reproduction report for the published closed-form results.

``run_check_paper`` re-derives every claim in the acceptance table with the
exhaustive oracle (or, where enumeration is infeasible at desk scale, with
verified constructions plus a budgeted partial lower-bound sweep flagged
``skipped-budget``) and reports one row per claim.  Rows are grouped by
acceptance-criterion number; criterion 0 collects informational probes that
assert only a bound, not equality.

Everything here is deterministic: fixed instance lists, fixed budgets,
no randomness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import reference
from .constructions import construct_general, construct_kc1, ham_cycle_wk
from .exact import (
    BudgetExceededError,
    SearchBudget,
    level1_intersection_check,
    min_kpds,
    propagation_radius,
    verify_lower_bound,
)
from .propagation import (
    closed_neighborhood,
    is_kpds,
    propagate_fixpoint,
    radius_of_set,
)
from .topology import (
    APEX,
    WK,
    WKP,
    Address,
    build_wk,
    build_wkp,
    extreme_vertices,
)

MATCH = "match"
BOUND_HOLDS = "bound-holds"
SKIPPED_BUDGET = "skipped-budget"
FAIL = "fail"

#: Partial-enumeration budget for the one infeasible lower-bound claim.
LOWER_BOUND_PROBE_CHECKS = 20_000


@dataclass(frozen=True)
class ReportRow:
    criterion: int
    claim: str
    expected: str
    computed: str
    status: str

    @property
    def ok(self) -> bool:
        return self.status != FAIL


@dataclass(frozen=True)
class ReproReport:
    rows: tuple[ReportRow, ...]

    @property
    def failures(self) -> tuple[ReportRow, ...]:
        return tuple(r for r in self.rows if not r.ok)

    def rows_for(self, criterion: int) -> tuple[ReportRow, ...]:
        return tuple(r for r in self.rows if r.criterion == criterion)

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "criterion": r.criterion,
                    "claim": r.claim,
                    "expected": r.expected,
                    "computed": r.computed,
                    "status": r.status,
                }
                for r in self.rows
            ],
            "failures": len(self.failures),
        }

    def format_text(self) -> str:
        width = max(len(r.claim) for r in self.rows)
        lines = [
            f"[{r.status:>14}]  {r.claim:<{width}}  expected {r.expected}  |  got {r.computed}"
            for r in self.rows
        ]
        counts: dict[str, int] = {}
        for r in self.rows:
            counts[r.status] = counts.get(r.status, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append(f"{len(self.rows)} rows: {summary}")
        return "\n".join(lines)


def _row(criterion: int, claim: str, expected: str, computed: str,
         ok: bool, kind: str = MATCH) -> ReportRow:
    return ReportRow(criterion, claim, expected, computed, kind if ok else FAIL)


# --- criterion 1: exact gamma on two-level pyramids -------------------------

GAMMA_L2_CASES = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 4))


def _rows_gamma_level2(budget: SearchBudget) -> list[ReportRow]:
    rows = []
    for C, k in GAMMA_L2_CASES:
        expected = C - k
        got = min_kpds(build_wkp(C, 2), k, budget).gamma
        rows.append(_row(1, f"gamma WKP({C},2) k={k}", str(expected), str(got),
                         got == expected))
    return rows


# --- criterion 2: exact gamma in the general regime -------------------------

def _rows_gamma_general(budget: SearchBudget) -> list[ReportRow]:
    rows = []
    g = build_wkp(3, 3)
    got = min_kpds(g, 1, budget).gamma
    rows.append(_row(2, "gamma WKP(3,3) k=1", "3", str(got), got == 3))

    # WKP(4,3) at gamma=8 is out of exhaustive reach: certify the upper bound
    # by construction and probe the lower bound with a bounded enumeration.
    g = build_wkp(4, 3)
    S = construct_general(4, 3, 1)
    ok = len(S) == 8 and is_kpds(g, 1, [g.ordinal(a) for a in S])
    rows.append(_row(2, "construction WKP(4,3) k=1", "verified 1-PDS of size 8",
                     f"size {len(S)}, verified={ok}", ok))
    try:
        complete = verify_lower_bound(
            g, 1, 8, SearchBudget(max_subset_count=LOWER_BOUND_PROBE_CHECKS))
        rows.append(_row(2, "lower bound WKP(4,3) k=1", "no 1-PDS below size 8",
                         f"exhaustive up to 7: {complete}", complete))
    except BudgetExceededError as exc:
        rows.append(_row(
            2, "lower bound WKP(4,3) k=1", "no 1-PDS below size 8",
            f"partial: gamma > {exc.gamma_exceeds} after {exc.checks_performed} checks",
            True, SKIPPED_BUDGET))
    return rows


# --- criterion 3: the single-vertex regime -----------------------------------

GAMMA_ONE_CASES = ((1, 5, 1), (4, 1, 2), (3, 3, 3), (2, 4, 2))


def _rows_gamma_one(budget: SearchBudget) -> list[ReportRow]:
    rows = []
    for C, L, k in GAMMA_ONE_CASES:
        g = build_wkp(C, L)
        apex_ok = is_kpds(g, k, [g.ordinal(APEX)])
        got = min_kpds(g, k, budget).gamma
        rows.append(_row(3, f"gamma WKP({C},{L}) k={k}", "1 (apex suffices)",
                         f"{got} (apex suffices: {apex_ok})", apex_ok and got == 1))
    return rows


# --- criterion 4: k=C-1 spine construction -----------------------------------

KC1_CASES = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3))


def _rows_kc1() -> list[ReportRow]:
    rows = []
    for C, L in KC1_CASES:
        g = build_wkp(C, L)
        expected = (L + 3) // 3
        S = construct_kc1(C, L)
        ok = len(S) == expected and is_kpds(g, C - 1, [g.ordinal(a) for a in S])
        rows.append(_row(4, f"spine set WKP({C},{L}) k={C - 1}",
                         f"verified PDS of size {expected}",
                         f"size {len(S)}, verified={ok}", ok))
    return rows


# --- criteria 5 and 6: propagation radii -------------------------------------

RADIUS_L2_CASES = (((2, 2), 2), ((3, 3), 2), ((2, 1), 3), ((3, 1), 3),
                   ((3, 2), 3), ((4, 2), 3))


def _rows_radius_level2(budget: SearchBudget) -> list[ReportRow]:
    rows = []
    for (C, k), expected in RADIUS_L2_CASES:
        got = propagation_radius(build_wkp(C, 2), k, budget)
        rows.append(_row(5, f"radius WKP({C},2) k={k}", str(expected), str(got),
                         got == expected))
    return rows


def _rows_radius_path(budget: SearchBudget) -> list[ReportRow]:
    rows = []
    for L in range(1, 9):
        expected = (L + 1) // 2
        got = propagation_radius(build_wkp(1, L), 1, budget)
        rows.append(_row(6, f"radius WKP(1,{L}) k=1", str(expected), str(got),
                         got == expected))
    return rows


# --- criterion 7: radius upper bounds ----------------------------------------

RADIUS_NOTE_GENERAL = ((3, 3, 1), (4, 3, 1), (4, 3, 2), (3, 4, 1))
RADIUS_NOTE_APEX = ((2, 3), (3, 3), (2, 4))


def _rows_radius_note() -> list[ReportRow]:
    rows = []
    for C, L, k in RADIUS_NOTE_GENERAL:
        g = build_wkp(C, L)
        S = construct_general(C, L, k)
        bound = max(5, L - 1)
        got = radius_of_set(g, k, [g.ordinal(a) for a in S])
        rows.append(_row(7, f"radius of built set WKP({C},{L}) k={k}", f"<= {bound}",
                         str(got), got <= bound, BOUND_HOLDS))
    for C, L in RADIUS_NOTE_APEX:
        g = build_wkp(C, L)
        got = radius_of_set(g, C, [g.ordinal(APEX)])
        rows.append(_row(7, f"radius of apex WKP({C},{L}) k={C}", f"<= {L}",
                         str(got), got <= L, BOUND_HOLDS))
    return rows


# --- criterion 8: minimum sets meet level 1 ----------------------------------

LEVEL1_CASES = ((3, 1), (3, 2), (4, 3))


def _rows_level1(budget: SearchBudget) -> list[ReportRow]:
    rows = []
    for C, k in LEVEL1_CASES:
        got = level1_intersection_check(build_wkp(C, 2), k, budget)
        rows.append(_row(8, f"minimum sets meet level 1, WKP({C},2) k={k}",
                         "True", str(got), got))
    return rows


# --- criterion 9: property suites ---------------------------------------------

def _property_graphs():
    return (build_wkp(3, 2), build_wkp(2, 3))


def _prop_round_monotonicity() -> tuple[bool, str]:
    checked = 0
    for g in _property_graphs():
        seeds = [{v} for v in range(g.n)] + [{0, v} for v in range(1, g.n)]
        for k in (0, 1, 2):
            for seed in seeds:
                trace = propagate_fixpoint(g, k, seed)
                for a, b in zip(trace.rounds, trace.rounds[1:]):
                    if not a <= b:
                        return False, f"non-monotone rounds for seed {seed} (k={k})"
                checked += 1
    return True, f"{checked} traces monotone"


def _prop_seed_monotonicity() -> tuple[bool, str]:
    checked = 0
    for g in _property_graphs():
        for k in (0, 1, 2):
            single = [propagate_fixpoint(g, k, {v}).rounds[-1] for v in range(g.n)]
            for v in range(g.n):
                for u in range(g.n):
                    bigger = propagate_fixpoint(g, k, {v, u}).rounds[-1]
                    if not single[v] <= bigger:
                        return False, f"seed {{{v}}} vs {{{v},{u}}} violates containment (k={k})"
                    checked += 1
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
        seeds = [{v} for v in range(g.n)] + [{0, v} for v in range(1, g.n)]
        for seed in seeds:
            dominating = len(closed_neighborhood(g, seed)) == g.n
            if is_kpds(g, 0, seed) != dominating:
                return False, f"k=0 disagrees with domination for seed {seed}"
            checked += 1
    return True, f"{checked} seeds agree with domination"


def _structure_cases():
    for C in range(1, 7):
        for L in range(1, 6):
            if 1 + sum(C ** r for r in range(1, L + 1)) <= 2000:
                yield WKP, C, L
            if C ** L <= 2000:
                yield WK, C, L


def _check_structure(family: str, C: int, L: int) -> str | None:
    g = build_wkp(C, L) if family == WKP else build_wk(C, L)
    extremes = {g.ordinal(a) for a in extreme_vertices(g)}
    if family == WKP:
        if g.n != 1 + sum(C ** r for r in range(1, L + 1)):
            return f"WKP({C},{L}): bad vertex count {g.n}"
    elif g.n != C ** L:
        return f"WK({C},{L}): bad vertex count {g.n}"
    for i, a in enumerate(g.vertices):
        d = g.degree(i)
        if family == WK:
            want = C - 1 if i in extremes else C
        elif a.is_apex:
            want = C
        elif a.level < L:
            want = 2 * C if i in extremes else 2 * C + 1
        else:
            want = C if i in extremes else C + 1
        if d != want:
            return f"{family}({C},{L}): {a} has degree {d}, expected {want}"
        if i in g.adjacency[i]:
            return f"{family}({C},{L}): self-loop at {a}"
        for j in g.adjacency[i]:
            if i not in g.adjacency[j]:
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
            g = build_wk(C, m)
            cycle = ham_cycle_wk(C, m)
            if sorted(cycle) != sorted(a.digits for a in g.vertices):
                return False, f"WK({C},{m}): cycle is not a permutation of the vertices"
            for t, w in enumerate(cycle):
                nxt = cycle[(t + 1) % len(cycle)]
                if not g.has_edge(g.ordinal(Address(m, w)), g.ordinal(Address(m, nxt))):
                    return False, f"WK({C},{m}): {w} and {nxt} are not adjacent"
            count += 1
    return True, f"{count} cycles valid"


def _small_wkp_cases():
    for C in range(1, 12):
        for L in range(1, 12):
            if 1 + sum(C ** r for r in range(1, L + 1)) <= 12:
                yield C, L


def _prop_oracle_equivalence(budget: SearchBudget) -> tuple[bool, str]:
    count = 0
    for C, L in _small_wkp_cases():
        g = build_wkp(C, L)
        for k in (0, 1, 2):
            gamma, optimal, radius = reference.naive_min_kpds(g, k)
            result = min_kpds(g, k, budget, witness_cap=10_000)
            mine = sorted(result.witnesses, key=sorted)
            if (result.gamma, result.radius) != (gamma, radius) or mine != optimal:
                return False, f"WKP({C},{L}) k={k}: solver disagrees with 2^n scan"
            count += 1
    return True, f"{count} instances agree with the 2^n scan"


def _rows_properties(budget: SearchBudget) -> list[ReportRow]:
    checks = (
        ("rounds are monotone", _prop_round_monotonicity),
        ("fixpoint grows with the seed", _prop_seed_monotonicity),
        ("fixpoint grows with k", _prop_k_monotonicity),
        ("k=0 equals domination", _prop_k0_domination),
        ("counts and degree profiles", _prop_structure),
        ("hamiltonian cycles valid", _prop_ham_cycles),
        ("solver equals 2^n scan", lambda: _prop_oracle_equivalence(budget)),
    )
    rows = []
    for claim, fn in checks:
        ok, computed = fn()
        rows.append(_row(9, claim, "holds", computed, ok))
    return rows


# --- informational: is the k=C-1 bound tight at desk scale? -------------------

TIGHTNESS_PROBES = ((2, 3), (2, 4), (3, 3))


def _rows_tightness(budget: SearchBudget) -> list[ReportRow]:
    # Recorded as data only: the bound's tightness is an open question.
    rows = []
    for C, L in TIGHTNESS_PROBES:
        bound = (L + 3) // 3
        got = min_kpds(build_wkp(C, L), C - 1, budget).gamma
        rows.append(_row(0, f"observed gamma WKP({C},{L}) k={C - 1}", f"<= {bound}",
                         str(got), got <= bound, BOUND_HOLDS))
    return rows


def run_check_paper(budget: SearchBudget | None = None) -> ReproReport:
    """Run every reproduction row; deterministic and idempotent.

    Without a budget the default ``SearchBudget()`` applies; the command line
    passes ``--budget`` or WKPDOM_MAX_CHECKS through ``cli._budget``.
    """
    budget = budget or SearchBudget()
    rows: list[ReportRow] = []
    rows.extend(_rows_gamma_level2(budget))
    rows.extend(_rows_gamma_general(budget))
    rows.extend(_rows_gamma_one(budget))
    rows.extend(_rows_kc1())
    rows.extend(_rows_radius_level2(budget))
    rows.extend(_rows_radius_path(budget))
    rows.extend(_rows_radius_note())
    rows.extend(_rows_level1(budget))
    rows.extend(_rows_properties(budget))
    rows.extend(_rows_tightness(budget))
    return ReproReport(tuple(rows))


def report_to_json_text(report: ReproReport) -> str:
    return json.dumps(report.to_json(), indent=2) + "\n"
