"""Acceptance sweep: every reproduction claim at its stated (exact) tolerance.

One pass/fail line per criterion is printed; run with ``pytest -s`` to see
them inline.  All comparisons are integer or boolean equality, and the one
claim that is infeasible to enumerate exhaustively at desk scale must come
back ``match``: its upper bound by a verified construction, its lower bound
by a block-fort certificate.
"""

import pytest

import wkpdom.report as paper_report
from wkpdom import NEVER, BudgetExceededError, propagation, reference
from wkpdom.report import run_check_paper
from wkpdom.topology import PyramidGraph, address_list

CRITERIA = {
    1: "exact gamma on two-level pyramids equals C-k",
    2: "exact gamma in the general regime equals (C-k-1)C^(L-2)",
    3: "apex alone is optimal when C=1, L=1 or k>=C",
    4: "spine construction at k=C-1 has size ceil((L+1)/3) and verifies",
    5: "two-level radius is 2 for k>=C and 3 for k in [C-1]",
    6: "path radius is floor((L+1)/2)",
    7: "radius bounds: L for k>=C, max(5, L-1) for k<=C-2",
    8: "every minimum set meets level 1 on two-level pyramids",
    9: "property suites (monotonicity, structure, cycles, oracle equivalence)",
}


@pytest.fixture(scope="module")
def report():
    return run_check_paper()


@pytest.mark.parametrize("criterion", sorted(CRITERIA), ids=lambda c: f"criterion-{c}")
def test_criterion(report, criterion):
    rows = report.rows_for(criterion)
    assert rows, f"criterion {criterion} produced no rows"
    bad = [r for r in rows if not r.ok]
    verdict = "PASS" if not bad else "FAIL"
    print(f"[{verdict}] criterion {criterion}: {CRITERIA[criterion]} "
          f"({len(rows) - len(bad)}/{len(rows)} rows)")
    details = "; ".join(f"{r.claim}: expected {r.expected}, got {r.computed}" for r in bad)
    assert not bad, details


def test_criterion_2_budget_row_is_flagged(report):
    rows = [r for r in report.rows_for(2) if "lower bound" in r.claim]
    assert len(rows) == 1
    assert rows[0].status == "match"
    assert rows[0].computed == "certified by 4 block-fort groups: gamma >= 8"


def test_informational_probes_hold(report):
    rows = report.rows_for(0)
    assert len(rows) == 3
    assert all(r.status == "bound-holds" for r in rows)


def test_no_failures_anywhere(report):
    assert report.failures == ()


def test_report_builds_each_graph_once(monkeypatch):
    # The rows and suites share one graph per (family, C, L) for the call;
    # a row group run first warms the cache, which the call empties on entry.
    built = []

    def recording(name, real):
        def build(C, L):
            built.append((name, C, L))
            return real(C, L)
        return build

    for name in ("build_wk", "build_wkp"):
        monkeypatch.setattr(paper_report, name, recording(name, getattr(paper_report, name)))
    assert all(row.ok for row in paper_report._rows_kc1())
    built.clear()
    assert run_check_paper().failures == ()
    assert len(built) == len(set(built)) == 67


def test_report_leaves_no_graph_cached():
    run_check_paper()
    assert paper_report._graph.cache_info().currsize == 0
    with pytest.raises(BudgetExceededError):
        run_check_paper(paper_report.SearchBudget(1))
    assert paper_report._graph.cache_info().currsize == 0


def test_round_row_fails_when_engine_rounds_leave_the_naive_ones(monkeypatch):
    # Stamping every monitored vertex with the last round keeps the rounds
    # growing, so only the comparison with the naive rounds can catch it.
    real = paper_report.propagate_fixpoint

    def late(g, k, S):
        trace = real(g, k, S)
        last = trace.round_count - 1
        stamps = tuple(s if s == NEVER else last for s in trace.first_step)
        return trace._replace(first_step=stamps)

    monkeypatch.setattr(paper_report, "propagate_fixpoint", late)
    ok, computed = paper_report._prop_round_monotonicity()
    assert not ok, computed


def test_report_builds_561_closed_neighbourhoods(monkeypatch):
    # Each oracle scan and each (graph, k) of the round suite reads one N[v]
    # table: 477 sets for the oracle row's 22 graphs at three k values, and
    # 3 x (13 + 15) for the round suite's two graphs.
    built = []
    real = reference._closed_sets

    def counted(g):
        built.append(g.n)
        return real(g)

    monkeypatch.setattr(reference, "_closed_sets", counted)
    assert paper_report._prop_round_monotonicity()[0]
    assert built == [13] * 3 + [15] * 3
    built.clear()
    assert run_check_paper().failures == ()
    assert sum(built) == 561


def test_domination_row_fails_when_the_engine_misreads_closed_neighbourhoods(monkeypatch):
    # A round 0 that monitors every vertex makes any seed a k-PDS; domination
    # must come from outside the engine for the row to notice.
    def everyone(adj, S, first):
        fresh = [v for v, s in enumerate(first) if s == NEVER]
        for v in fresh:
            first[v] = 0
        return fresh

    monkeypatch.setattr(propagation, "_closed", everyone)
    ok, computed = paper_report._prop_k0_domination()
    assert not ok, computed


@pytest.mark.parametrize("bad, literal", [(0, "(0,(1))"), (5, "(2,(01))")])
def test_structure_check_names_the_failing_vertex_by_its_literal(monkeypatch, bad, literal):
    # WKP(3,2) orders the apex first, then level 1, then level 2: ordinal 5
    # is the digit string 01.  Its row gains a spare neighbour, 12.
    g = PyramidGraph("WKP", 3, 2)
    g.adjacency = tuple(row + (12,) * (i == bad) for i, row in enumerate(g.adjacency))
    monkeypatch.setattr(paper_report, "_graph", lambda family, C, L: g)
    problem = paper_report._check_structure("WKP", 3, 2)
    assert problem is not None and problem.startswith(f"WKP(3,2): {literal} has degree "), problem


def _runs_counted(monkeypatch):
    real = paper_report.propagate_fixpoint
    runs = []

    def counted(g, k, S):
        runs.append((g.n, k))
        return real(g, k, S)

    monkeypatch.setattr(paper_report, "propagate_fixpoint", counted)
    return runs


def test_seed_row_runs_each_seed_set_once(monkeypatch):
    # n single seeds plus one run per unordered pair {v, u}, v < u: the
    # diagonal pair {v, v} is the single seed {v}, so it holds by identity.
    runs = _runs_counted(monkeypatch)
    ok, computed = paper_report._prop_seed_monotonicity()
    assert (ok, computed) == (True, "1182 seed pairs contained")
    for g in paper_report._property_graphs():
        for k in (0, 1, 2):
            assert runs.count((g.n, k)) == g.n + g.n * (g.n - 1) // 2


def test_seed_row_fails_when_a_pair_loses_its_larger_seeds_own_vertex(monkeypatch):
    # The pair's fixpoint drops a vertex that only the larger seed's own
    # fixpoint holds, so only the check of that seed can catch it.
    real = paper_report.propagate_fixpoint
    mutated = []

    def lossy(g, k, S):
        trace = real(g, k, S)
        if len(S) == 2:
            small, large = sorted(S)
            lost = real(g, k, {large}).rounds[-1] - real(g, k, {small}).rounds[-1]
            if lost:
                mutated.append((small, large, k))
                first = list(trace.first_step)
                first[min(lost)] = NEVER
                return trace._replace(first_step=tuple(first))
        return trace

    monkeypatch.setattr(paper_report, "propagate_fixpoint", lossy)
    ok, computed = paper_report._prop_seed_monotonicity()
    small, large, k = mutated[0]
    assert not ok
    assert computed == f"seed {{{large}}} vs {{{small},{large}}} violates containment (k={k})"


def test_oracle_row_fails_when_the_solver_drops_a_witness(monkeypatch):
    real = paper_report.min_kpds

    def short(*args, **kwargs):
        result = real(*args, **kwargs)
        return result._replace(witnesses=result.witnesses[:-1])

    monkeypatch.setattr(paper_report, "min_kpds", short)
    ok, computed = paper_report._prop_oracle_equivalence(paper_report.SearchBudget())
    assert not ok
    assert computed.endswith("solver disagrees with 2^n scan"), computed


def _gamma_rows():
    """The 15 rows that print only gamma, in report order."""
    budget = paper_report.SearchBudget()
    return [*paper_report._rows_gamma_level2(budget),
            next(paper_report._rows_gamma_general(budget)),
            *paper_report._rows_gamma_one(budget),
            *paper_report._rows_tightness(budget)]


def _witnesses_recorded(monkeypatch, mutate=lambda witness: witness):
    """Patch ``report.first_min_kpds`` to log each (graph, witness) it returns."""
    real = paper_report.first_min_kpds
    returned = []

    def recorded(g, k, budget=None):
        returned.append((g, mutate(real(g, k, budget))))
        return returned[-1][1]

    monkeypatch.setattr(paper_report, "first_min_kpds", recorded)
    return returned


def _assert_rows_name_rejected_witnesses(rows, returned):
    assert len(rows) == len(returned) == 15
    for row, (g, witness) in zip(rows, returned):
        assert row.status == "fail", row
        named = ";".join(address_list(g, witness))
        assert row.computed.startswith(f'engine rejects witness "{named}"'), row


def test_gamma_rows_fail_when_the_engine_rejects_the_witness(monkeypatch):
    real = paper_report.is_kpds
    returned = _witnesses_recorded(monkeypatch)

    def rejecting(g, k, S):
        return False if returned and S is returned[-1][1] else real(g, k, S)

    monkeypatch.setattr(paper_report, "is_kpds", rejecting)
    rows = _gamma_rows()
    _assert_rows_name_rejected_witnesses(rows, returned)
    general = rows[len(paper_report.GAMMA_L2_CASES)]
    assert general.computed == 'engine rejects witness "(2,(00));(2,(10));(2,(21))"'


def test_gamma_rows_fail_when_the_solver_drops_a_seed(monkeypatch):
    # A set one seed short of a minimum k-PDS is no k-PDS; on its size alone
    # the tightness rows' bounds would still hold, so the engine must say so.
    returned = _witnesses_recorded(monkeypatch, lambda witness: witness[:-1])
    rows = _gamma_rows()
    _assert_rows_name_rejected_witnesses(rows, returned)
    general = rows[len(paper_report.GAMMA_L2_CASES)]
    assert general.computed == 'engine rejects witness "(2,(00));(2,(10))"'
