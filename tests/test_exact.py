import ast
import functools
import itertools
import json
import math
import operator
import tracemalloc
from pathlib import Path

import pytest

from wkpdom import (
    BudgetExceededError,
    ParameterDomainError,
    SearchBudget,
    build_wkp,
    cli,
    exact,
    first_min_kpds,
    format_address,
    gamma_formula,
    is_kpds,
    min_kpds,
    propagation_radius,
)
from wkpdom.exact import _bit_step, _closed_masks, _covering_sets
from wkpdom import constructions, forts, propagation, reference, report
from wkpdom.reference import naive_min_kpds


def small_wkp_cases(max_vertices=12):
    for C in range(1, 12):
        for L in range(1, 12):
            if 1 + sum(C ** r for r in range(1, L + 1)) <= max_vertices:
                yield C, L


class TestMinKpds:
    def test_two_level_ternary(self, wkp32):
        result = min_kpds(wkp32, 1)
        assert result.gamma == 2
        assert result.exhausted
        first = sorted(format_address(wkp32.address(v)) for v in result.witnesses[0])
        assert first == ["(1,(0))", "(1,(1))"]

    def test_two_level_binary(self):
        assert min_kpds(build_wkp(2, 2), 1).gamma == 1

    def test_three_level_ternary(self):
        result = min_kpds(build_wkp(3, 3), 1)
        assert result.gamma == 3
        assert result.checks_performed == 40 + 780 + 9880

    def test_four_level_quaternary_at_k_3(self):
        # The longest chains of the paper's instances: radius 15.
        result = min_kpds(build_wkp(4, 4), 3)
        assert (result.gamma, result.radius, result.exhausted) == (2, 15, True)
        assert result.checks_performed == 341 + 57_970

    def test_every_witness_is_a_pds_and_minimal(self, wkp32):
        result = min_kpds(wkp32, 1)
        for witness in result.witnesses:
            assert is_kpds(wkp32, 1, witness)
            for v in witness:
                assert not is_kpds(wkp32, 1, witness - {v})

    def test_first_witness_is_lexicographically_least(self, wkp32):
        result = min_kpds(wkp32, 1)
        combos = sorted(tuple(sorted(s)) for s in result.witnesses)
        assert tuple(sorted(result.witnesses[0])) == combos[0]

    def test_deterministic(self, wkp32):
        a = min_kpds(wkp32, 1)
        b = min_kpds(wkp32, 1)
        assert a == b

    def test_budget_exceeded_reports_partial_bound(self):
        g = build_wkp(3, 3)
        with pytest.raises(BudgetExceededError) as exc:
            min_kpds(g, 1, SearchBudget(max_subset_count=100))
        assert exc.value.gamma_exceeds == 1
        assert exc.value.checks_performed == 100

    @pytest.mark.parametrize("cap", [0, -1])
    def test_budget_below_one_is_refused(self, cap):
        with pytest.raises(ParameterDomainError, match="^max_subset_count must be positive$"):
            SearchBudget(cap)
        assert SearchBudget().max_subset_count == exact.DEFAULT_MAX_CHECKS
        assert SearchBudget(1).max_subset_count == 1

    @pytest.mark.parametrize("cap", [0, -1])
    def test_witness_cap_below_one_is_refused(self, wkp32, cap):
        # A result promises a witness, which cli's exact reads as witnesses[0].
        with pytest.raises(ParameterDomainError, match=f"^witness_cap must be at least 1, got {cap}$"):
            min_kpds(wkp32, 1, witness_cap=cap)
        assert len(min_kpds(wkp32, 1, witness_cap=1).witnesses) == 1

    def test_json_shape(self, capsys):
        assert cli.main(["exact", "--C", "3", "--L", "2", "--k", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma"] == 2
        assert doc["witness"] == ["(1,(0))", "(1,(1))"]
        assert doc["exhausted"] is True
        assert set(doc) == {"C", "L", "k", "gamma", "witness", "radius",
                            "exhausted", "checks_performed"}


class TestRadius:
    def test_two_level_small_k(self, wkp32):
        assert propagation_radius(wkp32, 1) == 3

    def test_two_level_large_k(self, wkp32):
        assert propagation_radius(wkp32, 3) == 2

    def test_path(self):
        assert propagation_radius(build_wkp(1, 4), 1) == 2

    def test_partial_enumeration_after_gamma_found(self, wkp32):
        # gamma gets certified mid-level, but the radius needs the whole level
        result = min_kpds(wkp32, 1, SearchBudget(max_subset_count=30))
        assert result.gamma == 2
        assert not result.exhausted
        with pytest.raises(BudgetExceededError,
                           match=r"^needs every size-2 set enumerated; budget ran out$"):
            propagation_radius(wkp32, 1, SearchBudget(max_subset_count=30))


class TestLevel1Intersection:
    """Criterion 8's rows: every minimum k-PDS of WKP(C, 2) meets level 1."""

    @staticmethod
    def rows(monkeypatch, cases, budget=None):
        monkeypatch.setattr(report, "LEVEL1_CASES", cases)
        return list(report._rows_level1(budget or SearchBudget()))

    @pytest.mark.parametrize("C,k", [(3, 1), (4, 2)])
    def test_holds(self, monkeypatch, C, k):
        [row] = self.rows(monkeypatch, ((C, k),))
        assert (row.status, row.computed) == ("match", "True")

    @pytest.mark.parametrize("C,k", [(3, 1), (4, 2)])
    def test_single_pass_fits_the_search_budget(self, monkeypatch, C, k):
        # the row sweeps the optimal level once, inside min_kpds's own checks
        budget = SearchBudget(max_subset_count=min_kpds(build_wkp(C, 2), k).checks_performed)
        [row] = self.rows(monkeypatch, ((C, k),), budget)
        assert row.ok

    def test_budget_runs_out_inside_the_gamma_level(self, monkeypatch):
        # gamma=2 is found at check 26, but the 78 pairs are not all checked
        with pytest.raises(BudgetExceededError,
                           match=r"^needs every size-2 set enumerated; budget ran out$"):
            self.rows(monkeypatch, ((3, 1),), SearchBudget(max_subset_count=30))

    def test_one_whole_level_search_per_case(self, monkeypatch):
        real, results = report.min_kpds, []

        def recorded(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(report, "min_kpds", recorded)
        rows = list(report._rows_level1(SearchBudget(91)))
        assert [r.status for r in rows] == ["match"] * len(report.LEVEL1_CASES)
        assert [r.checks_performed for r in results] == [91, 13, 21]
        assert all(r.exhausted for r in results)
        # every optimal set is kept: the 21 optimal pairs of WKP(3,2) at k=1
        assert len(results[0].witnesses) == len(naive_min_kpds(build_wkp(3, 2), 1)[1]) == 21
        with pytest.raises(BudgetExceededError):
            list(report._rows_level1(SearchBudget(90)))


@pytest.mark.parametrize("C,L", list(small_wkp_cases()))
@pytest.mark.parametrize("k", [0, 1, 2])
def test_solver_agrees_with_full_subset_scan(C, L, k):
    g = build_wkp(C, L)
    gamma, optimal, radius = naive_min_kpds(g, k)
    result = min_kpds(g, k, witness_cap=10_000)
    assert result.gamma == gamma
    assert result.radius == radius
    assert sorted(result.witnesses, key=sorted) == optimal


@pytest.mark.parametrize("C, L, gamma, runs", [
    (1, 11, 4, 1 + 12 + 66 + 220 + 495),  # the path on 12 vertices
    (2, 2, 2, 1 + 7 + 21),
])
def test_subset_scan_runs_each_subset_once_up_to_gamma(monkeypatch, C, L, gamma, runs):
    # Every subset of each size up to gamma is run once, larger ones never,
    # and an optimal set's radius comes from that same run.
    real = reference._rounds
    seeds, tables = [], []

    def counted(closed, k, S):
        seeds.append(frozenset(S))
        tables.append(closed)
        return real(closed, k, S)

    monkeypatch.setattr(reference, "_rounds", counted)
    assert naive_min_kpds(build_wkp(C, L), 0)[0] == gamma
    assert len(seeds) == len(set(seeds)) == runs
    assert max(map(len, seeds)) == gamma
    # Every run reads the one table of closed neighbourhoods built for the call.
    assert all(table is tables[0] for table in tables)


@pytest.mark.parametrize("module", [constructions, propagation, exact, reference, forts],
                         ids=lambda module: module.__name__.rpartition(".")[2])
def test_lower_layer_imports_no_wkpdom_module_but_topology(module):
    # The layers below the report hold for any graph and share no code with
    # one another: the oracle checks the engine and the solver, and the
    # solver knows no claim of the paper.
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                imported |= ({node.module} if node.module else
                             {alias.name for alias in node.names})
            elif node.module.split(".")[0] == "wkpdom":
                imported.add(node.module.partition(".")[2] or "wkpdom")
        elif isinstance(node, ast.Import):
            imported |= {alias.name.partition(".")[2] or "wkpdom" for alias in node.names
                         if alias.name.split(".")[0] == "wkpdom"}
    assert imported == {"topology"}


@pytest.mark.parametrize("module", [exact, propagation])
def test_solver_and_engine_import_no_output_code(module):
    # The printed forms are the command line's: the solver and the engine
    # compute answers and never encode them.
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert imported.isdisjoint({"json", "quoted_line", "address_list"})


def test_first_min_kpds_stops_at_the_first_minimum_set():
    # WKP(3,3) at k=1: after the 40 + 780 smaller sets, (4, 7, 11) is the
    # 2,811th set of size 3, so the search needs exactly 3,631 checks.
    g = build_wkp(3, 3)
    assert first_min_kpds(g, 1, SearchBudget(3631)) == (4, 7, 11)
    with pytest.raises(BudgetExceededError) as exc:
        first_min_kpds(g, 1, SearchBudget(3630))
    assert (exc.value.gamma_exceeds, exc.value.checks_performed) == (2, 3630)


GAMMA_AGREEMENT_CASES = [
    (1, 4, 1), (1, 4, 2),
    (2, 2, 1), (2, 2, 2),
    (3, 2, 1), (3, 2, 2), (3, 2, 3),
    (4, 2, 1), (4, 2, 2), (4, 2, 3),
    (5, 2, 1),
    (3, 3, 1), (3, 3, 2), (3, 3, 3),
    (2, 3, 1), (2, 3, 2),
    (2, 4, 1),
]


@pytest.mark.parametrize("C,L,k", GAMMA_AGREEMENT_CASES)
def test_gamma_formula_agrees_with_solver(C, L, k):
    value, exact = gamma_formula(C, L, k)
    gamma = min_kpds(build_wkp(C, L), k).gamma
    if exact:
        assert gamma == value
    else:
        assert gamma <= value


def steps_of_size(g, k, size):
    """Each k-PDS of ``size`` with the step its search check gives it."""
    return dict(_covering_sets(g, k, range(size, size + 1), None, None))


@pytest.mark.parametrize("C,k", [(4, 1), (3, 1), (3, 2)])
def test_stored_later_rounds_agree_with_fresh_kernel(C, k):
    g = build_wkp(C, 3)
    masks, full = _closed_masks(g)
    steps = steps_of_size(g, k, 3)
    for S in itertools.combinations(range(g.n), 3):
        P = functools.reduce(operator.or_, (masks[v] for v in S))
        assert steps.get(S) == _bit_step(masks, full, k, P, P, {}), S


def test_later_rounds_store_is_bounded():
    # 30,000 checks on WKP(4,5) at k=1, where gamma is 128, are all on sets of
    # size 1 and 2 and reach 11,594 distinct round-1 sets of 1,365 bits.
    # Kept to LATER_ROUNDS_CAP of them the search peaks near 1.1 MiB; kept
    # all, it would peak near 2.7 MiB.
    g = build_wkp(4, 5)
    assert exact.LATER_ROUNDS_CAP < 11_594
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(BudgetExceededError) as exc:
            min_kpds(g, 1, SearchBudget(max_subset_count=30_000))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (exc.value.gamma_exceeds, exc.value.checks_performed) == (1, 30_000)
    assert peak < 2 * 2 ** 20


def test_long_run_keeps_its_first_sets_within_the_cap(monkeypatch):
    # From the end of the path WKP(1, 10) at k=1 a run passes nine sets
    # before coverage; with room for three, the store is emptied and keeps
    # the first three, each with its own count.
    g = build_wkp(1, 10)
    masks, full = _closed_masks(g)
    monkeypatch.setattr(exact, "LATER_ROUNDS_CAP", 3)
    store = {1: None}
    assert _bit_step(masks, full, 1, masks[0], masks[0], store) == 9
    assert store == {(1 << t + 2) - 1: 9 - t for t in range(3)}


def combinations_stop(n, budget):
    """``(gamma_exceeds, checks_performed)`` of a budget stop in ``combinations`` order."""
    checks = 0
    for size in range(1, n + 1):
        for _ in itertools.combinations(range(n), size):
            if checks == budget:
                return size - 1, checks
            checks += 1
    raise AssertionError("the budget covers every subset")


@pytest.mark.parametrize("budget", [1, 40, 41, 820, 821, 10_699])
def test_budget_stops_follow_combinations_order(budget):
    # WKP(3,3) has 40 vertices: the budgets stop at the first set, at both
    # sides of the size-1 and size-2 ends (40 and 820 checks), and one
    # check before gamma's level of 9,880 sets is complete.
    g = build_wkp(3, 3)
    with pytest.raises(BudgetExceededError) as exc:
        list(_covering_sets(g, 1, range(1, g.n + 1), SearchBudget(budget), None))
    assert (exc.value.gamma_exceeds, exc.value.checks_performed) == combinations_stop(g.n, budget)


@pytest.mark.parametrize("interval", [exact.PROGRESS_INTERVAL, 37])
def test_progress_calls_follow_combinations_order(interval, monkeypatch):
    # One call every ``interval`` checks, counted across sizes, with the
    # count done inside the current size; 37 puts calls at every offset
    # into a prefix's run of last seeds.
    g = build_wkp(3, 3)
    monkeypatch.setattr(exact, "PROGRESS_INTERVAL", interval)
    calls = []
    assert min_kpds(g, 1, progress=lambda *call: calls.append(call)).gamma == 3
    want, checks = [], 0
    for size in (1, 2, 3):
        total = math.comb(g.n, size)
        for done, _ in enumerate(itertools.combinations(range(g.n), size), 1):
            checks += 1
            if checks % interval == 0:
                want.append((size, done, total))
    assert calls == want
