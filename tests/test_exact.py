import functools
import itertools
import operator
import tracemalloc

import pytest

from wkpdom import (
    BudgetExceededError,
    RegimeError,
    SearchBudget,
    build_wkp,
    exact,
    exact_result_to_json,
    format_address,
    gamma_formula,
    is_kpds,
    level1_intersection_check,
    min_kpds,
    propagation_radius,
)
from wkpdom.exact import _bit_step, _closed_masks, _covering_sets
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

    def test_json_shape(self, wkp32):
        doc = exact_result_to_json(wkp32, 1, min_kpds(wkp32, 1))
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
                           match=r"^radius needs every size-2 set enumerated; budget ran out$"):
            propagation_radius(wkp32, 1, SearchBudget(max_subset_count=30))


class TestLevel1Intersection:
    @pytest.mark.parametrize("C,k", [(3, 1), (4, 2)])
    def test_holds(self, C, k):
        assert level1_intersection_check(build_wkp(C, 2), k)

    @pytest.mark.parametrize("C,k", [(3, 1), (4, 2)])
    def test_single_pass_fits_the_search_budget(self, C, k):
        # the check sweeps the optimal level once, inside min_kpds's own checks
        g = build_wkp(C, 2)
        budget = SearchBudget(max_subset_count=min_kpds(g, k).checks_performed)
        assert level1_intersection_check(g, k, budget)

    def test_budget_runs_out_inside_the_gamma_level(self, wkp32):
        # gamma=2 is found at check 26, but the 78 pairs are not all checked
        with pytest.raises(BudgetExceededError,
                           match=r"^needs every size-2 set enumerated; budget ran out$"):
            level1_intersection_check(wkp32, 1, SearchBudget(max_subset_count=30))

    def test_regime_guard(self, wkp32):
        with pytest.raises(RegimeError):
            level1_intersection_check(wkp32, 3)  # k >= C
        with pytest.raises(RegimeError):
            level1_intersection_check(build_wkp(2, 2), 1)  # C < 3
        with pytest.raises(RegimeError):
            level1_intersection_check(build_wkp(3, 3), 1)  # L != 2


@pytest.mark.parametrize("C,L", list(small_wkp_cases()))
@pytest.mark.parametrize("k", [0, 1, 2])
def test_solver_agrees_with_full_subset_scan(C, L, k):
    g = build_wkp(C, L)
    gamma, optimal, radius = naive_min_kpds(g, k)
    result = min_kpds(g, k, witness_cap=10_000)
    assert result.gamma == gamma
    assert result.radius == radius
    assert sorted(result.witnesses, key=sorted) == optimal


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
        assert steps.get(S) == _bit_step(masks, full, k, P, P), S


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
