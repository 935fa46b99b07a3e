import pytest

from wkpdom import (
    BudgetExceededError,
    RegimeError,
    SearchBudget,
    build_wkp,
    exact_result_to_json,
    gamma_formula,
    is_kpds,
    level1_intersection_check,
    min_kpds,
    propagation_radius,
    verify_lower_bound,
)
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
        first = sorted(str(wkp32.vertices[v]) for v in result.witnesses[0])
        assert first == ["(1,(0))", "(1,(1))"]

    def test_two_level_binary(self):
        assert min_kpds(build_wkp(2, 2), 1).gamma == 1

    def test_three_level_ternary(self):
        result = min_kpds(build_wkp(3, 3), 1)
        assert result.gamma == 3
        assert result.checks_performed == 40 + 780 + 9880

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
        with pytest.raises(BudgetExceededError):
            propagation_radius(wkp32, 1, SearchBudget(max_subset_count=30))


class TestLowerBound:
    def test_two_level(self):
        assert verify_lower_bound(build_wkp(4, 2), 1, 3)

    def test_three_level(self):
        assert verify_lower_bound(build_wkp(3, 3), 1, 3)

    def test_vacuous(self, wkp32):
        assert verify_lower_bound(wkp32, 1, 1)

    def test_false_when_bound_too_high(self, wkp32):
        assert not verify_lower_bound(wkp32, 1, 3)  # gamma is 2

    def test_budget_exceeded(self):
        g = build_wkp(4, 3)
        with pytest.raises(BudgetExceededError) as exc:
            verify_lower_bound(g, 1, 8, SearchBudget(max_subset_count=1000))
        assert exc.value.gamma_exceeds >= 1


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
        with pytest.raises(BudgetExceededError):
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
