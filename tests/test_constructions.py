import json
from pathlib import Path

import pytest

from wkpdom import (
    APEX,
    ConstructionError,
    GammaValue,
    ParameterDomainError,
    RegimeError,
    RegimeTag,
    build_wk,
    build_wkp,
    construct_kpds,
    constructions,
    gamma_formula,
    ham_cycle_wk,
    is_kpds,
    regime_of,
)

#: ham_cycle_wk(C, m) for C in 3..5 and m in 1..3, digit strings in cyclic order.
HAM_CYCLES = Path(__file__).parent / "data" / "ham_cycles.json"


def ordinals(g, addresses):
    return [g.ordinal(a) for a in addresses]


class TestRegimes:
    @pytest.mark.parametrize("C,L,k,tag", [
        (5, 2, 1, RegimeTag.LEVEL2),
        (1, 7, 1, RegimeTag.TRIVIAL_ONE),
        (3, 4, 2, RegimeTag.K_EQ_C_MINUS_1_UPPER),
        (4, 1, 1, RegimeTag.TRIVIAL_ONE),
        (3, 3, 3, RegimeTag.TRIVIAL_ONE),
        (4, 5, 2, RegimeTag.GENERAL),
        (2, 2, 1, RegimeTag.LEVEL2),
        (2, 6, 1, RegimeTag.K_EQ_C_MINUS_1_UPPER),
    ])
    def test_classification(self, C, L, k, tag):
        assert regime_of(C, L, k) is tag

    def test_zero_k_rejected(self):
        with pytest.raises(RegimeError):
            regime_of(3, 3, 0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ParameterDomainError):
            regime_of(0, 3, 1)
        with pytest.raises(ParameterDomainError, match=r"^k must be >= 0, got -1$"):
            regime_of(3, 3, -1)

    def test_regimes_cover_and_exclude(self):
        # exactly one regime per parameter point, matching its defining bounds
        for C in range(1, 7):
            for L in range(1, 7):
                for k in range(1, 9):
                    tag = regime_of(C, L, k)
                    trivial = C == 1 or L == 1 or k >= C
                    level2 = not trivial and L == 2
                    kc1 = not trivial and L >= 3 and k == C - 1
                    general = not trivial and L >= 3 and k <= C - 2
                    assert [trivial, level2, kc1, general].count(True) == 1
                    expected = {
                        (True, False, False, False): RegimeTag.TRIVIAL_ONE,
                        (False, True, False, False): RegimeTag.LEVEL2,
                        (False, False, True, False): RegimeTag.K_EQ_C_MINUS_1_UPPER,
                        (False, False, False, True): RegimeTag.GENERAL,
                    }[(trivial, level2, kc1, general)]
                    assert tag is expected


class TestGammaFormula:
    @pytest.mark.parametrize("C,L,k,value,exact", [
        (5, 2, 1, 4, True),
        (3, 3, 1, 3, True),
        (2, 5, 1, 2, False),
        (1, 9, 1, 1, True),
        (4, 4, 2, 16, True),
        (3, 6, 2, 3, False),
    ])
    def test_values(self, C, L, k, value, exact):
        assert gamma_formula(C, L, k) == (value, exact)

    def test_json_shape(self):
        assert gamma_formula(5, 2, 1).to_json() == {"exact": 4}
        assert gamma_formula(2, 5, 1).to_json() == {"upper_bound": 2}


class TestTrivialConstruction:
    @pytest.mark.parametrize("C,L,k", [(3, 4, 3), (1, 5, 1), (4, 1, 1)])
    def test_apex_singleton(self, C, L, k):
        S = construct_kpds(C, L, k)[0]
        assert S == {APEX}
        g = build_wkp(C, L)
        assert is_kpds(g, k, ordinals(g, S))


class TestLevel2Construction:
    def test_black_vertices_of_the_figure(self):
        assert construct_kpds(5, 2, 1)[0] == {(i,) for i in (1, 2, 3, 4)}

    def test_single_vertex_when_k_is_c_minus_1(self):
        assert construct_kpds(3, 2, 2)[0] == {(2,)}

    def test_binary_case_verified(self):
        g = build_wkp(2, 2)
        S = construct_kpds(2, 2, 1)[0]
        assert S == {(1,)}
        assert is_kpds(g, 1, ordinals(g, S))

    @pytest.mark.parametrize("C", [2, 3, 4, 5])
    def test_size_and_validity(self, C):
        g = build_wkp(C, 2)
        for k in range(1, C):
            S = construct_kpds(C, 2, k)[0]
            assert len(S) == C - k
            assert is_kpds(g, k, ordinals(g, S))


class TestHamiltonianCycles:
    def test_triangle(self):
        assert ham_cycle_wk(3, 1) == ((0,), (1,), (2,))

    @pytest.mark.parametrize("C", [3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_cycle_is_valid(self, C, m):
        g = build_wk(C, m)
        order = ham_cycle_wk(C, m)
        assert len(order) == C ** m
        assert sorted(order) == sorted(g.address(i) for i in range(g.n))
        for t, w in enumerate(order):
            succ = order[(t + 1) % len(order)]
            assert g.has_edge(g.ordinal(w), g.ordinal(succ))

    @pytest.mark.parametrize("C", [3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_cycle_order_is_pinned(self, C, m):
        # construct_kpds's general set picks its vertices along this order.
        golden = json.loads(HAM_CYCLES.read_text())[f"{C},{m}"]
        assert ham_cycle_wk(C, m) == tuple(tuple(map(int, w)) for w in golden)

    @pytest.mark.parametrize("C", [1, 2])
    def test_small_alphabet_rejected(self, C):
        with pytest.raises(ParameterDomainError):
            ham_cycle_wk(C, 2)


class TestGeneralConstruction:
    def test_three_blocks_one_vertex_each(self):
        g = build_wkp(3, 3)
        S = construct_kpds(3, 3, 1)[0]
        assert len(S) == 3
        assert all(len(a) == 2 for a in S)
        assert is_kpds(g, 1, ordinals(g, S))

    @pytest.mark.parametrize("C,L,k,size", [(4, 3, 1, 8), (4, 3, 2, 4)])
    def test_sizes_verified(self, C, L, k, size):
        g = build_wkp(C, L)
        S = construct_kpds(C, L, k)[0]
        assert len(S) == size
        assert is_kpds(g, k, ordinals(g, S))

    def test_desk_scale_sweep(self):
        # size formula and validity wherever the regime applies with <= 2000 vertices
        for C in range(3, 6):
            for L in (3, 4):
                if 1 + sum(C ** r for r in range(1, L + 1)) > 2000:
                    continue
                g = build_wkp(C, L)
                for k in range(1, C - 1):
                    S = construct_kpds(C, L, k)[0]
                    assert len(S) == (C - k - 1) * C ** (L - 2)
                    assert is_kpds(g, k, ordinals(g, S))

    def test_bridge_cliques_are_distinct_per_block(self):
        # each block's incoming and outgoing bridges attach at different cliques
        from wkpdom.topology import block_bridge

        for C, L in ((3, 3), (4, 3), (3, 4)):
            cycle = ham_cycle_wk(C, L - 2)
            for t, block in enumerate(cycle):
                edge_in = block_bridge(cycle[t - 1], block, C)
                edge_out = block_bridge(block, cycle[(t + 1) % len(cycle)], C)
                attach = [digits[-1] for edge in (edge_in, edge_out) for digits in edge
                          if digits[: L - 2] == block]
                assert len(attach) == 2 and attach[0] != attach[1]


class TestSpineConstruction:
    def test_case_multiple_of_three(self):
        assert construct_kpds(2, 3, 1)[0] == {(0, 0), APEX}

    def test_case_remainder_one(self):
        assert construct_kpds(3, 4, 2)[0] == {(0, 0, 0), (0,)}

    def test_case_remainder_two(self):
        assert construct_kpds(2, 5, 1)[0] == {(0,), (0, 0, 0, 0)}

    @pytest.mark.parametrize("C,L", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3), (2, 6)])
    def test_size_and_validity(self, C, L):
        g = build_wkp(C, L)
        S = construct_kpds(C, L, C - 1)[0]
        assert len(S) == (L + 3) // 3
        assert is_kpds(g, C - 1, ordinals(g, S))


class TestDispatcher:
    @pytest.mark.parametrize("C,L,k,tag", [
        (3, 3, 3, "trivial-apex"),
        (4, 2, 2, "level2"),
        (3, 3, 1, "general-hamiltonian"),
        (2, 3, 1, "kc1-case1"),
        (2, 4, 1, "kc1-case2"),
        (2, 5, 1, "kc1-case3"),
    ])
    def test_provenance_tags(self, C, L, k, tag):
        g = build_wkp(C, L)
        S, provenance = construct_kpds(C, L, k)
        assert provenance == tag
        assert is_kpds(g, k, ordinals(g, S))

    def test_every_regime_produces_a_valid_set(self):
        for C in range(1, 6):
            for L in range(1, 5):
                if 1 + sum(C ** r for r in range(1, L + 1)) > 2000:
                    continue
                g = build_wkp(C, L)
                for k in range(1, C + 2):
                    S, _ = construct_kpds(C, L, k)
                    assert is_kpds(g, k, ordinals(g, S))
                    value, exact = gamma_formula(C, L, k)
                    assert len(S) == value

    @pytest.mark.parametrize("C,L,k,tag", [
        (3, 3, 3, "trivial-apex"),
        (4, 2, 2, "level2"),
        (3, 3, 1, "general-hamiltonian"),
        (2, 4, 1, "kc1-case2"),
    ])
    def test_every_set_is_checked_against_the_formula(self, monkeypatch, C, L, k, tag):
        # One size check covers all four regimes: a formula one off is caught.
        assert construct_kpds(C, L, k)[1] == tag
        monkeypatch.setattr(constructions, "gamma_formula",
                            lambda *a: GammaValue(gamma_formula(*a).value + 1, True))
        with pytest.raises(ConstructionError, match="expected"):
            construct_kpds(C, L, k)
