import pytest

from wkpdom import (
    APEX,
    Address,
    ParameterDomainError,
    RegimeError,
    RegimeTag,
    build_wk,
    build_wkp,
    construct_general,
    construct_kc1,
    construct_kpds,
    construct_level2,
    construct_trivial,
    gamma_formula,
    ham_cycle_wk,
    is_kpds,
    regime_of,
)


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
        S = construct_trivial(C, L, k)
        assert S == {APEX}
        g = build_wkp(C, L)
        assert is_kpds(g, k, ordinals(g, S))

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            construct_trivial(3, 2, 1)


class TestLevel2Construction:
    def test_black_vertices_of_the_figure(self):
        assert construct_level2(5, 1) == {Address(1, (i,)) for i in (1, 2, 3, 4)}

    def test_single_vertex_when_k_is_c_minus_1(self):
        assert construct_level2(3, 2) == {Address(1, (2,))}

    def test_binary_case_verified(self):
        g = build_wkp(2, 2)
        S = construct_level2(2, 1)
        assert S == {Address(1, (1,))}
        assert is_kpds(g, 1, ordinals(g, S))

    @pytest.mark.parametrize("C", [2, 3, 4, 5])
    def test_size_and_validity(self, C):
        g = build_wkp(C, 2)
        for k in range(1, C):
            S = construct_level2(C, k)
            assert len(S) == C - k
            assert is_kpds(g, k, ordinals(g, S))

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            construct_level2(1, 1)
        with pytest.raises(RegimeError):
            construct_level2(3, 3)


class TestHamiltonianCycles:
    def test_triangle(self):
        assert ham_cycle_wk(3, 1) == ((0,), (1,), (2,))

    @pytest.mark.parametrize("C", [3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_cycle_is_valid(self, C, m):
        g = build_wk(C, m)
        order = ham_cycle_wk(C, m)
        assert len(order) == C ** m
        assert sorted(order) == sorted(a.digits for a in g.vertices)
        for t, w in enumerate(order):
            succ = order[(t + 1) % len(order)]
            assert g.has_edge(g.ordinal(Address(m, w)), g.ordinal(Address(m, succ)))

    @pytest.mark.parametrize("C", [1, 2])
    def test_small_alphabet_rejected(self, C):
        with pytest.raises(ParameterDomainError):
            ham_cycle_wk(C, 2)


class TestGeneralConstruction:
    def test_three_blocks_one_vertex_each(self):
        g = build_wkp(3, 3)
        S = construct_general(3, 3, 1)
        assert len(S) == 3
        assert all(a.level == 2 for a in S)
        assert is_kpds(g, 1, ordinals(g, S))

    @pytest.mark.parametrize("C,L,k,size", [(4, 3, 1, 8), (4, 3, 2, 4)])
    def test_sizes_verified(self, C, L, k, size):
        g = build_wkp(C, L)
        S = construct_general(C, L, k)
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
                    S = construct_general(C, L, k)
                    assert len(S) == (C - k - 1) * C ** (L - 2)
                    assert is_kpds(g, k, ordinals(g, S))

    def test_bridge_cliques_are_distinct_per_block(self):
        # each block's incoming and outgoing bridges attach at different cliques
        from wkpdom.topology import crossing_edge

        for C, L in ((3, 3), (4, 3), (3, 4)):
            g = build_wkp(C, L)
            cycle = ham_cycle_wk(C, L - 2)
            for t, block in enumerate(cycle):
                edge_in = crossing_edge(g, cycle[t - 1], block)
                edge_out = crossing_edge(g, block, cycle[(t + 1) % len(cycle)])
                attach = []
                for edge in (edge_in, edge_out):
                    for v in edge:
                        if g.vertices[v].digits[: L - 2] == block:
                            attach.append(g.vertices[v].digits[-1])
                assert len(attach) == 2 and attach[0] != attach[1]

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            construct_general(3, 2, 1)
        with pytest.raises(RegimeError):
            construct_general(4, 3, 3)


class TestSpineConstruction:
    def test_case_multiple_of_three(self):
        assert construct_kc1(2, 3) == {Address(2, (0, 0)), APEX}

    def test_case_remainder_one(self):
        assert construct_kc1(3, 4) == {Address(3, (0, 0, 0)), Address(1, (0,))}

    def test_case_remainder_two(self):
        assert construct_kc1(2, 5) == {Address(1, (0,)), Address(4, (0, 0, 0, 0))}

    @pytest.mark.parametrize("C,L", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3), (2, 6)])
    def test_size_and_validity(self, C, L):
        g = build_wkp(C, L)
        S = construct_kc1(C, L)
        assert len(S) == (L + 3) // 3
        assert is_kpds(g, C - 1, ordinals(g, S))

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            construct_kc1(2, 2)
        with pytest.raises(RegimeError):
            construct_kc1(1, 5)


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
