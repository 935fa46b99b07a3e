import dataclasses
import functools
import itertools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkpdom import (
    APEX,
    ParameterDomainError,
    MonitorTrace,
    RegimeError,
    build_wk,
    build_wkp,
    construct_kpds,
    exact,
    format_address,
    is_kpds,
    propagate_fixpoint,
    radius_of_set,
    trace_to_json,
)
from wkpdom.exact import _bit_step, _closed_masks, _covering_sets
from wkpdom.reference import naive_fixpoint_rounds, naive_is_kpds, naive_radius

GRAPHS = [build_wkp(3, 2), build_wkp(2, 3)]

seed_sets = st.sets(st.integers(min_value=0, max_value=12), max_size=4)
ks = st.integers(min_value=0, max_value=3)


def ordinals(g, addresses):
    return [g.ordinal(a) for a in addresses]


def small_graphs(limit=100):
    """Every WK(C, L) and WKP(C, L) with C <= 10, L <= 6 and at most ``limit`` vertices."""
    for C in range(1, 11):
        for L in range(1, 7):
            if sum(C ** r for r in range(L + 1)) <= limit:
                yield "wkp", C, L
            if C ** L <= limit:
                yield "wk", C, L


def cross_check_seeds(family, C, L, g, k):
    """Every singleton, every pair {0, v}, and the closed-form set where it applies."""
    seeds = [[v] for v in range(g.n)] + [[0, v] for v in range(1, g.n)]
    if family == "wkp":
        try:
            seeds.append(ordinals(g, construct_kpds(C, L, k)[0]))
        except RegimeError:
            pass
    return seeds


class CountingRows(tuple):
    """``adjacency`` that counts how many rows the engine reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


class TestClosedNeighborhood:
    """Round 0 of a run is N[S], the union of N[v] over the seeds v."""

    def test_apex_covers_level_one(self, wkp52):
        out = propagate_fixpoint(wkp52, 1, [wkp52.ordinal(APEX)]).rounds[0]
        assert out == {wkp52.ordinal(APEX)} | set(wkp52.level_ordinals(1))

    def test_empty_seed(self, wkp32):
        assert propagate_fixpoint(wkp32, 1, []).rounds[0] == set()

    def test_everything_absorbs(self, wkp32):
        assert propagate_fixpoint(wkp32, 0, range(wkp32.n)).rounds[0] == set(range(wkp32.n))

    def test_out_of_range_ordinal(self, wkp32):
        with pytest.raises(ParameterDomainError):
            propagate_fixpoint(wkp32, 1, [wkp32.n])


class TestRound:
    def test_zero_allowance_blocks_single_gap(self):
        # (1,(0)) has exactly one unmonitored neighbor here; k=0 may not extend
        g = build_wkp(1, 4)
        seed = [g.ordinal(APEX)]
        P0 = naive_fixpoint_rounds(g, 0, seed)[0]
        assert propagate_fixpoint(g, 0, seed).rounds[1] == P0
        assert propagate_fixpoint(g, 1, seed).rounds[1] > P0

    def test_level2_seed_first_round(self, wkp52):
        S = ordinals(wkp52, construct_kpds(5, 2, 1)[0])
        rounds = propagate_fixpoint(wkp52, 1, S).rounds
        added = {format_address(wkp52.address(v)) for v in rounds[1] - rounds[0]}
        assert added == {"(2,(01))", "(2,(02))", "(2,(03))", "(2,(04))"}

    def test_full_set_is_fixed(self, wkp32):
        trace = propagate_fixpoint(wkp32, 1, range(wkp32.n))
        assert trace.round_count == 1
        assert trace.rounds[0] == frozenset(range(wkp32.n))


class TestFixpoint:
    @pytest.mark.parametrize("C", [2, 3, 5])
    def test_apex_with_large_allowance_on_two_levels(self, C):
        g = build_wkp(C, 2)
        trace = propagate_fixpoint(g, C, [g.ordinal(APEX)])
        assert len(trace.rounds) == 2
        assert trace.rounds[0] == {g.ordinal(APEX)} | set(g.level_ordinals(1))
        assert trace.rounds[1] == frozenset(range(g.n))

    def test_empty_seed_stays_empty(self, wkp32):
        trace = propagate_fixpoint(wkp32, 1, [])
        assert trace.rounds == (frozenset(), frozenset())
        assert all(math.isinf(s) for s in trace.first_step)

    def test_level2_seed_covers_in_two_rounds(self, wkp52):
        S = ordinals(wkp52, construct_kpds(5, 2, 1)[0])
        trace = propagate_fixpoint(wkp52, 1, S)
        assert len(trace.rounds) == 3
        assert trace.rounds[2] == frozenset(range(wkp52.n))

    def test_first_step_on_a_path(self):
        g = build_wkp(1, 4)  # path on 5 vertices, apex at one end
        trace = propagate_fixpoint(g, 1, [g.ordinal(APEX)])
        assert list(trace.first_step) == [0, 0, 1, 2, 3]

    @pytest.mark.parametrize("g", GRAPHS, ids=["wkp32", "wkp23"])
    @given(seed=seed_sets, k=ks)
    @settings(max_examples=60, deadline=None)
    def test_rounds_match_naive_and_stay_monotone(self, g, seed, k):
        seed = {v % g.n for v in seed}
        trace = propagate_fixpoint(g, k, seed)
        assert [set(r) for r in trace.rounds] == naive_fixpoint_rounds(g, k, seed)
        for a, b in zip(trace.rounds, trace.rounds[1:]):
            assert a <= b
        assert len(trace.rounds) <= g.n + 1

    def test_trace_stores_first_step_only(self, wkp23):
        assert [f.name for f in dataclasses.fields(MonitorTrace)] == \
            ["k", "seed", "first_step", "round_count"]
        trace = propagate_fixpoint(wkp23, 1, [wkp23.ordinal(APEX)])
        rounds = tuple(trace.rounds)
        assert trace.rounds == rounds and rounds == trace.rounds
        assert len(trace.rounds) == trace.round_count == len(rounds)
        assert trace.rounds[-1] == rounds[-1] and trace.rounds[1:] == rounds[1:]
        with pytest.raises(IndexError):
            trace.rounds[len(rounds)]

    @pytest.mark.parametrize("prop", [propagate_fixpoint, radius_of_set])
    def test_work_is_linear_in_graph_size_not_rounds(self, prop):
        # The WKP(3,7) k=2 spine needs 127 rounds; every round re-examining
        # all monitored vertices would read about 127 * n / 2 rows.
        g = build_wkp(3, 7)
        S = ordinals(g, construct_kpds(3, 7, 2)[0])
        g.adjacency = rows = CountingRows(g.adjacency)
        result = prop(g, 2, S)
        assert (result.round_count if prop is propagate_fixpoint else result) == 127
        assert 0 < rows.reads <= 2 * (g.n + 2 * g.edge_count)

    @pytest.mark.parametrize("g", GRAPHS, ids=["wkp32", "wkp23"])
    @given(seed=seed_sets, extra=st.integers(min_value=0, max_value=12), k=ks)
    @settings(max_examples=60, deadline=None)
    def test_seed_monotonicity(self, g, seed, extra, k):
        seed = {v % g.n for v in seed}
        bigger = seed | {extra % g.n}
        assert propagate_fixpoint(g, k, seed).rounds[-1] <= \
            propagate_fixpoint(g, k, bigger).rounds[-1]

    @pytest.mark.parametrize("g", GRAPHS, ids=["wkp32", "wkp23"])
    @given(seed=seed_sets, k=ks)
    @settings(max_examples=60, deadline=None)
    def test_k_monotonicity(self, g, seed, k):
        seed = {v % g.n for v in seed}
        assert propagate_fixpoint(g, k, seed).rounds[-1] <= \
            propagate_fixpoint(g, k + 1, seed).rounds[-1]


@pytest.mark.parametrize("family,C,L", list(small_graphs()))
def test_engine_and_exact_kernel_agree_with_reference(family, C, L):
    # The counter loop and the exhaustive search's bit-parallel kernel share
    # no code; both must reproduce the naive set-based rounds.
    g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
    masks, full = _closed_masks(g)
    for k in range(4):
        for S in cross_check_seeds(family, C, L, g, k):
            rounds = naive_fixpoint_rounds(g, k, S)
            radius = naive_radius(g, k, S)
            P = functools.reduce(operator.or_, (masks[v] for v in S))
            step = _bit_step(masks, full, k, P, P)
            assert radius_of_set(g, k, S) == radius
            assert propagate_fixpoint(g, k, S).radius == radius
            assert (math.inf if step is None else 1 + step) == radius
            assert [set(r) for r in propagate_fixpoint(g, k, S).rounds] == rounds


@pytest.mark.parametrize("family,C,L", list(small_graphs(40)))
def test_stored_later_rounds_agree_with_reference(family, C, L, monkeypatch):
    # Lexicographic order reaches each round-1 set many times, so most
    # checks read their later rounds from the store; every verdict and step
    # must still be the naive one, and each distinct round-1 set that grew
    # must run the later rounds exactly once.
    g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
    runs = []

    def counting_step(*args):
        runs.append(args[3])
        return _bit_step(*args)

    monkeypatch.setattr(exact, "_bit_step", counting_step)
    for k in range(4):
        for size in (1, 2):
            if size > g.n:
                continue
            runs.clear()
            steps = dict(_covering_sets(g, k, range(size, size + 1), None, None))
            grown = set()
            for S in itertools.combinations(range(g.n), size):
                step = steps.get(S)
                assert (math.inf if step is None else 1 + step) == naive_radius(g, k, S), S
                rounds = naive_fixpoint_rounds(g, k, S)
                if len(rounds) > 1 and rounds[1] != rounds[0]:
                    grown.add(frozenset(rounds[1]))
            assert len(runs) == len(set(runs)) == len(grown)


@pytest.mark.parametrize("k", [0, 1])
def test_closed_degree_above_255(k):
    # Level-1 vertices of WKP(300, 1) have 301 closed neighbors, more than
    # a byte-sized unmonitored count could hold.
    g = build_wkp(300, 1)
    v = g.level_ordinals(1)[0]
    assert g.degree(v) + 1 == 301
    assert is_kpds(g, k, [v]) == naive_is_kpds(g, k, [v])
    assert radius_of_set(g, k, [v]) == naive_radius(g, k, [v])
    assert [set(r) for r in propagate_fixpoint(g, k, [v]).rounds] == \
        naive_fixpoint_rounds(g, k, [v])


class TestPredicates:
    def test_two_level_one_vertices_suffice(self, wkp32):
        S = ordinals(wkp32, [(1,), (2,)])
        assert is_kpds(wkp32, 1, S)

    def test_apex_alone_fails_at_small_k(self, wkp32):
        assert not is_kpds(wkp32, 1, [wkp32.ordinal(APEX)])

    def test_everything_dominates(self, wkp32):
        assert is_kpds(wkp32, 0, range(wkp32.n))

    @pytest.mark.parametrize("g", GRAPHS, ids=["wkp32", "wkp23"])
    @given(seed=seed_sets)
    @settings(max_examples=60, deadline=None)
    def test_k0_is_domination(self, g, seed):
        seed = {v % g.n for v in seed}
        dominating = naive_fixpoint_rounds(g, 0, seed)[0] == set(range(g.n))
        assert is_kpds(g, 0, seed) == dominating


class TestRadius:
    @pytest.mark.parametrize("C", [2, 3, 4])
    def test_apex_with_large_allowance(self, C):
        g = build_wkp(C, 2)
        assert radius_of_set(g, C, [g.ordinal(APEX)]) == 2

    def test_full_seed_has_radius_one(self, wkp32):
        assert radius_of_set(wkp32, 1, range(wkp32.n)) == 1

    def test_level2_seed(self, wkp52):
        assert radius_of_set(wkp52, 1, ordinals(wkp52, construct_kpds(5, 2, 1)[0])) == 3

    def test_non_pds_is_never(self, wkp32):
        assert math.isinf(radius_of_set(wkp32, 1, [wkp32.ordinal(APEX)]))


class TestCertificates:
    def test_certificate_fields(self, wkp32):
        S = ordinals(wkp32, construct_kpds(3, 2, 1)[0])
        trace = propagate_fixpoint(wkp32, 1, S)
        assert trace.covered
        assert trace.radius == radius_of_set(wkp32, 1, S) == 3
        assert trace.seed == frozenset(S)
        assert trace.radius == 1 + max(s for s in trace.first_step)

    def test_trace_json_round_data(self, wkp32):
        trace = propagate_fixpoint(wkp32, 1, [wkp32.ordinal(APEX)])
        doc = trace_to_json(wkp32, trace)
        assert doc["k"] == 1
        assert doc["seed"] == ["(0,(1))"]
        assert doc["radius"] is None and math.isinf(trace.radius)
        assert doc["rounds"][-1] == doc["rounds"][-2]


@pytest.mark.parametrize("family,C,L", list(small_graphs()))
def test_trace_json_rounds_list_every_round(family, C, L):
    """Each JSON round lists the addresses of ``trace.rounds[i]`` in ordinal order."""
    g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
    seeds = [[], range(g.n)] + [[v] for v in range(g.n)]
    outcomes = set()
    for k in sorted({0, 1, C - 1}):
        for S in seeds:
            trace = propagate_fixpoint(g, k, S)
            outcomes.add(trace.covered)
            assert trace_to_json(g, trace)["rounds"] == [
                [format_address(g.address(v)) for v in sorted(r)] for r in trace.rounds]
    assert outcomes == {True, False}
