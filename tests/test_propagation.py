import functools
import itertools
import json
import math
import operator
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkpdom import (
    APEX,
    BudgetExceededError,
    ParameterDomainError,
    MonitorTrace,
    RegimeError,
    SearchBudget,
    build_wk,
    build_wkp,
    construct_kpds,
    exact,
    first_min_kpds,
    format_address,
    is_kpds,
    min_kpds,
    propagate_fixpoint,
    radius_of_set,
)
from wkpdom.exact import _bit_step, _closed_masks, _covering_sets
from wkpdom.cli import json_text, trace_fields
from wkpdom.reference import (
    naive_fixpoint_rounds,
    naive_fixpoint_runs,
    naive_is_kpds,
    naive_min_kpds,
    naive_radius,
    naive_round,
)

GRAPHS = [build_wkp(3, 2), build_wkp(2, 3)]

seed_sets = st.sets(st.integers(min_value=0, max_value=12), max_size=4)
ks = st.integers(min_value=0, max_value=3)


def ordinals(g, addresses):
    return [g.ordinal(a) for a in addresses]


def trace_to_json(g, trace):
    """The trace as {k, seed, rounds, radius}, read back from its JSON text."""
    return json.loads("".join(json_text(trace_fields(g, trace))))


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
            seeds.append(sorted(construct_kpds(C, L, k)[0]))
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

    @pytest.mark.parametrize("seed", [[True], [1.0], ["1"], [1, True], [True, 1]])
    def test_a_seed_that_is_not_an_int(self, wkp32, seed):
        with pytest.raises(ParameterDomainError, match="is not a vertex ordinal"):
            propagate_fixpoint(wkp32, 1, seed)

    @pytest.mark.parametrize("k", [2.5, True, "2"])
    def test_a_k_that_is_not_an_int(self, k):
        # No count ever equals a k of 2.5, so the round loop would stop uncovered after 8 rounds.
        g = build_wkp(3, 3)
        assert propagate_fixpoint(g, 2, [36, 4]).round_count == 9
        with pytest.raises(ParameterDomainError, match="^k must be an int, got "):
            propagate_fixpoint(g, k, [36, 4])


class TestRound:
    def test_zero_allowance_blocks_single_gap(self):
        # (1,(0)) has exactly one unmonitored neighbor here; k=0 may not extend
        g = build_wkp(1, 4)
        seed = [g.ordinal(APEX)]
        P0 = naive_fixpoint_rounds(g, 0, seed)[0]
        assert propagate_fixpoint(g, 0, seed).rounds[1] == P0
        assert propagate_fixpoint(g, 1, seed).rounds[1] > P0

    def test_level2_seed_first_round(self, wkp52):
        S = sorted(construct_kpds(5, 2, 1)[0])
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
        S = sorted(construct_kpds(5, 2, 1)[0])
        trace = propagate_fixpoint(wkp52, 1, S)
        assert len(trace.rounds) == 3
        assert trace.rounds[2] == frozenset(range(wkp52.n))

    def test_first_step_on_a_path(self):
        g = build_wkp(1, 4)  # path on 5 vertices, apex at one end
        trace = propagate_fixpoint(g, 1, [g.ordinal(APEX)])
        assert list(trace.first_step) == [0, 0, 1, 2, 3]

    @pytest.mark.parametrize("g", GRAPHS, ids=["wkp32", "wkp23"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_naive_runs_equal_one_call_per_seed(self, g, k):
        seeds = [{v} for v in range(g.n)] + [{0, v} for v in range(1, g.n)] + [set()]
        runs = list(naive_fixpoint_runs(g, k, seeds))
        assert runs == [naive_fixpoint_rounds(g, k, seed) for seed in seeds]

    @pytest.mark.parametrize("g", GRAPHS, ids=["wkp32", "wkp23"])
    @given(seed=seed_sets, k=ks)
    @settings(max_examples=60, deadline=None)
    def test_rounds_match_naive_and_stay_monotone(self, g, seed, k):
        seed = {v % g.n for v in seed}
        trace = propagate_fixpoint(g, k, seed)
        assert [set(r) for r in trace.rounds] == naive_fixpoint_rounds(g, k, seed)
        assert trace.covered == (math.inf not in trace.first_step) == naive_is_kpds(g, k, seed)
        for a, b in zip(trace.rounds, trace.rounds[1:]):
            assert a <= b
        assert len(trace.rounds) <= g.n + 1

    def test_trace_stores_first_step_only(self, wkp23):
        assert list(MonitorTrace._fields) == ["k", "seed", "first_step", "round_count",
                                              "covered"]
        trace = propagate_fixpoint(wkp23, 1, [wkp23.ordinal(APEX)])
        rounds = tuple(trace.rounds)
        assert trace.rounds == rounds and rounds == trace.rounds
        assert len(trace.rounds) == trace.round_count == len(rounds)
        assert trace.rounds[-1] == rounds[-1] and trace.rounds[1:] == rounds[1:]
        assert trace.rounds[::-2] == rounds[::-2] and trace.rounds[-2:99] == rounds[-2:99]
        for i in (len(rounds), -len(rounds) - 1):
            with pytest.raises(IndexError):
                trace.rounds[i]

    @pytest.mark.parametrize("prop", [propagate_fixpoint, radius_of_set])
    def test_work_is_linear_in_graph_size_not_rounds(self, prop):
        # The WKP(3,7) k=2 spine needs 127 rounds; every round re-examining
        # all monitored vertices would read about 127 * n / 2 rows.
        g = build_wkp(3, 7)
        S = sorted(construct_kpds(3, 7, 2)[0])
        g.adjacency = rows = CountingRows(g.adjacency)
        result = prop(g, 2, S)
        assert (result.round_count if prop is propagate_fixpoint else result) == 127
        assert 0 < rows.reads <= 2 * (g.n + 2 * g.edge_count)

    def test_round_zero_counts_from_the_smaller_side(self):
        # N[S] of the WKP(4,7) k=1 set covers 13,904 of 21,845 vertices, so
        # round 0's counts read the 7,941 rows outside it; counting N[S] out
        # of every degree read 39,000 rows in all.
        g = build_wkp(4, 7)
        S = sorted(construct_kpds(4, 7, 1)[0])
        g.adjacency = rows = CountingRows(g.adjacency)
        trace = propagate_fixpoint(g, 1, S)
        outside = g.n - trace.first_step.count(0)
        assert trace.covered and 2 * outside < g.n
        assert rows.reads < 39_000
        assert rows.reads <= len(S) + 2 * outside + min(g.n, 2 * g.edge_count)

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
            step = _bit_step(masks, full, k, P, P, {})
            assert radius_of_set(g, k, S) == radius
            assert propagate_fixpoint(g, k, S).radius == radius
            assert (math.inf if step is None else 1 + step) == radius
            assert [set(r) for r in propagate_fixpoint(g, k, S).rounds] == rounds


def half_seed_sets(g, order):
    """Seed sets around |N[S]| = n/2: (below, half, above).

    Vertices join in ``order`` unless N[S] would pass n/2.  ``below`` is the
    last set on the way whose 2|N[S]| < n; ``half`` is the final set, with
    2|N[S]| <= n, equal where that order reaches it; ``above`` holds
    ``half`` plus each vertex that was turned away, each with 2|N[S]| > n.
    """
    S, closed, below, above = [], set(), [], []
    for v in order:
        grown = closed | {v, *g.adjacency[v]}
        if 2 * len(grown) > g.n:
            above.append(S + [v])
            continue
        if 2 * len(grown) < g.n:
            below = S + [v]
        S, closed = S + [v], grown
    return below, S, above


@pytest.mark.parametrize("family,C,L", list(small_graphs()))
def test_both_sides_of_half_agree_with_reference(family, C, L):
    # Round 0's counts start from all degrees when 2|N[S]| <= n and from
    # zero otherwise; both must give the naive rounds, also on S = V.
    # Ordinals join from the apex down and from the last level up.
    g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
    for order in (range(g.n), range(g.n - 1, -1, -1)):
        below, half, above = half_seed_sets(g, order)
        for k in range(4):
            for S in [below, half, *above, range(g.n)]:
                trace = propagate_fixpoint(g, k, S)
                assert [set(r) for r in trace.rounds] == naive_fixpoint_rounds(g, k, S)
                assert trace.radius == naive_radius(g, k, S)


def test_half_seed_sets_reach_both_sides():
    # Some graph has N[S] at exactly half, and for every k some run from
    # above half stalls, so the counts from zero meet a fixpoint too.
    at_half, stalled = 0, set()
    for family, C, L in small_graphs():
        g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
        _, half, above = half_seed_sets(g, range(g.n))
        at_half += 2 * len(set(half).union(*(g.adjacency[v] for v in half))) == g.n
        stalled |= {k for k in range(4) for S in above
                    if not propagate_fixpoint(g, k, S).covered}
    assert at_half and stalled == {0, 1, 2, 3}


@pytest.mark.parametrize("family,C,L", list(small_graphs(40)))
def test_stored_later_rounds_agree_with_reference(family, C, L, monkeypatch):
    # Lexicographic order reaches each round-1 set many times, so most
    # checks read their later rounds from the store; every verdict and step
    # must still be the naive one.  A run stores every set it passes, so no
    # run starts from a set that an earlier run stored, and there are at
    # most as many runs as distinct round-1 sets that grew.
    g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
    runs = []
    stored = set()

    def counting_step(*args):
        assert args[3] not in stored
        runs.append(args[3])
        rest = _bit_step(*args)
        stored.update(args[5])
        return rest

    monkeypatch.setattr(exact, "_bit_step", counting_step)
    for k in range(4):
        for size in (1, 2):
            if size > g.n:
                continue
            runs.clear()
            stored.clear()
            steps = dict(_covering_sets(g, k, range(size, size + 1), None, None))
            grown = set()
            for S in itertools.combinations(range(g.n), size):
                step = steps.get(S)
                assert (math.inf if step is None else 1 + step) == naive_radius(g, k, S), S
                rounds = naive_fixpoint_rounds(g, k, S)
                if len(rounds) > 1 and rounds[1] != rounds[0]:
                    grown.add(frozenset(rounds[1]))
            assert len(runs) == len(set(runs)) <= len(grown)


@pytest.mark.parametrize("family,C,L", list(small_graphs(40)))
def test_first_min_kpds_is_the_first_optimal_witness(family, C, L):
    # Under one budget both searches stop at the same check while gamma is
    # still open, and otherwise agree on the first witness.  50,000 checks
    # stop seven searches before gamma: k=0 on WKP(2,4), WKP(3,3), WKP(5,2),
    # WK(2,5), WK(3,3) and WK(6,2), and k=1 on WK(6,2), each needing from
    # 0.2 to over 2 million checks, which would take seconds apiece.
    g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
    budget = SearchBudget(50_000)
    for k in sorted({0, 1, 2, C - 1}):
        try:
            result = min_kpds(g, k, budget)
        except BudgetExceededError as exc:
            with pytest.raises(BudgetExceededError) as mine:
                first_min_kpds(g, k, budget)
            assert ((mine.value.gamma_exceeds, mine.value.checks_performed)
                    == (exc.gamma_exceeds, exc.checks_performed))
            continue
        first = first_min_kpds(g, k, budget)
        assert first == tuple(sorted(result.witnesses[0]))
        assert len(first) == result.gamma
        if g.n <= 12:
            assert frozenset(first) == naive_min_kpds(g, k)[1][0]


@pytest.mark.parametrize("family,C,L,k", [
    ("wkp", 3, 3, 1), ("wkp", 3, 3, 2), ("wkp", 2, 4, 1), ("wkp", 2, 4, 2),
    ("wk", 3, 3, 1), ("wk", 2, 5, 1), ("wkp", 4, 2, 3),
])
def test_every_stored_set_holds_its_naive_round_count(family, C, L, k, monkeypatch):
    # The store keeps each set a run passed, not only the round-1 set it
    # started from; the count kept for a set must be the number of naive
    # rounds from it to coverage, or None where the rounds stall.
    g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
    stores = []

    def capturing_step(*args):
        stores.append(args[5])
        return _bit_step(*args)

    monkeypatch.setattr(exact, "_bit_step", capturing_step)
    exact.min_kpds(g, k)
    # One store serves the whole search; each run stores at least the set
    # it started from, and no store here reaches the cap.
    assert stores and all(store is stores[0] for store in stores)
    assert len(stores) <= len(stores[0]) < exact.LATER_ROUNDS_CAP
    for bits, count in stores[0].items():
        P = {v for v in range(g.n) if bits >> v & 1}
        rounds = 0
        while len(P) < g.n:
            nxt = naive_round(g, k, P)
            if nxt == P:
                rounds = None
                break
            rounds += 1
            P = nxt
        assert count == rounds


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
        assert radius_of_set(wkp52, 1, sorted(construct_kpds(5, 2, 1)[0])) == 3

    def test_non_pds_is_never(self, wkp32):
        assert math.isinf(radius_of_set(wkp32, 1, [wkp32.ordinal(APEX)]))


class TestCertificates:
    def test_certificate_fields(self, wkp32):
        S = sorted(construct_kpds(3, 2, 1)[0])
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


#: Larger graphs and the k of the closed-form set whose trace they are tested
#: on: the general set of WKP(3,5) at k=1, the spine of WKP(4,4) at k=3 and
#: the apex of the path WKP(1,12) at k=1.  Their rounds are many long runs of
#: ordinals, and the runs cross level boundaries, where literal widths
#: change; WKP(1,12)'s cross from level 9 into the two-digit levels.
LONG_RUNS = {("wkp", 3, 5): 1, ("wkp", 4, 4): 3, ("wkp", 1, 12): 1}


@pytest.mark.parametrize("family,C,L", list(small_graphs()) + list(LONG_RUNS))
def test_trace_json_rounds_list_every_round(family, C, L):
    """Each JSON round lists the addresses of ``trace.rounds[i]`` in ordinal order."""
    g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
    if (family, C, L) in LONG_RUNS:
        k = LONG_RUNS[family, C, L]
        runs = [(k, sorted(construct_kpds(C, L, k)[0]))]
    else:
        seeds = [[], range(g.n)] + [[v] for v in range(g.n)]
        runs = [(k, S) for k in sorted({0, 1, C - 1}) for S in seeds]
    outcomes = set()
    for k, S in runs:
        trace = propagate_fixpoint(g, k, S)
        outcomes.add(trace.covered)
        assert trace_to_json(g, trace)["rounds"] == [
            [format_address(g.address(v)) for v in sorted(r)] for r in trace.rounds]
    assert outcomes == ({True} if (family, C, L) in LONG_RUNS else {True, False})


def test_trace_encoding_holds_no_literal_per_vertex():
    # WKP(4,7) at k=3: 127 rounds of up to 21,845 addresses.  Encoding holds
    # one quoted line of all the literals, its offsets and one round's text
    # at a time, about 2.6 MiB; a list of 21,845 literal strings alone would
    # add about 1.4 MiB.
    g = build_wkp(4, 7)
    trace = propagate_fixpoint(g, 3, sorted(construct_kpds(4, 7, 3)[0]))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in json_text(trace_fields(g, trace)):
            pass
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3.4 * 2 ** 20
