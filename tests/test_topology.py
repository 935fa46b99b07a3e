import itertools
import json
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkpdom import (
    APEX,
    AddressParseError,
    ParameterDomainError,
    build_wk,
    build_wkp,
    export,
    extreme_vertices,
    format_address,
    graph_from_json,
    parse_address,
)
from wkpdom.cli import main
from wkpdom import topology
from wkpdom.constructions import _bridge_cliques
from wkpdom.topology import (
    WK,
    WKP,
    PyramidGraph,
    export_pieces,
    quoted_line,
)


def wkp_count(C, L):
    return 1 + sum(C ** r for r in range(1, L + 1))


def sweep_cases(limit=2000, max_L=5):
    for C in range(1, 7):
        for L in range(1, max_L + 1):
            if wkp_count(C, L) <= limit:
                yield "wkp", C, L
            if C ** L <= limit:
                yield "wk", C, L


SWEEP = list(sweep_cases())
#: Every WK and WKP graph with C <= 6, L <= 6 and at most 2,000 vertices.
SWEEP_L6 = list(sweep_cases(max_L=6))
#: Alphabets above the sweep's C <= 6, for the builders' bridge arithmetic,
#: up to alphabets whose addresses cannot be printed.
LARGE_C = [("wkp", 7, 3), ("wkp", 10, 2), ("wk", 8, 3), ("wk", 10, 3),
           ("wkp", 11, 2), ("wk", 12, 2)]
#: Graphs whose largest row classes (511 and 512 strings) are zipped in
#: more than one piece.
LONG_CLASSES = [("wkp", 2, 11), ("wk", 2, 11)]


def block(g, w):
    """The level-L block with prefix w: {w i j : i, j in [C]_0}."""
    return {w + (i, j) for i in range(g.C) for j in range(g.C)}


def scan_crossing_edges(g, w, w2):
    """Brute-force crossing edge: test every vertex pair between the two blocks."""
    side_a = sorted(g.ordinal(x) for x in block(g, w))
    side_b = sorted(g.ordinal(x) for x in block(g, w2))
    found = [(min(u, v), max(u, v)) for u in side_a for v in side_b
             if g.has_edge(u, v)]
    assert len(found) <= 1, f"blocks {w} and {w2} share {len(found)} edges"
    return found[0] if found else None


def value(C, w):
    """A digit string's value in base C: its ordinal in WK(C, len(w))."""
    x = 0
    for d in w:
        x = x * C + d
    return x


def bridge_ordinals(g, w, w2):
    """The edge w out out -- w2 in in named by ``_bridge_cliques``, as ordinals (i, j), i < j."""
    cliques = _bridge_cliques(g.C, value(g.C, w), value(g.C, w2))
    if cliques is None:
        return None
    out, into = cliques
    i, j = sorted([g.ordinal(w + (out, out)), g.ordinal(w2 + (into, into))])
    return i, j


def rule2_partner(d):
    """Bridge partner of a digit string by rule 2, or None for repeated-digit strings.

    With the string ending in a run of t equal digits b preceded by c != b,
    the partner swaps them: prefix + (b,) + (c,) * t.
    """
    r, last = len(d), d[-1]
    t = 1
    while t < r and d[r - 1 - t] == last:
        t += 1
    if t == r:
        return None
    c = d[r - 1 - t]
    return d[: r - 1 - t] + (last,) + (c,) * t


def addresses(g):
    """The address of every vertex, indexed by ordinal."""
    return [g.address(i) for i in range(g.n)]


def address_lookup_graph(family, C, L):
    """Vertices and sorted edge list built by looking addresses up in a dict.

    The construction the builders used before ordinals became arithmetic:
    every rule is applied to a digit string and mapped to its ordinal by a
    string -> ordinal dict.
    """
    levels = range(1, L + 1) if family == "wkp" else (L,)
    vertices = [APEX] if family == "wkp" else []
    for r in levels:
        vertices.extend(itertools.product(range(C), repeat=r))
    index = {a: i for i, a in enumerate(vertices)}
    edges = set()
    for i, d in enumerate(vertices):
        if not d:
            continue
        others = [d[:-1] + (j,) for j in range(C) if j != d[-1]]
        partner = rule2_partner(d)
        if partner is not None:
            others.append(partner)
        if family == "wkp":
            others.append(d[:-1])
        edges.update((min(i, index[a]), max(i, index[a])) for a in others)
    return vertices, sorted(edges)


class TestBuilders:
    def test_wk_2_2_is_a_path_on_four(self):
        g = build_wk(2, 2)
        labels = [format_address(a) for a in addresses(g)]
        assert labels == ["(2,(00))", "(2,(01))", "(2,(10))", "(2,(11))"]
        assert g.edge_list() == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("L", [1, 2, 3, 5])
    def test_wk_single_digit_alphabet_is_one_vertex(self, L):
        g = build_wk(1, L)
        assert (g.n, g.edge_count) == (1, 0)

    def test_wk_single_digit_alphabet_costs_only_its_offsets(self):
        # The vertex cap counts vertices, so any L passes it for C = 1.  The
        # L + 2 level offsets, 7.6 MiB of pointers to one cached 0 here, are
        # the only per-level table; one of distinct ints would pass 20 MiB.
        tracemalloc.start()
        try:
            g = build_wk(1, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.n, g.edge_count, g.address(0)) == (1, 0, (0,) * 10 ** 6)
        assert peak < 20 * 2 ** 20

    def test_wk_3_2_counts_and_degrees(self):
        # degree sum (3*2 + 6*3) / 2 = 12 edges
        g = build_wk(3, 2)
        assert g.n == 9
        assert g.edge_count == 12
        assert Counter(g.degree(i) for i in range(g.n)) == {2: 3, 3: 6}

    def test_graph_memory_is_linear(self):
        # 21,845 vertices: one n-bit closed-neighborhood mask per vertex
        # alone would hold about 57 MiB.
        tracemalloc.start()
        try:
            g = build_wkp(4, 7)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n == 21845
        assert held < 3 * 2 ** 20

    @pytest.mark.parametrize("builder,C,L", [(build_wkp, 4, 5), (build_wk, 5, 4)])
    def test_rows_share_one_int_per_ordinal(self, builder, C, L):
        # Every row holds the graph's own int object for each neighbor.
        g = builder(C, L)
        assert len({id(v) for row in g.adjacency for v in row}) == g.n

    @pytest.mark.parametrize("C", [1, 2, 4])
    def test_wkp_single_level_is_complete(self, C):
        g = build_wkp(C, 1)
        assert g.n == C + 1
        assert all(g.degree(i) == C for i in range(g.n))

    @pytest.mark.parametrize("L", [1, 2, 4])
    def test_wkp_single_digit_alphabet_is_a_path(self, L):
        g = build_wkp(1, L)
        assert g.n == L + 1
        degrees = sorted(g.degree(i) for i in range(g.n))
        assert degrees == [1, 1] + [2] * (L - 1)

    def test_wkp_2_2_degree_multiset(self):
        g = build_wkp(2, 2)
        assert (g.n, g.edge_count) == (7, 10)
        assert sorted(g.degree(i) for i in range(g.n)) == [2, 2, 2, 3, 3, 4, 4]

    @pytest.mark.parametrize("C,L", [(0, 1), (1, 0), (-2, 3), (0, -1)])
    def test_parameter_domain_rejected(self, C, L):
        with pytest.raises(ParameterDomainError):
            build_wk(C, L)
        with pytest.raises(ParameterDomainError):
            build_wkp(C, L)

    @pytest.mark.parametrize("C,L,name", [(3.0, 2, "C"), (3, 2.0, "L"), (True, 2, "C"),
                                          (3, True, "L"), ("3", 2, "C")])
    def test_dimensions_that_are_not_ints_rejected(self, C, L, name):
        for builder in (build_wk, build_wkp):
            with pytest.raises(ParameterDomainError, match=f"^{name} must be an int, got "):
                builder(C, L)

    def test_size_guard(self):
        with pytest.raises(ParameterDomainError):
            build_wkp(10, 6)
        build_wkp(10, 2, max_vertices=111)
        with pytest.raises(ParameterDomainError):
            build_wkp(10, 2, max_vertices=110)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected(self, cap):
        for builder in (build_wk, build_wkp):
            with pytest.raises(ParameterDomainError, match="^max_vertices must be positive$"):
                builder(1, 1, max_vertices=cap)

    @pytest.mark.parametrize("cap", [100.0, 2.5, True, "5"])
    def test_cap_that_is_not_an_int_rejected(self, cap):
        for builder in (build_wk, build_wkp):
            with pytest.raises(ParameterDomainError, match="^max_vertices must be an int, got "):
                builder(3, 2, max_vertices=cap)

    def test_constructor_builds_the_whole_graph(self):
        assert PyramidGraph(WKP, 3, 2) == build_wkp(3, 2)
        assert PyramidGraph(WK, 3, 2) == build_wk(3, 2)

    def test_constructor_checks_the_cap(self):
        with pytest.raises(ParameterDomainError, match=r"^WK\(2,20\) .* cap of 1000$"):
            PyramidGraph(WK, 2, 20, max_vertices=1000)

    @pytest.mark.parametrize("family", ["wk", "HYPERCUBE", None])
    def test_constructor_refuses_an_unknown_family(self, family):
        with pytest.raises(ParameterDomainError, match="^unknown graph family"):
            PyramidGraph(family, 2, 2)

    def test_level_offsets_are_computed_once_per_build(self, monkeypatch):
        calls = []
        real = topology._level_offsets

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(topology, "_level_offsets", counting)
        assert build_wkp(4, 3).n == 85
        assert calls == [(WKP, 4, 3)]


@pytest.mark.parametrize("family,C,L", SWEEP + LARGE_C + LONG_CLASSES)
def test_structural_invariants(family, C, L):
    g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
    if family == "wk":
        assert g.n == C ** L
    else:
        assert g.n == wkp_count(C, L)
    extremes = extreme_vertices(g)
    for i, a in enumerate(addresses(g)):
        assert i not in g.adjacency[i]
        for j in g.adjacency[i]:
            assert i in g.adjacency[j]
        if family == "wk":
            expected = C - 1 if i in extremes else C
        elif a == APEX:
            expected = C
        elif len(a) < L:
            expected = 2 * C if i in extremes else 2 * C + 1
        else:
            expected = C if i in extremes else C + 1
        assert g.degree(i) == expected, f"{a} in {family}({C},{L})"


@pytest.mark.parametrize("family,C,L", SWEEP + LARGE_C + LONG_CLASSES)
def test_builders_match_address_lookup(family, C, L):
    g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
    vertices, edges = address_lookup_graph(family, C, L)
    assert addresses(g) == vertices
    assert g.edge_list() == edges
    assert all(list(row) == sorted(row) for row in g.adjacency)


class TestAddressLiterals:
    @pytest.mark.parametrize("family,C,L", SWEEP + [("wkp", 1, 6), ("wk", 1, 3),
                                                    ("wkp", 10, 2), ("wk", 10, 3)])
    def test_literals_are_the_printed_addresses(self, family, C, L):
        g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
        line, at = quoted_line(g)
        literals = [line[at[v] + 1:at[v + 1] - 3] for v in range(g.n)]
        assert literals == [format_address(a) for a in addresses(g)]
        assert [parse_address(s, C) for s in literals] == addresses(g)
        assert at[g.n] == len(line) + 2
        assert f"[{line}]" == json.dumps(literals)

    def test_one_vertex_mesh_literal_is_linear_in_its_length(self):
        # WK(1, L) has one vertex for every L; growing all L levels of
        # strings to print it copies O(L^2) characters.
        g = build_wk(1, 300_000)
        start = time.perf_counter()
        line, at = quoted_line(g)
        literal = line[at[0] + 1:at[1] - 3]
        elapsed = time.perf_counter() - start
        assert literal == "(300000,(" + "0" * 300_000 + "))"
        assert elapsed < 0.5

    # Levels 10 and up write a two-digit level number, so the width of a
    # quoted literal grows by two at level 10, not by one.
    @pytest.mark.parametrize("family,C,L", [("wkp", 1, 15), ("wkp", 2, 10), ("wk", 2, 10),
                                            ("wkp", 10, 2), ("wk", 10, 2)])
    def test_quoted_levels_slice_into_the_literals(self, family, C, L):
        g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
        line, at = quoted_line(g)
        literals = [format_address(a) for a in addresses(g)]
        assert at[g.n] == len(line) + 2
        # Each vertex's offset steps by its own quoted literal and ", ".
        assert [at[v + 1] - at[v] for v in range(g.n)] == [len(s) + 4 for s in literals]
        assert [line[at[v] + 1:at[v + 1] - 3] for v in range(g.n)] == literals
        # A run of ordinals a..b-1 slices as its quoted literals joined by ", ".
        for a, b in [(0, g.n), (0, 1), (g.n - 1, g.n), (g.n // 3, 2 * g.n // 3 + 1)]:
            assert line[at[a]:at[b] - 2] == ", ".join(f'"{s}"' for s in literals[a:b])

    def test_one_vertex_mesh_quoted_level_is_linear_in_its_length(self):
        g = build_wk(1, 300_000)
        start = time.perf_counter()
        line, at = quoted_line(g)
        elapsed = time.perf_counter() - start
        literal = '"(300000,(' + "0" * 300_000 + '))"'
        assert (line, at) == (literal, [0, len(literal) + 2])
        assert elapsed < 0.5

    @pytest.mark.parametrize("builder", [build_wk, build_wkp])
    def test_c_above_10_is_refused(self, builder):
        with pytest.raises(ParameterDomainError):
            quoted_line(builder(11, 1))


class TestOrdinals:
    @pytest.mark.parametrize("family,C,L", SWEEP + LARGE_C)
    def test_ordinal_of_every_vertex(self, family, C, L):
        g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
        for i, a in enumerate(addresses(g)):
            assert g.ordinal(a) == i
        for i in (-1, g.n):
            with pytest.raises(ParameterDomainError, match="is not a vertex ordinal"):
                g.address(i)
        for r in range(-1, L + 2):
            assert list(g.level_ordinals(r)) == [
                i for i, a in enumerate(addresses(g)) if len(a) == r]

    @pytest.mark.parametrize("family,C,L", [("wk", 3, 2), ("wk", 2, 3), ("wkp", 3, 2),
                                            ("wkp", 4, 3), ("wkp", 1, 2)])
    def test_non_vertices_are_refused(self, family, C, L):
        g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
        bad = [
            (0,) * (L + 1),                         # below the last level
            (C,) + (0,) * (L - 1),                  # digit >= C
            (-1,) + (0,) * (L - 1),                 # negative digit
        ]
        if family == "wk":
            bad += [APEX, (0,) * (L - 1)]
        for a in bad:
            with pytest.raises(ParameterDomainError, match="is not a vertex"):
                g.ordinal(a)

    def test_cli_non_vertex_is_one_error_line(self, capsys):
        code = main(["verify", "--C", "3", "--L", "2", "--k", "1", "--set", "(3,(000))"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_wk_binary_is_a_path(L):
    g = build_wk(2, L)
    degrees = Counter(g.degree(i) for i in range(g.n))
    assert degrees[1] == 2 and degrees[2] == g.n - 2
    # connected: walk from one endpoint visits everything
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in g.adjacency[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    assert len(seen) == g.n


@pytest.mark.parametrize("C,L", [(2, 2), (3, 2), (3, 3), (2, 4), (4, 3)])
def test_top_level_of_pyramid_induces_wk(C, L):
    wkp = build_wkp(C, L)
    wk = build_wk(C, L)
    top = [i for i, a in enumerate(addresses(wkp)) if len(a) == L]
    induced = {
        frozenset((wkp.address(i), wkp.address(j)))
        for i in top for j in top if i < j and wkp.has_edge(i, j)
    }
    expected = {
        frozenset((wk.address(i), wk.address(j)))
        for i, j in wk.edge_list()
    }
    assert induced == expected


class TestExtremeVertices:
    def test_wkp_3_2(self, wkp32):
        # (0) (1) (2) are ordinals 1-3; (00) (11) (22) are 4 + a (1 + 3).
        assert extreme_vertices(wkp32) == {1, 2, 3, 4, 8, 12}

    def test_wk_3_1_all_vertices(self):
        g = build_wk(3, 1)
        assert extreme_vertices(g) == set(range(g.n))

    def test_wkp_2_3_has_six(self):
        assert len(extreme_vertices(build_wkp(2, 3))) == 6

    def test_sweep_covers_62_graphs(self):
        assert len(SWEEP_L6) == 62

    @pytest.mark.parametrize("family,C,L", SWEEP_L6)
    def test_equals_the_vertices_whose_digits_are_all_equal(self, family, C, L):
        g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
        got = extreme_vertices(g)
        assert all(type(v) is int for v in got)
        assert got == {v for v, a in enumerate(addresses(g)) if a and len(set(a)) == 1}


class TestBlocks:
    def test_block_of_wkp_3_3(self):
        g = build_wkp(3, 3)
        ords = sorted(g.ordinal(a) for a in block(g, (0,)))
        induced = sum(1 for i in ords for j in ords if i < j and g.has_edge(i, j))
        assert induced == build_wk(3, 2).edge_count == 12

    def test_level_two_pyramid_has_one_block(self, wkp52):
        assert block(wkp52, ()) == {a for a in addresses(wkp52) if len(a) == 2}
        assert len(block(wkp52, ())) == 25

    def test_blocks_partition_the_top_level(self):
        g = build_wkp(3, 3)
        blocks = [block(g, (w,)) for w in range(3)]
        union = set().union(*blocks)
        assert union == {a for a in addresses(g) if len(a) == 3}
        assert sum(len(b) for b in blocks) == len(union)


class TestCliqueMembers:
    @staticmethod
    def assert_complete(g, members):
        ords = [g.ordinal(a) for a in members]
        assert len(ords) == g.C
        assert all(g.has_edge(u, v) for u in ords for v in ords if u != v)

    def test_level_two_clique(self, wkp52):
        self.assert_complete(wkp52, {(3,) + (j,) for j in range(5)})

    def test_level_three_triangle(self):
        self.assert_complete(build_wkp(3, 3), {(0, 1) + (j,) for j in range(3)})

    def test_level_one_clique(self, wkp32):
        self.assert_complete(wkp32, {(j,) for j in range(3)})


class TestCrossingEdge:
    """The level-L edge between two blocks, as ``_bridge_cliques`` names it."""

    def test_adjacent_blocks_of_wkp_3_3(self):
        assert _bridge_cliques(3, 0, 1) == (1, 0)  # (0, 1, 1) -- (1, 0, 0)
        g = build_wkp(3, 3)
        assert bridge_ordinals(g, (0,), (1,)) == (g.ordinal((0, 1, 1)), g.ordinal((1, 0, 0)))
        assert g.has_edge(g.ordinal((0, 1, 1)), g.ordinal((1, 0, 0)))

    def test_non_adjacent_blocks_absent(self):
        assert _bridge_cliques(3, value(3, (0, 0)), value(3, (1, 1))) is None

    @pytest.mark.parametrize("C,L", [(2, 3), (3, 3), (4, 3), (3, 4), (4, 4),
                                     (5, 3), (2, 5), (3, 5)])
    def test_matches_scan_of_all_pairs(self, C, L):
        g = build_wkp(C, L)
        prefixes = addresses(build_wk(C, L - 2))
        for w in prefixes:
            for w2 in prefixes:
                if w != w2:
                    assert bridge_ordinals(g, w, w2) == scan_crossing_edges(g, w, w2)

    @pytest.mark.parametrize("C,L", [(2, 3), (3, 3), (3, 4), (2, 4)])
    def test_matches_contracted_mesh_adjacency(self, C, L):
        g = build_wkp(C, L)
        contracted = build_wk(C, L - 2)
        prefixes = addresses(contracted)
        for i, w in enumerate(prefixes):
            for j, w2 in enumerate(prefixes):
                if i >= j:
                    continue
                edge = bridge_ordinals(g, w, w2)
                if contracted.has_edge(i, j):
                    assert edge is not None
                    for ordinal in edge:
                        digits = g.address(ordinal)
                        assert digits[-1] == digits[-2]
                else:
                    assert edge is None


class TestExport:
    def test_smallest_pyramid_json(self):
        doc = json.loads(export(build_wkp(1, 1), "json"))
        assert len(doc["vertices"]) == 2
        assert doc["edges"] == [[0, 1]]

    def test_json_round_trip(self):
        for g in (build_wkp(3, 2), build_wk(3, 2), build_wkp(2, 3)):
            assert graph_from_json(export(g, "json")) == g

    @given(builder=st.sampled_from([build_wk, build_wkp]),
           C=st.integers(min_value=1, max_value=10), L=st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_for_every_printable_C(self, builder, C, L):
        g = builder(C, L)
        assert graph_from_json(export(g, "json")) == g

    @pytest.mark.parametrize("format", ["json", "dot"])
    def test_c_above_10_is_refused(self, format):
        # A digit 10 would print as two characters and not parse back.
        with pytest.raises(ParameterDomainError, match="C <= 10"):
            export(build_wkp(11, 1), format)

    def test_wkp_2_2_edge_list_length(self):
        doc = json.loads(export(build_wkp(2, 2), "json"))
        assert len(doc["edges"]) == 10

    def test_dot_output_shape(self, wkp32):
        text = export(wkp32, "dot")
        lines = text.strip().splitlines()
        assert lines[0].startswith("graph ")
        assert lines[-1] == "}"
        assert sum(1 for ln in lines if " -- " in ln) == wkp32.edge_count
        assert export(wkp32, "dot") == export(wkp32, "dot")

    def test_unknown_format(self, wkp32):
        with pytest.raises(ParameterDomainError):
            export(wkp32, "yaml")

    def test_dot_pieces_hold_one_vertex_each(self, wkp32):
        # The header, one line per vertex, one piece of edges per vertex and
        # the closing brace: no piece holds the lines of two vertices.
        pieces = list(export_pieces(wkp32, "dot"))
        assert "".join(pieces) == export(wkp32, "dot")
        assert len(pieces) == 2 + 2 * wkp32.n
        assert all(piece.count("\n") == 1 for piece in pieces[:1 + wkp32.n])
        assert [piece.count("\n") for piece in pieces[1 + wkp32.n:-1]] == \
            [sum(j > i for j in row) for i, row in enumerate(wkp32.adjacency)]

    def test_json_pieces_hold_one_vertex_each(self, wkp32):
        # The header, the vertex list, the edges key, one piece per vertex
        # with edges to higher ordinals, and the closing brackets.
        pieces = list(export_pieces(wkp32, "json"))
        assert "".join(pieces) == export(wkp32, "json")
        edges_key = pieces.index(', "edges": [')
        rows = [[[i, j] for j in row if j > i] for i, row in enumerate(wkp32.adjacency)]
        assert [json.loads(f"[{piece.lstrip(', ')}]") for piece in pieces[edges_key + 1:-1]] == \
            [row for row in rows if row]

    def test_json_vertex_list_is_the_quoted_line(self):
        g = build_wkp(4, 5)
        pieces = list(export_pieces(g, "json"))
        assert "".join(pieces) == export(g, "json")
        start = pieces.index("[")
        assert pieces[start:start + 3] == ["[", quoted_line(g)[0], "]"]
        assert json.loads("".join(pieces[start:start + 3])) == \
            [format_address(a) for a in addresses(g)]

    @pytest.mark.parametrize("format", ["json", "dot"])
    def test_json_edges_are_not_held_at_once(self, format):
        # WKP(4,7)'s 65,518 edge tuples take 4.5 MiB as one list; its
        # 21,845 quoted vertex literals are made before the header, and
        # once that is out, the rest holds one row at a time.
        g = build_wkp(4, 7)
        tracemalloc.start()
        try:
            pieces = export_pieces(g, format)
            next(pieces)

            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for _ in pieces:
                pass
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def _drop_edge(doc):
    del doc["edges"][3]


def _swap_vertices(doc):
    doc["vertices"][1], doc["vertices"][2] = doc["vertices"][2], doc["vertices"][1]


def _add_edge(doc):
    doc["edges"].append([0, 12])  # apex to a level-2 vertex


def _unknown_family(doc):
    doc["family"] = "HYPERCUBE"


def _self_loop(doc):
    doc["edges"].append([1, 1])


def _edge_out_of_range(doc):
    doc["edges"].append([0, 13])


def _more_levels_than_listed(doc):
    doc["L"] = 12  # 797,161 vertices; refused before it is built


def _huge_level(doc):
    doc["L"] = 10 ** 9  # refused before 3^(10^9) is computed


def _no_edges(doc):
    del doc["edges"]


def _no_vertices(doc):
    doc["vertices"], doc["edges"] = [], []


def _non_string_vertex(doc):
    doc["vertices"][-1] = 12


def _fractional_C(doc):
    doc["C"] = 3.5


def _string_C(doc):
    doc["C"] = "3"


def _boolean_L(doc):
    doc["L"] = True


class TestGraphFromJson:
    @pytest.mark.parametrize("corrupt", [_drop_edge, _swap_vertices, _add_edge,
                                         _unknown_family, _self_loop, _edge_out_of_range,
                                         _more_levels_than_listed, _huge_level, _no_edges,
                                         _no_vertices,
                                         _non_string_vertex, _fractional_C, _string_C, _boolean_L])
    def test_non_canonical_document_is_refused(self, corrupt):
        doc = json.loads(export(build_wkp(3, 2), "json"))
        assert graph_from_json(json.dumps(doc)) == build_wkp(3, 2)
        corrupt(doc)
        with pytest.raises(ParameterDomainError):
            graph_from_json(json.dumps(doc))

    def test_vertex_list_is_compared_as_json_text(self):
        # The listed literals are compared with the quoted line once json
        # has decoded them, so other spacing and escapes are accepted.
        g = build_wkp(3, 2)
        text = export(g, "json")
        doc = json.loads(text)
        assert graph_from_json(json.dumps(doc, indent=1)) == g
        assert graph_from_json(text.replace('"(', '"\\u0028')) == g
        listed = doc["vertices"]
        for vertices in ([*listed[:-1], listed[-1] + " "], [listed[0], [listed[1]], *listed[2:]]):
            with pytest.raises(ParameterDomainError):
                graph_from_json(json.dumps(dict(doc, vertices=vertices)))

    def test_unparsable_document_is_refused(self):
        with pytest.raises(ParameterDomainError, match="^malformed graph JSON"):
            graph_from_json("{")

    def test_one_vertex_mesh_with_a_huge_level_is_refused(self):
        # WK(1, L) has one vertex for every L; its one address has L digits.
        doc = json.loads(export(build_wk(1, 2), "json"))
        doc["L"] = 10 ** 9
        with pytest.raises(ParameterDomainError):
            graph_from_json(json.dumps(doc))


class TestAddressGrammar:
    def test_parse_examples(self):
        assert parse_address("(2,(34))", C=5) == (3, 4)
        assert parse_address("(0,(1))") == APEX

    def test_digit_out_of_range(self):
        with pytest.raises(AddressParseError):
            parse_address("(2,(74))", C=5)

    def test_length_mismatch(self):
        with pytest.raises(AddressParseError):
            parse_address("(2,(7))", C=5)

    @pytest.mark.parametrize("bad", ["", "apex", "(2,34)", "((2),(34))", "(0,(2))",
                                     "(1,(\u0663))", "(01,(1))", "(00,(1))",
                                     # past int()'s 4,300-digit limit: the level is compared as text
                                     pytest.param("(" + "1" * 5000 + ",(1))", id="level-5000-digits")])
    def test_malformed(self, bad):
        with pytest.raises(AddressParseError):
            parse_address(bad)

    def test_c_above_10_is_refused(self):
        with pytest.raises(ParameterDomainError, match="C <= 10"):
            parse_address("(1,(1))", C=11)

    def test_round_trip_over_all_vertices(self, wkp32):
        for a in addresses(wkp32):
            assert parse_address(format_address(a), wkp32.C) == a
