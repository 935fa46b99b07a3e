import itertools
import json
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkpdom import (
    APEX,
    Address,
    AddressParseError,
    EdgeRef,
    ParameterDomainError,
    build_wk,
    build_wkp,
    clique_members,
    crossing_edge,
    export,
    extreme_vertices,
    graph_from_json,
    gw_subgraph,
    parse_address,
)
from wkpdom.cli import main
from wkpdom.topology import rule2_partner


def wkp_count(C, L):
    return 1 + sum(C ** r for r in range(1, L + 1))


def sweep_cases(limit=2000):
    for C in range(1, 7):
        for L in range(1, 6):
            if wkp_count(C, L) <= limit:
                yield "wkp", C, L
            if C ** L <= limit:
                yield "wk", C, L


SWEEP = list(sweep_cases())


def scan_crossing_edges(g, w, w2):
    """Brute-force crossing edge: test every vertex pair between the two blocks."""
    side_a = sorted(g.ordinal(x) for x in gw_subgraph(g, w))
    side_b = sorted(g.ordinal(x) for x in gw_subgraph(g, w2))
    found = [EdgeRef(min(u, v), max(u, v)) for u in side_a for v in side_b
             if g.has_edge(u, v)]
    assert len(found) <= 1, f"blocks {w} and {w2} share {len(found)} edges"
    return found[0] if found else None


def address_lookup_graph(family, C, L):
    """Vertices and sorted edge list built by looking addresses up in a dict.

    The construction the builders used before ordinals became arithmetic:
    every rule is applied to an Address and mapped to its ordinal by an
    Address -> ordinal dict.
    """
    levels = range(1, L + 1) if family == "wkp" else (L,)
    vertices = [APEX] if family == "wkp" else []
    for r in levels:
        vertices.extend(Address(r, t) for t in itertools.product(range(C), repeat=r))
    index = {a: i for i, a in enumerate(vertices)}
    edges = set()
    for i, (r, d) in enumerate(vertices):
        if r == 0:
            continue
        others = [Address(r, d[:-1] + (j,)) for j in range(C) if j != d[-1]]
        partner = rule2_partner(d)
        if partner is not None:
            others.append(Address(r, partner))
        if family == "wkp":
            others.append(Address(r - 1, d[:-1]))
        edges.update((min(i, index[a]), max(i, index[a])) for a in others)
    return vertices, sorted(edges)


class TestBuilders:
    def test_wk_2_2_is_a_path_on_four(self):
        g = build_wk(2, 2)
        labels = [str(a) for a in g.vertices]
        assert labels == ["(2,(00))", "(2,(01))", "(2,(10))", "(2,(11))"]
        assert g.edge_list() == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("L", [1, 2, 3, 5])
    def test_wk_single_digit_alphabet_is_one_vertex(self, L):
        g = build_wk(1, L)
        assert (g.n, g.edge_count) == (1, 0)

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
        assert held < 16 * 2 ** 20

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

    def test_size_guard(self):
        with pytest.raises(ParameterDomainError):
            build_wkp(10, 6)
        build_wkp(10, 2, max_vertices=111)
        with pytest.raises(ParameterDomainError):
            build_wkp(10, 2, max_vertices=110)


@pytest.mark.parametrize("family,C,L", SWEEP)
def test_structural_invariants(family, C, L):
    g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
    if family == "wk":
        assert g.n == C ** L
    else:
        assert g.n == wkp_count(C, L)
    extremes = {g.ordinal(a) for a in extreme_vertices(g)}
    for i, a in enumerate(g.vertices):
        assert i not in g.adjacency[i]
        for j in g.adjacency[i]:
            assert i in g.adjacency[j]
        if family == "wk":
            expected = C - 1 if i in extremes else C
        elif a.is_apex:
            expected = C
        elif a.level < L:
            expected = 2 * C if i in extremes else 2 * C + 1
        else:
            expected = C if i in extremes else C + 1
        assert g.degree(i) == expected, f"{a} in {family}({C},{L})"


@pytest.mark.parametrize("family,C,L", SWEEP)
def test_builders_match_address_lookup(family, C, L):
    g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
    vertices, edges = address_lookup_graph(family, C, L)
    assert list(g.vertices) == vertices
    assert g.edge_list() == edges
    assert all(list(row) == sorted(row) for row in g.adjacency)


class TestOrdinals:
    @pytest.mark.parametrize("family,C,L", SWEEP)
    def test_ordinal_of_every_vertex(self, family, C, L):
        g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
        for i, a in enumerate(g.vertices):
            assert g.ordinal(a) == i
        for r in range(-1, L + 2):
            assert list(g.level_ordinals(r)) == [
                i for i, a in enumerate(g.vertices) if a.level == r]

    @pytest.mark.parametrize("family,C,L", [("wk", 3, 2), ("wk", 2, 3), ("wkp", 3, 2),
                                            ("wkp", 4, 3), ("wkp", 1, 2)])
    def test_non_vertices_are_refused(self, family, C, L):
        g = build_wk(C, L) if family == "wk" else build_wkp(C, L)
        bad = [
            Address(L + 1, (0,) * (L + 1)),         # below the last level
            Address(L, (C,) + (0,) * (L - 1)),      # digit >= C
            Address(L, (0,) * (L - 1)),             # digit string too short
            Address(L, (0,) * (L + 1)),             # digit string too long
            Address(0, (0,)),                       # the apex has no digits
            Address(-1, ()),
        ]
        if family == "wk":
            bad += [APEX, Address(L - 1, (0,) * (L - 1))]
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
    top = [i for i, a in enumerate(wkp.vertices) if a.level == L]
    induced = {
        frozenset((wkp.vertices[i].digits, wkp.vertices[j].digits))
        for i in top for j in top if i < j and wkp.has_edge(i, j)
    }
    expected = {
        frozenset((wk.vertices[i].digits, wk.vertices[j].digits))
        for i, j in wk.edge_list()
    }
    assert induced == expected


class TestExtremeVertices:
    def test_wkp_3_2(self, wkp32):
        assert extreme_vertices(wkp32) == {
            Address(1, (0,)), Address(1, (1,)), Address(1, (2,)),
            Address(2, (0, 0)), Address(2, (1, 1)), Address(2, (2, 2)),
        }

    def test_wk_3_1_all_vertices(self):
        g = build_wk(3, 1)
        assert extreme_vertices(g) == set(g.vertices)

    def test_wkp_2_3_has_six(self):
        assert len(extreme_vertices(build_wkp(2, 3))) == 6


class TestBlocks:
    def test_block_of_wkp_3_3(self):
        g = build_wkp(3, 3)
        block = gw_subgraph(g, "0")
        assert block == {Address(3, (0, i, j)) for i in range(3) for j in range(3)}
        ords = sorted(g.ordinal(a) for a in block)
        induced = sum(1 for i in ords for j in ords if i < j and g.has_edge(i, j))
        assert induced == build_wk(3, 2).edge_count == 12

    def test_level_two_pyramid_has_one_block(self, wkp52):
        block = gw_subgraph(wkp52, "")
        assert block == {a for a in wkp52.vertices if a.level == 2}
        assert len(block) == 25

    def test_blocks_partition_the_top_level(self):
        g = build_wkp(3, 3)
        blocks = [gw_subgraph(g, (w,)) for w in range(3)]
        union = set().union(*blocks)
        assert union == {a for a in g.vertices if a.level == 3}
        assert sum(len(b) for b in blocks) == len(union)

    def test_malformed_prefix(self):
        g = build_wkp(3, 3)
        with pytest.raises(ParameterDomainError):
            gw_subgraph(g, "00")
        with pytest.raises(ParameterDomainError):
            gw_subgraph(g, "7")


class TestCliqueMembers:
    def test_level_two_clique(self, wkp52):
        members = clique_members(wkp52, 2, "3")
        assert members == {Address(2, (3, j)) for j in range(5)}
        ords = [wkp52.ordinal(a) for a in members]
        assert all(wkp52.has_edge(u, v) for u in ords for v in ords if u != v)

    def test_level_three_triangle(self):
        g = build_wkp(3, 3)
        members = clique_members(g, 3, "01")
        ords = [g.ordinal(a) for a in members]
        assert len(ords) == 3
        assert all(g.has_edge(u, v) for u in ords for v in ords if u != v)

    def test_level_one_clique(self, wkp32):
        members = clique_members(wkp32, 1, "")
        assert members == {Address(1, (j,)) for j in range(3)}
        ords = [wkp32.ordinal(a) for a in members]
        assert all(wkp32.has_edge(u, v) for u in ords for v in ords if u != v)

    def test_malformed_prefix(self, wkp32):
        with pytest.raises(ParameterDomainError):
            clique_members(wkp32, 2, "")
        with pytest.raises(ParameterDomainError):
            clique_members(wkp32, 3, "00")


class TestCrossingEdge:
    def test_adjacent_blocks_of_wkp_3_3(self):
        g = build_wkp(3, 3)
        edge = crossing_edge(g, "0", "1")
        assert {g.vertices[edge.u], g.vertices[edge.v]} == {
            Address(3, (0, 1, 1)), Address(3, (1, 0, 0)),
        }

    def test_non_adjacent_blocks_absent(self):
        g = build_wkp(3, 4)
        assert crossing_edge(g, "00", "11") is None

    def test_same_block_rejected(self):
        g = build_wkp(3, 3)
        with pytest.raises(ParameterDomainError):
            crossing_edge(g, "0", "0")

    @pytest.mark.parametrize("C,L", [(2, 3), (3, 3), (4, 3), (3, 4), (4, 4),
                                     (5, 3), (2, 5), (3, 5)])
    def test_matches_scan_of_all_pairs(self, C, L):
        g = build_wkp(C, L)
        prefixes = [a.digits for a in build_wk(C, L - 2).vertices]
        for w in prefixes:
            for w2 in prefixes:
                if w != w2:
                    assert crossing_edge(g, w, w2) == scan_crossing_edges(g, w, w2)

    @pytest.mark.parametrize("C,L", [(2, 3), (3, 3), (3, 4), (2, 4)])
    def test_matches_contracted_mesh_adjacency(self, C, L):
        g = build_wkp(C, L)
        contracted = build_wk(C, L - 2)
        prefixes = [a.digits for a in contracted.vertices]
        for i, w in enumerate(prefixes):
            for j, w2 in enumerate(prefixes):
                if i >= j:
                    continue
                edge = crossing_edge(g, w, w2)
                if contracted.has_edge(i, j):
                    assert edge is not None
                    for ordinal in edge:
                        digits = g.vertices[ordinal].digits
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
        text = export(wkp32, "dot").decode()
        lines = text.strip().splitlines()
        assert lines[0].startswith("graph ")
        assert lines[-1] == "}"
        assert sum(1 for ln in lines if " -- " in ln) == wkp32.edge_count
        assert export(wkp32, "dot") == export(wkp32, "dot")

    def test_unknown_format(self, wkp32):
        with pytest.raises(ParameterDomainError):
            export(wkp32, "yaml")


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


def _no_vertices(doc):
    doc["vertices"], doc["edges"] = [], []


class TestGraphFromJson:
    @pytest.mark.parametrize("corrupt", [_drop_edge, _swap_vertices, _add_edge,
                                         _unknown_family, _self_loop, _edge_out_of_range,
                                         _more_levels_than_listed, _huge_level, _no_vertices])
    def test_non_canonical_document_is_refused(self, corrupt):
        doc = json.loads(export(build_wkp(3, 2), "json"))
        assert graph_from_json(json.dumps(doc)) == build_wkp(3, 2)
        corrupt(doc)
        with pytest.raises(ParameterDomainError):
            graph_from_json(json.dumps(doc))

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
        assert parse_address("(2,(34))", C=5) == Address(2, (3, 4))
        assert parse_address("(0,(1))") == APEX

    def test_digit_out_of_range(self):
        with pytest.raises(AddressParseError):
            parse_address("(2,(74))", C=5)

    def test_length_mismatch(self):
        with pytest.raises(AddressParseError):
            parse_address("(2,(7))", C=5)

    @pytest.mark.parametrize("bad", ["", "apex", "(2,34)", "((2),(34))", "(0,(2))"])
    def test_malformed(self, bad):
        with pytest.raises(AddressParseError):
            parse_address(bad)

    def test_c_above_10_is_refused(self):
        with pytest.raises(ParameterDomainError, match="C <= 10"):
            parse_address("(1,(1))", C=11)

    def test_round_trip_over_all_vertices(self, wkp32):
        for a in wkp32.vertices:
            assert parse_address(str(a), wkp32.C) == a
