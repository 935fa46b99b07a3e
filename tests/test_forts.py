import ast
import inspect
import types

import pytest

import wkpdom.forts as forts
import wkpdom.report as paper_report
from wkpdom import (
    ParameterDomainError,
    RegimeTag,
    SearchBudget,
    build_wk,
    build_wkp,
    format_address,
    gamma_formula,
    min_kpds,
    regime_of,
)
from wkpdom.forts import block_fort_certificate, check_fort_certificate
from wkpdom.report import GAMMA_L2_CASES


@pytest.fixture(scope="module")
def wkp43():
    return build_wkp(4, 3)


@pytest.fixture(scope="module")
def cert43(wkp43):
    return block_fort_certificate(wkp43, 1)


def general_cases(max_vertices=400):
    for C in range(3, 8):
        for L in range(3, 6):
            if 1 + sum(C ** r for r in range(1, L + 1)) > max_vertices:
                continue
            for k in range(1, C - 1):
                yield C, L, k


class TestBlockForts:
    def test_one_group_per_block_of_bound_c_minus_k_minus_1(self, cert43):
        assert len(cert43) == 4
        assert [c for c, _ in cert43] == [2] * 4
        assert all(len(group) == 4 and all(len(F) == 6 for F in group) for _, group in cert43)

    def test_fort_is_the_off_diagonal_of_k_plus_2_digits(self, wkp43, cert43):
        _, group = cert43[1]  # block w = 1, K = {0, 1, 2} first
        assert sorted(format_address(wkp43.address(v)) for v in group[0]) == [
            "(3,(101))", "(3,(102))", "(3,(110))", "(3,(112))", "(3,(120))", "(3,(121))"]

    def test_certifies_the_report_claim(self, wkp43, cert43):
        assert check_fort_certificate(wkp43, 1, cert43) == 8

    def test_no_fort_when_k_is_at_least_c_minus_1(self, wkp43):
        assert block_fort_certificate(wkp43, 3) == []
        assert check_fort_certificate(wkp43, 3, []) == 0

    @pytest.mark.parametrize("g", [build_wk(3, 3), build_wkp(3, 1)], ids=["wk", "L=1"])
    def test_needs_a_pyramid_with_blocks(self, g):
        with pytest.raises(ParameterDomainError):
            block_fort_certificate(g, 1)


class TestCheckerRejects:
    @staticmethod
    def _groups(cert):
        return [(c, list(group)) for c, group in cert]

    @pytest.mark.parametrize("change", [
        lambda g, F: F - {min(F)},  # the parent w a of w a b then sees only k
        lambda g, F: F | {g.n - 1},  # a stray vertex's four neighbours see one
    ], ids=["vertex-dropped", "stray-vertex"])
    def test_a_set_that_is_not_a_fort(self, wkp43, cert43, change):
        cert = self._groups(cert43)
        cert[0][1][0] = change(wkp43, cert[0][1][0])
        with pytest.raises(ValueError, match="is not a 1-fort"):
            check_fort_certificate(wkp43, 1, cert)

    def test_a_single_vertex(self, wkp43, cert43):
        cert = self._groups(cert43)
        cert[2][1][3] = frozenset({wkp43.ordinal((2, 0, 0))})
        with pytest.raises(ValueError, match="is not a 1-fort"):
            check_fort_certificate(wkp43, 1, cert)

    def test_agrees_with_the_fort_rule_on_sets_one_vertex_off(self, wkp43, cert43):
        # The rule scanned over all n vertices, against the checker's scan of N[F].
        def is_fort(F):
            counts = (sum(x in F for x in row) for u, row in enumerate(wkp43.adjacency)
                      if u not in F)
            return all(c == 0 or c > 1 for c in counts)

        F = cert43[0][1][0]
        near = [F - {x} for x in F] + [F | {v} for v in range(wkp43.n) if v not in F]
        for S in near:
            try:
                accepted = check_fort_certificate(wkp43, 1, [(1, [S])]) == 1
            except ValueError:
                accepted = False
            assert accepted == is_fort(S), sorted(S)

    def test_overlapping_supports(self, wkp43, cert43):
        with pytest.raises(ValueError, match="overlap"):
            check_fort_certificate(wkp43, 1, cert43 + cert43[:1])

    def test_a_group_bound_one_too_high(self, wkp43, cert43):
        cert = self._groups(cert43)
        cert[3] = (3, cert[3][1])
        with pytest.raises(ValueError, match="2 vertices meet every"):
            check_fort_certificate(wkp43, 1, cert)

    def test_a_fort_of_k_0_is_not_one_of_k_1(self, wkp43):
        group = block_fort_certificate(wkp43, 0)[0]
        with pytest.raises(ValueError, match="is not a 1-fort"):
            check_fort_certificate(wkp43, 1, [group])

    @pytest.mark.parametrize("bad", [frozenset(), frozenset({85}), frozenset({-1}),
                                     frozenset({1.5}), frozenset({"1"}), 5],
                             ids=["empty", "past-n", "negative", "float", "string", "not-a-set"])
    def test_a_fort_that_is_not_a_set_of_vertices(self, wkp43, cert43, bad):
        cert = self._groups(cert43)
        cert[0][1].append(bad)
        with pytest.raises(ValueError, match="nonempty set of ordinals"):
            check_fort_certificate(wkp43, 1, cert)

    @pytest.mark.parametrize("group", [(0, [frozenset({1})]), (1, []),
                                       (1.5, [frozenset({1})]), (2.0, [frozenset({1})]),
                                       (2, 5), (0, 5), (2, None)],
                             ids=["bound-0", "no-fort", "bound-1.5", "bound-2.0",
                                  "forts-an-int", "bound-0-forts-an-int", "forts-none"])
    def test_an_empty_group(self, wkp43, cert43, group):
        with pytest.raises(ValueError, match="needs a bound"):
            check_fort_certificate(wkp43, 1, cert43[:1] + [group])

    def test_a_negative_k(self, wkp43, cert43):
        with pytest.raises(ValueError, match="k must be"):
            check_fort_certificate(wkp43, -1, cert43)

    @pytest.mark.parametrize("k", [1.5, "1"])
    def test_a_k_that_is_not_an_int(self, wkp43, cert43, k):
        with pytest.raises(ValueError, match="k must be"):
            check_fort_certificate(wkp43, k, cert43)

    def test_a_dropped_group_lowers_the_total(self, wkp43, cert43):
        assert check_fort_certificate(wkp43, 1, cert43[1:]) == 6


class TestCheckerIsIndependent:
    def test_imports_neither_engine_nor_solver(self):
        tree = ast.parse(inspect.getsource(forts))
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for alias in node.names}
        assert imported == {"__future__", "functools", "itertools", "operator", "topology"}

    def test_reads_only_the_adjacency_rows(self, wkp43, cert43):
        rows_only = types.SimpleNamespace(adjacency=wkp43.adjacency)
        assert check_fort_certificate(rows_only, 1, cert43) == 8

    def test_rejected_certificate_fails_the_report_row(self, monkeypatch):
        real = forts.block_fort_certificate
        monkeypatch.setattr(forts, "block_fort_certificate",
                            lambda g, k: [(c + 1, group) for c, group in real(g, k)])
        rows = paper_report._rows_gamma_general(SearchBudget())
        row = next(r for r in rows if r.claim == "lower bound WKP(4,3) k=1")
        assert row.status == "fail"
        assert row.computed.startswith("certificate rejected: 2 vertices meet every")


class TestAgreement:
    def test_equals_the_exhaustive_gamma_of_wkp_3_3(self):
        g = build_wkp(3, 3)
        bound = check_fort_certificate(g, 1, block_fort_certificate(g, 1))
        assert bound == min_kpds(g, 1).gamma == 3

    @pytest.mark.parametrize("C,k", GAMMA_L2_CASES)
    def test_at_most_the_exhaustive_gamma_on_two_levels(self, C, k):
        g = build_wkp(C, 2)
        assert check_fort_certificate(g, k, block_fort_certificate(g, k)) <= min_kpds(g, k).gamma

    @pytest.mark.parametrize("C,L,k", list(general_cases()))
    def test_equals_the_general_formula(self, C, L, k):
        assert regime_of(C, L, k) is RegimeTag.GENERAL
        g = build_wkp(C, L)
        bound = check_fort_certificate(g, k, block_fort_certificate(g, k))
        assert bound == gamma_formula(C, L, k).value
