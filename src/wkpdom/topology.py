"""WK-recursive mesh and WK-pyramid network construction and queries.

Both families address vertices with digit strings over [C]_0 = {0, ..., C-1}:

* A WK-recursive mesh ``WK(C, L)`` has one vertex per digit string
  a_L ... a_1.  Strings agreeing everywhere except in the last digit form a
  C-clique (rule 1).  A string ending in a run of j-1 equal digits b that is
  preceded by a different digit c is additionally bridged to the string with
  c and the run swapped, ``... c b^(j-1) -- ... b c^(j-1)`` (rule 2).  The
  bridges tie the C recursively nested sub-meshes together; every vertex
  that is not a repeated-digit ("extreme") vertex has exactly one of them.

* A WK-pyramid ``WKP(C, L)`` stacks levels 1..L, level r inducing WK(C, r).
  Each level-r vertex has C children at level r+1 (append one digit) and a
  parent at level r-1 (drop the last digit); a single apex above level 1,
  the empty string, is adjacent to all C level-1 vertices.

A vertex is its digit string, a tuple of ints with the most significant
digit a_r first, so its level r is the tuple's length and tuple comparison
is lexicographic in display order.  Its literal ``(r,(a_r...a_1))`` (the
apex is written ``(0,(1))``) writes that length out; ``format_address`` and
``parse_address`` convert between the two.

Graphs are immutable once built and use a canonical vertex order (ascending
level, then lexicographic digit strings), so ordinals, propagation traces,
and search witnesses are reproducible across runs.  Ordinals are arithmetic:
with offset(r) the number of vertices on the levels above r
(1 + C + ... + C^(r-1) in WKP, 0 in WK), vertex a_r ... a_1 has ordinal
offset(r) + value(a_r ... a_1), the digits read in base C; the apex is
ordinal 0.  ``graph_from_json`` accepts only canonical documents: the
vertex and edge lists that ``export`` writes for WK(C, L) or WKP(C, L).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import re
from typing import Iterable, Iterator

WK = "WK"
WKP = "WKP"

#: Builders refuse graphs larger than this unless the cap is overridden.
DEFAULT_MAX_VERTICES = 100_000


class ParameterDomainError(ValueError):
    """A structural parameter (C, L, level, digit string, ordinal) is out of domain."""


class AddressParseError(ParameterDomainError):
    """An address literal does not match the display grammar."""


#: A vertex: its digit string a_r ... a_1, most significant digit first.
Address = tuple[int, ...]

APEX: Address = ()


def check_printable(C: int) -> None:
    """Refuse to print or parse the addresses of a graph with C > 10.

    Address literals spell one character per digit, so a digit 10 would
    print as two characters and not parse back.
    """
    if C > 10:
        raise ParameterDomainError(
            f"addresses are written one character per digit, so they can be printed "
            f"or parsed for C <= 10 only, got C={C}"
        )


def check_dimensions(C: int, L: int) -> None:
    """Refuse C < 1 or L < 1: every graph here has at least one digit and one level."""
    if C < 1:
        raise ParameterDomainError(f"C must be >= 1, got {C}")
    if L < 1:
        raise ParameterDomainError(f"L must be >= 1, got {L}")


def check_k(k: int) -> None:
    """Refuse a negative propagation allowance; k=0 is plain domination."""
    if k < 0:
        raise ParameterDomainError(f"k must be >= 0, got {k}")


def address_list(g: PyramidGraph, ordinals: Iterable[int]) -> list[str]:
    """The addresses of ``ordinals`` as literals, in ordinal order (C <= 10)."""
    check_printable(g.C)
    return [format_address(g.address(v)) for v in sorted(ordinals)]


def address_literals(g: PyramidGraph) -> list[str]:
    """The literal of every vertex, indexed by ordinal (C <= 10).

    Equal to ``[format_address(g.address(i)) for i in range(g.n)]``, but a
    literal costs one string join instead of a format call: each printed
    level's strings come from ``itertools.product``, in time linear in their
    length.  WK prints level L only; WKP prints the apex and levels 1..L.
    """
    check_printable(g.C)
    digits = "0123456789"[:g.C]
    if g.family == WK:
        literals, levels = [], (g.L,)
    else:
        literals, levels = [format_address(APEX)], range(1, g.L + 1)
    for r in levels:
        head = f"({r},("
        literals += [head + "".join(s) + "))" for s in itertools.product(digits, repeat=r)]
    return literals


def format_address(address: Address) -> str:
    """The literal ``(r,(a_r...a_1))`` of a vertex, or ``(0,(1))`` for the apex.

    Inverse of ``parse_address``; digits are written one character each.
    """
    if not address:
        return "(0,(1))"
    return "({},({}))".format(len(address), "".join(map(str, address)))


_ADDRESS_RE = re.compile(r"\(([0-9]+),\(([0-9]*)\)\)")


def parse_address(text: str, C: int | None = None) -> Address:
    """The vertex of an address literal such as ``(2,(34))`` or the apex ``(0,(1))``.

    Inverse of ``format_address``: a literal (surrounding whitespace aside)
    that ``format_address`` would not write, such as a level that is not the
    digit count or is zero-padded, is refused.  When ``C`` is given every
    digit is checked against [C]_0, and C > 10 is refused: digits are single
    characters.
    """
    if C is not None:
        check_printable(C)
    literal = text.strip()
    m = _ADDRESS_RE.fullmatch(literal)
    if m is None:
        raise AddressParseError(f"malformed address literal: {text!r}")
    level, raw = m.groups()
    digits = APEX if (level, raw) == ("0", "1") else tuple(int(ch) for ch in raw)
    expected = format_address(digits)
    if literal != expected:
        raise AddressParseError(
            f"address {text!r} should read {expected!r}: the level is the digit count "
            f"without leading zeros, and the apex is written (0,(1))"
        )
    if C is not None:
        for d in digits:
            if d >= C:
                raise AddressParseError(
                    f"address {text!r}: digit {d} out of range for C={C}"
                )
    return digits


class PyramidGraph:
    """Immutable adjacency structure for a WK or WKP graph: its rows and nothing else.

    ``adjacency[i]`` is the sorted tuple of neighbor ordinals of ordinal i.
    Vertex d has ordinal ``offsets[len(d)] + value(d)``, the digits read in
    base C (see the module docstring), so ``ordinal`` and its inverse
    ``address`` are arithmetic and a graph takes O(n + |E|) space.
    """

    __slots__ = ("family", "C", "L", "adjacency", "offsets")

    def __init__(self, family: str, C: int, L: int, adjacency: Iterable[tuple[int, ...]]):
        self.family = family
        self.C = C
        self.L = L
        self.adjacency = tuple(adjacency)
        self.offsets = _level_offsets(family, C, L)

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def ordinal(self, address: Address) -> int:
        """offset(len(address)) + value(address); ParameterDomainError for a non-vertex."""
        r = len(address)
        if not ((self.family == WKP or r == self.L) and r <= self.L
                and all(0 <= d < self.C for d in address)):
            raise ParameterDomainError(f"{format_address(address)} is not a vertex of {self!r}")
        return self.offsets[r] + _value(address, self.C)

    def address(self, i: int) -> Address:
        """Inverse of ``ordinal``; ParameterDomainError for an ordinal outside range(n)."""
        if not 0 <= i < self.n:
            raise ParameterDomainError(f"{i} is not a vertex ordinal of {self!r}")
        r = bisect.bisect_right(self.offsets, i) - 1
        x = i - self.offsets[r]
        return tuple(x // self.C ** p % self.C for p in reversed(range(r)))

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def level_ordinals(self, r: int) -> range:
        return range(self.offsets[r], self.offsets[r + 1]) if 0 <= r <= self.L else range(0)

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as ordinal pairs (i, j) with i < j, in canonical order."""
        return [(i, j) for i, nbrs in enumerate(self.adjacency) for j in nbrs if i < j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PyramidGraph):
            return NotImplemented
        return (self.family, self.C, self.L, self.adjacency) == \
               (other.family, other.C, other.L, other.adjacency)

    def __hash__(self) -> int:
        return hash((self.family, self.C, self.L))

    def __repr__(self) -> str:
        return f"PyramidGraph({self.family}({self.C},{self.L}), n={self.n}, m={self.edge_count})"


def _level_offsets(family: str, C: int, L: int) -> tuple[int, ...]:
    """offsets[r] = ordinal of the first level-r vertex, r = 0..L+1; offsets[L+1] = n."""
    sizes = (C ** r if family == WKP or r == L else 0 for r in range(L + 1))
    return tuple(itertools.accumulate(sizes, initial=0))


def _value(digits: tuple[int, ...], C: int) -> int:
    """The digit string read as a base-C number."""
    return functools.reduce(lambda x, d: x * C + d, digits, 0)


def _check_parameters(family: str, C: int, L: int, max_vertices: int) -> None:
    """Refuse bad dimensions and a graph of more than ``max_vertices`` vertices.

    For C >= 2 a graph has at least 2^L vertices, so an L beyond the cap's
    bit length is refused before any power of C is computed.
    """
    check_dimensions(C, L)
    if C == 1:
        over = (L + 1 if family == WKP else 1) > max_vertices
    else:
        over = L > max_vertices.bit_length() or _level_offsets(family, C, L)[-1] > max_vertices
    if over:
        raise ParameterDomainError(
            f"{family}({C},{L}) has more vertices than the cap of {max_vertices}"
        )


def rule2_partner(digits: tuple[int, ...]) -> tuple[int, ...] | None:
    """Bridge partner of a digit string, or None for repeated-digit strings.

    With the string ending in a run of t equal digits b preceded by c != b,
    the partner swaps them: prefix + (b,) + (c,) * t.
    """
    r = len(digits)
    last = digits[-1]
    t = 1
    while t < r and digits[r - 1 - t] == last:
        t += 1
    if t == r:
        return None
    c = digits[r - 1 - t]
    return digits[: r - 1 - t] + (last,) + (c,) * t


def _bridge_deltas(C: int, L: int) -> Iterator[list[int]]:
    """For r = 1..L, the rule-2 bridge of every level-r string as one list.

    Entry x is partner - x for the string of base-C value x, or 0 when it
    has no bridge.  WK(C, r) is C copies of WK(C, r-1): copy a (the strings
    a d) keeps the bridges of d, which move with it, so the level r-1 list
    repeated C times holds them; and its extreme string a b^(r-1), b != a,
    is bridged to b a^(r-1).  With s = C^(r-1) and e the value of 1^(r-1),
    those two strings are a*s + b*e and b*s + a*e.
    """
    deltas, s, e = [0] * C, C, 1
    yield deltas
    for _ in range(2, L + 1):
        deltas = deltas * C
        for a, b in itertools.permutations(range(C), 2):
            deltas[a * s + b * e] = (b - a) * (s - e)
        s, e = s * C, e * C + 1
        yield deltas


def _runs(ordinals: range, C: int) -> Iterator[tuple[int, ...]]:
    """``ordinals`` cut into consecutive tuples of C."""
    return zip(*[iter(ordinals)] * C)


def _level_rows(C: int, deltas: list[int], offset: int,
                heads: Iterable[tuple[int, ...]],
                tails: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The sorted rows of one level, a rule-1 clique at a time.

    The level's vertices are ``offset + x`` with ``deltas[x]`` from
    ``_bridge_deltas``; each run of C of them is a clique.  A clique's row
    starts with its next ``heads`` entry (its parent in WKP), and a vertex's
    row ends with its next ``tails`` entry (its children).  The bridge
    partner lies outside the vertex's clique, so it goes before the clique
    when it is smaller and after it otherwise.
    """
    rows = []
    tails = iter(tails)
    for head, clique in zip(heads, _runs(range(offset, offset + len(deltas)), C)):
        for j, i in enumerate(clique):
            same = clique[:j] + clique[j + 1:]
            d = deltas[i - offset]
            if d < 0:
                same = (i + d,) + same
            elif d:
                same += (i + d,)
            rows.append(head + same + next(tails))
    return rows


def build_wk(C: int, L: int, *, max_vertices: int = DEFAULT_MAX_VERTICES) -> PyramidGraph:
    """Build the WK-recursive mesh WK(C, L) on C**L vertices.

    Its vertices are the length-L strings, the level-L vertices of WKP(C, L);
    the canonical order is lexicographic on digits.
    """
    _check_parameters(WK, C, L, max_vertices)
    *_, deltas = _bridge_deltas(C, L)
    rows = _level_rows(C, deltas, 0, itertools.repeat(()), itertools.repeat(()))
    return PyramidGraph(WK, C, L, rows)


def build_wkp(C: int, L: int, *, max_vertices: int = DEFAULT_MAX_VERTICES) -> PyramidGraph:
    """Build the WK-pyramid WKP(C, L) on 1 + C + C^2 + ... + C^L vertices."""
    _check_parameters(WKP, C, L, max_vertices)
    offsets = _level_offsets(WKP, C, L)
    rows = [tuple(range(1, C + 1))]
    for r, deltas in enumerate(_bridge_deltas(C, L), 1):
        parents = zip(range(offsets[r - 1], offsets[r]))  # (parent,) of each clique
        children = _runs(range(offsets[r + 1], offsets[r + 2]), C) if r < L else itertools.repeat(())
        rows += _level_rows(C, deltas, offsets[r], parents, children)
    return PyramidGraph(WKP, C, L, rows)


def extreme_vertices(g: PyramidGraph) -> set[Address]:
    """All repeated-digit vertices: a^r per level r >= 1 for WKP, a^L for WK."""
    if g.family == WK:
        return {(a,) * g.L for a in range(g.C)}
    return {(a,) * r for r in range(1, g.L + 1) for a in range(g.C)}


def block_bridge(a: tuple[int, ...], b: tuple[int, ...],
                 C: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The level-L edge (u, v), u in block a and v in block b, as digit strings.

    Cliques stay inside a block, so the only level-L edges leaving block a
    are the rule-2 bridges of its strings a d d; of those C candidates, the
    one whose partner has prefix b is the edge.  None if there is none.
    """
    found = None
    for d in range(C):
        u = a + (d, d)
        v = rule2_partner(u)
        if v is not None and v[:-2] == b:
            if found is not None:
                raise RuntimeError(f"blocks {a} and {b} share more than one edge")
            found = u, v
    return found


def export(g: PyramidGraph, format: str = "json") -> str:
    """Serialize a graph to DOT or JSON text with deterministic ordering (C <= 10)."""
    return "".join(export_pieces(g, format))


#: Vertices per piece of the JSON vertex list that ``export_pieces`` writes.
_VERTICES_PER_PIECE = 512


def export_pieces(g: PyramidGraph, format: str = "json") -> Iterator[str]:
    """The text of ``export`` in pieces, for writing as it is made.

    JSON, the bytes ``json.dumps`` makes of the whole document, is the
    header, the vertex list's opening bracket, its quoted literals
    ``_VERTICES_PER_PIECE`` at a time, its closing bracket, the edges key,
    one piece per vertex that has edges to higher ordinals, and the closing
    brackets; DOT is one line per vertex, then one piece per vertex with its
    edges to higher ordinals.
    """
    literals = address_literals(g)
    if format == "json":
        yield json.dumps({"family": g.family, "C": g.C, "L": g.L})[:-1] + ', "vertices": '
        yield "["
        # Literals hold only digits, commas and parentheses: quoted, they are JSON.
        sep = '"'
        for start in range(0, len(literals), _VERTICES_PER_PIECE):
            yield sep + '", "'.join(literals[start:start + _VERTICES_PER_PIECE]) + '"'
            sep = ', "'
        yield "]"
        yield ', "edges": ['
        sep = ""
        for i, nbrs in enumerate(g.adjacency):
            edges = ", ".join([f"[{i}, {j}]" for j in nbrs if i < j])
            if edges:
                yield sep + edges
                sep = ", "
        yield "]}\n"
    elif format == "dot":
        yield f'graph "{g.family}({g.C},{g.L})" {{\n'
        for a in literals:
            yield f'  "{a}";\n'
        for i, nbrs in enumerate(g.adjacency):
            head = f'  "{literals[i]}" -- "'
            yield "".join([f'{head}{literals[j]}";\n' for j in nbrs if i < j])
        yield "}\n"
    else:
        raise ParameterDomainError(f"unknown export format {format!r}")


def graph_from_json(data: bytes | str) -> PyramidGraph:
    """Rebuild a graph from ``export(g, "json")`` output.

    The document must be canonical: it is rebuilt as WK(C, L) or WKP(C, L),
    never with more vertices than it lists, and its vertex and edge lists
    must equal the rebuilt graph's; anything else is a ParameterDomainError.
    """
    try:
        doc = json.loads(data)
        family, C, L, listed, edges = (doc["family"], doc["C"], doc["L"],
                                       doc["vertices"], doc["edges"])
        builder = {WK: build_wk, WKP: build_wkp}.get(family)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterDomainError(f"malformed graph JSON: {exc}") from None
    if builder is None:
        raise ParameterDomainError(f"unknown graph family {family!r}")
    if type(C) is not int or type(L) is not int:
        raise ParameterDomainError(f"graph JSON: C and L must be integers, got {C!r} and {L!r}")
    # A canonical list ends at level L, which bounds L by the input's size
    # before the graph is built: WK(1, L) has one vertex for every L.
    last = listed[-1] if isinstance(listed, list) and listed else None
    if not isinstance(last, str) or len(parse_address(last, C)) != L:
        raise ParameterDomainError(f"graph JSON does not list level L={L} last")
    g = builder(C, L, max_vertices=len(listed))
    if listed != address_literals(g) or list(map(list, g.edge_list())) != edges:
        raise ParameterDomainError(f"graph JSON does not list the vertices and edges of {g!r}")
    return g
