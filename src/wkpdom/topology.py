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
  parent at level r-1 (drop the last digit); a single apex above level 1 is
  adjacent to all C level-1 vertices.

Graphs are immutable once built and use a canonical vertex order (ascending
level, then lexicographic digit strings), so ordinals, propagation traces,
and search witnesses are reproducible across runs.  Ordinals are arithmetic:
with offset(r) the number of vertices on the levels above r
(1 + C + ... + C^(r-1) in WKP, 0 in WK), vertex (r, a_r ... a_1) has
ordinal offset(r) + value(a_r ... a_1), the digits read in base C; the apex
is ordinal 0.  ``graph_from_json`` accepts only canonical documents: the
vertex and edge lists that ``export`` writes for WK(C, L) or WKP(C, L).
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from typing import Iterable, Iterator, NamedTuple

WK = "WK"
WKP = "WKP"

#: Builders refuse graphs larger than this unless the cap is overridden.
DEFAULT_MAX_VERTICES = 100_000


class ParameterDomainError(ValueError):
    """A structural parameter (C, L, level, digit string, ordinal) is out of domain."""


class AddressParseError(ParameterDomainError):
    """An address literal does not match the display grammar."""


class Address(NamedTuple):
    """Vertex identity: a level and the digit string a_r ... a_1 at that level.

    ``digits[0]`` is the most significant digit a_r and ``digits[-1]`` is a_1,
    so tuple comparison is lexicographic in display order.  The apex sits at
    level 0 with an empty digit tuple and renders as ``(0,(1))``.  Digit
    strings render one character per digit.
    """

    level: int
    digits: tuple[int, ...] = ()

    @property
    def is_apex(self) -> bool:
        return self.level == 0

    def __str__(self) -> str:
        if self.level == 0:
            return "(0,(1))"
        return "({},({}))".format(self.level, "".join(map(str, self.digits)))


APEX = Address(0, ())


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


def address_list(g: PyramidGraph, ordinals: Iterable[int]) -> list[str]:
    """The addresses of ``ordinals`` as literals, in ordinal order (C <= 10)."""
    check_printable(g.C)
    return [str(g.vertices[v]) for v in sorted(ordinals)]


_ADDRESS_RE = re.compile(r"\((\d+),\((\d*)\)\)")


def parse_address(text: str, C: int | None = None) -> Address:
    """Parse an address literal such as ``(2,(34))`` or the apex ``(0,(1))``.

    Inverse of ``str(address)``.  When ``C`` is given every digit is checked
    against [C]_0, and C > 10 is refused: digits are single characters.
    """
    if C is not None:
        check_printable(C)
    m = _ADDRESS_RE.fullmatch(text.strip())
    if m is None:
        raise AddressParseError(f"malformed address literal: {text!r}")
    level = int(m.group(1))
    raw = m.group(2)
    if level == 0:
        if raw != "1":
            raise AddressParseError(f"the apex is written (0,(1)), got {text!r}")
        return APEX
    if len(raw) != level:
        raise AddressParseError(
            f"address {text!r}: digit string has length {len(raw)}, level is {level}"
        )
    digits = tuple(int(ch) for ch in raw)
    if C is not None:
        for d in digits:
            if d >= C:
                raise AddressParseError(
                    f"address {text!r}: digit {d} out of range for C={C}"
                )
    return Address(level, digits)


def as_digits(value: str | Iterable[int], C: int, *, what: str = "digit string") -> tuple[int, ...]:
    """Normalize a digit-string argument (str of digit chars, or ints) to a tuple."""
    try:
        if isinstance(value, str):
            digits = tuple(int(ch) for ch in value)
        else:
            digits = tuple(int(d) for d in value)
    except (TypeError, ValueError):
        raise ParameterDomainError(f"{what} {value!r} is not a digit sequence") from None
    for d in digits:
        if not 0 <= d < C:
            raise ParameterDomainError(f"{what} {value!r}: digit {d} out of range for C={C}")
    return digits


class EdgeRef(NamedTuple):
    """An undirected edge as a sorted pair of vertex ordinals."""

    u: int
    v: int


class PyramidGraph:
    """Immutable adjacency structure for a WK or WKP graph, built from its rows.

    Vertex (r, d) has ordinal ``offsets[r] + value(d)``, the digits read in
    base C (see the module docstring); ``vertices[i]`` is the address of
    ordinal i and ``adjacency[i]`` its sorted tuple of neighbor ordinals.
    Nothing else is stored, so a graph takes O(n + |E|) space.
    """

    __slots__ = ("family", "C", "L", "vertices", "adjacency", "offsets")

    def __init__(self, family: str, C: int, L: int,
                 vertices: Iterable[Address], adjacency: Iterable[tuple[int, ...]]):
        self.family = family
        self.C = C
        self.L = L
        self.vertices = tuple(vertices)
        self.adjacency = tuple(adjacency)
        self.offsets = _level_offsets(family, C, L)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def ordinal(self, address: Address) -> int:
        """offset(r) + value(digits); ParameterDomainError for a non-vertex."""
        r, digits = address
        if not ((self.family == WKP or r == self.L) and 0 <= r <= self.L
                and len(digits) == r and all(0 <= d < self.C for d in digits)):
            raise ParameterDomainError(f"{address} is not a vertex of {self!r}")
        return self.offsets[r] + _value(digits, self.C)

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
        return (self.family, self.C, self.L, self.vertices, self.adjacency) == \
               (other.family, other.C, other.L, other.vertices, other.adjacency)

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


def _check_parameters(C: int, L: int, count: int, max_vertices: int) -> None:
    if C < 1:
        raise ParameterDomainError(f"C must be >= 1, got {C}")
    if L < 1:
        raise ParameterDomainError(f"L must be >= 1, got {L}")
    if count > max_vertices:
        raise ParameterDomainError(
            f"graph would have {count} vertices, above the cap of {max_vertices}"
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


def _level_rows(C: int, r: int, offset: int) -> Iterator[tuple[Address, list[int]]]:
    """Each level-r vertex in canonical order with its sorted same-level row.

    The bridge partner lies outside the vertex's clique, the C ordinals from
    ``i - d[-1]`` on, so it goes before or after the clique as a whole.
    """
    for x, d in enumerate(itertools.product(range(C), repeat=r)):
        i = offset + x
        base = i - d[-1]
        row = [j for j in range(base, base + C) if j != i]
        partner = rule2_partner(d)
        if partner is not None:
            p = offset + _value(partner, C)
            row.insert(0 if p < base else C - 1, p)
        yield Address(r, d), row


def build_wk(C: int, L: int, *, max_vertices: int = DEFAULT_MAX_VERTICES) -> PyramidGraph:
    """Build the WK-recursive mesh WK(C, L) on C**L vertices.

    Vertices carry level L in their address so they share the Address type
    with pyramid vertices; the canonical order is lexicographic on digits.
    """
    _check_parameters(C, L, C ** max(L, 0), max_vertices)
    vertices, rows = zip(*_level_rows(C, L, 0))
    return PyramidGraph(WK, C, L, vertices, map(tuple, rows))


def build_wkp(C: int, L: int, *, max_vertices: int = DEFAULT_MAX_VERTICES) -> PyramidGraph:
    """Build the WK-pyramid WKP(C, L) on 1 + C + C^2 + ... + C^L vertices."""
    _check_parameters(C, L, (C ** (L + 1) - 1) // (C - 1) if C > 1 else L + 1, max_vertices)
    offsets = _level_offsets(WKP, C, L)
    vertices, rows = [APEX], [tuple(range(1, C + 1))]
    for r in range(1, L + 1):
        for x, (a, row) in enumerate(_level_rows(C, r, offsets[r])):
            children = range(offsets[r + 1] + x * C, offsets[r + 1] + x * C + C) if r < L else ()
            vertices.append(a)
            rows.append((offsets[r - 1] + x // C, *row, *children))
    return PyramidGraph(WKP, C, L, vertices, rows)


def extreme_vertices(g: PyramidGraph) -> set[Address]:
    """All repeated-digit vertices: (r,(a...a)) per level for WKP, (a)^L for WK."""
    if g.family == WK:
        return {Address(g.L, (a,) * g.L) for a in range(g.C)}
    return {Address(r, (a,) * r) for r in range(1, g.L + 1) for a in range(g.C)}


def gw_subgraph(g: PyramidGraph, w: str | Iterable[int]) -> set[Address]:
    """Vertex set of the level-L block with prefix w: {(L,(w i j)): i, j in [C]_0}.

    The induced subgraph of any such block is isomorphic to WK(C, 2); the
    blocks for all prefixes w partition level L.
    """
    if g.family != WKP:
        raise ParameterDomainError("level-L blocks are defined on WKP graphs")
    if g.L < 2:
        raise ParameterDomainError("level-L blocks need L >= 2")
    prefix = _block_prefix(g, w)
    return {Address(g.L, prefix + (i, j)) for i in range(g.C) for j in range(g.C)}


def _block_prefix(g: PyramidGraph, w: str | Iterable[int]) -> tuple[int, ...]:
    prefix = as_digits(w, g.C, what="block prefix")
    if len(prefix) != g.L - 2:
        raise ParameterDomainError(
            f"block prefix must have length L-2={g.L - 2}, got {len(prefix)}"
        )
    return prefix


def clique_members(g: PyramidGraph, r: int, prefix: str | Iterable[int]) -> set[Address]:
    """The C-clique at level r sharing a prefix: {(r,(prefix j)): j in [C]_0}."""
    if not 1 <= r <= g.L:
        raise ParameterDomainError(f"level {r} out of range 1..{g.L}")
    if g.family == WK and r != g.L:
        raise ParameterDomainError("WK graphs only carry level L vertices")
    p = as_digits(prefix, g.C, what="clique prefix")
    if len(p) != r - 1:
        raise ParameterDomainError(f"clique prefix must have length r-1={r - 1}, got {len(p)}")
    return {Address(r, p + (j,)) for j in range(g.C)}


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


def crossing_edge(g: PyramidGraph, w: str | Iterable[int], w2: str | Iterable[int]) -> EdgeRef | None:
    """The unique level-L edge between the blocks of prefixes w and w2, if any.

    None when the prefixes are not adjacent in WK(C, L-2); see ``block_bridge``.
    """
    if g.family != WKP or g.L < 3:
        raise ParameterDomainError("crossing edges are defined on WKP graphs with L >= 3")
    a = _block_prefix(g, w)
    b = _block_prefix(g, w2)
    if a == b:
        raise ParameterDomainError("block prefixes must differ")
    bridge = block_bridge(a, b, g.C)
    if bridge is None:
        return None
    i, j = (g.ordinal(Address(g.L, d)) for d in bridge)
    return EdgeRef(min(i, j), max(i, j))


def export(g: PyramidGraph, format: str = "json") -> bytes:
    """Serialize a graph to DOT or JSON bytes with deterministic ordering (C <= 10)."""
    check_printable(g.C)
    if format == "json":
        payload = {
            "family": g.family,
            "C": g.C,
            "L": g.L,
            "vertices": [str(a) for a in g.vertices],
            "edges": [[i, j] for i, j in g.edge_list()],
        }
        return (json.dumps(payload) + "\n").encode("utf-8")
    if format == "dot":
        lines = [f'graph "{g.family}({g.C},{g.L})" {{']
        lines.extend(f'  "{a}";' for a in g.vertices)
        lines.extend(f'  "{g.vertices[i]}" -- "{g.vertices[j]}";' for i, j in g.edge_list())
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ParameterDomainError(f"unknown export format {format!r}")


def graph_from_json(data: bytes | str) -> PyramidGraph:
    """Rebuild a graph from ``export(g, "json")`` output.

    The document must be canonical: it is rebuilt as WK(C, L) or WKP(C, L),
    never with more vertices than it lists, and its vertex and edge lists
    must equal the rebuilt graph's; anything else is a ParameterDomainError.
    """
    try:
        doc = json.loads(data)
        family = doc["family"]
        C = int(doc["C"])
        L = int(doc["L"])
        vertices = [parse_address(s, C) for s in doc["vertices"]]
        builder = {WK: build_wk, WKP: build_wkp}.get(family)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterDomainError(f"malformed graph JSON: {exc}") from None
    if builder is None:
        raise ParameterDomainError(f"unknown graph family {family!r}")
    # A canonical list ends at level L, which bounds L by the input's size
    # before the vertex count, a power of C, is computed.
    if not vertices or vertices[-1].level != L:
        raise ParameterDomainError(f"graph JSON does not list level L={L} last")
    g = builder(C, L, max_vertices=len(vertices))
    if list(g.vertices) != vertices or list(map(list, g.edge_list())) != doc["edges"]:
        raise ParameterDomainError(f"graph JSON does not list the vertices and edges of {g!r}")
    return g
