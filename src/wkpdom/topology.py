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
and search witnesses are reproducible across runs.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from typing import Iterable, NamedTuple

WK = "WK"
WKP = "WKP"

#: Builders refuse graphs larger than this unless the cap is overridden.
DEFAULT_MAX_VERTICES = 100_000


class ParameterDomainError(ValueError):
    """A structural parameter (C, L, level, digit string, ordinal) is out of domain."""


class AddressParseError(ParameterDomainError):
    """An address literal does not match the display grammar."""


def _env_int(name: str, fallback: int) -> int:
    """Integer value of environment variable ``name``, or ``fallback`` when unset."""
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ParameterDomainError(f"{name} must be an integer, got {raw!r}") from None


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

    @property
    def is_extreme(self) -> bool:
        """True for repeated-digit addresses like (3,(222)); false for the apex."""
        return self.level >= 1 and len(set(self.digits)) == 1

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
    """Immutable indexed adjacency structure for a WK or WKP graph.

    ``vertices`` is the canonical ordering; ``index`` maps addresses back to
    ordinals; ``adjacency[i]`` is a sorted tuple of neighbor ordinals.
    ``closed_masks[i]`` packs N[v_i] (v_i included) into an int bitmask for
    the propagation engine.
    """

    __slots__ = ("family", "C", "L", "vertices", "index", "adjacency",
                 "closed_masks", "full_mask")

    def __init__(self, family: str, C: int, L: int,
                 vertices: Iterable[Address], edges: Iterable[tuple[int, int]]):
        if family not in (WK, WKP):
            raise ParameterDomainError(f"unknown graph family {family!r}")
        self.family = family
        self.C = C
        self.L = L
        self.vertices = tuple(vertices)
        self.index = {a: i for i, a in enumerate(self.vertices)}
        n = len(self.vertices)
        neigh: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterDomainError(f"edge ({u},{v}) out of range for |V|={n}")
            if u == v:
                raise ParameterDomainError(f"self-loop at ordinal {u}")
            neigh[u].add(v)
            neigh[v].add(u)
        self.adjacency = tuple(tuple(sorted(s)) for s in neigh)
        masks = []
        for i, nbrs in enumerate(self.adjacency):
            m = 1 << i
            for j in nbrs:
                m |= 1 << j
            masks.append(m)
        self.closed_masks = tuple(masks)
        self.full_mask = (1 << n) - 1

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def ordinal(self, address: Address) -> int:
        try:
            return self.index[address]
        except KeyError:
            raise ParameterDomainError(f"{address} is not a vertex of {self!r}") from None

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i]

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and (self.closed_masks[u] >> v) & 1 == 1

    def level_ordinals(self, r: int) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.vertices) if a.level == r)

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as ordinal pairs (i, j) with i < j, in canonical order."""
        return [(i, j) for i, nbrs in enumerate(self.adjacency) for j in nbrs if i < j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PyramidGraph):
            return NotImplemented
        return (self.family, self.C, self.L, self.vertices, self.adjacency) == \
               (other.family, other.C, other.L, other.vertices, other.adjacency)

    def __hash__(self) -> int:
        return hash((self.family, self.C, self.L, self.vertices))

    def __repr__(self) -> str:
        return f"PyramidGraph({self.family}({self.C},{self.L}), n={self.n}, m={self.edge_count})"


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


def build_wk(C: int, L: int, *, max_vertices: int = DEFAULT_MAX_VERTICES) -> PyramidGraph:
    """Build the WK-recursive mesh WK(C, L) on C**L vertices.

    Vertices carry level L in their address so they share the Address type
    with pyramid vertices; the canonical order is lexicographic on digits.
    """
    _check_parameters(C, L, C ** L, max_vertices)
    vertices = [Address(L, t) for t in itertools.product(range(C), repeat=L)]
    index = {a: i for i, a in enumerate(vertices)}
    edges: set[tuple[int, int]] = set()

    def add(i: int, j: int) -> None:
        edges.add((i, j) if i < j else (j, i))

    for i, a in enumerate(vertices):
        d = a.digits
        for j in range(C):
            if j != d[-1]:
                add(i, index[Address(L, d[:-1] + (j,))])
        partner = rule2_partner(d)
        if partner is not None:
            add(i, index[Address(L, partner)])
    return PyramidGraph(WK, C, L, vertices, edges)


def build_wkp(C: int, L: int, *, max_vertices: int = DEFAULT_MAX_VERTICES) -> PyramidGraph:
    """Build the WK-pyramid WKP(C, L) on 1 + C + C^2 + ... + C^L vertices."""
    count = 1 + sum(C ** r for r in range(1, L + 1))
    _check_parameters(C, L, count, max_vertices)
    vertices = [APEX]
    for r in range(1, L + 1):
        vertices.extend(Address(r, t) for t in itertools.product(range(C), repeat=r))
    index = {a: i for i, a in enumerate(vertices)}
    edges: set[tuple[int, int]] = set()

    def add(i: int, j: int) -> None:
        edges.add((i, j) if i < j else (j, i))

    for i, a in enumerate(vertices):
        if a.is_apex:
            continue
        r, d = a.level, a.digits
        for j in range(C):
            if j != d[-1]:
                add(i, index[Address(r, d[:-1] + (j,))])
        partner = rule2_partner(d)
        if partner is not None:
            add(i, index[Address(r, partner)])
        parent = APEX if r == 1 else Address(r - 1, d[:-1])
        add(i, index[parent])
    return PyramidGraph(WKP, C, L, vertices, edges)


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


def crossing_edge(g: PyramidGraph, w: str | Iterable[int], w2: str | Iterable[int]) -> EdgeRef | None:
    """The unique level-L edge between the blocks of prefixes w and w2, if any.

    Cliques stay inside a block, so the only level-L edges leaving block w
    are the rule-2 bridges of its strings w d d; of those C candidates, the
    one whose partner has prefix w2 is the edge.  Returns None when the two
    blocks are not adjacent (their prefixes are not adjacent in WK(C, L-2)).
    """
    if g.family != WKP or g.L < 3:
        raise ParameterDomainError("crossing edges are defined on WKP graphs with L >= 3")
    a = _block_prefix(g, w)
    b = _block_prefix(g, w2)
    if a == b:
        raise ParameterDomainError("block prefixes must differ")
    found = None
    for d in range(g.C):
        u = a + (d, d)
        v = rule2_partner(u)
        if v is not None and v[:-2] == b:
            if found is not None:
                raise RuntimeError(f"blocks {a} and {b} share more than one edge")
            i, j = g.ordinal(Address(g.L, u)), g.ordinal(Address(g.L, v))
            found = EdgeRef(min(i, j), max(i, j))
    return found


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
    """Rebuild a graph from ``export(g, "json")`` output."""
    doc = json.loads(data)
    try:
        family = doc["family"]
        C = int(doc["C"])
        L = int(doc["L"])
        vertices = [parse_address(s, C) for s in doc["vertices"]]
        edges = [(int(i), int(j)) for i, j in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterDomainError(f"malformed graph JSON: {exc}") from None
    return PyramidGraph(family, C, L, vertices, edges)
