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
ordinal 0.  The adjacency rows are built a column of ordinals at a time
and hold the graph's one int object per ordinal.  ``graph_from_json``
accepts only canonical documents: the vertex and edge lists that
``export`` writes for WK(C, L) or WKP(C, L).
"""

from __future__ import annotations

import bisect
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
    """Refuse a C or L that is not an int (bools included) or is below 1."""
    for name, x in (("C", C), ("L", L)):
        if type(x) is not int:
            raise ParameterDomainError(f"{name} must be an int, got {x!r}")
        if x < 1:
            raise ParameterDomainError(f"{name} must be >= 1, got {x}")


def check_cap(name: str, cap: int) -> None:
    """Refuse a cap that is not an int (bools included) or is below 1."""
    if type(cap) is not int:
        raise ParameterDomainError(f"{name} must be an int, got {cap!r}")
    if cap < 1:
        raise ParameterDomainError(f"{name} must be positive")


def check_k(k: int) -> None:
    """Refuse a k that is not an int (bools included) or is negative; k=0 is plain domination."""
    if type(k) is not int:
        raise ParameterDomainError(f"k must be an int, got {k!r}")
    if k < 0:
        raise ParameterDomainError(f"k must be >= 0, got {k}")


def address_list(g: PyramidGraph, ordinals: Iterable[int]) -> list[str]:
    """The addresses of ``ordinals`` as literals, in ordinal order (C <= 10)."""
    check_printable(g.C)
    return [format_address(g.address(v)) for v in sorted(ordinals)]


def quoted_line(g: PyramidGraph) -> tuple[str, list[int]]:
    """Every vertex's quoted literal on one line, and where each starts (C <= 10).

    The line is what ``json.dumps`` writes for the list of literals in
    ordinal order, less its brackets: the quoted literals joined by
    ``", "``.  ``at[v]`` is the offset of the opening quote of ordinal v,
    and ``at[n]`` is two past the end of the line, so:

    * ordinals a..b-1 are ``line[at[a]:at[b] - 2]``;
    * the literal of v alone is ``line[at[v] + 1:at[v + 1] - 3]``.

    WK prints level L only; WKP prints the apex and levels 1..L.  Every
    literal of a level has the same width, so ``at`` is one ``range`` per
    level.  A level is built a rule-1 clique at a time: the C literals that
    share a prefix p are ``p.join(pieces)`` for C+1 constant pieces, in time
    linear in their length.
    """
    check_printable(g.C)
    digits = "0123456789"[:g.C]
    if g.family == WK:
        texts, at, start, levels = [], [], 0, (g.L,)
    else:
        apex = f'"{format_address(APEX)}"'
        texts, at, start, levels = [apex], [0], len(apex) + 2, range(1, g.L + 1)
    for r in levels:
        head = f'"({r},('
        pieces = [head, *[d + '))", ' + head for d in digits[:-1]], digits[-1] + '))"']
        prefixes = map("".join, itertools.product(digits, repeat=r - 1))
        texts.append(", ".join([p.join(pieces) for p in prefixes]))
        end = start + len(texts[-1]) + 2
        at += range(start, end, len(head) + r + 5)  # a quoted literal and its ", "
        start = end
    at.append(start)
    return ", ".join(texts), at


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

    ``adjacency[i]`` is the sorted tuple of neighbor ordinals of ordinal i;
    the rows share the graph's one int object per ordinal, so a graph holds
    n ints besides its rows.  Vertex d has ordinal ``offsets[len(d)] +
    value(d)``, the digits read in base C (see the module docstring), so
    ``ordinal`` and its inverse ``address`` are arithmetic and a graph takes
    O(n + |E|) space.
    """

    __slots__ = ("family", "C", "L", "adjacency", "offsets")

    def __init__(self, family: str, C: int, L: int, max_vertices: int = DEFAULT_MAX_VERTICES):
        """Check the parameters, then build every row of ``family``(C, L) (see ``_rows``).

        A cap that is not an int or is below 1, C < 1, L < 1, an unknown
        family and a graph of more than ``max_vertices`` vertices are
        refused.  WKP(C, L) has at least L + 1 vertices and, for C >= 2,
        either family at least 2^L, so an L too long for the cap is refused
        before any power of C is computed.
        """
        check_cap("max_vertices", max_vertices)
        check_dimensions(C, L)
        if family not in (WK, WKP):
            raise ParameterDomainError(f"unknown graph family {family!r}")
        if (family == WKP and L >= max_vertices) or (C > 1 and L > max_vertices.bit_length()) \
                or (offsets := _level_offsets(family, C, L))[-1] > max_vertices:
            raise ParameterDomainError(
                f"{family}({C},{L}) has more vertices than the cap of {max_vertices}"
            )
        self.family = family
        self.C = C
        self.L = L
        self.offsets = offsets
        self.adjacency = tuple(_rows(family, C, L, offsets))

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def ordinal(self, address: Address) -> int:
        """offset(len(address)) + value(address); ParameterDomainError for a non-vertex."""
        r, C = len(address), self.C
        if not ((self.family == WKP or r == self.L) and r <= self.L
                and (not address or (min(address) >= 0 and max(address) < C))):
            raise ParameterDomainError(f"{format_address(address)} is not a vertex of {self!r}")
        value = 0
        for d in address:
            value = value * C + d
        return self.offsets[r] + value

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
    if family == WK:  # only level L has vertices
        return (0,) * (L + 1) + (C ** L,)
    return tuple(itertools.accumulate((C ** r for r in range(L + 1)), initial=0))


#: A class's rows are zipped this many at a time.  The cyclic collector walks
#: each column slice once, so short slices are walked while still in cache.
_CHUNK = 256


def _rows(family: str, C: int, L: int, offsets: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The sorted adjacency rows of WK(C, L) or WKP(C, L), a column at a time.

    Every entry is an item of ``ords``, the graph's one int object per
    ordinal.  A string p c j^t, c != j, ends in a run of t digits j: its
    clique mates replace the last digit, its bridge partner p j c^t lies
    (c - j)(e_t - C^t) ordinals away, with e_t = 1 + C + ... + C^(t-1), and
    its parent and children drop and append a digit.  For fixed (t, c, j)
    those strings, the class, are the values u = c C^t + j e_t past each
    multiple of C^(t+1) on every level r > t, where the level offsets agree
    modulo C^(t+1).  Their ordinals form one arithmetic progression, and so
    does each column of their rows: the parents (step C^t), each mate and
    the partners (step C^(t+1)) and each child (step C^(t+2)).  A class's
    rows are those columns, tuple slices of ``ords``, zipped in the order
    of its first row: the partner lies outside the clique, before it when
    c > j.  WKP splits each class at level L, where the rows lose their
    children.  The C repeated-digit strings of each level have no partner
    and are built one at a time, as is the apex.
    """
    ords = tuple(range(offsets[-1]))
    rows = [None] * len(ords)
    wkp = family == WKP
    spans = ((1, L - 1), (L, L)) if wkp else ((L, L),)  # levels whose rows share a shape
    pairs = list(itertools.permutations(range(C), 2))  # (c, j); none for C = 1
    pw = [C ** t for t in range(L + 2)] if pairs else ()
    e = list(itertools.accumulate(pw, initial=0)) if pairs else range(L + 2)  # e_t = t for C = 1
    for t in range(1, L) if pairs else ():
        sub, step, et = pw[t], pw[t + 1], e[t]
        for r0, r1 in spans:
            r0 = max(r0, t + 1)
            count = (offsets[r1 + 1] - offsets[r0]) // step
            kids = wkp and r1 < L
            for i in range(0, count, _CHUNK):
                k = min(count - i, _CHUNK)
                w, x0 = k * step, offsets[r0] + i * step
                for c, j in pairs:
                    u = c * sub + j * et
                    x = x0 + u
                    cols = [ords[y:y + w:step] for y in range(x - j, x - j + C) if y != x]
                    b = x + (c - j) * (et - sub)
                    cols.insert(0 if c > j else C - 1, ords[b:b + w:step])
                    if wkp:
                        p = offsets[r0 - 1] + i * sub + u // C
                        cols.insert(0, ords[p:p + k * sub:sub])
                    if kids:
                        f = offsets[r0 + 1] + (i * step + u) * C
                        cols += [ords[y:y + w * C:step * C] for y in range(f, f + C)]
                    rows[x:x + w:step] = zip(*cols)
    for r in range(1, L + 1) if wkp else (L,):
        for a in range(C):
            x = offsets[r] + a * e[r]
            row = ords[x - a:x] + ords[x + 1:x - a + C]
            if wkp:  # level L's children start past the last ordinal: an empty slice
                f = offsets[r + 1] + a * e[r] * C
                row = (ords[offsets[r - 1] + a * e[r - 1]],) + row + ords[f:f + C]
            rows[x] = row
    if wkp:
        rows[0] = ords[1:C + 1]
    return rows


def build_wk(C: int, L: int, *, max_vertices: int = DEFAULT_MAX_VERTICES) -> PyramidGraph:
    """Build the WK-recursive mesh WK(C, L) on C**L vertices.

    Its vertices are the length-L strings, the level-L vertices of WKP(C, L);
    the canonical order is lexicographic on digits.
    """
    return PyramidGraph(WK, C, L, max_vertices)


def build_wkp(C: int, L: int, *, max_vertices: int = DEFAULT_MAX_VERTICES) -> PyramidGraph:
    """Build the WK-pyramid WKP(C, L) on 1 + C + C^2 + ... + C^L vertices."""
    return PyramidGraph(WKP, C, L, max_vertices)


def extreme_vertices(g: PyramidGraph) -> set[int]:
    """The ordinals offset(r) + a (1 + C + ... + C^(r-1)) of a^r, r >= 1 in WKP, r = L in WK."""
    levels = (g.L,) if g.family == WK else range(1, g.L + 1)
    return {g.offsets[r] + a * sum(g.C ** p for p in range(r)) for r in levels for a in range(g.C)}


def export(g: PyramidGraph, format: str = "json") -> str:
    """Serialize a graph to DOT or JSON text with deterministic ordering (C <= 10)."""
    return "".join(export_pieces(g, format))


def export_pieces(g: PyramidGraph, format: str = "json") -> Iterator[str]:
    """The text of ``export`` in pieces, for writing as it is made.

    JSON, the bytes ``json.dumps`` makes of the whole document, is the
    header, the vertex list as ``"["``, ``quoted_line(g)[0]`` and ``"]"``,
    the edges key, one piece per vertex that has edges to higher ordinals,
    and the closing brackets; DOT is one line per vertex, then one piece
    per vertex with its edges to higher ordinals.
    """
    if format == "json":
        # Literals hold only digits, commas and parentheses: quoted, they are JSON.
        line = quoted_line(g)[0]
        yield json.dumps({"family": g.family, "C": g.C, "L": g.L})[:-1] + ', "vertices": '
        yield "["
        yield line
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
        # A literal never contains ", ", so the line splits into the quoted literals.
        literals = quoted_line(g)[0].split(", ")
        yield f'graph "{g.family}({g.C},{g.L})" {{\n'
        for a in literals:
            yield f"  {a};\n"
        for i, nbrs in enumerate(g.adjacency):
            head = f"  {literals[i]} -- "
            yield "".join([f"{head}{literals[j]};\n" for j in nbrs if i < j])
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
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterDomainError(f"malformed graph JSON: {exc}") from None
    check_dimensions(C, L)
    # A canonical list ends at level L, which bounds L by the input's size
    # before the graph is built: WK(1, L) has one vertex for every L.
    last = listed[-1] if isinstance(listed, list) and listed else None
    if not isinstance(last, str) or len(parse_address(last, C)) != L:
        raise ParameterDomainError(f"graph JSON does not list level L={L} last")
    g = PyramidGraph(family, C, L, len(listed))
    # With default separators, json.dumps spells a list of strings as the
    # bracketed line, so any other entry or order makes the texts differ.
    if json.dumps(listed) != f"[{quoted_line(g)[0]}]" or list(map(list, g.edge_list())) != edges:
        raise ParameterDomainError(f"graph JSON does not list the vertices and edges of {g!r}")
    return g
