"""Immutable graph and colored-bipartite-graph types with file I/O.

Vertex ids are dense integers 0..n-1.  Adjacency is stored as sorted
neighbor tuples.  Each side also has one Python-int bitset row per vertex
(`Graph.rows`, `ColoredBipartiteGraph.rows_x` / `rows_y`), built from the
tuples on first read; the structure searches and private-neighbourhood
counts read these rows, and `has_edge` probes them on small graphs.  Both
types also keep their edge list as one read-only (m, 2) int64 array,
`edge_array()`, which `parse_graph` fills as it parses.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_left
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

#: `has_edge` probes the bitset rows only up to this vertex count.
BITSET_THRESHOLD = 4096

#: Guardrail on vertex counts: of product graphs and of graph file headers.
VERTEX_CAP = 1 << 22

#: Guardrail on the one-byte cells of a label array: of product sketch label grids.
CELL_CAP = 1 << 28


class GraphFormatError(ValueError):
    """Raised on a malformed pugkit text file of any kind."""


class LineReader:
    """The lines of a pugkit text file, for its parser.  Iterating yields
    each line that holds more than whitespace and a `#` comment, split on
    whitespace, and sets `lineno` (lines count from 1, blank ones too).
    Each field helper converts one field; what they raise names the line:
    a GraphFormatError "line N: expected <what>, got '<token>'"."""

    __slots__ = ("lines", "lineno")

    def __init__(self, text: str):
        self.lines, self.lineno = text.splitlines(), 0

    def __iter__(self) -> Iterator[list[str]]:
        for self.lineno, raw in enumerate(self.lines, 1):
            if parts := (raw[:raw.index("#")] if "#" in raw else raw).split():
                yield parts

    @property
    def line(self) -> str:  # without its comment and outer whitespace
        return self.lines[self.lineno - 1].split("#", 1)[0].strip()

    def error(self, message: str) -> GraphFormatError:
        return GraphFormatError(f"line {self.lineno}: {message}")

    def expected(self, what: str, got: str | None = None) -> GraphFormatError:
        """The error for a field `got`, or else the whole line, that is not `what`."""
        return self.error(f"expected {what}, got {self.line if got is None else got!r}")

    def fields(self, parts: list[str], form: str) -> list[str]:
        """`parts`, which must have the keyword and field count of `form`."""
        words = form.strip("'").split()
        if parts[0] != words[0] or len(parts) != len(words):
            raise self.expected(form)
        return parts

    def integer(self, tok: str, base: int = 10) -> int:
        try:
            return int(tok, base)
        except ValueError:
            raise self.expected("an integer" if base == 10 else "a hex integer", tok) from None

    def finite(self, tok: str) -> float:
        try:
            if math.isfinite(value := float(tok)):
                return value
        except ValueError:
            pass
        raise self.expected("a finite number", tok)

    def int_list(self, tok: str) -> tuple[int, ...]:
        """The comma-separated integers of `tok`; '-' is none."""
        try:
            return () if tok == "-" else tuple(map(int, tok.split(",")))
        except ValueError:
            raise self.expected("a comma list of integers or '-'", tok) from None

    def keyed(self, tok: str, key: str) -> str:
        """The value of `tok`, which must read `<key>=<value>`."""
        if not tok.startswith(key + "="):
            raise self.expected(f"{key}=...", tok)
        return tok[len(key) + 1:]


def in_id_order(items: Sequence[tuple[int, int, object]], what: str) -> list:
    """The values of (line, id, value) items by id.  The ids must be
    0..len-1, each once: else the error names the line of the first id, in
    file order, that is outside that range or repeats an earlier one."""
    out, seen = [None] * len(items), bytearray(len(items))
    for line, i, value in items:
        if not 0 <= i < len(items):
            raise GraphFormatError(f"line {line}: {what} id {i} is not in 0..{len(items) - 1}")
        if seen[i]:
            raise GraphFormatError(f"line {line}: {what} id {i} appears twice")
        out[i], seen[i] = value, 1
    return out


def mask_of(ids: Iterable[int]) -> int:
    """The bitset of `ids`: bit v is set iff v is among them."""
    mask = 0
    for v in ids:
        mask |= 1 << v
    return mask


def members(mask: int) -> Iterator[int]:
    """The set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _edge_array_of(edges) -> np.ndarray:
    """`edges`, a list of pairs or an (m, 2) array, as a read-only (m, 2)
    int64 array."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    arr.flags.writeable = False
    return arr


class Graph:
    """Simple undirected graph: no loops, no multi-edges, ids 0..n-1."""

    __slots__ = ("n", "_nbrs", "_rows", "_edge_array")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], *, strict: bool = False):
        if n < 0:
            raise ValueError("negative vertex count")
        self.n = n
        seen = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range [0,{n})")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                if strict:
                    raise ValueError(f"duplicate edge {key}")
                continue
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self._nbrs = tuple(tuple(sorted(a)) for a in adj)
        self._rows = None
        self._edge_array = None

    @property
    def m(self) -> int:
        return sum(len(a) for a in self._nbrs) // 2

    @property
    def rows(self) -> tuple[int, ...]:
        """rows[v] has bit w set iff vw is an edge."""
        if self._rows is None:
            self._rows = tuple(map(mask_of, self._nbrs))
        return self._rows

    def has_edge(self, u: int, v: int) -> bool:
        if self.n <= BITSET_THRESHOLD:
            return bool((self._rows or self.rows)[u] >> v & 1)
        a = self._nbrs[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._nbrs[v]

    def degree(self, v: int) -> int:
        return len(self._nbrs[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._nbrs[u]:
                if u < v:
                    yield (u, v)

    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (m, 2) int64 array, in `edges()` order:
        rows (u, v) with u < v, sorted."""
        if self._edge_array is None:
            self._edge_array = _edge_array_of(list(self.edges()))
        return self._edge_array

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._nbrs == other._nbrs

    def __hash__(self):
        return hash((self.n, self._nbrs))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def complement(self) -> Graph:
        edges = [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                 if not self.has_edge(u, v)]
        return Graph(self.n, edges)

    def connected_components(self) -> list[list[int]]:
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            stack = [s]
            while stack:
                u = stack.pop()
                for w in self._nbrs[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    def bfs_distances(self, source: int) -> list[int]:
        """BFS distance from `source`; -1 for unreachable vertices."""
        dist = [-1] * self.n
        dist[source] = 0
        frontier = [source]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in self._nbrs[u]:
                    if dist[w] < 0:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist


def induced_subgraph(g: Graph, vs: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by `vs`, plus the old-id -> new-id remap."""
    order = sorted(set(vs))
    for v in order:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    remap = {v: i for i, v in enumerate(order)}
    edges = [(i, remap[w]) for i, v in enumerate(order) for w in g.neighbors(v)
             if w in remap and v < w]
    return Graph(len(order), edges), remap


class ColoredBipartiteGraph:
    """Colored bipartite graph (X, Y, E): parts fixed, edges cross only.

    X vertices are addressed 0..nx-1 and Y vertices 0..ny-1, each in its
    own index space.
    """

    __slots__ = ("nx", "ny", "_adj_x", "_adj_y", "_rows_x", "_rows_y", "_edge_array")

    def __init__(self, nx: int, ny: int, edges: Iterable[tuple[int, int]], *, strict: bool = False):
        if nx < 0 or ny < 0:
            raise ValueError("negative part size")
        self.nx = nx
        self.ny = ny
        seen = set()
        ax: list[list[int]] = [[] for _ in range(nx)]
        ay: list[list[int]] = [[] for _ in range(ny)]
        for x, y in edges:
            if not (0 <= x < nx and 0 <= y < ny):
                raise ValueError(f"edge ({x},{y}) out of range {nx}x{ny}")
            if (x, y) in seen:
                if strict:
                    raise ValueError(f"duplicate edge ({x},{y})")
                continue
            seen.add((x, y))
            ax[x].append(y)
            ay[y].append(x)
        self._adj_x = tuple(tuple(sorted(a)) for a in ax)
        self._adj_y = tuple(tuple(sorted(a)) for a in ay)
        self._rows_x = self._rows_y = None
        self._edge_array = None

    @property
    def m(self) -> int:
        return sum(len(a) for a in self._adj_x)

    @property
    def rows_x(self) -> tuple[int, ...]:
        """rows_x[x] has bit y set iff xy is an edge."""
        if self._rows_x is None:
            self._rows_x = tuple(map(mask_of, self._adj_x))
        return self._rows_x

    @property
    def rows_y(self) -> tuple[int, ...]:
        """rows_y[y] has bit x set iff xy is an edge."""
        if self._rows_y is None:
            self._rows_y = tuple(map(mask_of, self._adj_y))
        return self._rows_y

    def has_edge(self, x: int, y: int) -> bool:
        if self.nx <= BITSET_THRESHOLD >= self.ny:
            return bool((self._rows_x or self.rows_x)[x] >> y & 1)
        a = self._adj_x[x]
        i = bisect_left(a, y)
        return i < len(a) and a[i] == y

    def neighbors_x(self, x: int) -> tuple[int, ...]:
        """Neighbors of X-vertex x, as Y-ids."""
        return self._adj_x[x]

    def neighbors_y(self, y: int) -> tuple[int, ...]:
        """Neighbors of Y-vertex y, as X-ids."""
        return self._adj_y[y]

    def deg_x(self, x: int) -> int:
        return len(self._adj_x[x])

    def deg_y(self, y: int) -> int:
        return len(self._adj_y[y])

    def edges(self) -> Iterator[tuple[int, int]]:
        for x in range(self.nx):
            for y in self._adj_x[x]:
                yield (x, y)

    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (m, 2) int64 array of (x, y) rows, in
        `edges()` order: sorted."""
        if self._edge_array is None:
            self._edge_array = _edge_array_of(list(self.edges()))
        return self._edge_array

    def __eq__(self, other) -> bool:
        return (isinstance(other, ColoredBipartiteGraph) and self.nx == other.nx
                and self.ny == other.ny and self._adj_x == other._adj_x)

    def __hash__(self):
        return hash((self.nx, self.ny, self._adj_x))

    def __repr__(self):
        return f"ColoredBipartiteGraph(nx={self.nx}, ny={self.ny}, m={self.m})"

    def induced(self, xs: Iterable[int], ys: Iterable[int]) -> "ColoredBipartiteGraph":
        """Sub-bigraph on the given X and Y subsets (ids remapped by sort order)."""
        xs = sorted(set(xs))
        ys = sorted(set(ys))
        ymap = {y: j for j, y in enumerate(ys)}
        edges = [(i, ymap[y]) for i, x in enumerate(xs) for y in self._adj_x[x] if y in ymap]
        return ColoredBipartiteGraph(len(xs), len(ys), edges)

    def to_graph(self) -> Graph:
        """Uncolored view: X-vertex x -> x, Y-vertex y -> nx + y."""
        return Graph(self.nx + self.ny, [(x, self.nx + y) for x, y in self.edges()])

    def connected_components(self) -> list[tuple[list[int], list[int]]]:
        """Components as ([X-ids], [Y-ids]) pairs; isolated vertices count."""
        comps = []
        seen_x = [False] * self.nx
        seen_y = [False] * self.ny
        for sx in range(self.nx):
            if seen_x[sx]:
                continue
            cx, cy = [sx], []
            seen_x[sx] = True
            stack = [("x", sx)]
            while stack:
                side, u = stack.pop()
                if side == "x":
                    for w in self._adj_x[u]:
                        if not seen_y[w]:
                            seen_y[w] = True
                            cy.append(w)
                            stack.append(("y", w))
                else:
                    for w in self._adj_y[u]:
                        if not seen_x[w]:
                            seen_x[w] = True
                            cx.append(w)
                            stack.append(("x", w))
            comps.append((sorted(cx), sorted(cy)))
        for sy in range(self.ny):
            if not seen_y[sy]:
                comps.append(([], [sy]))
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def is_biclique(self) -> bool:
        return self.m == self.nx * self.ny

    def is_cobiclique(self) -> bool:
        return self.m == 0


def bipartite_complement(g: ColoredBipartiteGraph) -> ColoredBipartiteGraph:
    edges = [(x, y) for x in range(g.nx) for y in range(g.ny) if not g.has_edge(x, y)]
    return ColoredBipartiteGraph(g.nx, g.ny, edges)


def bip_transform(g: Graph) -> ColoredBipartiteGraph:
    """bip(G): parts are two copies of V; (x, y') is an edge iff (x,y) in E."""
    edges = []
    for u, v in g.edges():
        edges.append((u, v))
        edges.append((v, u))
    return ColoredBipartiteGraph(g.n, g.n, edges)


def product_size(gs: Sequence[Graph], cap: int = VERTEX_CAP) -> int:
    """The vertex count of a product of `gs`.  ValueError on an empty
    factor list, an empty factor or a count above `cap`; the running count
    stops at the first factor that takes it past the cap."""
    if not gs:
        raise ValueError("empty factor list")
    total = 1
    for g in gs:
        if g.n == 0:
            raise ValueError("empty factor")
        total *= g.n
        if total > cap:
            raise ValueError(f"product vertex count exceeds cap {cap}")
    return total


def product_graph(gs: Sequence[Graph],
                  adjacent: Callable[[tuple[int, ...]], Iterable[tuple[int, ...]]],
                  cap: int = VERTEX_CAP) -> tuple[Graph, list[tuple[int, ...]]]:
    """A product of `gs`: (product graph, vertex-id -> coordinate tuple),
    with the tuples in `itertools.product` order.  `adjacent(t)` yields
    every tuple adjacent to t.  The vertex count is checked against `cap`
    before anything is allocated."""
    total = product_size(gs, cap)
    coords = [tuple(t) for t in itertools.product(*[range(g.n) for g in gs])]
    index = {t: i for i, t in enumerate(coords)}
    edges = [(i, j) for i, t in enumerate(coords) for s in adjacent(t) if (j := index[s]) > i]
    return Graph(total, edges), coords


def cartesian_product(gs: Sequence[Graph], cap: int = VERTEX_CAP) -> tuple[Graph, list[tuple[int, ...]]]:
    """Cartesian product of `gs`: adjacent iff exactly one coordinate pair
    is an edge of its factor and the rest are equal."""

    def adjacent(t):
        for pos, g in enumerate(gs):
            for w in g.neighbors(t[pos]):
                yield t[:pos] + (w,) + t[pos + 1:]

    return product_graph(gs, adjacent, cap)


# ---------------------------------------------------------------------------
# Text format:  line 1 `graph <name> <n>` or `bigraph <name> <nx> <ny>`,
# then `e <u> <v>` lines; `#` comments; 0-based ids.
#
# `parse_graph` reads text in the exact form `write_graph` emits as arrays
# (`_parse_canonical`).  Any other text, and canonical text that fails a
# check, goes to the line loop, which is the only writer of error messages.
# ---------------------------------------------------------------------------

#: `parse_graph` tries the array path from this many edge lines on.  On
#: smaller bodies its fixed numpy cost loses to the line loop: the two broke
#: even at 32 edge lines for graphs and 32-40 for bigraphs (best of 31, 100
#: random bodies each, 2-core x86_64, Python 3.11, numpy 2.4).
ARRAY_PARSE_MIN_EDGES = 32

# An id with more digits than VERTEX_CAP is out of range anyway; the bound
# keeps every id and edge key far inside int64.
_ID = rf"[0-9]{{1,{len(str(VERTEX_CAP))}}}"
_NAME = r"[!-\"$-~]+"  # printable ASCII but space and '#'
_CANONICAL_HEADER = re.compile(rf"graph ({_NAME}) ({_ID})\n|bigraph ({_NAME}) ({_ID}) ({_ID})\n")
_CANONICAL_BODY = re.compile(rf"(?:e {_ID} {_ID}\n)*")


def write_graph(g: Graph | ColoredBipartiteGraph, name: str) -> str:
    lines = []
    if isinstance(g, Graph):
        lines.append(f"graph {name} {g.n}")
    else:
        lines.append(f"bigraph {name} {g.nx} {g.ny}")
    for u, v in g.edges():
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def _rows_of(rows: np.ndarray, cols: np.ndarray, count: int) -> tuple[tuple[int, ...], ...]:
    """Row r, for r in 0..count-1, as the tuple of the `cols` entries whose
    `rows` entry is r; `rows` is sorted."""
    flat = cols.tolist()
    ends = np.cumsum(np.bincount(rows, minlength=count)).tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip([0] + ends, ends))


def _parse_canonical(text: str) -> tuple[Graph | ColoredBipartiteGraph, str] | None:
    """`text` parsed as arrays, if it is in the form `write_graph` emits and
    passes every check of the line loop; None otherwise.  Never raises.

    The body is tokenised once; ranges, self-loops and duplicates are
    checked on the sorted edge keys, which also give the neighbour tuples
    and the edge array.
    """
    head = _CANONICAL_HEADER.match(text)
    if head is None or _CANONICAL_BODY.fullmatch(text, head.end()) is None:
        return None
    ids = np.fromstring(text[head.end():].replace("e", ""), dtype=np.int64, sep=" ").reshape(-1, 2)
    u, v = ids.T
    if head[1] is not None:
        n = int(head[2])
        if n > VERTEX_CAP or (len(ids) and ids.max() >= n):
            return None
        # each edge in both directions, keyed tail*n + tip; a duplicate edge
        # in either order repeats its arcs, and a self-loop's two arcs are equal
        arcs = np.sort(np.concatenate((u * n + v, v * n + u)))
        if (arcs[1:] == arcs[:-1]).any():
            return None
        tail, tip = np.divmod(arcs, n)
        g = Graph.__new__(Graph)
        g.n, g._nbrs, g._rows = n, _rows_of(tail, tip, n), None
        g._edge_array = _edge_array_of(np.stack((tail, tip), axis=1)[tail < tip])
        return g, head[1]
    nx, ny = int(head[4]), int(head[5])
    if max(nx, ny) > VERTEX_CAP or (len(ids) and (u.max() >= nx or v.max() >= ny)):
        return None
    xy = np.sort(u * ny + v)
    if (xy[1:] == xy[:-1]).any():
        return None
    x, y = np.divmod(xy, ny)
    by_y, by_y_x = np.divmod(np.sort(v * nx + u), nx)
    g = ColoredBipartiteGraph.__new__(ColoredBipartiteGraph)
    g.nx, g.ny = nx, ny
    g._adj_x, g._adj_y = _rows_of(x, y, nx), _rows_of(by_y, by_y_x, ny)
    g._rows_x = g._rows_y = None
    g._edge_array = _edge_array_of(np.stack((x, y), axis=1))
    return g, head[3]


def parse_graph(text: str) -> tuple[Graph | ColoredBipartiteGraph, str]:
    """Parse the text graph format; returns (graph, name).  Duplicate and self
    edges are rejected.  Text of more than ARRAY_PARSE_MIN_EDGES lines is
    tried as arrays first; every error comes from the line loop."""
    if text.count("\n") > ARRAY_PARSE_MIN_EDGES and (parsed := _parse_canonical(text)):
        return parsed
    header, edges, lines = None, [], LineReader(text)
    for parts in lines:
        if header is None:
            try:
                if (parts[0], len(parts)) in (("graph", 3), ("bigraph", 4)):
                    header = parts[0], parts[1], *map(int, parts[2:])
            except ValueError:
                pass
            if header is None:
                raise lines.error(f"bad header {lines.line!r}")
            if not all(0 <= size <= VERTEX_CAP for size in header[2:]):
                raise lines.error(f"vertex count outside [0, {VERTEX_CAP}]")
            continue
        try:
            if parts[0] == "e" and len(parts) == 3:
                edges.append((int(parts[1]), int(parts[2])))
                continue
        except ValueError:
            pass
        raise lines.expected("'e <u> <v>'")
    if header is None:
        raise GraphFormatError("empty graph file")
    try:
        if header[0] == "graph":
            return Graph(header[2], edges, strict=True), header[1]
        return ColoredBipartiteGraph(header[2], header[3], edges, strict=True), header[1]
    except ValueError as e:
        raise GraphFormatError(str(e)) from e
