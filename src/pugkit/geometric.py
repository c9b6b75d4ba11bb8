"""Interval-graph and permutation-graph schemes built from geometric
realizations.

Realizations are inputs, not computed; a cross-validator asserts the
realization matches the graph before any scheme runs.  Endpoint and
coordinate ties are broken by perturbing to distinct integers via stable
rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bipartite import _chain_walker_factory, chain_graph_labels
from .combinators import (TAG_D, TAG_DBAR, TAG_L, TAG_P, _bits, _width_for, tree_walker,
                          twin_reduce_scheme)
from .graphs import (ColoredBipartiteGraph, Graph, GraphFormatError, LineReader, in_id_order,
                     induced_subgraph)
from .labels import EqualityScheme, Label, SchemeError, Walker, node, register_walker
from .rng import rng_for
from .sketch import arboricity_scheme
from .structure import interval_clique_number, twin_partition


# ---------------------------------------------------------------------------
# Realizations.
# ---------------------------------------------------------------------------

Interval = tuple[float, float]
Point = tuple[float, float]


#: Cells of the pair comparison that `realization_edges` holds at a time:
#: it compares a block of rows with every later vertex, so memory stays
#: O(BLOCK_CELLS) whatever n is.
BLOCK_CELLS = 1 << 18


def _intervals_meet(l1, r1, l2, r2):
    return (l1 <= r2) & (l2 <= r1)


def _points_compare(x1, y1, x2, y2):
    """Comparability under the coordinatewise partial order."""
    return ((x1 <= x2) & (y1 <= y2)) | ((x2 <= x1) & (y2 <= y1))


def realization_edges(kind: str, items: Sequence[tuple[float, float]]) -> np.ndarray:
    """The edges of the graph that `items` realize, as an (m, 2) int64
    array of rows (u, v) with u < v, sorted: the layout of
    `Graph.edge_array`.  `kind` is "intervals" (adjacent when the closed
    intervals meet; an interval with l > r is a ValueError naming the
    first) or "points" (adjacent when comparable coordinatewise)."""
    coords = np.asarray(items, dtype=np.float64).reshape(-1, 2)
    a, b = coords[:, 0], coords[:, 1]
    if kind == "intervals":
        if (bad := np.flatnonzero(a > b)).size:
            raise ValueError(f"malformed interval at {bad[0]}")
        adjacent = _intervals_meet
    else:
        adjacent = _points_compare
    n = len(coords)
    step = max(1, BLOCK_CELLS // max(n, 1))
    blocks = [np.empty((0, 2), dtype=np.int64)]
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        # rows lo..hi-1 against the columns lo+1..n-1, kept where v > u
        hit = adjacent(a[lo:hi, None], b[lo:hi, None], a[None, lo + 1:], b[None, lo + 1:])
        hit &= np.arange(lo + 1, n) > np.arange(lo, hi)[:, None]
        u, v = np.nonzero(hit)
        blocks.append(np.stack((u + lo, v + lo + 1), axis=1).astype(np.int64, copy=False))
    return np.concatenate(blocks)


def interval_graph_from(realization: Sequence[Interval]) -> Graph:
    return Graph(len(realization), realization_edges("intervals", realization).tolist())


def permutation_graph_from(points: Sequence[Point]) -> Graph:
    """Adjacency = comparability under the coordinatewise partial order."""
    return Graph(len(points), realization_edges("points", points).tolist())


def _check_realization(g: Graph, kind: str, items: Sequence[tuple[float, float]]) -> None:
    """SchemeError unless `items` realize exactly the graph g."""
    edges = realization_edges(kind, items)
    if not (isinstance(g, Graph) and g.n == len(items) and np.array_equal(g.edge_array(), edges)):
        raise SchemeError("realization does not match the graph")


def distinct_ranks(points: Sequence[Point]) -> list[tuple[int, int]]:
    """Perturb coordinates to distinct integers by stable rank per axis."""
    xs = sorted(range(len(points)), key=lambda i: (points[i][0], i))
    ys = sorted(range(len(points)), key=lambda i: (points[i][1], i))
    rx = {v: r for r, v in enumerate(xs)}
    ry = {v: r for r, v in enumerate(ys)}
    return [(rx[i], ry[i]) for i in range(len(points))]


#: `random_intervals(n)` draws left ends from [0, INTERVAL_SPAN_PER_VERTEX * n).
INTERVAL_SPAN_PER_VERTEX = 3


def random_intervals(n: int, seed: int) -> list[Interval]:
    rng = rng_for(seed, "intervals", n)
    span = INTERVAL_SPAN_PER_VERTEX * n
    out = []
    for _ in range(n):
        a = rng.randrange(span)
        out.append((float(a), float(a + rng.randrange(1, max(span // 3, 2)))))
    return out


def random_points(n: int, seed: int) -> list[Point]:
    rng = rng_for(seed, "points", n)
    perm = list(range(n))
    rng.shuffle(perm)
    return [(float(i), float(perm[i])) for i in range(n)]


def write_realization(kind: str, items, name: str) -> str:
    """Coordinates take 17 significant digits, so every float reads back exactly."""
    if kind == "intervals":
        lines = [f"intervals {name}"]
        lines += [f"i {i} {l:.17g} {r:.17g}" for i, (l, r) in enumerate(items)]
    elif kind == "points":
        lines = [f"points {name}"]
        lines += [f"p {i} {x:.17g} {y:.17g}" for i, (x, y) in enumerate(items)]
    else:
        raise ValueError(kind)
    return "\n".join(lines) + "\n"


def parse_realization(text: str):
    """Returns (kind, items, name).  Coordinates are finite, and an
    interval's left end is at most its right end."""
    kind, name, items, lines = None, None, [], LineReader(text)
    for parts in lines:
        if kind is None:
            if parts[0] not in ("intervals", "points") or len(parts) != 2:
                raise lines.error("bad realization header")
            kind, name = parts
            continue
        if parts[0] != kind[0] or len(parts) != 4:  # 'i' or 'p' lines
            raise lines.error(f"expected '{kind[0]} <id> <a> <b>'")
        a, b = lines.finite(parts[2]), lines.finite(parts[3])
        if kind == "intervals" and a > b:
            raise lines.expected("an interval with l <= r")
        items.append((lines.lineno, lines.integer(parts[1]), (a, b)))
    if kind is None:
        raise GraphFormatError("empty realization file")
    return kind, in_id_order(items, kind[:-1]), name


# ---------------------------------------------------------------------------
# Interval scheme: true-twin reduction, clique bound, arboricity labels.
# ---------------------------------------------------------------------------

def interval_scheme(g: Graph, realization: Sequence[Interval], k: int) -> EqualityScheme:
    """Equality scheme for an interval graph with declared chain bound k.

    Reduces true twins (identical-neighborhood cliques), checks the
    quotient's clique number against 4(k+1)^2 (a violation refutes the
    chain bound), then labels the quotient by its degeneracy forests.
    """
    _check_realization(g, "intervals", realization)
    cap = 4 * (k + 1) ** 2

    def base_builder(quotient: Graph, remap: dict[int, int]) -> EqualityScheme:
        inv = {i: v for v, i in remap.items()}
        sub_real = [realization[inv[i]] for i in range(quotient.n)]
        tp = twin_partition(quotient, "true")
        if any(len(c) > 1 for c in tp.classes):
            raise SchemeError("quotient is not true-twin-free")
        clique = interval_clique_number(list(sub_real))
        if clique > cap:
            raise SchemeError(
                f"quotient clique number {clique} exceeds 4(k+1)^2={cap}; "
                "the declared chain bound is violated")
        return arboricity_scheme(quotient)

    scheme, _ = twin_reduce_scheme(g, "true", base_builder)
    return scheme


# ---------------------------------------------------------------------------
# Permutation decomposition (anchor staircase) and labels.
# ---------------------------------------------------------------------------

@dataclass
class PermDecomposition:
    parts: list[tuple[int, ...]]  # V_1..V_m as original vertex ids
    j_sets: dict[int, tuple[int, ...]]  # part index -> at most 4 part indices
    mirrored: bool  # True: non-J cross pairs are bicliques; else co-bicliques


def _strip(pts: dict[int, tuple[int, int]], axis: int, lo: float, hi: float) -> set[int]:
    return {v for v, p in pts.items() if lo < p[axis] < hi}


def permutation_decompose(points: Sequence[Point],
                          vertex_ids: Sequence[int] | None = None,
                          g: Graph | None = None) -> PermDecomposition:
    """The staircase decomposition of a permutation graph whose graph and
    complement are both connected.

    Anchors a^(i) (minimal) and b^(i) (maximal) alternate until they
    repeat; each part is an anchor plus an axis-aligned open box.  In the
    mirrored case (top vertex right of the bottom vertex) the points are
    reflected, which realizes the complement, and the same procedure runs
    there.
    """
    ids = list(vertex_ids) if vertex_ids is not None else list(range(len(points)))
    ranked = distinct_ranks(points)
    pts = {v: ranked[i] for i, v in enumerate(ids)}
    if g is not None:
        if not g.is_connected() or not g.complement().is_connected():
            raise SchemeError("decomposition requires G and co-G connected")

    INF = float("inf")
    a1 = min(pts, key=lambda v: pts[v][1])
    btop = max(pts, key=lambda v: pts[v][1])
    mirrored = pts[btop][0] > pts[a1][0]
    if mirrored:
        pts = {v: (-x, y) for v, (x, y) in pts.items()}
        a1 = min(pts, key=lambda v: pts[v][1])

    a_seq = [a1]
    b_seq: list[int] = []
    while True:
        if len(a_seq) > len(pts) + 1:
            raise SchemeError("staircase fails to stabilize")
        cand = [v for v in pts if pts[v][0] > pts[a_seq[-1]][0]]
        if not cand:
            raise SchemeError("b-anchor undefined: graph is disconnected")
        b_i = max(cand, key=lambda v: pts[v][1])
        if b_seq and b_i == b_seq[-1]:
            break
        b_seq.append(b_i)
        cand_a = [v for v in pts if pts[v][1] < pts[b_seq[-1]][1]]
        a_next = min(cand_a, key=lambda v: pts[v][0])
        if a_next == a_seq[-1]:
            break
        a_seq.append(a_next)

    def x(v):
        return pts[v][0]

    def y(v):
        return pts[v][1]

    parts: list[set[int]] = []
    names: list[str] = []
    m = len(a_seq)
    t = len(b_seq)
    if m < 2 or t < 1:
        raise SchemeError("degenerate staircase (graph or complement disconnected)")
    a0_box = _strip(pts, 0, x(a_seq[0]), x(b_seq[0])) & _strip(pts, 1, y(a_seq[0]), y(a_seq[1]))
    parts.append({a_seq[0]} | a0_box)
    names.append("A0")
    a1_box = _strip(pts, 0, x(a_seq[1]), x(a_seq[0])) & _strip(pts, 1, y(a_seq[0]), y(b_seq[0]))
    parts.append({a_seq[1]} | a1_box)
    names.append("A1")
    for i in range(2, m):
        box = _strip(pts, 0, x(a_seq[i]), x(a_seq[i - 1])) & \
            _strip(pts, 1, y(b_seq[i - 2]), y(b_seq[i - 1]))
        parts.append({a_seq[i]} | box)
        names.append(f"A{i}")
    b0_box = _strip(pts, 0, x(b_seq[0]), INF) & _strip(pts, 1, y(a_seq[0]), y(a_seq[1]))
    parts.append(set(b0_box))
    names.append("B0")
    b1_box = _strip(pts, 0, x(a_seq[0]), INF) & _strip(pts, 1, y(a_seq[1]), y(b_seq[0]))
    parts.append({b_seq[0]} | b1_box)
    names.append("B1")
    for i in range(2, t + 1):
        box = _strip(pts, 0, x(a_seq[i - 1]), x(a_seq[i - 2])) & \
            _strip(pts, 1, y(b_seq[i - 2]), y(b_seq[i - 1]))
        parts.append({b_seq[i - 1]} | box)
        names.append(f"B{i}")

    # partition sanity (claimed by the construction; verified, not trusted)
    claimed = [v for p in parts for v in p]
    if sorted(claimed) != sorted(ids):
        raise SchemeError("staircase parts do not partition the vertex set")

    index = {nm: i for i, nm in enumerate(names)}

    def jset(nm: str) -> list[str]:
        if nm == "A1":
            return ["A0", "B0", "B1", "B2"]
        if nm in ("A0", "B0", "B1"):
            return [o for o in ("A0", "B0", "A1", "B1") if o != nm]
        kind, idx = nm[0], int(nm[1:])
        if kind == "A":
            return [f"B{idx}", f"B{idx + 1}"]
        return [f"A{idx}", f"A{idx - 1}"]

    j_sets: dict[int, set[int]] = {i: set() for i in range(len(parts))}
    for nm in names:
        for other in jset(nm):
            if other in index and other != nm:
                j_sets[index[nm]].add(index[other])
    for i in list(j_sets):  # symmetrize
        for j in j_sets[i]:
            j_sets[j].add(i)
    keep = [i for i, p in enumerate(parts) if p]
    remap = {i: r for r, i in enumerate(keep)}
    out_parts = [tuple(sorted(parts[i])) for i in keep]
    out_j = {remap[i]: tuple(sorted(remap[j] for j in j_sets[i] if j in remap))
             for i in keep}
    for i, js in out_j.items():
        if len(js) > 4:
            raise SchemeError(f"J-set of part {i} has {len(js)} > 4 entries")
    return PermDecomposition(out_parts, out_j, mirrored)


def _bipartition_as_chain(g: Graph, vs: Sequence[int]):
    """2-color the induced subgraph; None if not bipartite."""
    vs = sorted(vs)
    pos = {v: i for i, v in enumerate(vs)}
    color = {}
    for s in vs:
        if s in color:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w not in pos:
                    continue
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return None
    xs = [v for v in vs if color[v] == 0]
    ys = [v for v in vs if color[v] == 1]
    return xs, ys


def _cross_bigraph(g: Graph, xs: Sequence[int], ys: Sequence[int]) -> ColoredBipartiteGraph:
    xs, ys = sorted(xs), sorted(ys)
    ymap = {y: j for j, y in enumerate(ys)}
    edges = []
    for i, x in enumerate(xs):
        for w in g.neighbors(x):
            if w in ymap:
                edges.append((i, ymap[w]))
    return ColoredBipartiteGraph(len(xs), len(ys), edges)


def _perm_walker_factory(chain: Walker) -> Walker:
    def p_node(rec, nx, ny, eq) -> int:
        b = nx.tag[2]
        if eq(nx.slot0, ny.slot0):
            return rec(nx.children[4], ny.children[4], eq)
        s = next((u for u in range(4) if eq(nx.slot0, ny.slot0 + 1 + u)), None)
        t = next((u for u in range(4) if eq(nx.slot0 + 1 + u, ny.slot0)), None)
        if s is None or t is None:
            return b
        return chain(nx.children[t], ny.children[s], eq)

    return tree_walker(chain, p_node)


register_walker("permutation",
                lambda s: _perm_walker_factory(_chain_walker_factory(s["chain_bits"])))


def permutation_labels(g: Graph, points: Sequence[Point], k: int) -> EqualityScheme:
    """Equality labels for a permutation graph of chain number at most k.

    The decomposition tree has chain-graph leaves, D/D-bar nodes, and
    staircase P-nodes whose tuples carry the biclique flag, up to four
    chain-graph labels in the prefix, and part plus J-set ids as codes.
    Depth is bounded by 2(2k+1).
    """
    _check_realization(g, "points", points)
    chain_bits = _width_for(k + 2)
    max_depth = 2 * (2 * k + 1)

    def chain_leaf_label(sub: ColoredBipartiteGraph, xs, ys) -> dict[int, Label]:
        scheme = chain_graph_labels(sub, k)
        out = {}
        for i, v in enumerate(sorted(xs)):
            out[v] = scheme.label(i)
        for j, w in enumerate(sorted(ys)):
            out[w] = scheme.label(sub.nx + j)
        return out

    def try_chain_leaf(vs: Sequence[int]) -> dict[int, Label] | None:
        bip = _bipartition_as_chain(g, vs)
        if bip is None:
            return None
        xs, ys = bip
        sub = _cross_bigraph(g, xs, ys)
        try:
            return chain_leaf_label(sub, xs, ys)
        except SchemeError:
            return None

    def build(vs: tuple[int, ...], depth: int) -> dict[int, Label]:
        if depth > max_depth:
            raise SchemeError(f"decomposition depth exceeds 2(2k+1)={max_depth}")
        leaf = try_chain_leaf(vs)
        if leaf is not None:
            return {v: node(TAG_L, (), leaf[v]) for v in vs}
        sub, remap = induced_subgraph(g, vs)
        inv = {i: v for v, i in remap.items()}
        comps = sub.connected_components()
        if len(comps) > 1:
            return _branch(vs, comps, inv, TAG_D, depth)
        co = sub.complement()
        cocomps = co.connected_components()
        if len(cocomps) > 1:
            return _branch(vs, cocomps, inv, TAG_DBAR, depth)
        dec = permutation_decompose([points[v] for v in sorted(vs)],
                                    vertex_ids=sorted(vs))
        return _pnode(vs, dec, depth)

    def _branch(vs, comps, inv, tag, depth):
        out = {}
        comps = sorted([sorted(inv[i] for i in c) for c in comps])
        for code, comp in enumerate(comps):
            child = build(tuple(comp), depth + 1)
            for v in comp:
                out[v] = node(tag, (code,), child[v])
        return out

    def _pnode(vs, dec: PermDecomposition, depth):
        nparts = len(dec.parts)
        bflag = 1 if dec.mirrored else 0
        # verify the non-J cross pairs are uniformly pure
        for i in range(nparts):
            for j in range(i + 1, nparts):
                if j in dec.j_sets.get(i, ()):
                    continue
                for u in dec.parts[i]:
                    for w in dec.parts[j]:
                        if g.has_edge(u, w) != bool(bflag):
                            raise SchemeError(
                                "non-J cross pair is not uniformly pure")
        chain_schemes: dict[tuple[int, int], dict[int, Label]] = {}
        for i in range(nparts):
            for j in dec.j_sets.get(i, ()):
                key = (min(i, j), max(i, j))
                if key in chain_schemes:
                    continue
                xs, ys = dec.parts[key[0]], dec.parts[key[1]]
                sub = _cross_bigraph(g, xs, ys)
                labels = chain_leaf_label(sub, xs, ys)
                chain_schemes[key] = labels
        dummy_chain = node((0,) + _bits(0, chain_bits))
        out = {}
        for i, part in enumerate(dec.parts):
            js = list(dec.j_sets.get(i, ()))
            child = build(tuple(part), depth + 1)
            for v in part:
                kids = []
                codes = [i]
                for slot in range(4):
                    if slot < len(js):
                        j = js[slot]
                        key = (min(i, j), max(i, j))
                        kids.append(chain_schemes[key][v])
                        codes.append(j)
                    else:
                        kids.append(dummy_chain)
                        codes.append(nparts + slot)  # sentinel, never matches
                kids.append(child[v])
                out[v] = node(TAG_P + (bflag,), tuple(codes), *kids)
        return out

    labels_map = build(tuple(range(g.n)), 0)
    return EqualityScheme([labels_map[v] for v in range(g.n)],
                          {"name": "permutation", "chain_bits": chain_bits}, name="permutation")
