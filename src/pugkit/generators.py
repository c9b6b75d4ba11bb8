"""Generators for the named graph families used across the schemes and tests."""

from __future__ import annotations

import itertools
from typing import Sequence

from .graphs import ColoredBipartiteGraph, Graph, cartesian_product, product_graph
from .rng import derive_seed, rng_for


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def edgeless(n: int) -> Graph:
    return Graph(n, [])


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def half_graph(k: int) -> Graph:
    """H_k: vertices a_i = i, b_j = k + j; edges (a_i, b_j) iff i <= j."""
    edges = [(i, k + j) for i in range(k) for j in range(k) if i <= j]
    return Graph(2 * k, edges)


def threshold_graph(k: int) -> Graph:
    """Half graph plus a clique on the a-side."""
    edges = [(i, k + j) for i in range(k) for j in range(k) if i <= j]
    edges += [(i, j) for i in range(k) for j in range(i + 1, k)]
    return Graph(2 * k, edges)


def co_half_graph(k: int) -> Graph:
    """Half graph plus cliques on both sides."""
    edges = [(i, k + j) for i in range(k) for j in range(k) if i <= j]
    edges += [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    return Graph(2 * k, edges)


def half_graph_bipartite(k: int) -> ColoredBipartiteGraph:
    return ColoredBipartiteGraph(k, k, [(i, j) for i in range(k) for j in range(k) if i <= j])


def biclique(a: int, b: int) -> ColoredBipartiteGraph:
    return ColoredBipartiteGraph(a, b, [(x, y) for x in range(a) for y in range(b)])


def cobiclique(a: int, b: int) -> ColoredBipartiteGraph:
    return ColoredBipartiteGraph(a, b, [])


def z_graph(q: int, s: int) -> ColoredBipartiteGraph:
    """Z_{q,s}: |X|=q, Y split into q blocks of size s; x_i covers blocks 1..i."""
    if q < 1 or s < 1:
        raise ValueError("Z_{q,s} needs q,s >= 1")
    edges = []
    for i in range(q):
        for j in range(i + 1):
            for t in range(s):
                edges.append((i, j * s + t))
    return ColoredBipartiteGraph(q, q * s, edges)


def t_graph(p: int) -> ColoredBipartiteGraph:
    """T_p: two disjoint stars with p leaves each, centers on the X side."""
    edges = [(0, i) for i in range(p)] + [(1, p + i) for i in range(p)]
    return ColoredBipartiteGraph(2, 2 * p, edges)


def f_graph(p: int, q: int) -> ColoredBipartiteGraph:
    """F_{p,q}: centers a,b in X; Y = {c, a_1..a_p, b_1..b_q}; c common."""
    edges = [(0, 0), (1, 0)]
    edges += [(0, 1 + i) for i in range(p)]
    edges += [(1, 1 + p + j) for j in range(q)]
    return ColoredBipartiteGraph(2, 1 + p + q, edges)


def fstar_graph(p: int, q: int) -> ColoredBipartiteGraph:
    """F*_{p,q}: F_{p,q} plus one isolated Y-vertex d."""
    f = f_graph(p, q)
    return ColoredBipartiteGraph(2, f.ny + 1, list(f.edges()))


def s123() -> Graph:
    """Star with three leaves, one edge subdivided once and another twice."""
    return Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])


def p7_bipartite() -> ColoredBipartiteGraph:
    """The path on 7 vertices as a colored bipartite graph (4 + 3 split)."""
    # path 0-1-2-3-4-5-6: X = even positions, Y = odd positions
    return ColoredBipartiteGraph(4, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)])


def hypercube(d: int) -> Graph:
    g, _ = cartesian_product([path(2)] * d)
    return g


def equivalence_graph(class_sizes: Sequence[int]) -> Graph:
    """Disjoint union of cliques with the given sizes."""
    n = sum(class_sizes)
    edges = []
    base = 0
    for s in class_sizes:
        edges += [(base + i, base + j) for i in range(s) for j in range(i + 1, s)]
        base += s
    return Graph(n, edges)


def bipartite_equivalence_graph(blocks: Sequence[tuple[int, int]]) -> ColoredBipartiteGraph:
    """Disjoint union of bicliques with the given (x-size, y-size) blocks."""
    nx = sum(a for a, _ in blocks)
    ny = sum(b for _, b in blocks)
    edges = []
    bx = by = 0
    for a, b in blocks:
        edges += [(bx + i, by + j) for i in range(a) for j in range(b)]
        bx += a
        by += b
    return ColoredBipartiteGraph(nx, ny, edges)


def chain_graph(profile: Sequence[int], ny: int) -> ColoredBipartiteGraph:
    """Chain graph where X-vertex i is adjacent to the last profile[i] Y-vertices.

    Suffix neighborhoods are nested, so the result is 2K2-free by
    construction.
    """
    edges = []
    for i, d in enumerate(profile):
        if not (0 <= d <= ny):
            raise ValueError("profile entry out of range")
        edges += [(i, y) for y in range(ny - d, ny)]
    return ColoredBipartiteGraph(len(profile), ny, edges)


def random_graph(n: int, p: float, seed: int) -> Graph:
    if not 0 <= p <= 1:  # NaN fails too
        raise ValueError(f"edge probability {p!r} is not in [0, 1]")
    rng = rng_for(seed, "gnp", n, repr(p))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_bipartite(nx: int, ny: int, p: float, seed: int) -> ColoredBipartiteGraph:
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability {p!r} is not in [0, 1]")
    rng = rng_for(seed, "bip-gnp", nx, ny, repr(p))
    edges = [(x, y) for x in range(nx) for y in range(ny) if rng.random() < p]
    return ColoredBipartiteGraph(nx, ny, edges)


#: The probability that a vertex of `random_forest` joins an earlier tree.
FOREST_ATTACH_PROB = 0.9


def random_forest(n: int, seed: int) -> Graph:
    """Random forest: each vertex > 0 attaches to a random earlier vertex
    with probability `FOREST_ATTACH_PROB`, else starts a new tree."""
    rng = rng_for(seed, "forest", n)
    edges = []
    for v in range(1, n):
        if rng.random() < FOREST_ATTACH_PROB:
            edges.append((rng.randrange(v), v))
    return Graph(n, edges)


def random_kdegenerate(n: int, k: int, seed: int) -> Graph:
    """Random graph of degeneracy exactly min(k, n-1) (for n > k): each new
    vertex attaches to min(k, #earlier) random earlier vertices."""
    rng = rng_for(seed, "kdegen", n, k)
    edges = []
    for v in range(1, n):
        for w in rng.sample(range(v), min(k, v)):
            edges.append((w, v))
    return Graph(n, edges)


def random_equivalence(n: int, classes: int, seed: int) -> Graph:
    rng = rng_for(seed, "equiv", n, classes)
    sizes = [0] * classes
    for _ in range(n):
        sizes[rng.randrange(classes)] += 1
    return equivalence_graph([s for s in sizes if s > 0])


def random_chain_graph(nx: int, ny: int, seed: int) -> ColoredBipartiteGraph:
    rng = rng_for(seed, "chain", nx, ny)
    return chain_graph(sorted(rng.randrange(ny + 1) for _ in range(nx)), ny)


def random_tp_free(nx: int, ny: int, p: int, seed: int) -> ColoredBipartiteGraph:
    """Random one-sided T_p-free bipartite graph.

    Rows start as nested suffixes of Y and receive at most (p-1)//2 cell
    flips each; any two rows then have min(|N_a \\ N_b|, |N_b \\ N_a|) <= p-1,
    so no T_p can have both centers in X.
    """
    rng = rng_for(seed, "tp-free", nx, ny, p)
    flips = (p - 1) // 2
    rows = []
    for _ in range(nx):
        row = set(range(ny - rng.randrange(ny + 1), ny))
        for _ in range(rng.randrange(flips + 1)):
            c = rng.randrange(ny)
            row.symmetric_difference_update({c})
        rows.append(row)
    return ColoredBipartiteGraph(nx, ny, [(x, y) for x, row in enumerate(rows) for y in row])


def random_fpp_free(blocks: int, bx: int, by: int, p: int, seed: int) -> ColoredBipartiteGraph:
    """Random one-sided F_{p,p}-free bipartite graph: a disjoint union of
    T_p-free blocks (across blocks there are no common neighbors; within a
    block the private-neighborhood bound rules F_{p,p} out)."""
    rng = rng_for(seed, "fpp-free", blocks, bx, by, p)
    edges = []
    ox = oy = 0
    for b in range(blocks):
        sub = random_tp_free(bx, by, p, derive_seed(seed, "blk", b))
        edges += [(ox + x, oy + y) for x, y in sub.edges()]
        ox += bx
        oy += by
    return ColoredBipartiteGraph(blocks * bx, blocks * by, edges)


# --- strong / direct / lexicographic products (generators only) -------------

def strong_product(gs: Sequence[Graph]) -> tuple[Graph, list[tuple[int, ...]]]:
    """Adjacent iff distinct and every coordinate pair is equal or an edge."""

    def adjacent(t):
        closed = [(t[i],) + g.neighbors(t[i]) for i, g in enumerate(gs)]
        return (w for w in itertools.product(*closed) if w != t)

    return product_graph(gs, adjacent)


def direct_product(gs: Sequence[Graph]) -> tuple[Graph, list[tuple[int, ...]]]:
    """Adjacent iff every coordinate pair is an edge of its factor."""
    return product_graph(gs, lambda t: itertools.product(
        *[g.neighbors(t[i]) for i, g in enumerate(gs)]))


def lexicographic_product(gs: Sequence[Graph]) -> tuple[Graph, list[tuple[int, ...]]]:
    """Adjacent iff the first differing coordinate pair is an edge."""

    def adjacent(t):
        for i, g in enumerate(gs):
            for rest in itertools.product(*[range(h.n) for h in gs[i + 1:]]):
                for w in g.neighbors(t[i]):
                    yield t[:i] + (w,) + rest

    return product_graph(gs, adjacent)


#: Families reachable from the CLI `gen` command.
def generate(family: str, **params):
    """Dispatch a generator by family name.  Returns Graph or ColoredBipartiteGraph."""
    table = {
        "half-graph": lambda: half_graph(params["k"]),
        "co-half-graph": lambda: co_half_graph(params["k"]),
        "threshold": lambda: threshold_graph(params["k"]),
        "half-graph-bip": lambda: half_graph_bipartite(params["k"]),
        "z": lambda: z_graph(params["q"], params["s"]),
        "fstar": lambda: fstar_graph(params["p"], params["q"]),
        "f": lambda: f_graph(params["p"], params["q"]),
        "t": lambda: t_graph(params["p"]),
        "s123": s123,
        "p7": p7_bipartite,
        "path": lambda: path(params["n"]),
        "cycle": lambda: cycle(params["n"]),
        "hypercube": lambda: hypercube(params["d"]),
        "biclique": lambda: biclique(params["a"], params["b"]),
        "equivalence": lambda: equivalence_graph(params["sizes"]),
        "chain-graph": lambda: chain_graph(params["profile"], params["ny"]),
        "gnp": lambda: random_graph(params["n"], params["prob"], params["seed"]),
        "forest": lambda: random_forest(params["n"], params["seed"]),
        "strong-hypercube": lambda: strong_product([path(2)] * params["d"])[0],
        "direct-power": lambda: direct_product([path(params["n"])] * params["d"])[0],
        "lex-power": lambda: lexicographic_product([path(params["n"])] * params["d"])[0],
    }
    if family not in table:
        raise ValueError(f"unknown family {family!r}")
    return table[family]()
