"""Structural measures and witnesses.

Chain number and quasi-chain number are computed by bounded exhaustive
search (these are the stability measures every scheme's size depends on);
twins, degeneracy forests and interval clique number are the cheap
building blocks consumed by the concrete schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .graphs import ColoredBipartiteGraph, Graph, members


@dataclass(frozen=True)
class ChainWitness:
    """Vertex lists a, b with (a_i, b_j) adjacent iff i <= j."""

    a_ids: tuple[int, ...]
    b_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.a_ids) != len(self.b_ids):
            raise ValueError("witness sides differ in length")
        if set(self.a_ids) & set(self.b_ids):
            raise ValueError("witness sides are not disjoint")

    def serialize(self) -> str:
        a = ",".join(map(str, self.a_ids))
        b = ",".join(map(str, self.b_ids))
        return f"chain {len(self.a_ids)}: a={a} b={b}"

    def check(self, g: Graph) -> bool:
        k = len(self.a_ids)
        return all(
            g.has_edge(self.a_ids[i], self.b_ids[j]) == (i <= j)
            for i in range(k)
            for j in range(k)
        )


@dataclass(frozen=True)
class ChainNumberResult:
    value: int
    exact: bool  # False means the true chain number is >= value
    witness: ChainWitness | None


def chain_number(g: Graph, cap: int = 8) -> ChainNumberResult:
    """Chain number of g by branch-and-bound, exact while <= cap.

    If a witness of size cap+1 exists the search stops and reports
    value=cap+1 with exact=False (meaning ">= cap+1").

    The search keeps two bitset candidate pools: future a's must avoid
    every chosen b (cand_a) and future b's must reach every chosen a
    (cand_b); branches die as soon as either pool is too small.

    A node tries each a in degree order, read from one list of (vertex,
    bit, row) triples, and walks the low bits of its b pool inline.  The
    used set and b pool that every b of one a shares are built once per a.
    The chain so far lives in two lists shared by every node, and a node
    is given only the number of pairs still to place.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    n = g.n
    rows = g.rows
    full = (1 << n) - 1
    # high-degree vertices make good a_1 candidates (a_1 reaches every b_j)
    by_degree = [(v, 1 << v, rows[v]) for v in sorted(range(n), key=lambda v: (-g.degree(v), v))]
    a: list[int] = []
    b: list[int] = []

    def extend(used: int, cand_a: int, cand_b: int, remaining: int) -> bool:
        # extend the chain a, b by `remaining` more pairs
        if not remaining:
            return True
        pool_a = cand_a & ~used
        pool_b = cand_b & ~used
        if pool_a.bit_count() < remaining or pool_b.bit_count() < remaining:
            return False
        rest = remaining - 1
        for av, abit, arow in by_degree:
            if not pool_a & abit:
                continue
            pool = arow & pool_b
            if pool.bit_count() < remaining:
                continue
            used_a = used | abit
            next_b = cand_b & arow
            a.append(av)
            while pool:
                low = pool & -pool
                bv = low.bit_length() - 1
                b.append(bv)
                if extend(used_a | low, cand_a & ~rows[bv], next_b, rest):
                    return True
                b.pop()
                pool ^= low
            a.pop()
        return False

    value = 0
    witness = None
    k = 1
    while k <= cap + 1:
        if 2 * k > n or not extend(0, full, full, k):
            break
        value = k
        witness = ChainWitness(tuple(a), tuple(b))
        a.clear()
        b.clear()
        k += 1
    exact = value <= cap
    return ChainNumberResult(value, exact, witness)


class _CapReached(Exception):
    pass


def quasi_chain_number(g: ColoredBipartiteGraph, cap: int = 64) -> int:
    """Quasi-chain number capped at cap + 1: min(qch, cap + 1).

    Sequences x_1..x_k, y_1..y_k allow repeated vertices; each step demands
    (x_i complete to earlier y's and y_i anticomplete to earlier x's) or the
    converse.  Any valid step adds a new vertex to one of the running sets
    xs, ys, so qch <= nx + ny.  The memo holds each state's exact remaining
    length, and the cap is tested on depth + length, also on a memo hit, so
    a state first reached at a shallower depth cannot hide a binding cap.

    The remaining length of a state (xs, ys) is antitone under inclusion: a
    larger set of earlier vertices only removes candidates, so any sequence
    from a larger state also runs from a smaller one.  Only the
    inclusion-minimal successors are therefore expanded.  Within one step
    direction, a candidate x already in xs makes the steps that add only a
    fresh y dominate every (fresh x, fresh y) step, and likewise with the
    sides swapped; the fresh x × fresh y product is expanded only when
    neither side has a candidate already in its set, and without the pairs
    whose x or y is a single-vertex step of either direction.  Steps are
    deduplicated in first-seen order, so the node order is deterministic.

    `further` carries four running bitsets instead of scanning rows: the X
    vertices complete to ys and those touching ys, and the Y vertices
    complete to xs and those touching xs.  Adding a vertex ANDs or ORs its
    row into the other side's pair, and each direction's candidates are
    then two mask operations.  The X vertices that can still be added,
    cx = x_all | full_x & ~x_any, only shrink along a sequence (cy
    likewise), and the future reads xs and ys only through them.  So the
    memo is keyed on the canonical state (x_all, x_any, y_all, y_any,
    xs & cx, ys & cy), and every step adds a fresh candidate, so a state's
    length is at most |cx - xs| + |cy - ys|; its loop stops once that bound
    is reached.  A successor is looked up in the memo before `further` is
    called on it, so a memo hit costs no call.  Bit lists of masks are
    cached in a dict per call, not a table over all masks.  Both dicts hang
    off the recursive closure, a reference cycle that outlives the call
    until a full collection, so they are cleared on the way out.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if g.nx == 0 or g.ny == 0:
        return 0
    rows_x, rows_y = g.rows_x, g.rows_y
    full_x, full_y = (1 << g.nx) - 1, (1 << g.ny) - 1
    memo: dict[tuple[int, ...], int] = {}
    bits: dict[int, tuple[int, ...]] = {}

    def bits_of(mask: int) -> tuple[int, ...]:
        out = bits.get(mask)
        if out is None:
            out = bits[mask] = tuple(members(mask))
        return out

    def further(state: tuple[int, ...], cx: int, cy: int, depth: int) -> int:
        # the length of a canonical state that is not in the memo yet
        x_all, x_any, y_all, y_any, xs, ys = state
        # x complete to ys and y anticomplete to xs, or the converse.
        # A fresh vertex that is a step on its own (-1 on the other
        # side) dominates every pair step that adds it.
        add_x = add_y = 0
        products = []
        for cand_x, cand_y in ((x_all, full_y & ~y_any), (full_x & ~x_any, y_all)):
            if cand_x & xs:
                add_y |= cand_y & ~ys
            if cand_y & ys:
                add_x |= cand_x & ~xs
            if not (cand_x & xs or cand_y & ys):
                products.append((cand_x, cand_y))
        steps = [(-1, y) for y in bits_of(add_y)] + [(x, -1) for x in bits_of(add_x)]
        pairs = [(x, y) for cand_x, cand_y in products
                 for x in bits_of(cand_x & ~add_x)
                 for y in bits_of(cand_y & ~add_y)]
        steps += dict.fromkeys(pairs) if len(products) > 1 else pairs
        best = 0
        if steps:
            deeper = depth + 1
            if deeper > cap:
                raise _CapReached
            bound = (cx & ~xs).bit_count() + (cy & ~ys).bit_count()
            for x, y in steps:
                nxs, nys, nx_all, nx_any, ny_all, ny_any = xs, ys, x_all, x_any, y_all, y_any
                if x >= 0:
                    nxs |= 1 << x
                    ny_all &= rows_x[x]
                    ny_any |= rows_x[x]
                if y >= 0:
                    nys |= 1 << y
                    nx_all &= rows_y[y]
                    nx_any |= rows_y[y]
                ncx = nx_all | full_x & ~nx_any
                ncy = ny_all | full_y & ~ny_any
                nxt = (nx_all, nx_any, ny_all, ny_any, nxs & ncx, nys & ncy)
                length = memo.get(nxt)
                if length is None:
                    length = further(nxt, ncx, ncy, deeper)
                elif deeper + length > cap:
                    raise _CapReached
                if length >= best:
                    best = length + 1
                    if best == bound:
                        break
        memo[state] = best
        if depth + best > cap:
            raise _CapReached
        return best

    try:
        return further((full_x, 0, full_y, 0, 0, 0), full_x, full_y, 0)
    except _CapReached:
        return cap + 1
    finally:
        memo.clear()
        bits.clear()


@dataclass(frozen=True)
class TwinPartition:
    classes: tuple[tuple[int, ...], ...]
    mode: str  # "true" or "false"
    representative: tuple[int, ...]  # per-vertex class representative
    class_index: tuple[int, ...]  # per-vertex class id


def twin_partition(g: Graph, mode: str) -> TwinPartition:
    """Partition into maximal true-twin or false-twin classes.

    True twins share closed neighborhoods; false twins share open ones.
    """
    if mode not in ("true", "false"):
        raise ValueError("mode must be 'true' or 'false'")
    rows = g.rows
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(rows[v] | 1 << v if mode == "true" else rows[v], []).append(v)
    classes = tuple(tuple(sorted(vs)) for vs in sorted(groups.values()))
    rep = [0] * g.n
    idx = [0] * g.n
    for i, cls in enumerate(classes):
        for v in cls:
            rep[v] = cls[0]
            idx[v] = i
    return TwinPartition(classes, mode, tuple(rep), tuple(idx))


def peel_order(g: Graph) -> tuple[list[int], int]:
    """Minimum-degree peeling order and the degeneracy.

    Ties broken by lowest vertex id so the forests are reproducible.  A
    bucket queue: one heap of vertex ids per degree, filled in id order so
    each starts as a heap, and a pointer `low` to the lowest bucket that can
    hold a live vertex.  A decrement pushes the neighbour into the bucket of
    its new degree and moves the pointer down to it if it falls below.
    Degrees only drop, so a vertex enters each bucket at most once; a popped
    id whose degree is not the bucket's is a stale entry and is skipped, and
    a peeled vertex's degree is set to -1 so that all its entries are stale.
    """
    n = g.n
    nbrs = list(map(g.neighbors, range(n)))
    deg = list(map(len, nbrs))
    buckets = [[] for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        buckets[d].append(v)
    order = []
    low = degeneracy = 0
    while len(order) < n:
        bucket = buckets[low]
        if not bucket:
            low += 1
            continue
        v = heappop(bucket)
        if deg[v] != low:
            continue
        if low > degeneracy:
            degeneracy = low
        deg[v] = -1
        order.append(v)
        for w in nbrs[v]:
            d = deg[w] - 1
            if d >= 0:
                deg[w] = d
                heappush(buckets[d], w)
                if d < low:
                    low = d
    return order, degeneracy


def forest_partition(g: Graph) -> np.ndarray:
    """Partition E into `degeneracy` forests via the bucket-queue
    min-degree peel of `peel_order`: the (n, degeneracy) int64 parent
    table, row v holding v's parent in each forest and -1 where it has none.

    When a vertex is peeled it has at most alpha live neighbors; those
    edges become its parent links, in increasing id order, so its parents
    fill a prefix of its row.  Parents sit later in the peel order, so each
    forest's parent map is acyclic.  One numpy pass over the edge array:
    orient each edge from the endpoint peeled first, sort by (child,
    parent), and rank each edge within its child.
    """
    order, alpha = peel_order(g)
    pos = np.empty(g.n, dtype=np.int64)
    pos[order] = np.arange(g.n)
    edges = g.edge_array()
    first = pos[edges[:, 0]] < pos[edges[:, 1]]
    child = np.where(first, edges[:, 0], edges[:, 1])
    parent = np.where(first, edges[:, 1], edges[:, 0])
    by = np.lexsort((parent, child))
    child, parent = child[by], parent[by]
    parents = np.full((g.n, alpha), -1, dtype=np.int64)
    parents[child, np.arange(len(child)) - np.searchsorted(child, child)] = parent
    return parents


def interval_clique_number(realization: list[tuple[float, float]]) -> int:
    """Max number of pairwise-intersecting closed intervals (sweep)."""
    events = []
    for lo, hi in realization:
        if lo > hi:
            raise ValueError(f"malformed interval ({lo}, {hi})")
        events.append((lo, 0))  # starts sort before ends at equal coordinate
        events.append((hi, 1))
    events.sort()
    best = cur = 0
    for _, kind in events:
        if kind == 0:
            cur += 1
            best = max(best, cur)
        else:
            cur -= 1
    return best
