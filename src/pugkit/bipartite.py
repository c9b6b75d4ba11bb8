"""Labeling schemes for the monogenic bipartite families: equivalence and
chain-graph leaves, one-sided T_p-free, one-sided F_{p,p}-free, F*_{p,q},
and P7-free graphs.

Family membership is verified where cheap (P3/P4/2K2-freeness, degree
conditions); the structural procedures carry runtime invariant checks that
flag inputs outside the declared family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .combinators import (
    DTNode,
    _bits,
    _unbits,
    _width_for,
    across_sides,
    assemble_decomposition_labels,
)
from .graphs import ColoredBipartiteGraph, Graph, bipartite_complement, mask_of, members
from .labels import EqualityScheme, SchemeError, Walker, build_walker, node, register_walker
from .rng import rng_for


# ---------------------------------------------------------------------------
# Equivalence graphs (P3-free) and bipartite equivalence graphs (P4-free).
# ---------------------------------------------------------------------------

def _equivalence_walker(sx, sy, eq) -> int:
    return int(eq(sx.slot0, sy.slot0))


_bip_equivalence_walker = across_sides(_equivalence_walker)
register_walker("equivalence", lambda spec: _equivalence_walker)
register_walker("bip-equivalence", lambda spec: _bip_equivalence_walker)


def equivalence_labels(g: Graph) -> EqualityScheme:
    """One code per vertex: its clique id.  Rejects non-P3-free inputs.

    A component is a clique iff each of its vertices has degree |C| - 1.
    """
    comps = g.connected_components()
    for comp in comps:
        if any(g.degree(v) != len(comp) - 1 for v in comp):
            raise SchemeError("input is not an equivalence graph (induced P3)")
    cls = [0] * g.n
    for i, comp in enumerate(comps):
        for v in comp:
            cls[v] = i
    labels = [node((), (cls[v],)) for v in range(g.n)]
    return EqualityScheme(labels, {"name": "equivalence"}, name="equivalence")


def bipartite_equivalence_labels(g: ColoredBipartiteGraph) -> EqualityScheme:
    """One code per vertex: its biclique id; decode = cross-part equality.

    Vertices are indexed X first (0..nx-1) then Y (nx..nx+ny-1).  A
    component (cx, cy) is a biclique iff each x in it has degree |cy|.
    """
    comps = g.connected_components()
    for cx, cy in comps:
        if any(g.deg_x(x) != len(cy) for x in cx):
            raise SchemeError("input is not a bipartite equivalence graph")
    labels = [None] * (g.nx + g.ny)
    for i, (cx, cy) in enumerate(comps):
        for x in cx:
            labels[x] = node((0,), (i,))
        for y in cy:
            labels[g.nx + y] = node((1,), (i,))
    return EqualityScheme(labels, {"name": "bip-equivalence"}, name="bip-equivalence")


# ---------------------------------------------------------------------------
# Chain graphs: (O(log k), 0)-labels via maximal interval indices.
# ---------------------------------------------------------------------------

def _chain_walker_factory(bits: int) -> Walker:
    def walk(sx, sy, eq) -> int:
        return int(_unbits(sx.tag[1:1 + bits]) <= _unbits(sy.tag[1:1 + bits]))

    return across_sides(walk)


register_walker("chain-graph", lambda s: _chain_walker_factory(s["bits"]))


def chain_graph_labels(g: ColoredBipartiteGraph, k: int) -> EqualityScheme:
    """Deterministic labels (side bit, interval index) for a 2K2-free
    bipartite graph with chain number at most k; decode is i <= j.

    In a chain graph the Y-side neighborhoods are nested, so each X-vertex
    is adjacent to a suffix of Y sorted by degree.  Interleaving X by
    non-neighbor count and Y by degree gives the total order behind the
    maximal intervals.  The labels are checked against every row of g at
    once: x must be adjacent to exactly the y with idx_y[y] >= idx_x[x].
    """
    rank = sorted(range(g.ny), key=lambda y: (g.deg_y(y), y))
    rank_of = {y: r + 1 for r, y in enumerate(rank)}
    order = []
    for x in range(g.nx):
        order.append((g.ny - g.deg_x(x), 1, x))
    for y in range(g.ny):
        order.append((rank_of[y], 0, y))
    order.sort(key=lambda t: (t[0], t[1]))

    idx_x: dict[int, int] = {}
    idx_y: dict[int, int] = {}
    a_runs = 0
    prev_side = None
    for _, side, v in order:
        if side == 1:
            if prev_side != 1:
                a_runs += 1
            idx_x[v] = a_runs
        else:
            idx_y[v] = a_runs
        prev_side = side
    p = a_runs
    q = len(set(idx_y.values()))
    if max(p, q) > k + 1:
        raise SchemeError(f"more than k+1={k + 1} maximal intervals (chain number > {k})")

    # at_least[i]: the Y-bitset of {y : idx_y[y] >= i}, a suffix-OR over i
    at_least = [0] * (p + 2)
    for y, i in idx_y.items():
        at_least[i] |= 1 << y
    for i in range(p, -1, -1):
        at_least[i] |= at_least[i + 1]
    if any(g.rows_x[x] != at_least[idx_x[x]] for x in range(g.nx)):
        raise SchemeError("input is not a chain graph (2K2 found)")

    bits = _width_for(k + 2)
    labels = [node((0,) + _bits(idx_x[x], bits)) for x in range(g.nx)]
    labels += [node((1,) + _bits(idx_y[y], bits)) for y in range(g.ny)]
    return EqualityScheme(labels, {"name": "chain-graph", "bits": bits}, name="chain-graph")


def is_chain_graph(g: ColoredBipartiteGraph) -> bool:
    try:
        chain_graph_labels(g, k=max(g.nx, g.ny))
        return True
    except SchemeError:
        return False


# ---------------------------------------------------------------------------
# One-sided T_p-free structure and labels.
# ---------------------------------------------------------------------------

def _private_pairs(g: ColoredBipartiteGraph, xs: Sequence[int], ys: Iterable[int], p: int):
    """Each pair (x1, x2) of `xs`, in `itertools.combinations` order, whose
    private neighbourhoods within `ys` both have at least p vertices, as
    (x1, x2, private to x1, private to x2, common neighbours), the last
    three as Y-bitsets."""
    ymask = mask_of(ys)
    nbr = {x: g.rows_x[x] & ymask for x in xs}
    for x1, x2 in itertools.combinations(xs, 2):
        only1 = nbr[x1] & ~nbr[x2]
        if only1.bit_count() >= p:
            only2 = nbr[x2] & ~nbr[x1]
            if only2.bit_count() >= p:
                yield x1, x2, only1, only2, nbr[x1] & nbr[x2]


def find_one_sided_tp(g: ColoredBipartiteGraph, p: int):
    """An induced T_p with both centers in X, or None."""
    for x1, x2, only1, only2, _ in _private_pairs(g, range(g.nx), range(g.ny), p):
        return (x1, x2, list(members(only1))[:p], list(members(only2))[:p])
    return None


def find_one_sided_fpp(g: ColoredBipartiteGraph, p: int):
    """An induced F_{p,p} with the degree-2 side in X, or None."""
    for x1, x2, only1, only2, common in _private_pairs(g, range(g.nx), range(g.ny), p):
        if common:
            return (x1, x2, next(members(common)), list(members(only1))[:p],
                    list(members(only2))[:p])
    return None


@dataclass
class TpStructure:
    """The anchored partition of a one-sided T_p-free bipartite graph."""

    k: int
    anchors: tuple[int, ...]  # a_1..a_m
    a_parts: tuple[tuple[int, ...], ...]  # A_0..A_m
    b_parts: tuple[tuple[int, ...], ...]  # B_1..B_{m+1}

    @property
    def m(self) -> int:
        return len(self.anchors)

    def serialize(self) -> str:
        a = " ".join("A%d=%s" % (i, ",".join(map(str, p)) or "-")
                     for i, p in enumerate(self.a_parts))
        b = " ".join("B%d=%s" % (i + 1, ",".join(map(str, p)) or "-")
                     for i, p in enumerate(self.b_parts))
        return f"tp-structure k={self.k} anchors={','.join(map(str, self.anchors)) or '-'} {a} {b}"


def tp_structure(g: ColoredBipartiteGraph, k: int) -> TpStructure:
    """The iterative anchor decomposition: A_0 holds the degree-<k vertices,
    then round i anchors the minimum-degree vertex a_i of the remainder,
    removes its neighborhood B_i and the vertices left with degree < k."""
    a0 = tuple(x for x in range(g.nx) if g.deg_x(x) < k)
    if len(a0) == g.nx:
        return TpStructure(k, (), (a0,), (tuple(range(g.ny)),))
    rows = g.rows_x
    xs = set(range(g.nx)) - set(a0)
    ys = (1 << g.ny) - 1
    anchors: list[int] = []
    a_parts: list[tuple[int, ...]] = [a0]
    b_parts: list[tuple[int, ...]] = []
    while xs:
        a_i = min(xs, key=lambda x: ((rows[x] & ys).bit_count(), x))
        b_i = rows[a_i] & ys
        if not b_i:
            raise SchemeError("anchor with empty residual neighborhood "
                              "(violates the degree invariant)")
        rest = ys & ~b_i
        a_i_part = {x for x in xs if (rows[x] & rest).bit_count() < k}
        anchors.append(a_i)
        a_parts.append(tuple(sorted(a_i_part)))
        b_parts.append(tuple(members(b_i)))
        xs -= a_i_part
        ys = rest
    b_parts.append(tuple(members(ys)))
    return TpStructure(k, tuple(anchors), tuple(a_parts), tuple(b_parts))


def check_tp_structure(g: ColoredBipartiteGraph, st: TpStructure, p: int) -> None:
    """Verify the degree and non-neighbour invariants of the anchor decomposition."""
    m = st.m
    rows = g.rows_x
    for i in range(m):
        if len(st.b_parts[i]) < st.k:
            raise SchemeError(f"|B_{i + 1}| < k")
    for j in range(m + 1):
        forward = mask_of(itertools.chain.from_iterable(st.b_parts[j:]))
        for x in st.a_parts[j]:
            if (rows[x] & forward).bit_count() >= st.k:
                raise SchemeError(f"condition (2) fails for x={x} in A_{j}")
    for i in range(1, m + 1):
        bi = mask_of(st.b_parts[i - 1])
        for j in range(i, m + 1):
            for x in st.a_parts[j]:
                if (rows[x] & bi).bit_count() <= bi.bit_count() - p:
                    raise SchemeError(f"condition (3) fails for x={x}, B_{i}")


def extract_z_witness(g: ColoredBipartiteGraph, st: TpStructure, q: int, p: int):
    """When m >= q, the anchors and trimmed B-parts induce Z_{q,k-qp}."""
    s = st.k - q * p
    if st.m < q or s < 1:
        return None
    anchors = st.anchors[:q]
    b_trim = []
    for i in range(q):
        bi = mask_of(st.b_parts[i])
        for j in range(i, q):
            bi &= g.rows_x[st.anchors[j]]
        if bi.bit_count() < s:
            return None
        b_trim.append(tuple(members(bi))[:s])
    return anchors, tuple(b_trim)


def _tp_walker_factory(bits: int) -> Walker:
    def walk(sx, sy, eq) -> int:
        i = _unbits(sx.tag[1:1 + bits])
        j = _unbits(sy.tag[1:1 + bits])
        if j <= i:
            block = sx.children[j - 1]
            for t in range(block.arity):
                if eq(block.slot0 + t, sy.slot0):
                    return 0  # y is a listed non-neighbor
            return 1
        fwd = sx.children[i]
        for t in range(fwd.arity):
            if eq(fwd.slot0 + t, sy.slot0):
                return 1  # y is a listed forward neighbor
        return 0

    return across_sides(walk)


register_walker("tp-free", lambda s: _tp_walker_factory(s["idx_bits"]))


def tp_free_labels(g: ColoredBipartiteGraph, p: int, q: int,
                   y_ids: Sequence[int] | None = None) -> EqualityScheme:
    """Equality labels for a one-sided T_p-free graph with no half-graph of
    order q: k = qp+1; X-labels list the few non-neighbors per earlier
    B-block plus the <k forward neighbors; Y-labels carry their block index
    and identity.

    `y_ids` renames Y codes (used when the graph is an induced piece of a
    larger one and codes must live in the root id space).
    """
    k = q * p + 1
    st = tp_structure(g, k)
    if st.m >= q:
        w = extract_z_witness(g, st, q, p)
        detail = f" (Z_{{{q},{k - q * p}}} witness: {w})" if w else ""
        raise SchemeError(f"anchor rounds m={st.m} >= q={q}: graph is not "
                          f"H_q-free{detail}")
    check_tp_structure(g, st, p)
    ymap = list(range(g.ny)) if y_ids is None else list(y_ids)
    bits = _width_for(q + 2)

    part_of_x = {}
    for i, part in enumerate(st.a_parts):
        for x in part:
            part_of_x[x] = i
    part_of_y = {}
    for j, part in enumerate(st.b_parts):
        for y in part:
            part_of_y[y] = j + 1  # B-parts are 1-indexed

    labels = []
    for x in range(g.nx):
        i = part_of_x[x]
        row = g.rows_x[x]
        kids = []
        for j in range(i):  # non-neighbors in B_1..B_i
            non = tuple(ymap[y] for y in st.b_parts[j] if not row >> y & 1)
            if len(non) >= p:
                raise SchemeError("condition (3) violated while labeling")
            kids.append(node((), non))
        forward = tuple(ymap[y] for y in g.neighbors_x(x) if part_of_y[y] > i)
        if len(forward) >= k:
            raise SchemeError("condition (2) violated while labeling")
        kids.append(node((), forward))
        labels.append(node((0,) + _bits(i, bits), (), *kids))
    for y in range(g.ny):
        labels.append(node((1,) + _bits(part_of_y[y], bits), (ymap[y],)))
    return EqualityScheme(labels, {"name": "tp-free", "idx_bits": bits}, name="tp-free")


# ---------------------------------------------------------------------------
# One-sided F_{p,p}-free decomposition and labels.
# ---------------------------------------------------------------------------

def _is_one_sided_tk_free(g: ColoredBipartiteGraph, xs: Sequence[int],
                          ys: Sequence[int], k: int) -> bool:
    return next(_private_pairs(g, xs, ys, k), None) is None


def fpp_decomposition(g: ColoredBipartiteGraph, p: int, q: int) -> DTNode:
    """Decomposition tree for a one-sided F_{p,p}-free, H_q-free graph:
    leaves are one-sided T_k-free pieces (k = (q+1)p), D-nodes split
    components, and P-nodes split off the left-disconnected high-degree
    part.  Depth is bounded by 2q."""
    k = (q + 1) * p

    def build(xs: tuple[int, ...], ys: tuple[int, ...], depth: int) -> DTNode:
        if depth > 2 * q:
            raise SchemeError(f"decomposition depth exceeds 2q={2 * q} "
                              "(graph outside the declared family)")
        if _is_one_sided_tk_free(g, xs, ys, k):
            return DTNode("L", xs, ys)
        comps = _components_rootspace(g.induced(xs, ys), xs, ys)
        if len(comps) > 1:
            children = tuple(build(cx, cy, depth + 1) for cx, cy in comps)
            return DTNode("D", xs, ys, children)
        ymask = mask_of(ys)
        deg = {x: (g.rows_x[x] & ymask).bit_count() for x in xs}
        x0 = tuple(x for x in xs if deg[x] < k)
        rest = [x for x in xs if deg[x] >= k]

        def left_disconnected(sub_xs: list[int]) -> bool:
            if len(sub_xs) < 2:
                return False
            comps = _components_rootspace(g.induced(sub_xs, ys), sub_xs, ys)
            return sum(1 for cx, _ in comps if cx) > 1

        x1: list[int] = []
        pool = list(rest)
        while pool and not left_disconnected(pool):
            top = max(pool, key=lambda x: (deg[x], -x))
            x1.append(top)
            pool.remove(top)
        x2 = tuple(sorted(pool))
        if not x2:
            raise SchemeError("X2 exhausted: input violates the F_{p,p}-free "
                              "decomposition invariants")
        left = tuple(sorted(x0 + tuple(x1)))
        if not left:
            raise SchemeError("empty X0 u X1 at a connected node")
        child_leaf = build(left, ys, depth + 1)
        if child_leaf.kind != "L":
            raise SchemeError("X0 u X1 child is not one-sided T_k-free")
        child_rest = build(x2, ys, depth + 1)
        return DTNode("P", xs, ys, (child_leaf, child_rest),
                      x_parts=(left, x2), y_parts=(ys,))

    return build(tuple(range(g.nx)), tuple(range(g.ny)), 0)


def _tp_leaf_labeler(g: ColoredBipartiteGraph, p: int, q: int):
    """The T_k-free leaf labeler of the F_{p,p} pipeline and its spec."""
    k = (q + 1) * p

    def labeler(node: DTNode):
        xs, ys = sorted(node.xs), sorted(node.ys)
        sub = g.induced(xs, ys)
        scheme = tp_free_labels(sub, p=k, q=q, y_ids=ys)
        out = {}
        for i, x in enumerate(xs):
            out[("x", x)] = scheme.label(i)
        for j, y in enumerate(ys):
            out[("y", y)] = scheme.label(len(xs) + j)
        return out

    return labeler, {"name": "tp-free", "idx_bits": _width_for(q + 2)}


def fpp_labels(g: ColoredBipartiteGraph, p: int, q: int) -> EqualityScheme:
    """Full one-sided F_{p,p}-free pipeline: decomposition tree plus the
    T_k-free leaf labeling, assembled into one equality scheme."""
    tree = fpp_decomposition(g, p, q)
    return assemble_decomposition_labels(g, tree, *_tp_leaf_labeler(g, p, q), name="fpp")


# ---------------------------------------------------------------------------
# F*_{p,q}: Allen partition search plus the two F_{p,p} sub-pipelines.
# ---------------------------------------------------------------------------

@dataclass
class AllenPartition:
    x1: tuple[int, ...]
    x2: tuple[int, ...]
    y1: tuple[int, ...]
    y2: tuple[int, ...]  # at most one vertex


def _fpp_conflicts(g: ColoredBipartiteGraph, xs: list[int], y1: set[int], p: int):
    """Pairs of X-vertices witnessing F_{p,p} in G[.,Y1] and in bc(G[.,Y1])."""
    direct = set()
    compl = set()
    for a, b, only_a, only_b, common in _private_pairs(g, xs, y1, p):
        if common:
            direct.add((a, b))
        if (only_a | only_b | common).bit_count() < len(y1):
            compl.add((a, b))  # some vertex of Y1 is adjacent to neither
    return direct, compl


def find_allen_partition(g: ColoredBipartiteGraph, p: int,
                         exhaustive_limit: int = 20) -> AllenPartition | None:
    """Search for (X1, X2, Y1, Y2): |Y2| <= 1, G[X1,Y1] and bc(G[X2,Y1])
    one-sided F_{p,p}-free.  Greedy split first, exhaustive for small X."""
    xs = list(range(g.nx))
    for y2 in [None] + list(range(g.ny)):
        y1 = set(range(g.ny)) - ({y2} if y2 is not None else set())
        direct, compl = _fpp_conflicts(g, xs, y1, p)

        def ok(x1: set[int], x2: set[int]) -> bool:
            return not any((a, b) in direct for a, b in itertools.combinations(sorted(x1), 2)) \
                and not any((a, b) in compl for a, b in itertools.combinations(sorted(x2), 2))

        def splits():
            x1: set[int] = set()
            x2: set[int] = set()
            for x in sorted(xs, key=lambda v: (-g.deg_x(v), v)):  # greedy by degree
                if not any(tuple(sorted((x, o))) in direct for o in x1):
                    x1.add(x)
                elif not any(tuple(sorted((x, o))) in compl for o in x2):
                    x2.add(x)
                else:
                    break
            else:
                yield x1, x2
            if g.nx <= exhaustive_limit:
                for mask in range(1 << g.nx):
                    s1 = {x for x in xs if mask >> x & 1}
                    yield s1, set(xs) - s1

        for x1, x2 in splits():
            if ok(x1, x2):
                return AllenPartition(tuple(sorted(x1)), tuple(sorted(x2)),
                                      tuple(sorted(y1)),
                                      (y2,) if y2 is not None else ())
    return None


def _fstar_walker_factory(sub1: Walker, sub2: Walker) -> Walker:
    def walk(sx, sy, eq) -> int:
        if sy.tag[1] == 1:  # y is the Y2 vertex
            return sx.tag[1]
        if sx.tag[2] == 0:  # x in X1
            return sub1(sx.children[0], sy.children[0], eq)
        return 1 - sub2(sx.children[0], sy.children[1], eq)

    return across_sides(walk)


register_walker("fstar", lambda s: _fstar_walker_factory(build_walker(s["sub1"]),
                                                         build_walker(s["sub2"])))


def fstar_labels(g: ColoredBipartiteGraph, p: int, q: int,
                 partition: AllenPartition | None = None) -> EqualityScheme:
    """Scheme for an F*_{p,p'}-free graph (p = max(p,p')): partition per
    Allen, label G[X1,Y1] and bc(G[X2,Y1]) with the F_{p,p} pipeline, and
    flip the output on the complemented branch."""
    if partition is None:
        partition = find_allen_partition(g, p)
        if partition is None:
            raise SchemeError("no Allen partition found (desk-scale search limit)")
    x1, x2, y1, y2 = (list(partition.x1), list(partition.x2),
                      list(partition.y1), list(partition.y2))
    sub1_graph = g.induced(x1, y1)
    sub2_graph = bipartite_complement(g.induced(x2, y1))
    tree1 = fpp_decomposition(sub1_graph, p, q)
    tree2 = fpp_decomposition(sub2_graph, p, q)
    s1 = assemble_decomposition_labels(sub1_graph, tree1, *_tp_leaf_labeler(sub1_graph, p, q),
                                       name="fpp1")
    s2 = assemble_decomposition_labels(sub2_graph, tree2, *_tp_leaf_labeler(sub2_graph, p, q),
                                       name="fpp2")

    pos_x1 = {x: i for i, x in enumerate(sorted(x1))}
    pos_x2 = {x: i for i, x in enumerate(sorted(x2))}
    pos_y1 = {y: j for j, y in enumerate(sorted(y1))}
    y2v = y2[0] if y2 else None

    labels = []
    for x in range(g.nx):
        adj2 = int(y2v is not None and g.has_edge(x, y2v))
        if x in pos_x1:
            labels.append(node((0, adj2, 0), (), s1.label(pos_x1[x])))
        else:
            labels.append(node((0, adj2, 1), (), s2.label(pos_x2[x])))
    for y in range(g.ny):
        if y == y2v:
            labels.append(node((1, 1)))
        else:
            labels.append(node((1, 0), (), s1.label(len(x1) + pos_y1[y]),
                               s2.label(len(x2) + pos_y1[y])))
    return EqualityScheme(labels, {"name": "fstar", "sub1": s1.spec, "sub2": s2.spec},
                          name="fstar")


# ---------------------------------------------------------------------------
# Chain decompositions (P7-free machinery).
# ---------------------------------------------------------------------------

@dataclass
class ChainDecomposition:
    k: int
    a_parts: tuple[tuple[int, ...], ...]  # A_1..A_k (X side)
    c_parts: tuple[tuple[int, ...], ...]  # C_1..C_k (X side)
    b_parts: tuple[tuple[int, ...], ...]  # B_1..B_k (Y side)
    d_parts: tuple[tuple[int, ...], ...]  # D_1..D_k (Y side)

    def serialize(self) -> str:
        def fmt(tag, parts):
            return " ".join(f"{tag}{i + 1}={','.join(map(str, p)) or '-'}"
                            for i, p in enumerate(parts))

        return (f"chain-decomposition k={self.k} {fmt('A', self.a_parts)} "
                f"{fmt('C', self.c_parts)} {fmt('B', self.b_parts)} {fmt('D', self.d_parts)}")


#: The X-part/Y-part letter pairs, in the order the verifier checks them.
_LETTER_PAIRS = (("A", "B"), ("C", "D"), ("A", "D"), ("C", "B"))


def _forced(xpart: tuple[str, int], ypart: tuple[str, int]) -> bool | None:
    """The adjacency a chain decomposition forces between X part
    (letter, i) and Y part (letter, j), levels counted from 0: True
    (complete), False (anticomplete), or None where the pair is free."""
    (xl, i), (yl, j) = xpart, ypart
    if (xl, yl) in (("A", "B"), ("C", "D")):
        return False if j > i else True if j < i - 1 else None
    return j < i  # A-D and C-B


def verify_chain_decomposition(g: ColoredBipartiteGraph, cd: ChainDecomposition,
                               reasons: list[str] | None = None) -> bool:
    """Check every bullet of the chain-decomposition definition."""
    out = reasons if reasons is not None else []
    k = cd.k

    def fail(msg: str) -> bool:
        out.append(msg)
        return False

    xs = sorted(v for p in cd.a_parts + cd.c_parts for v in p)
    ys = sorted(v for p in cd.b_parts + cd.d_parts for v in p)
    if xs != list(range(g.nx)) or ys != list(range(g.ny)):
        return fail("parts do not partition the sides")
    if len(cd.a_parts) != k or len(cd.c_parts) != k or len(cd.b_parts) != k \
            or len(cd.d_parts) != k:
        return fail("part-list lengths differ from k")
    for i in range(k - 1):
        if not (cd.a_parts[i] and cd.b_parts[i] and cd.c_parts[i] and cd.d_parts[i]):
            return fail(f"empty part at level {i + 1} < k")
    if not (cd.a_parts[k - 1] or cd.b_parts[k - 1] or cd.c_parts[k - 1] or cd.d_parts[k - 1]):
        return fail("all level-k parts empty")

    for i in range(k):
        for b in cd.b_parts[i]:
            if not any(g.has_edge(a, b) for a in cd.a_parts[i]):
                return fail(f"vertex {b} of B_{i + 1} has no neighbour in A_{i + 1}")
        for d in cd.d_parts[i]:
            if not any(g.has_edge(c, d) for c in cd.c_parts[i]):
                return fail(f"vertex {d} of D_{i + 1} has no neighbour in C_{i + 1}")
    for i in range(1, k - 1):
        for a in cd.a_parts[i]:
            if all(g.has_edge(a, b) for b in cd.b_parts[i - 1]):
                return fail(f"vertex {a} of A_{i + 1} lacks a non-neighbour in B_{i}")
        for c in cd.c_parts[i]:
            if all(g.has_edge(c, d) for d in cd.d_parts[i - 1]):
                return fail(f"vertex {c} of C_{i + 1} lacks a non-neighbour in D_{i}")
    parts = {"A": cd.a_parts, "B": cd.b_parts, "C": cd.c_parts, "D": cd.d_parts}
    for i in range(k):
        for j in range(k):
            for xl, yl in _LETTER_PAIRS:
                want = _forced((xl, i), (yl, j))
                if want is not None and any(g.has_edge(u, v) != want
                                            for u in parts[xl][i] for v in parts[yl][j]):
                    return fail(f"{xl}_{i + 1} not {'complete' if want else 'anticomplete'}"
                                f" to {yl}_{j + 1}")
    return True


#: The largest graph (nx + ny) `chain_decomposition_search` searches.
CHAIN_SEARCH_SIZE_LIMIT = 24
#: The most backtracking nodes one `chain_decomposition_search` call visits,
#: over all k.
CHAIN_SEARCH_NODE_LIMIT = 100_000


class _NodeBudgetSpent(Exception):
    pass


def chain_decomposition_search(g: ColoredBipartiteGraph, k_max: int = 4
                               ) -> ChainDecomposition | None:
    """Backtracking search for a k-chain decomposition, k = 2..k_max.

    Bounded-exhaustive: assignments are pruned by the pairwise
    complete/anticomplete bullets as vertices are placed; existential
    bullets are checked on completion.  NONE is a legal outcome, and so is
    a graph above `CHAIN_SEARCH_SIZE_LIMIT` vertices or a search that visits
    more than `CHAIN_SEARCH_NODE_LIMIT` nodes before it finds one.
    """
    if g.nx + g.ny > CHAIN_SEARCH_SIZE_LIMIT:
        return None
    budget = [CHAIN_SEARCH_NODE_LIMIT]
    try:
        for k in range(2, k_max + 1):
            cd = _search_k(g, k, budget)
            if cd is not None:
                return cd
    except _NodeBudgetSpent:
        pass
    return None


def _search_k(g: ColoredBipartiteGraph, k: int, budget: list[int]
              ) -> ChainDecomposition | None:
    # X parts: ('A', i) / ('C', i); Y parts: ('B', i) / ('D', i), i in 0..k-1
    x_opts = [("A", i) for i in range(k)] + [("C", i) for i in range(k)]
    y_opts = [("B", i) for i in range(k)] + [("D", i) for i in range(k)]
    xs = sorted(range(g.nx), key=lambda x: (-g.deg_x(x), x))
    ys = sorted(range(g.ny), key=lambda y: (-g.deg_y(y), y))
    assign: tuple[dict[int, tuple[str, int]], ...] = ({}, {})  # X, Y assignments

    def fits(side: int, v: int, part: tuple[str, int]) -> bool:
        for u, other in assign[1 - side].items():
            x, y, xpart, ypart = (v, u, part, other) if side == 0 else (u, v, other, part)
            want = _forced(xpart, ypart)
            if want is not None and want != g.has_edge(x, y):
                return False
        return True

    def finish() -> ChainDecomposition | None:
        parts = {("A", i): [] for i in range(k)}
        parts.update({(t, i): [] for t in "BCD" for i in range(k)})
        for side_assign in assign:
            for v, pt in side_assign.items():
                parts[pt].append(v)
        cd = ChainDecomposition(
            k,
            tuple(tuple(sorted(parts[("A", i)])) for i in range(k)),
            tuple(tuple(sorted(parts[("C", i)])) for i in range(k)),
            tuple(tuple(sorted(parts[("B", i)])) for i in range(k)),
            tuple(tuple(sorted(parts[("D", i)])) for i in range(k)),
        )
        return cd if verify_chain_decomposition(g, cd) else None

    order = [(0, v) for v in xs] + [(1, v) for v in ys]

    def backtrack(pos: int) -> ChainDecomposition | None:
        budget[0] -= 1
        if budget[0] < 0:
            raise _NodeBudgetSpent
        if pos == len(order):
            return finish()
        side, v = order[pos]
        for part in (x_opts, y_opts)[side]:
            if not fits(side, v, part):
                continue
            assign[side][v] = part
            res = backtrack(pos + 1)
            if res is not None:
                return res
            del assign[side][v]
        return None

    return backtrack(0)


def build_chain_decomposition_graph(k: int, sizes: int, seed: int = 0
                                    ) -> tuple[ColoredBipartiteGraph, ChainDecomposition]:
    """Synthesize a graph realizing a k-chain decomposition with `sizes`
    vertices per part: the required complete/anticomplete blocks, bicliques
    on the (A_i,B_i)/(C_i,D_i) diagonals, and near-complete (A_i,B_{i-1})
    blocks so the non-neighbour bullets hold."""
    rng = rng_for(seed, "chain-decomp", k, sizes)
    a = [tuple(range(i * sizes, (i + 1) * sizes)) for i in range(k)]
    c = [tuple(range((k + i) * sizes, (k + i + 1) * sizes)) for i in range(k)]
    parts = {"A": a, "B": a, "C": c, "D": c}  # B_i and D_i reuse the ids of A_i and C_i
    edges = set()
    for i in range(k):
        for j in range(k):
            for xl, yl in _LETTER_PAIRS:
                want = _forced((xl, i), (yl, j))
                if want or (want is None and i == j):  # diagonal bicliques: neighbour bullets
                    edges.update((x, y) for x in parts[xl][i] for y in parts[yl][j])
        if 1 <= i <= k - 2:
            # A_{i+1} x B_i and C_{i+1} x D_i: complete minus one non-neighbour per row
            for xl, yl in (("A", "B"), ("C", "D")):
                row = parts[yl][i - 1]
                for x in parts[xl][i]:
                    miss = row[rng.randrange(len(row))]
                    edges.update((x, y) for y in row if y != miss)
    g = ColoredBipartiteGraph(2 * k * sizes, 2 * k * sizes, sorted(edges))
    return g, ChainDecomposition(k, tuple(a), tuple(c), tuple(a), tuple(c))


# ---------------------------------------------------------------------------
# P7-free: decomposition tree with biclique/co-biclique leaves.
# ---------------------------------------------------------------------------

def partition_from_chain_decomposition(
        g: ColoredBipartiteGraph, cd: ChainDecomposition
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The chain-number-decreasing P-node partition (with the
    k=2 special cases, splitting B_1 or D_1 by an anchor's neighborhood)."""
    if cd.k == 2 and not (cd.a_parts[1] and cd.c_parts[1]):
        if not (cd.a_parts[1] or cd.c_parts[1]):
            raise SchemeError("invalid 2-chain decomposition: both A_2 and C_2 empty")
        if not cd.a_parts[1]:  # the mirror case: swap A<->C and B<->D
            cd = ChainDecomposition(cd.k, cd.c_parts, cd.a_parts, cd.d_parts, cd.b_parts)
        anchor = min(cd.a_parts[1])
        b1 = cd.b_parts[0]
        b1p = tuple(y for y in b1 if g.has_edge(anchor, y))
        b1pp = tuple(y for y in b1 if not g.has_edge(anchor, y))
        x_parts = [p for p in (cd.a_parts[0], cd.a_parts[1], cd.c_parts[0]) if p]
        y_parts = [p for p in (b1p, b1pp, cd.b_parts[1], cd.d_parts[0]) if p]
        return x_parts, y_parts
    x_parts = [p for p in cd.a_parts + cd.c_parts if p]
    y_parts = [p for p in cd.b_parts + cd.d_parts if p]
    return x_parts, y_parts


def _bicobi_walker(sx, sy, eq) -> int:
    return sx.tag[0]


register_walker("bicobi", lambda spec: _bicobi_walker)


def build_p7_tree(g: ColoredBipartiteGraph, c: int) -> DTNode:
    """(Q, 2(c+2))-decomposition tree with biclique/co-biclique leaves.

    P-nodes need a chain decomposition of the node or of its bipartite
    complement; the bounded search may fail on large nodes, which is
    reported as a SchemeError (desk-scale limitation, not a family
    violation)."""

    def build(xs: tuple[int, ...], ys: tuple[int, ...]) -> DTNode:
        sub = g.induced(xs, ys)
        if sub.is_biclique() or sub.is_cobiclique():
            return DTNode("L", xs, ys)
        comps = _components_rootspace(sub, xs, ys)
        if len(comps) > 1:
            return DTNode("D", xs, ys,
                          tuple(build(cx, cy) for cx, cy in comps))
        bc = bipartite_complement(sub)
        bcomps = _components_rootspace(bc, xs, ys)
        if len(bcomps) > 1:
            return DTNode("Dbar", xs, ys,
                          tuple(build(cx, cy) for cx, cy in bcomps))
        cd = chain_decomposition_search(sub, k_max=c + 2)
        base = sub
        if cd is None:
            cd = chain_decomposition_search(bc, k_max=c + 3)
            base = bc
        if cd is None:
            raise SchemeError(
                f"no chain decomposition found for a {len(xs)}x{len(ys)} P-node "
                "(desk-scale search limit)")
        xp_local, yp_local = partition_from_chain_decomposition(base, cd)
        xs_s, ys_s = sorted(xs), sorted(ys)
        x_parts = tuple(tuple(xs_s[i] for i in p) for p in xp_local)
        y_parts = tuple(tuple(ys_s[j] for j in p) for p in yp_local)
        children = tuple(
            build(xp, yp) for xp in x_parts for yp in y_parts
        )
        return DTNode("P", xs, ys, children, x_parts=x_parts, y_parts=y_parts)

    return build(tuple(range(g.nx)), tuple(range(g.ny)))


def _components_rootspace(sub: ColoredBipartiteGraph, xs, ys):
    xs_s, ys_s = sorted(xs), sorted(ys)
    return [
        (tuple(xs_s[i] for i in cx), tuple(ys_s[j] for j in cy))
        for cx, cy in sub.connected_components()
    ]


def p7_labels(g: ColoredBipartiteGraph, c: int) -> EqualityScheme:
    """Scheme for a P7-free bipartite graph of chain number at most c."""
    tree = build_p7_tree(g, c)
    if c >= 1 and tree.depth() > 6 * c:
        raise SchemeError(f"decomposition depth {tree.depth()} exceeds 6c={6 * c}")

    def labeler(leaf: DTNode):
        sub = g.induced(leaf.xs, leaf.ys)
        bit = 1 if (sub.m > 0 and sub.is_biclique()) else 0
        out = {}
        for x in leaf.xs:
            out[("x", x)] = node((bit,))
        for y in leaf.ys:
            out[("y", y)] = node((bit,))
        return out

    return assemble_decomposition_labels(g, tree, labeler, {"name": "bicobi"}, name="p7")
