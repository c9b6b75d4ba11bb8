"""Scheme transformers: bounded vertex addition, bounded complementation,
twin reduction, bip lifting/lowering, and the generic decomposition-tree
label assembler.

Each transform wraps the base scheme's labels as subtrees and its spec as
a part of its own spec, so transforms compose.  All slot references
are absolute (ShapeNode.slot0), which is what makes nesting sound.

A walker factory takes its live sub-walkers and plain parameters; the
adapter registered for its name builds them from the spec's parts with
`build_walker`, so a live walker composes as a part like a JSON spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .graphs import ColoredBipartiteGraph, Graph, bipartite_complement, induced_subgraph
from .labels import (
    EqOracle,
    EqualityScheme,
    Label,
    SchemeError,
    ShapeNode,
    Spec,
    Walker,
    bits_for,
    build_walker,
    node,
    register_walker,
)
from .structure import TwinPartition, twin_partition


def _bits(value: int, width: int) -> tuple[int, ...]:
    return tuple(value >> (width - 1 - i) & 1 for i in range(width))


def _unbits(bits: Sequence[int]) -> int:
    v = 0
    for b in bits:
        v = v << 1 | b
    return v


def _width_for(count: int) -> int:
    return max(bits_for(count), 1)


# ---------------------------------------------------------------------------
# Bounded vertex addition (add at most c special vertices).
# ---------------------------------------------------------------------------

def _add_vertices_walker(base: Walker, c: int) -> Walker:
    iw = _width_for(c)

    def walk(sx: ShapeNode, sy: ShapeNode, eq) -> int:
        mx, my = sx.tag[0], sy.tag[0]
        if mx == 0 and my == 0:
            return base(sx.children[0], sy.children[0], eq)
        if mx == 1 and my == 1:
            i = _unbits(sx.tag[1:1 + iw])
            j = _unbits(sy.tag[1 + iw:1 + iw + c])
            return (j >> (c - 1 - i)) & 1 if c else 0
        if mx == 0:
            i = _unbits(sy.tag[1:1 + iw])
            return sx.tag[1 + i]
        i = _unbits(sx.tag[1:1 + iw])
        return sy.tag[1 + i]

    return walk


register_walker("add-vertices", lambda s: _add_vertices_walker(build_walker(s["base"]), s["c"]))


def add_vertices_scheme(g: Graph, special: Sequence[int], base: EqualityScheme,
                        base_ids: Sequence[int], c: int | None = None) -> EqualityScheme:
    """Scheme for g from a base scheme on g minus the special vertices.

    `base_ids` maps base-scheme vertex index -> g vertex id.  Ordinary
    vertices get prefix (0, adjacency-bitmask to the added set) plus their
    base label; special vertex number i gets (1, i, own bitmask).
    """
    special = list(special)
    if c is None:
        c = len(special)
    if len(special) > c:
        raise SchemeError(f"{len(special)} special vertices exceed budget {c}")
    iw = _width_for(c)
    spos = {v: i for i, v in enumerate(special)}
    base_pos = {v: i for i, v in enumerate(base_ids)}
    if set(base_pos) | set(spos) != set(range(g.n)) or set(base_pos) & set(spos):
        raise SchemeError("special + base vertices must partition V")

    def mask_for(v: int) -> int:
        m = 0
        for i, w in enumerate(special):
            if g.has_edge(v, w):
                m |= 1 << (c - 1 - i)
        return m

    labels = []
    for v in range(g.n):
        if v in spos:
            i = spos[v]
            tag = (1,) + _bits(i, iw) + _bits(mask_for(v), c)
            labels.append(node(tag))
        else:
            tag = (0,) + _bits(mask_for(v), c)
            labels.append(node(tag, (), base.label(base_pos[v])))
    return EqualityScheme(labels, {"name": "add-vertices", "c": c, "base": base.spec},
                          name=f"add-vertices({base.name})")


# ---------------------------------------------------------------------------
# Bounded complementations over a partition into at most k parts.
# ---------------------------------------------------------------------------

def _complementation_walker(base: Walker, r: int) -> Walker:
    pw = _width_for(r)

    def walk(sx: ShapeNode, sy: ShapeNode, eq) -> int:
        out = base(sx.children[0], sy.children[0], eq)
        j = _unbits(sy.tag[:pw])
        flip = sx.tag[pw + j]
        return out ^ flip

    return walk


register_walker("complementation",
                lambda s: _complementation_walker(build_walker(s["base"]), s["r"]))


def complementation_scheme(base: EqualityScheme, parts: Sequence[Sequence[int]],
                           flips: Sequence[Sequence[int]]) -> EqualityScheme:
    """Scheme for the graph obtained by complementing edges between flipped
    part pairs (the diagonal flips inside a part).

    Each label gains ceil(log r) part-index bits and its r-bit flip row.
    """
    r = len(parts)
    n = base.n
    covered = sorted(v for p in parts for v in p)
    if covered != list(range(n)):
        raise SchemeError("parts must partition the vertex set")
    for i in range(r):
        for j in range(r):
            if flips[i][j] != flips[j][i]:
                raise SchemeError("flip matrix must be symmetric")
    pw = _width_for(r)
    part_of = {}
    for i, p in enumerate(parts):
        for v in p:
            part_of[v] = i
    labels = []
    for v in range(n):
        i = part_of[v]
        tag = _bits(i, pw) + tuple(flips[i][j] for j in range(r))
        labels.append(node(tag, (), base.label(v)))
    return EqualityScheme(labels, {"name": "complementation", "r": r, "base": base.spec},
                          name=f"complement({base.name})")


def apply_part_flips(g: Graph, parts: Sequence[Sequence[int]],
                     flips: Sequence[Sequence[int]]) -> Graph:
    """Oracle counterpart of `complementation_scheme`."""
    part_of = {}
    for i, p in enumerate(parts):
        for v in p:
            part_of[v] = i
    edges = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v) ^ flips[part_of[u]][part_of[v]]:
                edges.append((u, v))
    return Graph(g.n, edges)


# ---------------------------------------------------------------------------
# Twin reduction.
# ---------------------------------------------------------------------------

def _twin_reduce_walker(base: Walker, mode: str) -> Walker:
    same_output = 1 if mode == "true" else 0

    def walk(sx: ShapeNode, sy: ShapeNode, eq) -> int:
        if eq(sx.slot0, sy.slot0):
            return same_output
        return base(sx.children[0], sy.children[0], eq)

    return walk


register_walker("twin-reduce", lambda s: _twin_reduce_walker(build_walker(s["base"]), s["mode"]))


def twin_reduce_scheme(g: Graph, mode: str,
                       base_builder: Callable[[Graph, dict[int, int]], EqualityScheme],
                       ) -> tuple[EqualityScheme, TwinPartition]:
    """Reduce g by its twin classes, label the quotient with `base_builder`,
    and append one class-index code per vertex.

    Equal class codes decode to 1 in true mode (twins are adjacent) and 0 in
    false mode; distinct classes defer to the base scheme on representatives.
    """
    tp = twin_partition(g, mode)
    reps = sorted(set(tp.representative))
    quotient, remap = induced_subgraph(g, reps)
    base = base_builder(quotient, remap)
    labels = []
    for v in range(g.n):
        q = remap[tp.representative[v]]
        labels.append(node((), (tp.class_index[v],), base.label(q)))
    return EqualityScheme(labels, {"name": "twin-reduce", "mode": mode, "base": base.spec},
                          name=f"twin-reduce({base.name})"), tp


# ---------------------------------------------------------------------------
# bip lifting and lowering.
# ---------------------------------------------------------------------------

def across_sides(walk: Walker) -> Walker:
    """The walker of labels whose first prefix bit is a side bit (0 for X,
    1 for Y): a same-side pair decodes to 0, and `walk` decodes every other
    pair with the X label first."""

    def sided(sx: ShapeNode, sy: ShapeNode, eq: EqOracle) -> int:
        if sx.tag[0] == sy.tag[0]:
            return 0
        if sx.tag[0] == 0:
            return walk(sx, sy, eq)
        return walk(sy, sx, lambda i, j: eq(j, i))

    return sided


def _bip_lift_walker(base: Walker) -> Walker:
    return across_sides(lambda sx, sy, eq: base(sx.children[0], sy.children[0], eq))


register_walker("bip-lift", lambda s: _bip_lift_walker(build_walker(s["base"])))


def bip_lift(base: EqualityScheme) -> EqualityScheme:
    """Scheme for bip(G) from a scheme for G: append a side bit.

    Vertices 0..n-1 are the left copy, n..2n-1 the right copy.
    """
    n = base.n
    labels = [node((side,), (), base.label(v)) for side in (0, 1) for v in range(n)]
    return EqualityScheme(labels, {"name": "bip-lift", "base": base.spec},
                          name=f"bip-lift({base.name})")


def _bip_lower_walker(base: Walker) -> Walker:
    def walk(sx: ShapeNode, sy: ShapeNode, eq) -> int:
        # decode x against the right-copy label of y
        return base(sx.children[0], sy.children[1], eq)

    return walk


register_walker("bip-lower", lambda s: _bip_lower_walker(build_walker(s["base"])))


def bip_lower(bip_scheme: EqualityScheme) -> EqualityScheme:
    """Scheme for G from a scheme for bip(G) (left copy = 0..n-1, right =
    n..2n-1): each vertex carries the pair (label(x), label(x')) and decodes
    cross-wise, doubling the code count exactly."""
    if bip_scheme.n % 2:
        raise SchemeError("bip scheme must have an even vertex count")
    n = bip_scheme.n // 2
    labels = [node((), (), bip_scheme.label(v), bip_scheme.label(n + v)) for v in range(n)]
    return EqualityScheme(labels, {"name": "bip-lower", "base": bip_scheme.spec},
                          name=f"bip-lower({bip_scheme.name})")


# ---------------------------------------------------------------------------
# (Q,k)-decomposition trees and the label assembler.
# ---------------------------------------------------------------------------

TAG_L = (0, 0)
TAG_D = (0, 1)
TAG_DBAR = (1, 0)
TAG_P = (1, 1)


@dataclass
class DTNode:
    """Node of a decomposition tree over a colored bipartite graph.

    xs/ys are vertex ids in the root graph's X and Y index spaces.  For
    P-nodes, children are row-major over (x-part, y-part).
    """

    kind: str  # "L" | "D" | "Dbar" | "P"
    xs: tuple[int, ...]
    ys: tuple[int, ...]
    children: tuple["DTNode", ...] = ()
    x_parts: tuple[tuple[int, ...], ...] = ()
    y_parts: tuple[tuple[int, ...], ...] = ()

    def depth(self) -> int:
        return 0 if not self.children else 1 + max(c.depth() for c in self.children)

    def leaves(self):
        if self.kind == "L":
            yield self
        for c in self.children:
            yield from c.leaves()

    def serialize(self, indent: int = 0) -> str:
        pad = "  " * indent
        line = f"{pad}node {self.kind} x={','.join(map(str, self.xs)) or '-'}" \
               f" y={','.join(map(str, self.ys)) or '-'}"
        if self.kind == "P":
            xp = "|".join(",".join(map(str, p)) for p in self.x_parts)
            yp = "|".join(",".join(map(str, p)) for p in self.y_parts)
            line += f" xparts={xp} yparts={yp}"
        out = [line]
        for c in self.children:
            out.append(c.serialize(indent + 1))
        return "\n".join(out)


def validate_tree(g: ColoredBipartiteGraph, node: DTNode) -> None:
    """Check the structural invariants of a decomposition tree."""
    sub = g.induced(node.xs, node.ys)
    xs_l = {x: i for i, x in enumerate(sorted(node.xs))}
    ys_l = {y: j for j, y in enumerate(sorted(node.ys))}
    if node.kind == "L":
        if node.children:
            raise SchemeError("leaf with children")
        return
    if node.kind in ("D", "Dbar"):
        target = sub if node.kind == "D" else bipartite_complement(sub)
        comps = {
            (frozenset(cx), frozenset(cy)) for cx, cy in target.connected_components()
        }
        got = {
            (frozenset(xs_l[x] for x in c.xs), frozenset(ys_l[y] for y in c.ys))
            for c in node.children
        }
        if comps != got:
            raise SchemeError(f"{node.kind}-node children are not the components")
    elif node.kind == "P":
        if sorted(v for p in node.x_parts for v in p) != sorted(node.xs):
            raise SchemeError("x-parts do not partition the node")
        if sorted(v for p in node.y_parts for v in p) != sorted(node.ys):
            raise SchemeError("y-parts do not partition the node")
        if len(node.children) != len(node.x_parts) * len(node.y_parts):
            raise SchemeError("P-node must have one child per cross pair")
        q = len(node.y_parts)
        for i, xp in enumerate(node.x_parts):
            for j, yp in enumerate(node.y_parts):
                c = node.children[i * q + j]
                if sorted(c.xs) != sorted(xp) or sorted(c.ys) != sorted(yp):
                    raise SchemeError("P-node child does not match its cross pair")
    else:
        raise SchemeError(f"unknown node kind {node.kind}")
    for c in node.children:
        validate_tree(g, c)


LeafLabeler = Callable[[DTNode], dict[tuple[str, int], Label]]


def tree_walker(leaf: Walker, p_node: Callable[[Walker, ShapeNode, ShapeNode, EqOracle], int]
                ) -> Walker:
    """The walker of two aligned decomposition-tree labels: it descends
    through matching L, D, D-bar and P tuples.  An L tuple defers to `leaf`
    on its child.  A D (D-bar) tuple decodes to 0 (1) when the component
    codes differ and descends otherwise.  A P tuple is `p_node(rec, nx, ny,
    eq)`, where `rec` is this walker."""

    def rec(nx: ShapeNode, ny: ShapeNode, eq: EqOracle) -> int:
        kind = (nx.tag[0], nx.tag[1])
        if kind != (ny.tag[0], ny.tag[1]):
            raise SchemeError("misaligned decomposition labels")
        if kind == TAG_L:
            return leaf(nx.children[0], ny.children[0], eq)
        if kind in (TAG_D, TAG_DBAR):
            if not eq(nx.slot0, ny.slot0):
                return int(kind == TAG_DBAR)
            return rec(nx.children[0], ny.children[0], eq)
        return p_node(rec, nx, ny, eq)

    return rec


def _decomp_walker(leaf: Walker, part_bits: int) -> Walker:
    def p_node(rec: Walker, nx: ShapeNode, ny: ShapeNode, eq: EqOracle) -> int:
        ix = _unbits(nx.tag[2:2 + part_bits])
        iy = _unbits(ny.tag[2:2 + part_bits])
        return rec(nx.children[iy], ny.children[ix], eq)

    rec = tree_walker(leaf, p_node)
    return across_sides(lambda sx, sy, eq: rec(sx.children[0], sy.children[0], eq))


register_walker("decomp", lambda s: _decomp_walker(build_walker(s["leaf"]), s["part_bits"]))


def _max_parts(node: DTNode) -> int:
    best = max(len(node.x_parts), len(node.y_parts), 1)
    for c in node.children:
        best = max(best, _max_parts(c))
    return best


def assemble_decomposition_labels(
    g: ColoredBipartiteGraph,
    tree: DTNode,
    leaf_labeler: LeafLabeler,
    leaf_spec: Spec,
    name: str = "decomp",
) -> EqualityScheme:
    """Assemble equality labels from a decomposition tree whose leaf labels
    `leaf_spec` decodes (a JSON spec or a live walker, as in any spec).

    Per vertex: a side bit, then per tree node one tuple: leaf tuples embed
    the leaf label (`leaf_labeler` runs once per leaf, when the first
    vertex reaches it); D/D-bar tuples carry the child index as an equality
    code; P tuples carry the own-part index in the prefix (the decoder must
    read it to select the matching cross child; the opposite-side part
    count is implicit in the child list).  Component and part ids are
    ordered by smallest contained vertex, so labels are deterministic.
    """
    validate_tree(g, tree)
    pb = _width_for(_max_parts(tree))
    leaf_labels: dict[int, dict[tuple[str, int], Label]] = {}
    routes: dict[int, dict[tuple[str, int], tuple[int, DTNode]]] = {}

    def route(node: DTNode) -> dict[tuple[str, int], tuple[int, DTNode]]:
        """Vertex key -> (child code, child) of a D/D-bar node: codes order
        the children by smallest vertex, and a vertex goes to the first
        child that holds it."""
        order = sorted(node.children, key=lambda c: min(c.xs + tuple(y + g.nx for y in c.ys)))
        out: dict[tuple[str, int], tuple[int, DTNode]] = {}
        for code, child in enumerate(order):
            for x in child.xs:
                out.setdefault(("x", x), (code, child))
            for y in child.ys:
                out.setdefault(("y", y), (code, child))
        return out

    def build(dt: DTNode, key: tuple[str, int]) -> Label:
        side, vid = key
        if dt.kind == "L":
            if id(dt) not in leaf_labels:
                leaf_labels[id(dt)] = leaf_labeler(dt)
            return node(TAG_L, (), leaf_labels[id(dt)][key])
        if dt.kind in ("D", "Dbar"):
            if id(dt) not in routes:
                routes[id(dt)] = route(dt)
            if key not in routes[id(dt)]:
                raise SchemeError(f"vertex {key} not covered by {dt.kind}-node children")
            code, child = routes[id(dt)][key]
            return node(TAG_D if dt.kind == "D" else TAG_DBAR, (code,), build(child, key))
        # P-node
        q = len(dt.y_parts)
        if side == "x":
            i = next(t for t, p in enumerate(dt.x_parts) if vid in p)
            kids = [build(dt.children[i * q + j], key) for j in range(q)]
        else:
            i = next(t for t, p in enumerate(dt.y_parts) if vid in p)
            kids = [build(dt.children[t * q + i], key) for t in range(len(dt.x_parts))]
        return node(TAG_P + _bits(i, pb), (), *kids)

    labels = [node((0,), (), build(tree, ("x", x))) for x in sorted(tree.xs)]
    labels += [node((1,), (), build(tree, ("y", y))) for y in sorted(tree.ys)]
    return EqualityScheme(labels, {"name": "decomp", "part_bits": pb, "leaf": leaf_spec},
                          name=name)


def tuple_count(shape: ShapeNode) -> int:
    """Number of tuples in a label shape."""
    return 1 + sum(map(tuple_count, shape.children))
