"""Equality-based communication trees, protocol evaluation, conversions
between labelings and protocols, t-equivalence interpretability, and the
Greater-Than reduction harness.

Message maps are explicit arrays over [n]: protocols here exist to be
exhaustively checked, not to scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .generators import half_graph
from .graphs import ColoredBipartiteGraph, Graph, GraphFormatError, LineReader
from .labels import Ask, EqTree, EqualityScheme, SchemeError, node, walker_tree


@dataclass
class Leaf:
    value: int


@dataclass
class CommNode:
    party: str  # 'A' or 'B'
    m: tuple[int, ...]
    zero: "Node"
    one: "Node"


@dataclass
class EqNode:
    a: tuple[int, ...]
    b: tuple[int, ...]
    zero: "Node"
    one: "Node"


Node = Leaf | CommNode | EqNode


def depth(tree: Node) -> int:
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(depth(tree.zero), depth(tree.one))


def run_protocol(tree: Node, x: int, y: int) -> tuple[int, str]:
    """Evaluate the tree on inputs (x, y); returns (output, transcript)."""
    cur = tree
    transcript = []
    while not isinstance(cur, Leaf):
        if isinstance(cur, CommNode):
            bit = cur.m[x] if cur.party == "A" else cur.m[y]
        elif isinstance(cur, EqNode):
            bit = int(cur.a[x] == cur.b[y])
        else:
            raise SchemeError(f"malformed protocol node {cur!r}")
        transcript.append(str(bit))
        cur = cur.one if bit else cur.zero
    return cur.value, "".join(transcript)


def output_table(tree: Node, n: int) -> list[list[int]]:
    return [[run_protocol(tree, x, y)[0] for y in range(n)] for x in range(n)]


def announce(party: str, values: Sequence[int], bits: int, then: Callable[[int], Node]) -> Node:
    """`party` sends its value (values[x] for Alice, values[y] for Bob) in
    `bits` bits, most significant first; `then(value)` goes on from there."""

    def build(level: int, prefix: int) -> Node:
        if level == bits:
            return then(prefix)
        m = tuple(v >> (bits - 1 - level) & 1 for v in values)
        return CommNode(party, m, build(level + 1, prefix << 1), build(level + 1, prefix << 1 | 1))

    return build(0, 0)


def normalize_to_equality_nodes(tree: Node) -> Node:
    """Replace communication nodes by equality nodes of the same effect:
    an Alice node (A,m) becomes Eq(m(x), 1), a Bob node Eq(1, m(y))."""
    if isinstance(tree, Leaf):
        return tree
    zero = normalize_to_equality_nodes(tree.zero)
    one = normalize_to_equality_nodes(tree.one)
    if isinstance(tree, EqNode):
        return EqNode(tree.a, tree.b, zero, one)
    n = len(tree.m)
    if tree.party == "A":
        return EqNode(tree.m, (1,) * n, zero, one)
    return EqNode((1,) * n, tree.m, zero, one)


# ---------------------------------------------------------------------------
# Labels -> protocol.
# ---------------------------------------------------------------------------

def labels_to_protocol(scheme: EqualityScheme) -> Node:
    """Protocol tree computing the scheme's decoder on vertex pairs.

    Alice sends her shape id bit by bit, then Bob sends his; the rest is
    the walker's equality decision tree on that shape pair (`walker_tree`),
    each asked cell (i, j) becoming an equality node on code i of x and
    code j of y.  The shape id fixes the tags, so no prefix bit is sent.
    Depth is 2 * shape_bits plus the walker's query depth, which is at most
    k^2; for a single shape it is the query depth alone.  Shape ids no
    vertex has, and patterns where the walker raises SchemeError, output 0.
    """
    codec, (sid, vals) = scheme.codec, scheme.table
    # code i of every vertex; walker_tree asks only slots that both shapes
    # have, so the table's -1 padding is never compared on a path
    code = list(map(tuple, vals.T.tolist()))

    def eq_tree(node: EqTree) -> Node:
        if isinstance(node, Ask):
            return EqNode(code[node.i], code[node.j], eq_tree(node.zero), eq_tree(node.one))
        return Leaf(node or 0)

    def pair_tree(sx: int, sy: int) -> Node:
        if max(sx, sy) >= len(codec.shapes):
            return Leaf(0)
        return eq_tree(walker_tree(scheme.walker, codec.shapes[sx], codec.shapes[sy]))

    ids, bits = sid.tolist(), codec.shape_bits
    return announce("A", ids, bits, lambda sx: announce("B", ids, bits, lambda sy: pair_tree(sx, sy)))


# ---------------------------------------------------------------------------
# Protocol -> diagonal labels.
# ---------------------------------------------------------------------------

def protocol_to_diagonal_labels(tree: Node, g: Graph) -> EqualityScheme:
    """From a protocol computing adjacency of g, build diagonal labels for
    bip(g), X vertices 0..n-1 and then Y vertices n..2n-1.  Code i of a left
    vertex is a_i(x) and of a right vertex b_i(y), for the i-th equality
    node of the normalized tree in preorder, plus a final side code (left
    0 / right 1).  The decoder spec is that tree as an `eq-tree` asking
    only diagonal cells, under a first ask of the side code that sends
    same-side pairs to 0.

    The conversion needs the tree to be correct on the diagonal too, since
    (x, x') pairs of bip(g) are never edges; trees built from pairwise
    decoders may output 1 there, so an identity guard is prepended when
    necessary."""
    if any(run_protocol(tree, x, x)[0] != 0 for x in range(g.n)):
        ids = tuple(range(g.n))
        tree = EqNode(ids, ids, tree, Leaf(0))
    nodes: list[EqNode] = []

    def number(nd: Node):
        """`nd` as an eq-tree, its equality nodes numbered in preorder."""
        if isinstance(nd, Leaf):
            if nd.value not in (0, 1):
                raise SchemeError(f"protocol leaf {nd.value} is not an adjacency bit")
            return nd.value
        i = len(nodes)
        nodes.append(nd)
        return [i, i, number(nd.zero), number(nd.one)]

    body = number(normalize_to_equality_nodes(tree))
    t = len(nodes)
    labels = [node((), tuple(nd.a[x] for nd in nodes) + (0,)) for x in range(g.n)]
    labels += [node((), tuple(nd.b[y] for nd in nodes) + (1,)) for y in range(g.n)]
    return EqualityScheme(labels, {"name": "eq-tree", "tree": [t, t, body, 0]}, name="diagonal")


# ---------------------------------------------------------------------------
# t-equivalence interpretations.
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceInterpretation:
    t: int
    eta: tuple[int, ...]  # truth table over {0,1}^t, indexed by bitmask
    kappa: list[list[int]]  # [x][y] -> t-bit color mask


def _slice_is_bip_equivalence(g: ColoredBipartiteGraph,
                              kappa: list[list[int]], bit: int) -> bool:
    rows = [frozenset(y for y in range(g.ny) if kappa[x][y] >> bit & 1)
            for x in range(g.nx)]
    for r1, r2 in itertools.combinations(rows, 2):
        if r1 & r2 and r1 != r2:
            return False  # neighborhoods overlap without being equal: P4
    return True


def verify_equivalence_interpretation(g: ColoredBipartiteGraph,
                                      interp: EquivalenceInterpretation,
                                      reasons: list[str] | None = None) -> bool:
    out = reasons if reasons is not None else []
    for bit in range(interp.t):
        if not _slice_is_bip_equivalence(g, interp.kappa, bit):
            out.append(f"slice {bit} contains an induced P4")
            return False
    for x in range(g.nx):
        for y in range(g.ny):
            if interp.eta[interp.kappa[x][y]] != int(g.has_edge(x, y)):
                out.append(f"eta(kappa({x},{y})) disagrees with adjacency")
                return False
    return True


def _bip_equivalence_slices(nx_: int, ny_: int):
    """All bipartite equivalence graphs on (X, Y) as edge-mask matrices."""

    def set_partitions(items):
        items = list(items)
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in set_partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]
            yield [[first]] + part

    for px in set_partitions(range(nx_)):
        for py in set_partitions(range(ny_)):
            # injective partial matchings from X-blocks to Y-blocks
            def matchings(i, used):
                if i == len(px):
                    yield []
                    return
                for rest in matchings(i + 1, used):
                    yield [None] + rest
                for j in range(len(py)):
                    if j in used:
                        continue
                    for rest in matchings(i + 1, used | {j}):
                        yield [j] + rest

            for match in matchings(0, frozenset()):
                rows = [[0] * ny_ for _ in range(nx_)]
                for bi, block in enumerate(px):
                    j = match[bi]
                    if j is None:
                        continue
                    for x in block:
                        for y in py[j]:
                            rows[x][y] = 1
                yield rows


def search_interpretation(g: ColoredBipartiteGraph, t_max: int = 2
                          ) -> EquivalenceInterpretation | None:
    """Exhaustive search for a t-equivalence interpretation, t <= t_max.

    Doubly exponential; capped at 10 vertices and t <= 2.
    """
    if g.nx + g.ny > 10 or t_max > 2:
        raise ValueError("search capped at n <= 10, t <= 2")
    adj = [[int(g.has_edge(x, y)) for y in range(g.ny)] for x in range(g.nx)]

    if t_max >= 1:
        for eta in itertools.product((0, 1), repeat=2):
            # eta maps kappa-bit -> output; solve kappa pointwise
            if eta[0] == eta[1]:
                if all(adj[x][y] == eta[0] for x in range(g.nx) for y in range(g.ny)):
                    kappa = [[0] * g.ny for _ in range(g.nx)]
                    return EquivalenceInterpretation(1, eta, kappa)
                continue
            kappa = [[1 if adj[x][y] == eta[1] else 0 for y in range(g.ny)]
                     for x in range(g.nx)]
            cand = EquivalenceInterpretation(1, eta, kappa)
            if verify_equivalence_interpretation(g, cand):
                return cand
    if t_max < 2:
        return None
    for eta in itertools.product((0, 1), repeat=4):
        for slice1 in _bip_equivalence_slices(g.nx, g.ny):
            forced = {}
            feasible = True
            for x in range(g.nx):
                for y in range(g.ny):
                    v1 = slice1[x][y]
                    allowed = [v2 for v2 in (0, 1)
                               if eta[v1 | v2 << 1] == adj[x][y]]
                    if not allowed:
                        feasible = False
                        break
                    if len(allowed) == 1:
                        forced[(x, y)] = allowed[0]
                if not feasible:
                    break
            if not feasible:
                continue
            slice2 = _complete_slice(g, forced)
            if slice2 is None:
                continue
            kappa = [[slice1[x][y] | slice2[x][y] << 1 for y in range(g.ny)]
                     for x in range(g.nx)]
            cand = EquivalenceInterpretation(2, eta, kappa)
            if verify_equivalence_interpretation(g, cand):
                return cand
    return None


def _complete_slice(g: ColoredBipartiteGraph, forced: dict[tuple[int, int], int]
                    ) -> list[list[int]] | None:
    """A bipartite equivalence slice honoring forced 0/1 entries: take the
    biclique closure of the forced ones and reject if a forced zero lands
    inside; all remaining pairs are 0."""
    parent = {("x", x): ("x", x) for x in range(g.nx)}
    parent.update({("y", y): ("y", y) for y in range(g.ny)})

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for (x, y), v in forced.items():
        if v == 1:
            union(("x", x), ("y", y))
    rows = [[0] * g.ny for _ in range(g.nx)]
    for x in range(g.nx):
        for y in range(g.ny):
            same = find(("x", x)) == find(("y", y))
            if same and forced.get((x, y)) == 0:
                return None
            rows[x][y] = int(same)
    return rows


# ---------------------------------------------------------------------------
# Greater-Than reduction harness.
# ---------------------------------------------------------------------------

def reduce_gt_to_adjacency(n: int) -> tuple[Graph, list[int], list[int]]:
    """GT on [n] as adjacency in the half graph: GT(x,y) = 1 iff x <= y iff
    (a_x, b_y) is an edge."""
    g = half_graph(n)
    return g, list(range(n)), list(range(n, 2 * n))


def gt_protocol(n: int) -> Node:
    """Protocol for GT on [n] (1 iff x <= y): Alice announces x bit by bit,
    then a single equality node lets Bob answer."""
    return announce("A", range(n), max(n - 1, 1).bit_length(),
                    lambda x: EqNode((1,) * n, tuple(int(x <= y) for y in range(n)), Leaf(0), Leaf(1)))


# ---------------------------------------------------------------------------
# Protocol file format: preorder node list.
# ---------------------------------------------------------------------------

def write_protocol(tree: Node, name: str, n: int) -> str:
    lines = [f"protocol {name} {n}"]

    def emit(node: Node):
        if isinstance(node, Leaf):
            lines.append(f"leaf {node.value}")
            return
        if isinstance(node, CommNode):
            lines.append(f"comm {node.party} m={','.join(map(str, node.m))}")
        else:
            lines.append(f"eq a={','.join(map(str, node.a))} "
                         f"b={','.join(map(str, node.b))}")
        emit(node.zero)
        emit(node.one)

    emit(tree)
    return "\n".join(lines) + "\n"


def parse_protocol(text: str) -> tuple[Node, str, int]:
    rows = iter(lines := LineReader(text))
    head = next(rows, None)
    if head is None:
        raise GraphFormatError("empty protocol file")
    name, n = head[1], lines.integer(lines.fields(head, "'protocol <name> <n>'")[2])

    def parse_node() -> Node:
        parts = next(rows, None)
        if parts is None:
            raise GraphFormatError("truncated protocol file")
        if parts[0] == "leaf":
            return Leaf(lines.integer(lines.fields(parts, "'leaf <out>'")[1]))
        if parts[0] == "comm":
            _, party, m = lines.fields(parts, "'comm <party> m=<ints>'")
            return CommNode(party, lines.int_list(lines.keyed(m, "m")), parse_node(), parse_node())
        if parts[0] == "eq":
            _, a, b = lines.fields(parts, "'eq a=<ints> b=<ints>'")
            return EqNode(lines.int_list(lines.keyed(a, "a")), lines.int_list(lines.keyed(b, "b")),
                          parse_node(), parse_node())
        raise lines.expected("a 'leaf', 'comm' or 'eq' node", parts[0])

    tree = parse_node()
    if next(rows, None) is not None:
        raise lines.error("trailing protocol lines")
    return tree, name, n
