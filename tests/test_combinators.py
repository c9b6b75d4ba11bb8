import dataclasses
from collections import Counter

import pytest

from pugkit import bipartite
from pugkit.bipartite import (
    _bicobi_walker,
    build_chain_decomposition_graph,
    build_p7_tree,
    fpp_decomposition,
    fpp_labels,
    p7_labels,
)
from pugkit.combinators import (
    TAG_D,
    TAG_DBAR,
    TAG_L,
    TAG_P,
    DTNode,
    _bits,
    _max_parts,
    _width_for,
    add_vertices_scheme,
    apply_part_flips,
    assemble_decomposition_labels,
    bip_lift,
    bip_lower,
    complementation_scheme,
    tuple_count,
    twin_reduce_scheme,
    validate_tree,
)
from pugkit.generators import (
    bipartite_equivalence_graph,
    complete,
    half_graph,
    random_forest,
    random_fpp_free,
    random_graph,
)
from pugkit.graphs import Graph, bip_transform, bipartite_complement, induced_subgraph
from pugkit.labels import EqualityScheme, SchemeError, node, write_decoder_file
from pugkit.protocols import labels_to_protocol, protocol_to_diagonal_labels
from pugkit.sketch import arboricity_scheme


def star(n):
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)])


def test_add_vertices_identity():
    g = random_forest(10, seed=1)
    base = arboricity_scheme(g)
    out = add_vertices_scheme(g, [], base, list(range(10)), c=0)
    assert out.check_exact(g.has_edge)
    # prefix grows by exactly 1 + c bits on ordinary vertices
    assert out.prefix_len(3) == base.prefix_len(3) + 1


def test_add_vertices_star():
    g = star(8)
    sub, remap = induced_subgraph(g, range(1, 9))
    base = arboricity_scheme(sub)  # edgeless
    out = add_vertices_scheme(g, [0], base, list(range(1, 9)))
    assert out.check_exact(g.has_edge)
    assert out.prefix_len(5) == base.prefix_len(0) + 1 + 1  # marker + c=1 mask


def test_add_vertices_random():
    for seed in range(4):
        g = random_graph(12, 0.3, seed=seed)
        special = [0, 5, 7]
        rest = [v for v in range(12) if v not in special]
        sub, _ = induced_subgraph(g, rest)
        base = arboricity_scheme(sub)
        out = add_vertices_scheme(g, special, base, rest)
        assert out.check_exact(g.has_edge)


def test_add_vertices_budget():
    g = star(3)
    sub, _ = induced_subgraph(g, [1, 2, 3])
    base = arboricity_scheme(sub)
    with pytest.raises(SchemeError):
        add_vertices_scheme(g, [0], base, [1, 2, 3], c=0)


def test_complementation_identity_and_full():
    g = random_graph(10, 0.4, seed=2)
    base = arboricity_scheme(g)
    parts = [list(range(10))]
    ident = complementation_scheme(base, parts, [[0]])
    assert ident.check_exact(g.has_edge)
    comp = complementation_scheme(base, parts, [[1]])
    cg = g.complement()
    assert comp.check_exact(cg.has_edge)
    # prefix adds ceil(log k) + k bits
    assert comp.prefix_len(0) == base.prefix_len(0) + 1 + 1


def test_complementation_threshold_graph():
    # threshold graph = half graph with the a-side flipped to a clique
    k = 4
    hg = half_graph(k)
    base = arboricity_scheme(hg)
    parts = [list(range(k)), list(range(k, 2 * k))]
    flips = [[1, 0], [0, 0]]
    sch = complementation_scheme(base, parts, flips)
    target = apply_part_flips(hg, parts, flips)
    from pugkit.generators import threshold_graph

    assert target == threshold_graph(k)
    assert sch.check_exact(target.has_edge)


def test_complementation_random_flips():
    from pugkit.rng import rng_for

    rng = rng_for(3, "flips")
    for seed in range(4):
        g = random_graph(12, 0.3, seed=seed)
        parts = [[], [], []]
        for v in range(12):
            parts[rng.randrange(3)].append(v)
        parts = [p for p in parts if p]
        r = len(parts)
        flips = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                flips[i][j] = flips[j][i] = rng.randrange(2)
        sch = complementation_scheme(arboricity_scheme(g), parts, flips)
        target = apply_part_flips(g, parts, flips)
        assert sch.check_exact(target.has_edge)


def test_complementation_partition_check():
    g = random_graph(6, 0.5, seed=0)
    base = arboricity_scheme(g)
    with pytest.raises(SchemeError):
        complementation_scheme(base, [[0, 1]], [[0]])
    with pytest.raises(SchemeError):
        complementation_scheme(base, [[0, 1, 2], [3, 4, 5]], [[0, 1], [0, 0]])


def test_twin_reduce_complete_graph():
    g = complete(6)
    sch, tp = twin_reduce_scheme(g, "true",
                                 lambda q, remap: arboricity_scheme(q))
    assert len(tp.classes) == 1
    assert sch.check_exact(g.has_edge)
    assert all(sch.decode(u, v) == 1 for u in range(6) for v in range(u + 1, 6))


def test_twin_reduce_twin_free():
    g = half_graph(3)
    sch, tp = twin_reduce_scheme(g, "true",
                                 lambda q, remap: arboricity_scheme(q))
    assert all(len(c) == 1 for c in tp.classes)
    assert sch.check_exact(g.has_edge)


def test_twin_reduce_duplicated_vertices():
    # take a forest and duplicate three vertices into true twins
    base_g = random_forest(8, seed=5)
    edges = list(base_g.edges())
    n = base_g.n
    for i, v in enumerate([0, 3, 5]):
        dup = n + i
        edges += [(dup, w) for w in base_g.neighbors(v)] + [(dup, v)]
    g = Graph(n + 3, edges)
    sch, _ = twin_reduce_scheme(g, "true", lambda q, remap: arboricity_scheme(q))
    assert sch.check_exact(g.has_edge)
    assert sch.k == arboricity_scheme(g).k + 1 or sch.k <= arboricity_scheme(g).k + 1


def test_twin_reduce_false_mode():
    g = bipartite_equivalence_graph([(2, 3), (1, 2)]).to_graph()
    sch, _ = twin_reduce_scheme(g, "false", lambda q, remap: arboricity_scheme(q))
    assert sch.check_exact(g.has_edge)


def test_bip_lift_lower_roundtrip():
    g = random_forest(9, seed=3)
    base = arboricity_scheme(g)
    lifted = bip_lift(base)
    bg = bip_transform(g)
    # lifted scheme indexes bip vertices left 0..n-1, right n..2n-1
    for u in range(g.n):
        for v in range(g.n):
            expect = int(bg.has_edge(u, v))
            assert lifted.decode(u, g.n + v) == expect
            assert lifted.decode(g.n + v, u) == expect
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert lifted.decode(u, v) == 0  # same side
            assert lifted.decode(g.n + u, g.n + v) == 0
    lowered = bip_lower(lifted)
    assert lowered.check_exact(g.has_edge)
    assert len(lowered.codes[0]) == 2 * len(base.codes[0])


def test_assemble_depth0_tree():
    from pugkit.bipartite import bipartite_equivalence_labels

    b = bipartite_equivalence_graph([(2, 2), (1, 2)])
    tree = DTNode("L", tuple(range(b.nx)), tuple(range(b.ny)))

    leaf = bipartite_equivalence_labels(b)

    def labeler(node):
        out = {}
        for x in range(b.nx):
            out[("x", x)] = leaf.label(x)
        for y in range(b.ny):
            out[("y", y)] = leaf.label(b.nx + y)
        return out

    sch = assemble_decomposition_labels(b, tree, labeler, leaf.spec)
    for x in range(b.nx):
        for y in range(b.ny):
            assert sch.decode(x, b.nx + y) == int(b.has_edge(x, y))


def test_validate_tree_rejects_malformed():
    b = bipartite_equivalence_graph([(2, 2), (1, 2)])
    bad = DTNode("D", tuple(range(b.nx)), tuple(range(b.ny)),
                 (DTNode("L", (0,), (0,)),))
    with pytest.raises(SchemeError):
        validate_tree(b, bad)


def test_tuple_count_bound():
    # assembled labels stay within k^d tuples (k = max parts, d = depth)
    from pugkit.bipartite import fpp_labels
    from pugkit.generators import random_fpp_free

    g = random_fpp_free(3, 4, 5, 2, seed=1)
    sch = fpp_labels(g, p=2, q=3)
    from pugkit.bipartite import fpp_decomposition

    tree = fpp_decomposition(g, 2, 3)
    d = tree.depth()
    k = 2
    worst = max(tuple_count(sh) for sh in sch.shapes)
    assert worst <= (k ** max(d, 1)) * 8 + 8  # generous structural bound


def _without_spec(scheme):
    return EqualityScheme(zip(scheme.shapes, scheme.codes), scheme.walker, name=scheme.name)


def test_combinators_accept_a_base_without_a_spec():
    # bip(G) labels from a protocol, with their live walker standing in for
    # the spec; every combinator must still compose them, and no decoder
    # file takes the result
    g = random_forest(6, seed=2)
    n = g.n
    diag = _without_spec(protocol_to_diagonal_labels(labels_to_protocol(arboricity_scheme(g)), g))
    assert diag.spec is diag.walker
    bg = bip_transform(g)
    h = bg.to_graph()
    plus = Graph(2 * n + 2, list(h.edges()) + [(0, 2 * n), (n, 2 * n + 1), (2 * n, 2 * n + 1)])
    parts, flips = [list(range(n)), list(range(n, 2 * n))], [[0, 1], [1, 1]]
    flipped = apply_part_flips(h, parts, flips)
    lifted = bip_lift(diag)

    def leaf(node):
        return {**{("x", x): diag.label(x) for x in node.xs},
                **{("y", y): diag.label(n + y) for y in node.ys}}

    tree = DTNode("L", tuple(range(n)), tuple(range(n)))
    cases = [
        (add_vertices_scheme(plus, [2 * n, 2 * n + 1], diag, list(range(2 * n))), plus.has_edge),
        (complementation_scheme(diag, parts, flips), flipped.has_edge),
        (twin_reduce_scheme(g, "true", lambda q, remap: _without_spec(arboricity_scheme(q)))[0],
         g.has_edge),
        (lifted, bip_transform(h).to_graph().has_edge),
        (bip_lower(diag), g.has_edge),
        (assemble_decomposition_labels(bg, tree, leaf, diag.walker), h.has_edge),
    ]
    for sch, adjacent in cases:
        with pytest.raises(SchemeError, match="^scheme decoder is not serializable$"):
            write_decoder_file(sch)
        for u in range(sch.n):
            for v in range(sch.n):
                if u != v:
                    assert sch.decode(u, v) == int(adjacent(u, v)), (sch.name, u, v)


def _assemble_per_vertex(g, tree, leaf_labeler):
    """The labels `assemble_decomposition_labels` builds, built as it once
    built them: vertex by vertex, running `leaf_labeler` at every leaf
    each vertex reaches."""
    pb = _width_for(_max_parts(tree))

    def build(dt, key):
        side, vid = key
        if dt.kind == "L":
            return node(TAG_L, (), leaf_labeler(dt)[key])
        if dt.kind in ("D", "Dbar"):
            order = sorted(range(len(dt.children)), key=lambda i: min(
                dt.children[i].xs + tuple(y + g.nx for y in dt.children[i].ys)))
            for code, ci in enumerate(order):
                child = dt.children[ci]
                if vid in (child.xs if side == "x" else child.ys):
                    tag = TAG_D if dt.kind == "D" else TAG_DBAR
                    return node(tag, (code,), build(child, key))
            raise AssertionError(f"{key} not covered")
        q = len(dt.y_parts)
        if side == "x":
            i = next(t for t, p in enumerate(dt.x_parts) if vid in p)
            kids = [build(dt.children[i * q + j], key) for j in range(q)]
        else:
            i = next(t for t, p in enumerate(dt.y_parts) if vid in p)
            kids = [build(dt.children[t * q + i], key) for t in range(len(dt.x_parts))]
        return node(TAG_P + _bits(i, pb), (), *kids)

    return ([node((0,), (), build(tree, ("x", x))) for x in sorted(tree.xs)]
            + [node((1,), (), build(tree, ("y", y))) for y in sorted(tree.ys)])


def _bicobi_labeler(g):
    """p7_labels' leaf labeler: one biclique bit for every vertex of a leaf."""

    def labeler(leaf):
        sub = g.induced(leaf.xs, leaf.ys)
        bit = 1 if (sub.m > 0 and sub.is_biclique()) else 0
        return {**{("x", x): node((bit,)) for x in leaf.xs},
                **{("y", y): node((bit,)) for y in leaf.ys}}

    return labeler


def _fpp_cases():
    # at p = 2, q = 3 the whole graph is one leaf; at p = 1, q = 2 a D-node
    # splits it into many
    for blocks, p, q in ((2, 2, 3), (2, 1, 2), (3, 1, 2)):
        g = random_fpp_free(blocks, 4, 5, 2, seed=blocks)
        yield g, fpp_decomposition(g, p, q), bipartite._tp_leaf_labeler(g, p, q)[0], \
            lambda g=g, p=p, q=q: fpp_labels(g, p, q)


def _p7_cases():
    graphs = [build_chain_decomposition_graph(3, 1, seed=0)[0],
              bipartite_equivalence_graph([(2, 3), (3, 1), (1, 1)]),
              bipartite_complement(bipartite_equivalence_graph([(2, 2), (1, 3)]))]
    for g in graphs:
        yield g, build_p7_tree(g, c=4), _bicobi_labeler(g), lambda g=g: p7_labels(g, c=4)


@pytest.mark.parametrize("cases", [_fpp_cases, _p7_cases], ids=["fpp", "p7"])
def test_assembly_labels_each_leaf_once_and_matches_the_per_vertex_build(cases):
    kinds = Counter()
    for g, tree, labeler, build in cases():
        calls = Counter()

        def counting(node):
            calls[id(node)] += 1
            return labeler(node)

        sch = assemble_decomposition_labels(g, tree, counting, _bicobi_walker)
        assert calls == Counter({id(leaf): 1 for leaf in tree.leaves()})
        labels = list(zip(sch.shapes, sch.codes))
        assert labels == _assemble_per_vertex(g, tree, labeler)
        built = build()
        assert (built.shapes, built.codes) == (sch.shapes, sch.codes)
        # child codes follow the smallest vertex, not the order of the list
        reordered = assemble_decomposition_labels(g, _d_children_reversed(tree), labeler,
                                                  _bicobi_walker)
        assert (reordered.shapes, reordered.codes) == (sch.shapes, sch.codes)
        kinds.update(_kinds(tree))
    assert kinds["L"] > 6 and kinds["D"] and (cases is _fpp_cases or kinds["P"] and kinds["Dbar"])


def _d_children_reversed(node):
    """The tree with every D/D-bar node's children in reverse order."""
    kids = tuple(map(_d_children_reversed, node.children))
    return dataclasses.replace(node, children=kids[::-1] if node.kind in ("D", "Dbar") else kids)


def _kinds(node):
    yield node.kind
    for c in node.children:
        yield from _kinds(c)
