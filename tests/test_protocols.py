import itertools

import pytest

from pugkit.generators import (
    bipartite_equivalence_graph,
    equivalence_graph,
    half_graph_bipartite,
    random_bipartite,
    random_forest,
    random_kdegenerate,
)
from pugkit.graphs import ColoredBipartiteGraph, GraphFormatError, bip_transform
from pugkit.labels import SchemeError
from pugkit.protocols import (
    CommNode,
    EqNode,
    EquivalenceInterpretation,
    Leaf,
    depth,
    gt_protocol,
    labels_to_protocol,
    normalize_to_equality_nodes,
    output_table,
    parse_protocol,
    protocol_to_diagonal_labels,
    reduce_gt_to_adjacency,
    run_protocol,
    search_interpretation,
    verify_equivalence_interpretation,
    write_protocol,
)
from pugkit.sketch import arboricity_scheme


def test_run_protocol_basics():
    n = 4
    eq = EqNode(tuple(range(n)), tuple(range(n)), Leaf(0), Leaf(1))
    for x in range(n):
        for y in range(n):
            out, tr = run_protocol(eq, x, y)
            assert out == int(x == y)
            assert len(tr) == 1
    assert run_protocol(Leaf(1), 0, 3) == (1, "")


def test_normalize_preserves_table():
    n = 8
    comm = CommNode("A", tuple(x & 1 for x in range(n)),
                    EqNode(tuple(range(n)), tuple(range(n)), Leaf(0), Leaf(1)),
                    CommNode("B", tuple(y >> 1 & 1 for y in range(n)),
                             Leaf(1), Leaf(0)))
    norm = normalize_to_equality_nodes(comm)
    assert output_table(comm, n) == output_table(norm, n)
    assert depth(norm) == depth(comm)

    def all_eq(node):
        if isinstance(node, Leaf):
            return True
        return isinstance(node, EqNode) and all_eq(node.zero) and all_eq(node.one)

    assert all_eq(norm)
    # already-normalized tree is unchanged in shape
    norm2 = normalize_to_equality_nodes(norm)
    assert output_table(norm2, n) == output_table(norm, n)


def test_gt_protocol_matches_half_graph_adjacency():
    n = 16
    tree = gt_protocol(n)
    g, a_ids, b_ids = reduce_gt_to_adjacency(n)
    for x in range(n):
        for y in range(n):
            out, _ = run_protocol(tree, x, y)
            assert out == int(x <= y)
            assert out == int(g.has_edge(a_ids[x], b_ids[y]))


def test_labels_to_protocol_equivalence_depth():
    g = equivalence_graph([3, 2, 3])
    from pugkit.bipartite import equivalence_labels

    sch = equivalence_labels(g)
    tree = labels_to_protocol(sch)
    # single shape, s = 0: depth is exactly k^2 = 1
    assert depth(tree) == 1
    for x in range(g.n):
        for y in range(g.n):
            assert run_protocol(tree, x, y)[0] == sch.decode(x, y)


def test_labels_to_protocol_forests():
    g = random_forest(20, seed=6)
    sch = arboricity_scheme(g)
    tree = labels_to_protocol(sch)
    for x in range(g.n):
        for y in range(g.n):
            if x != y:
                assert run_protocol(tree, x, y)[0] == int(g.has_edge(x, y))


@pytest.mark.parametrize("family", ["forest", "equivalence", "kdeg2", "tp-free"])
def test_labels_to_protocol_matches_decode_on_every_pair(family):
    from pugkit.bipartite import equivalence_labels, tp_free_labels
    from pugkit.generators import random_equivalence, random_tp_free

    sch = {"forest": lambda: arboricity_scheme(random_forest(16, seed=4)),
           "equivalence": lambda: equivalence_labels(random_equivalence(14, 4, seed=4)),
           "kdeg2": lambda: arboricity_scheme(random_kdegenerate(14, 2, seed=4)),
           "tp-free": lambda: tp_free_labels(random_tp_free(9, 12, 2, seed=1), p=2, q=4),
           }[family]()
    tree = labels_to_protocol(sch)
    assert depth(tree) <= 2 * sch.codec.shape_bits + sch.k ** 2
    for x in range(sch.n):
        for y in range(sch.n):
            assert run_protocol(tree, x, y)[0] == sch.decode(x, y)


def test_labels_to_protocol_reads_the_code_table():
    # the equality nodes' columns are the scheme's code table, so a
    # table-built scheme builds no per-vertex codes for them
    sch = arboricity_scheme(random_kdegenerate(24, 3, seed=5))
    tree = labels_to_protocol(sch)
    assert "codes" not in vars(sch)
    for x in range(sch.n):
        for y in range(sch.n):
            assert run_protocol(tree, x, y)[0] == sch.decode(x, y)


def test_protocol_to_diagonal_labels_roundtrip():
    n = 12
    g = random_forest(n, seed=9)
    tree = labels_to_protocol(arboricity_scheme(g))
    diag = protocol_to_diagonal_labels(tree, g)
    assert diag.n == 2 * n and diag.spec["name"] == "eq-tree"
    bg = bip_transform(g)
    for u in range(2 * n):
        for v in range(2 * n):
            if u == v:
                continue
            if u < n and v >= n:
                expect = int(bg.has_edge(u, v - n))
            elif v < n and u >= n:
                expect = int(bg.has_edge(v, u - n))
            else:
                expect = 0
            assert diag.decode(u, v) == expect
    # every label has k = t + 1 codes, t <= 2^d for the (possibly
    # guard-wrapped) tree
    assert {len(codes) for codes in diag.codes} == {diag.k}
    assert diag.k - 1 <= 2 ** (depth(tree) + 1)


def test_diagonal_as_equality_scheme():
    # protocol_to_diagonal_labels returns the EqualityScheme itself: its
    # decode answers the bipartite double cover on cross pairs, 0 on
    # same-side pairs
    g = random_forest(8, seed=2)
    tree = labels_to_protocol(arboricity_scheme(g))
    sch = protocol_to_diagonal_labels(tree, g)
    bg = bip_transform(g)
    for u in range(g.n):
        for v in range(g.n):
            assert sch.decode(u, g.n + v) == int(bg.has_edge(u, v))
    for u, v in itertools.combinations(range(g.n), 2):
        assert sch.decode(u, v) == 0
        assert sch.decode(g.n + u, g.n + v) == 0


def _leaves(tree):
    return 1 if isinstance(tree, Leaf) else _leaves(tree.zero) + _leaves(tree.one)


def test_diagonal_labels_give_back_a_protocol_of_the_same_size():
    # the eq-tree walker asks only the cells on its path, so its decision
    # tree is the protocol's, under the side-code ask and a possible
    # identity guard: at most 2 more leaves and 2 more levels
    g = random_forest(30, seed=3)
    tree = labels_to_protocol(arboricity_scheme(g))
    diag = protocol_to_diagonal_labels(tree, g)
    back = labels_to_protocol(diag)
    assert _leaves(back) <= _leaves(tree) + 2
    assert depth(back) <= depth(tree) + 2
    for u in range(diag.n):
        for v in range(diag.n):
            assert run_protocol(back, u, v)[0] == diag.decode(u, v)


def test_diagonal_labels_refuse_a_leaf_that_is_not_a_bit():
    ids = tuple(range(4))
    with pytest.raises(SchemeError, match="^protocol leaf 2 is not an adjacency bit$"):
        protocol_to_diagonal_labels(EqNode(ids, ids, Leaf(0), Leaf(2)), random_forest(4, seed=1))


def test_same_side_pairs_decode_zero_via_side_code():
    g = random_forest(6, seed=4)
    diag = protocol_to_diagonal_labels(labels_to_protocol(arboricity_scheme(g)), g)
    for u, v in itertools.combinations(range(g.n), 2):
        assert diag.decode(u, v) == 0
        assert diag.decode(g.n + u, g.n + v) == 0


def test_verify_equivalence_interpretation():
    b = bipartite_equivalence_graph([(2, 2), (1, 3)])
    kappa = [[int(b.has_edge(x, y)) for y in range(b.ny)] for x in range(b.nx)]
    interp = EquivalenceInterpretation(1, (0, 1), kappa)
    assert verify_equivalence_interpretation(b, interp)
    # a slice with an induced P4 is rejected
    p4 = ColoredBipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)])
    kappa2 = [[int(p4.has_edge(x, y)) for y in range(2)] for x in range(2)]
    interp2 = EquivalenceInterpretation(1, (0, 1), kappa2)
    reasons: list[str] = []
    assert not verify_equivalence_interpretation(p4, interp2, reasons)
    assert any("P4" in r for r in reasons)


def test_search_interpretation_t1():
    b = bipartite_equivalence_graph([(2, 2), (1, 1)])
    found = search_interpretation(b, t_max=1)
    assert found is not None and found.t == 1
    assert verify_equivalence_interpretation(b, found)


def test_search_interpretation_c4():
    # C4 as a colored bipartite cycle: complement of a perfect matching
    c4 = ColoredBipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
    found = search_interpretation(c4, t_max=2)
    # brute-force cross-check: eta over found.kappa must reproduce adjacency
    if found is not None:
        assert verify_equivalence_interpretation(c4, found)
    # the 2x2 "half graph" pattern is interpretable with t = 2:
    # E = E1 and not E2 style combinations exist
    hg = half_graph_bipartite(2)
    found2 = search_interpretation(hg, t_max=2)
    if found2 is not None:
        assert verify_equivalence_interpretation(hg, found2)


def test_search_caps():
    with pytest.raises(ValueError):
        search_interpretation(random_bipartite(6, 6, 0.5, seed=1), t_max=2)


def test_protocol_file_roundtrip():
    tree = gt_protocol(6)
    text = write_protocol(tree, "gt6", 6)
    parsed, name, n = parse_protocol(text)
    assert name == "gt6" and n == 6
    assert output_table(parsed, 6) == output_table(tree, 6)
    with pytest.raises(GraphFormatError, match="^line 3: trailing protocol lines$"):
        parse_protocol("protocol x 4\nleaf 0\nleaf 1\n")
