import pytest

from pugkit import graphs
from pugkit.generators import (
    biclique,
    cycle,
    edgeless,
    half_graph,
    half_graph_bipartite,
    hypercube,
    path,
    random_bipartite,
)
from pugkit.graphs import (
    ColoredBipartiteGraph,
    Graph,
    GraphFormatError,
    bip_transform,
    bipartite_complement,
    cartesian_product,
    induced_subgraph,
    parse_graph,
    write_graph,
)


def test_graph_invariants():
    g = Graph(4, [(0, 1), (1, 2), (1, 2)])  # duplicate silently dropped
    assert g.m == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)], strict=True)


def test_induced_subgraph_c4():
    c4 = cycle(4)
    whole, remap = induced_subgraph(c4, range(4))
    assert whole == c4 and remap == {i: i for i in range(4)}
    # any 3 vertices of C4 induce a path on 3 vertices
    for drop in range(4):
        sub, _ = induced_subgraph(c4, [v for v in range(4) if v != drop])
        assert sub.n == 3 and sub.m == 2
        degs = sorted(sub.degree(v) for v in range(3))
        assert degs == [1, 1, 2]


def test_induced_subgraph_half_graph():
    g = half_graph(5)
    sub, _ = induced_subgraph(g, [0, 1, 2, 5, 6, 7])  # a1..a3, b1..b3
    assert sub == half_graph(3)


def test_induced_composition_is_hereditary():
    g = half_graph(4)
    s1, m1 = induced_subgraph(g, [0, 1, 2, 4, 5, 6])
    s2, _ = induced_subgraph(s1, [m1[0], m1[1], m1[4], m1[5]])
    direct, _ = induced_subgraph(g, [0, 1, 4, 5])
    assert s2 == direct


def test_bipartite_complement_involution():
    b = biclique(2, 3)
    cb = bipartite_complement(b)
    assert cb.m == 0
    assert bipartite_complement(cb) == b


def test_bipartite_complement_of_p7_contains_p7():
    # bc(P7) is again P7-containing: check it has an induced P7
    from pugkit.generators import p7_bipartite

    p7 = p7_bipartite()
    bc = bipartite_complement(p7)
    found = _find_induced_p7(bc)
    assert found


def _find_induced_p7(g: ColoredBipartiteGraph) -> bool:
    # path x0-y0-x1-y1-x2-y2-x3 with no chords, searched by brute force
    import itertools

    for xs in itertools.permutations(range(g.nx), 4):
        for ys in itertools.permutations(range(g.ny), 3):
            want = {(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)}
            ok = all(
                g.has_edge(xs[i], ys[j]) == ((i, j) in want)
                for i in range(4)
                for j in range(3)
            )
            if ok:
                return True
    return False


def test_bip_transform():
    k2 = path(2)
    b = bip_transform(k2)
    assert (b.nx, b.ny) == (2, 2)
    assert sorted(b.edges()) == [(0, 1), (1, 0)]
    e = bip_transform(edgeless(3))
    assert e.m == 0
    g = cycle(5)
    assert bip_transform(g).m == 2 * g.m


def test_bigraph_has_edge_agrees_with_its_rows_past_the_bitset_threshold(monkeypatch):
    # above the threshold has_edge bisects the neighbour tuple
    monkeypatch.setattr(graphs, "BITSET_THRESHOLD", 4)
    for seed, (nx, ny) in enumerate([(3, 4), (4, 4), (5, 3), (2, 7), (6, 6)]):
        for p in (0.0, 0.3, 0.7, 1.0):
            b = random_bipartite(nx, ny, p, seed=seed)
            assert [[b.has_edge(x, y) for y in range(ny)] for x in range(nx)] == \
                [[bool(b.rows_x[x] >> y & 1) for y in range(ny)] for x in range(nx)]


def test_cartesian_product_counts():
    g, coords = cartesian_product([path(2), path(2)])
    assert g == cycle(4) or (g.n == 4 and g.m == 4 and all(g.degree(v) == 2 for v in range(4)))
    q3, _ = cartesian_product([path(2)] * 3)
    assert q3.n == 8 and q3.m == 12
    g2, _ = cartesian_product([path(3), cycle(4)])
    assert g2.n == 12 and g2.m == 2 * 4 + 4 * 3


def test_cartesian_product_hamming_distance():
    q, coords = cartesian_product([path(2)] * 4)
    dist = q.bfs_distances(0)
    for v, t in enumerate(coords):
        assert dist[v] == sum(t)


def test_cartesian_product_cap():
    with pytest.raises(ValueError):
        cartesian_product([edgeless(2)] * 23, cap=1 << 22)


def test_hypercube_equals_product():
    assert hypercube(3).n == 8 and hypercube(3).m == 12


def test_graph_file_roundtrip():
    g = half_graph(3)
    text = write_graph(g, "h3")
    parsed, name = parse_graph(text)
    assert name == "h3" and parsed == g
    b = half_graph_bipartite(3)
    parsed2, name2 = parse_graph(write_graph(b, "hb"))
    assert name2 == "hb" and parsed2 == b


def test_graph_file_rejects_bad_input():
    with pytest.raises(GraphFormatError):
        parse_graph("graph x 3\ne 0 0\n")
    with pytest.raises(GraphFormatError):
        parse_graph("graph x 3\ne 0 1\ne 1 0\n")
    with pytest.raises(GraphFormatError):
        parse_graph("")
    with pytest.raises(GraphFormatError):
        parse_graph("digraph x 3\n")
