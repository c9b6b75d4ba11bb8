import pytest

from pugkit import bipartite
from pugkit.bipartite import (
    ChainDecomposition,
    bipartite_equivalence_labels,
    build_chain_decomposition_graph,
    build_p7_tree,
    chain_decomposition_search,
    chain_graph_labels,
    check_tp_structure,
    equivalence_labels,
    extract_z_witness,
    find_allen_partition,
    find_one_sided_fpp,
    find_one_sided_tp,
    fpp_decomposition,
    fpp_labels,
    fstar_labels,
    is_chain_graph,
    p7_labels,
    partition_from_chain_decomposition,
    tp_free_labels,
    tp_structure,
    verify_chain_decomposition,
)
from pugkit.generators import (
    biclique,
    bipartite_equivalence_graph,
    cobiclique,
    equivalence_graph,
    half_graph_bipartite,
    random_bipartite,
    random_chain_graph,
    random_fpp_free,
    random_tp_free,
    t_graph,
    z_graph,
)
from pugkit.graphs import ColoredBipartiteGraph, bipartite_complement
from pugkit.labels import SchemeError
from pugkit.rng import rng_for


def check_bip_scheme(scheme, g):
    """All-pairs check of a scheme over a colored bipartite graph, using
    the X-then-Y vertex indexing."""
    n = g.nx + g.ny
    for u in range(n):
        for v in range(u + 1, n):
            if u < g.nx and v >= g.nx:
                expect = int(g.has_edge(u, v - g.nx))
            else:
                expect = 0
            assert scheme.decode(u, v) == expect, (u, v)


# --- equivalence -----------------------------------------------------------

def test_equivalence_labels():
    g = equivalence_graph([3, 2, 1])
    sch = equivalence_labels(g)
    assert sch.check_exact(g.has_edge)
    from pugkit.generators import path

    with pytest.raises(SchemeError):
        equivalence_labels(path(3))


def test_bipartite_equivalence_labels():
    b = bipartite_equivalence_graph([(3, 4), (2, 1)])
    sch = bipartite_equivalence_labels(b)
    check_bip_scheme(sch, b)
    with pytest.raises(SchemeError):
        bipartite_equivalence_labels(half_graph_bipartite(2))


# --- chain graphs ----------------------------------------------------------

def test_chain_graph_labels_half_graph():
    g = half_graph_bipartite(3)
    sch = chain_graph_labels(g, k=3)
    check_bip_scheme(sch, g)
    # p = q = 3 intervals, width 1 + ceil(log(k+1))
    assert sch.s <= 1 + 3


def test_chain_graph_labels_biclique():
    sch = chain_graph_labels(biclique(3, 4), k=1)
    check_bip_scheme(sch, biclique(3, 4))


def test_chain_graph_labels_random():
    for seed in range(20):
        g = random_chain_graph(6, 7, seed=seed)
        sch = chain_graph_labels(g, k=7)
        check_bip_scheme(sch, g)


def test_chain_graph_rejects_2k2():
    with pytest.raises(SchemeError):
        chain_graph_labels(t_graph(1), k=4)  # T_1 = 2K2
    assert not is_chain_graph(t_graph(1))
    assert is_chain_graph(random_chain_graph(5, 5, seed=1))


def test_chain_graph_interval_budget():
    g = half_graph_bipartite(4)
    with pytest.raises(SchemeError):
        chain_graph_labels(g, k=2)  # needs 4 intervals > k+1


# --- T_p-free --------------------------------------------------------------

def test_find_one_sided_tp():
    assert find_one_sided_tp(t_graph(2), 2) is not None
    assert find_one_sided_tp(random_tp_free(8, 10, 3, seed=1), 3) is None


def test_tp_structure_base_case():
    g = random_bipartite(5, 6, 0.2, seed=3)
    k = 20  # all degrees < k
    st = tp_structure(g, k)
    assert st.m == 0 and st.b_parts == (tuple(range(6)),)


def test_tp_structure_biclique():
    g = biclique(3, 5)
    st = tp_structure(g, k=2)
    assert st.m == 1
    assert st.a_parts[0] == ()  # A_0 empty: all degrees >= 2
    assert st.a_parts[1] == (0, 1, 2)
    assert st.b_parts[0] == (0, 1, 2, 3, 4)
    check_tp_structure(g, st, p=1)


def test_tp_structure_invariants_on_random():
    for seed in range(10):
        g = random_tp_free(8, 12, 2, seed=seed)
        st = tp_structure(g, k=5)
        check_tp_structure(g, st, p=2)


def test_z_witness_extraction():
    # Z_{q,s} itself has m >= q rounds when k is chosen to trigger it
    q, p = 2, 2
    k = q * p + 1
    z = z_graph(3, k + 2 * p)  # wide blocks so conditions hold
    st = tp_structure(z, k)
    if st.m >= q:
        w = extract_z_witness(z, st, q, p)
        assert w is not None
        anchors, blocks = w
        for i, a in enumerate(anchors):
            for j, blk in enumerate(blocks):
                for y in blk:
                    assert z.has_edge(a, y) == (j <= i)


def test_tp_free_labels_exact():
    for seed in range(12):
        g = random_tp_free(9, 12, 2, seed=seed)
        sch = tp_free_labels(g, p=2, q=4)
        check_bip_scheme(sch, g)


def test_tp_free_labels_biclique():
    g = biclique(4, 6)
    sch = tp_free_labels(g, p=1, q=2)
    check_bip_scheme(sch, g)


def test_tp_free_code_budget():
    p, q = 2, 4
    k = q * p + 1
    for seed in range(6):
        g = random_tp_free(9, 12, p, seed=seed)
        sch = tp_free_labels(g, p=p, q=q)
        for x in range(g.nx):
            assert len(sch.codes[x]) <= q * (p - 1) + (k - 1)
        for y in range(g.ny):
            assert len(sch.codes[g.nx + y]) == 1


def test_tp_free_rejects_deep_structure():
    # Z_{q,s} has m = q rounds at k = qp+1 for suitable sizes
    q, p = 2, 1
    z = z_graph(4, 8)
    with pytest.raises(SchemeError):
        tp_free_labels(z, p=p, q=q)


# --- F_{p,p}-free ----------------------------------------------------------

def test_find_one_sided_fpp():
    from pugkit.generators import f_graph

    assert find_one_sided_fpp(f_graph(2, 2), 2) is not None
    assert find_one_sided_fpp(random_fpp_free(2, 4, 6, 2, seed=0), 2) is None


def test_fpp_decomposition_shapes():
    g = random_fpp_free(3, 4, 5, 2, seed=2)
    tree = fpp_decomposition(g, p=2, q=3)
    assert tree.kind in ("D", "L")  # disjoint blocks
    assert tree.depth() <= 2 * 3


def test_fpp_decomposition_tk_free_leaf():
    g = random_tp_free(6, 8, 2, seed=4)
    tree = fpp_decomposition(g, p=2, q=3)
    assert tree.kind == "L"


def test_fpp_labels_exact():
    for seed in range(10):
        g = random_fpp_free(3, 4, 5, 2, seed=seed)
        sch = fpp_labels(g, p=2, q=3)
        check_bip_scheme(sch, g)


def test_fpp_labels_connected_instances():
    # single-block instances exercise the P-node route when degrees are high
    for seed in range(10):
        g = random_tp_free(8, 10, 4, seed=seed)
        sch = fpp_labels(g, p=4, q=2)
        check_bip_scheme(sch, g)


# --- F*_{p,q} --------------------------------------------------------------

def test_fstar_trivial_partition():
    g = random_fpp_free(2, 4, 5, 2, seed=3)
    from pugkit.bipartite import AllenPartition

    part = AllenPartition(tuple(range(g.nx)), (), tuple(range(g.ny)), ())
    sch = fstar_labels(g, p=2, q=3, partition=part)
    check_bip_scheme(sch, g)


def test_fstar_search_and_labels():
    rng = rng_for(17, "fstar-corpus")
    count = 0
    for seed in range(12):
        nx_, ny_ = 6, 7
        direct = random_tp_free(3, ny_, 2, seed=seed)
        co = random_tp_free(3, ny_, 2, seed=seed + 100)
        edges = list(direct.edges())
        for x in range(3):
            for y in range(ny_):
                if not co.has_edge(x, y):
                    edges.append((3 + x, y))
        g = ColoredBipartiteGraph(nx_, ny_, edges)
        part = find_allen_partition(g, p=2)
        if part is None:
            continue
        sch = fstar_labels(g, p=2, q=4, partition=part)
        check_bip_scheme(sch, g)
        count += 1
    assert count >= 6


def test_fstar_prefix_budget():
    g = random_fpp_free(2, 3, 4, 2, seed=5)
    from pugkit.bipartite import AllenPartition

    part = AllenPartition(tuple(range(g.nx)), (), tuple(range(g.ny)), ())
    sch = fstar_labels(g, p=2, q=3, partition=part)
    base = fpp_labels(g, p=2, q=3)
    # side bit + Y2-adjacency bit + partition bit on X labels
    assert sch.prefix_len(0) == base.prefix_len(0) + 3


# --- chain decompositions and P7 -------------------------------------------

def test_synthetic_chain_decomposition_verifies():
    for k in (2, 3, 4):
        g, cd = build_chain_decomposition_graph(k, sizes=2, seed=k)
        reasons: list[str] = []
        assert verify_chain_decomposition(g, cd, reasons), reasons


def test_verifier_rejects_violations():
    g, cd = build_chain_decomposition_graph(3, sizes=2, seed=1)
    # break the neighbour bullet: clear A_2's row to its B_1 non-neighbour rule
    import dataclasses

    bad = dataclasses.replace(cd, b_parts=(cd.b_parts[1], cd.b_parts[0], cd.b_parts[2]))
    reasons: list[str] = []
    assert not verify_chain_decomposition(g, bad, reasons)
    assert reasons


# The forced bullets of a k-chain decomposition, levels i, j counted from 1:
# (X letter, Y letter) -> (complete when, anticomplete when).
FORCED_BLOCKS = {
    ("A", "B"): (lambda i, j: j < i - 1, lambda i, j: j > i),
    ("C", "D"): (lambda i, j: j < i - 1, lambda i, j: j > i),
    ("A", "D"): (lambda i, j: j < i, lambda i, j: j >= i),
    ("C", "B"): (lambda i, j: j < i, lambda i, j: j >= i),
}


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verifier_names_each_broken_forced_block(k, seed):
    g, cd = build_chain_decomposition_graph(k, sizes=2, seed=seed)
    parts = {"A": cd.a_parts, "B": cd.b_parts, "C": cd.c_parts, "D": cd.d_parts}
    edges = set(g.edges())
    blocks = 0
    for (xl, yl), (complete, anticomplete) in FORCED_BLOCKS.items():
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if not (complete(i, j) or anticomplete(i, j)):
                    continue
                blocks += 1
                e = (parts[xl][i - 1][0], parts[yl][j - 1][0])
                g2 = ColoredBipartiteGraph(g.nx, g.ny, sorted(edges ^ {e}))
                reasons: list[str] = []
                assert not verify_chain_decomposition(g2, cd, reasons)
                kind = "complete" if complete(i, j) else "anticomplete"
                assert reasons == [f"{xl}_{i} not {kind} to {yl}_{j}"]
    assert blocks == {2: 10, 3: 26, 4: 50}[k]


def test_verifier_rejects_missing_nonneighbour():
    # make A_2 complete to B_1: the non-neighbour bullet must fire
    g, cd = build_chain_decomposition_graph(3, sizes=2, seed=4)
    edges = set(g.edges())
    for a in cd.a_parts[1]:
        for b in cd.b_parts[0]:
            edges.add((a, b))
    g2 = ColoredBipartiteGraph(g.nx, g.ny, sorted(edges))
    reasons: list[str] = []
    assert not verify_chain_decomposition(g2, cd, reasons)
    assert any("non-neighbour" in r for r in reasons)


def test_chain_search_finds_synthetic():
    g, _ = build_chain_decomposition_graph(2, sizes=2, seed=7)
    cd = chain_decomposition_search(g, k_max=3)
    assert cd is not None
    assert verify_chain_decomposition(g, cd)


def test_chain_search_biclique_none():
    assert chain_decomposition_search(biclique(2, 2), k_max=3) is None


def test_chain_search_gives_up_on_the_24_vertex_complements():
    # a decomposition exists, but the search needs millions of nodes to
    # reach it; the node budget ends it with None
    for k, sizes in ((2, 3), (3, 2)):
        bc = bipartite_complement(build_chain_decomposition_graph(k, sizes, seed=0)[0])
        assert chain_decomposition_search(bc, k_max=4) is None


def test_chain_search_node_budget_is_exact(monkeypatch):
    # this search finds its decomposition at node 4,685
    bc = bipartite_complement(build_chain_decomposition_graph(3, 1, seed=0)[0])
    monkeypatch.setattr(bipartite, "CHAIN_SEARCH_NODE_LIMIT", 4685)
    cd = chain_decomposition_search(bc, k_max=4)
    assert cd is not None and verify_chain_decomposition(bc, cd)
    monkeypatch.setattr(bipartite, "CHAIN_SEARCH_NODE_LIMIT", 4684)
    assert chain_decomposition_search(bc, k_max=4) is None


def test_p7_tree_reports_a_spent_node_budget(monkeypatch):
    g, _ = build_chain_decomposition_graph(3, 1, seed=0)  # connected and co-connected
    assert "node P" in build_p7_tree(g, c=2).serialize()
    monkeypatch.setattr(bipartite, "CHAIN_SEARCH_NODE_LIMIT", 0)
    with pytest.raises(SchemeError, match="no chain decomposition found for a 6x6 P-node"):
        build_p7_tree(g, c=2)


def test_partition_from_cd_reduces_parts():
    g, cd = build_chain_decomposition_graph(3, sizes=2, seed=2)
    x_parts, y_parts = partition_from_chain_decomposition(g, cd)
    assert sorted(v for p in x_parts for v in p) == list(range(g.nx))
    assert sorted(v for p in y_parts for v in p) == list(range(g.ny))
    assert len(x_parts) <= 2 * (3 + 2) and len(y_parts) <= 2 * (3 + 2)


def test_partition_from_cd_k2_mirrored_branches():
    # a valid 2-chain decomposition with C_2 empty, and its mirror (A<->C,
    # B<->D) with A_2 empty: both split B_1 (resp. D_1) by the anchor 2
    g = ColoredBipartiteGraph(3, 3, [(0, 0), (0, 2), (1, 1), (2, 1), (2, 2)])
    cd = ChainDecomposition(2, ((0,), (2,)), ((1,), ()), ((0, 2), ()), ((1,), ()))
    mirror = ChainDecomposition(2, cd.c_parts, cd.a_parts, cd.d_parts, cd.b_parts)
    expected = ([(0,), (2,), (1,)], [(2,), (0,), (1,)])
    for c in (cd, mirror):
        assert verify_chain_decomposition(g, c)
        assert partition_from_chain_decomposition(g, c) == expected
    both_empty = ChainDecomposition(2, ((0, 2), ()), ((1,), ()), ((0, 2), ()), ((1,), ()))
    with pytest.raises(SchemeError, match="both A_2 and C_2 empty"):
        partition_from_chain_decomposition(g, both_empty)


def test_partition_from_one_chain_decomposition():
    g = biclique(1, 1)
    cd = ChainDecomposition(1, ((0,),), ((),), ((0,),), ((),))
    assert verify_chain_decomposition(g, cd)
    assert partition_from_chain_decomposition(g, cd) == ([(0,)], [(0,)])


def test_p7_labels_biclique_and_unions():
    sch = p7_labels(biclique(3, 4), c=1)
    check_bip_scheme(sch, biclique(3, 4))
    # disjoint unions of bicliques: D-node over L leaves
    b = bipartite_equivalence_graph([(2, 3), (3, 1), (1, 1)])
    sch2 = p7_labels(b, c=1)
    check_bip_scheme(sch2, b)


def test_p7_labels_on_combination_corpus():
    rng = rng_for(5, "p7corpus")
    for trial in range(10):
        g = _random_p7_free(rng)
        cap = max(g.nx, g.ny) + 2
        sch = p7_labels(g, c=cap)
        check_bip_scheme(sch, g)


def _random_p7_free(rng) -> ColoredBipartiteGraph:
    """D / D-bar combinations of biclique and co-biclique pieces are P7-free
    (P7-freeness is closed under disjoint union and bipartite complement)."""

    def rand_leaf():
        a, b = rng.randrange(1, 3), rng.randrange(1, 3)
        return biclique(a, b) if rng.random() < 0.5 else cobiclique(a, b)

    def union(g1, g2):
        edges = list(g1.edges()) + [(g1.nx + x, g1.ny + y) for x, y in g2.edges()]
        return ColoredBipartiteGraph(g1.nx + g2.nx, g1.ny + g2.ny, edges)

    g = rand_leaf()
    for _ in range(rng.randrange(2, 4)):
        h = rand_leaf()
        if rng.random() < 0.5:
            g = union(g, h)
        else:
            g = bipartite_complement(union(bipartite_complement(g), bipartite_complement(h)))
    return g


def _paths_to_leaves(node, prefix=()):
    cur = prefix + (node,)
    if not node.children:
        yield cur
    for ch in node.children:
        yield from _paths_to_leaves(ch, cur)


def test_no_consecutive_d_or_dbar_nodes():
    rng = rng_for(11, "ddbar")
    for trial in range(8):
        g = _random_p7_free(rng)
        tree = build_p7_tree(g, c=max(g.nx, g.ny) + 2)
        for path in _paths_to_leaves(tree):
            for a, b in zip(path, path[1:]):
                assert not (a.kind == "D" and b.kind == "D")
                assert not (a.kind == "Dbar" and b.kind == "Dbar")


def test_p7_tree_measure_decreases_every_three_levels():
    from pugkit.structure import chain_number

    g, _ = build_chain_decomposition_graph(2, sizes=2, seed=9)

    def measure(node):
        sub = g.induced(node.xs, node.ys)
        ch = chain_number(sub.to_graph(), cap=5).value
        chc = chain_number(bipartite_complement(sub).to_graph(), cap=5).value
        return (ch, chc)

    tree = build_p7_tree(g, c=4)
    for path in _paths_to_leaves(tree):
        inner = [n for n in path if n.kind != "L"]
        for i in range(len(inner) - 3):
            hi = measure(inner[i])
            lo = measure(inner[i + 3])
            assert lo[0] <= hi[0] and lo[1] <= hi[1]
            assert lo != hi  # strict lexicographic-style decrease


def test_tree_serialization():
    g, _ = build_chain_decomposition_graph(2, sizes=1, seed=3)
    tree = build_p7_tree(g, c=4)
    text = tree.serialize()
    assert text.startswith("node ")
    assert "node L" in text or "node P" in text


def test_p7_labels_exercises_p_nodes():
    # a synthetic chain-decomposition instance that is connected and
    # co-connected, so the builder must go through a P-node backed by the search
    g, _ = build_chain_decomposition_graph(3, 1, seed=0)
    assert g.is_connected() and bipartite_complement(g).is_connected()
    tree = build_p7_tree(g, c=4)
    kinds = set()

    def collect(node):
        kinds.add(node.kind)
        for ch in node.children:
            collect(ch)

    collect(tree)
    assert "P" in kinds
    sch = p7_labels(g, c=4)
    check_bip_scheme(sch, g)
