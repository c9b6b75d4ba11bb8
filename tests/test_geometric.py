import pytest

from pugkit.generators import complete, edgeless
from pugkit.geometric import (
    distinct_ranks,
    interval_graph_from,
    interval_scheme,
    parse_realization,
    permutation_decompose,
    permutation_graph_from,
    permutation_labels,
    random_intervals,
    random_points,
    write_realization,
)
from pugkit.graphs import Graph, induced_subgraph
from pugkit.labels import SchemeError
from pugkit.rng import rng_for
from pugkit.structure import chain_number, interval_clique_number, twin_partition


def test_interval_graph_oracle():
    iv = [(0.0, 2.0), (1.0, 3.0), (4.0, 5.0)]
    g = interval_graph_from(iv)
    assert g.has_edge(0, 1) and not g.has_edge(0, 2) and not g.has_edge(1, 2)


def test_interval_scheme_identical_intervals():
    iv = [(0.0, 1.0)] * 6
    g = interval_graph_from(iv)  # K6
    sch = interval_scheme(g, iv, k=1)
    assert sch.check_exact(g.has_edge)


def test_interval_scheme_unit_path():
    iv = [(float(i), float(i) + 1.25) for i in range(10)]
    g = interval_graph_from(iv)
    sch = interval_scheme(g, iv, k=2)
    assert sch.check_exact(g.has_edge)


def test_interval_scheme_random_corpus():
    ok = 0
    for seed in range(25):
        iv = random_intervals(18, seed=seed)
        g = interval_graph_from(iv)
        # declared chain bound from the actual chain number
        k = chain_number(g, cap=6).value
        try:
            sch = interval_scheme(g, iv, k=max(k, 1))
        except SchemeError:
            continue  # clique bound refused: bound declared too small
        assert sch.check_exact(g.has_edge)
        ok += 1
    assert ok >= 20


def test_interval_scheme_rejects_wrong_realization():
    iv = [(0.0, 1.0), (2.0, 3.0)]
    g = complete(2)
    with pytest.raises(SchemeError):
        interval_scheme(g, iv, k=1)


def test_interval_scheme_flags_clique_violation():
    # staircase clique of six plus separators that break all true twins
    iv = [(float(i), 10.0 + i) for i in range(6)]
    iv += [(10.0 + j + 0.5, 10.0 + j + 0.6) for j in range(5)]
    g = interval_graph_from(iv)
    tp = twin_partition(g, "true")
    assert all(len(c) == 1 for c in tp.classes)
    with pytest.raises(SchemeError):
        interval_scheme(g, iv, k=0)  # cap 4(0+1)^2 = 4 < clique 6
    k = chain_number(g, cap=5).value
    sch = interval_scheme(g, iv, k=max(k, 2))
    assert sch.check_exact(g.has_edge)


def test_clique_vs_chain_bound_on_twin_free():
    # true-twin-free interval graphs: clique c -> chain number >= floor(sqrt(c)/2)
    import math

    for seed in range(30):
        iv = random_intervals(16, seed=seed + 500)
        g = interval_graph_from(iv)
        tp = twin_partition(g, "true")
        reps = sorted({tp.representative[v] for v in range(g.n)})
        sub, remap = induced_subgraph(g, reps)
        sub_iv = [iv[r] for r in reps]
        c = interval_clique_number(sub_iv)
        bound = math.floor(math.sqrt(c) / 2)
        if bound >= 1:
            assert chain_number(sub, cap=bound).value >= bound


def test_permutation_oracle():
    pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]
    g = permutation_graph_from(pts)
    assert g.has_edge(0, 1) and g.has_edge(0, 2) and g.has_edge(1, 2) is False


def test_distinct_ranks():
    pts = [(0.5, 0.5), (0.5, 1.0), (2.0, 0.1)]
    r = distinct_ranks(pts)
    assert sorted(x for x, _ in r) == [0, 1, 2]
    assert sorted(y for _, y in r) == [0, 1, 2]


def test_axis_slice_chain_property():
    # any vertical or horizontal cut slices a permutation graph into a chain graph
    from pugkit.bipartite import is_chain_graph
    from pugkit.geometric import _cross_bigraph

    rng = rng_for(8, "slices")
    for trial in range(60):
        pts = random_points(12, seed=trial)
        g = permutation_graph_from(pts)
        axis = rng.randrange(2)
        t = rng.randrange(1, 12)
        lo = [v for v in range(12) if pts[v][axis] < t - 0.5]
        hi = [v for v in range(12) if pts[v][axis] > t - 0.5]
        if not lo or not hi:
            continue
        sub = _cross_bigraph(g, lo, hi)
        assert is_chain_graph(sub)


def test_cover_pair_increments_chain_number():
    # u with no edges into A, v adjacent to u and all of A
    rng = rng_for(9, "cover")
    for trial in range(25):
        n = 8
        from pugkit.generators import random_graph

        base = random_graph(n, 0.4, seed=trial)
        edges = list(base.edges())
        u, v = n, n + 1
        edges.append((u, v))
        edges += [(v, w) for w in range(n)]
        from pugkit.graphs import Graph

        g = Graph(n + 2, edges)
        ca = chain_number(base, cap=4).value
        cav = chain_number(g, cap=5).value
        assert cav > ca


def test_decompose_case_flag():
    # bottom-most vertex right of the top-most: direct case; else mirrored
    direct_pts = [(5.0, 0.0), (1.0, 5.0), (2.0, 2.0), (6.0, 1.0), (3.0, 4.0)]
    g = permutation_graph_from(direct_pts)
    if g.is_connected() and g.complement().is_connected():
        dec = permutation_decompose(direct_pts, g=g)
        assert dec.mirrored is False
    mirrored_pts = [(0.0, 0.0), (4.0, 5.0), (1.0, 2.0), (2.0, 1.0), (3.0, 4.0)]
    g2 = permutation_graph_from(mirrored_pts)
    if g2.is_connected() and g2.complement().is_connected():
        dec2 = permutation_decompose(mirrored_pts, g=g2)
        assert dec2.mirrored is True


def test_permutation_decompose_partition():
    for seed in range(20):
        pts = random_points(10, seed=seed)
        g = permutation_graph_from(pts)
        if not g.is_connected() or not g.complement().is_connected():
            continue
        dec = permutation_decompose(pts, g=g)
        flat = sorted(v for p in dec.parts for v in p)
        assert flat == list(range(10))
        assert all(len(js) <= 4 for js in dec.j_sets.values())


def test_permutation_decompose_chain_parts():
    for seed in range(12):
        pts = random_points(9, seed=seed + 50)
        g = permutation_graph_from(pts)
        if not g.is_connected() or not g.complement().is_connected():
            continue
        dec = permutation_decompose(pts, g=g)
        from pugkit.structure import chain_number as chn

        cg = chn(g, cap=4).value
        for p in dec.parts:
            sub, _ = induced_subgraph(g, p)
            if dec.mirrored:
                co_sub, _ = induced_subgraph(g.complement(), p)
                assert chn(co_sub, cap=4).value < max(chn(g.complement(), cap=4).value, 1) \
                    or len(p) == 1
            else:
                assert chn(sub, cap=4).value < max(cg, 1) or len(p) == 1


def test_permutation_labels_trivial():
    pts = random_points(7, seed=3)
    e = edgeless(7)
    iv = [(float(i), float(6 - i)) for i in range(7)]  # decreasing: edgeless
    g = permutation_graph_from(iv)
    assert g.m == 0
    sch = permutation_labels(g, iv, k=1)
    assert sch.check_exact(g.has_edge)
    inc = [(float(i), float(i)) for i in range(6)]  # increasing: complete
    gk = permutation_graph_from(inc)
    assert gk.m == 15
    sch2 = permutation_labels(gk, inc, k=1)
    assert sch2.check_exact(gk.has_edge)


def test_permutation_labels_random():
    for seed in range(30):
        pts = random_points(12, seed=seed)
        g = permutation_graph_from(pts)
        k = max(chain_number(g, cap=5).value, 1)
        sch = permutation_labels(g, pts, k=k)
        assert sch.check_exact(g.has_edge)


def test_permutation_labels_rejects_mismatch():
    pts = random_points(6, seed=1)
    with pytest.raises(SchemeError):
        permutation_labels(complete(6), pts, k=2)


def test_realization_files_roundtrip():
    iv = random_intervals(5, seed=2)
    text = write_realization("intervals", iv, "ivs")
    kind, items, name = parse_realization(text)
    assert kind == "intervals" and name == "ivs" and items == iv
    pts = random_points(5, seed=2)
    kind2, items2, name2 = parse_realization(write_realization("points", pts, "ps"))
    assert kind2 == "points" and items2 == pts


# ---------------------------------------------------------------------------
# Realization edge arrays against the pairwise loops they replaced.
# ---------------------------------------------------------------------------

def pairwise_interval_edges(realization):
    """The reference: every pair u < v tested in turn, as the first
    implementation did."""
    edges = []
    for u, (lu, ru) in enumerate(realization):
        if lu > ru:
            raise ValueError(f"malformed interval at {u}")
        for v in range(u + 1, len(realization)):
            lv, rv = realization[v]
            if lu <= rv and lv <= ru:
                edges.append((u, v))
    return edges


def pairwise_point_edges(points):
    edges = []
    for u, (x1, y1) in enumerate(points):
        for v in range(u + 1, len(points)):
            x2, y2 = points[v]
            if (x1 <= x2 and y1 <= y2) or (x2 <= x1 and y2 <= y1):
                edges.append((u, v))
    return edges


def tied_realization(seed: int, n: int, kind: str):
    """Coordinates drawn from a few values, so endpoints are shared and
    coordinates tie; intervals may have length 0."""
    rng = rng_for(seed, "tied", n, kind)
    items = []
    for _ in range(n):
        a, b = rng.randrange(6) / 2, rng.randrange(6) / 2
        items.append((min(a, b), max(a, b)) if kind == "intervals" else (a, b))
    return items


@pytest.mark.parametrize("block_cells", [None, 7])
def test_realization_edges_match_the_pairwise_loops(monkeypatch, block_cells):
    from pugkit import geometric

    if block_cells is not None:  # a 20-vertex realization spans several row blocks
        monkeypatch.setattr(geometric, "BLOCK_CELLS", block_cells)
    for seed in range(30):
        n = seed % 21
        iv, pts = tied_realization(seed, n, "intervals"), tied_realization(seed, n, "points")
        want_iv = [list(e) for e in pairwise_interval_edges(iv)]
        want_pts = [list(e) for e in pairwise_point_edges(pts)]
        assert geometric.realization_edges("intervals", iv).tolist() == want_iv
        assert interval_graph_from(iv).edge_array().tolist() == want_iv
        assert geometric.realization_edges("points", pts).tolist() == want_pts
        assert permutation_graph_from(pts).edge_array().tolist() == want_pts
    assert geometric.realization_edges("points", []).shape == (0, 2)


def test_a_malformed_interval_is_named():
    iv = [(0.0, 1.0), (3.0, 2.0), (5.0, 4.0)]
    with pytest.raises(ValueError, match=r"^malformed interval at 1$"):
        pairwise_interval_edges(iv)
    with pytest.raises(ValueError, match=r"^malformed interval at 1$"):
        interval_graph_from(iv)
    with pytest.raises(ValueError, match=r"^malformed interval at 1$"):
        interval_scheme(complete(3), iv, k=1)


def test_a_realization_of_another_graph_is_refused():
    iv, pts = random_intervals(12, seed=4), random_points(12, seed=4)
    gi, gp = interval_graph_from(iv), permutation_graph_from(pts)
    other = list(gi.edges())[1:]
    for g in (Graph(12, other), Graph(13, list(gi.edges())), edgeless(11)):
        with pytest.raises(SchemeError, match="realization does not match"):
            interval_scheme(g, iv, k=3)
    other = list(gp.edges())[1:]
    for g in (Graph(12, other), Graph(13, list(gp.edges())), edgeless(11)):
        with pytest.raises(SchemeError, match="realization does not match"):
            permutation_labels(g, pts, k=3)
