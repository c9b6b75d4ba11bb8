import itertools

import pytest

from pugkit.generators import (
    bipartite_equivalence_graph,
    chain_graph,
    co_half_graph,
    complete,
    cycle,
    direct_product,
    equivalence_graph,
    f_graph,
    fstar_graph,
    generate,
    half_graph,
    lexicographic_product,
    p7_bipartite,
    path,
    random_bipartite,
    random_chain_graph,
    random_forest,
    random_graph,
    s123,
    strong_product,
    t_graph,
    threshold_graph,
    z_graph,
)
from pugkit.graphs import cartesian_product


def test_half_graph_shape():
    g = half_graph(3)
    assert g.n == 6 and g.m == 6  # C(3,2) + 3
    for i in range(3):
        for j in range(3):
            assert g.has_edge(i, 3 + j) == (i <= j)


def test_threshold_and_co_half():
    t = threshold_graph(3)
    assert t.m == 6 + 3
    c = co_half_graph(3)
    assert c.m == 6 + 3 + 3


def test_z_graph():
    z = z_graph(2, 2)
    assert (z.nx, z.ny) == (2, 4)
    assert set(z.neighbors_x(0)) == {0, 1}  # x1 ~ Y1 only
    assert set(z.neighbors_x(1)) == {0, 1, 2, 3}  # x2 ~ Y1 u Y2
    with pytest.raises(ValueError):
        z_graph(0, 2)


def test_t_and_f_graphs():
    t = t_graph(2)
    assert (t.nx, t.ny, t.m) == (2, 4, 4)
    f = f_graph(2, 3)
    assert (f.nx, f.ny, f.m) == (2, 6, 7)
    fs = fstar_graph(2, 3)
    assert (fs.nx, fs.ny, fs.m) == (2, 7, 7)
    assert fs.deg_y(fs.ny - 1) == 0  # isolated d


def test_s123_is_the_right_tree():
    g = s123()
    assert g.n == 7 and g.m == 6
    degs = sorted(g.degree(v) for v in range(7))
    assert degs == [1, 1, 1, 2, 2, 2, 3]


def test_p7_bipartite():
    p = p7_bipartite()
    assert p.nx + p.ny == 7 and p.m == 6
    degs = sorted([p.deg_x(x) for x in range(p.nx)] + [p.deg_y(y) for y in range(p.ny)])
    assert degs == [1, 1, 2, 2, 2, 2, 2]


def test_equivalence_generators():
    g = equivalence_graph([3, 2])
    assert g.n == 5 and g.m == 3 + 1
    b = bipartite_equivalence_graph([(2, 2), (1, 3)])
    assert (b.nx, b.ny, b.m) == (3, 5, 4 + 3)


def test_chain_graph_profile():
    g = chain_graph([1, 2, 3], 3)
    assert g.m == 6
    assert set(g.neighbors_x(0)) == {2}
    assert set(g.neighbors_x(2)) == {0, 1, 2}


@pytest.mark.parametrize("p", [2.0, -1.0, float("nan")])
def test_random_graphs_take_only_a_probability(p):
    with pytest.raises(ValueError, match=r"is not in \[0, 1\]"):
        random_graph(4, p, seed=1)
    with pytest.raises(ValueError, match=r"is not in \[0, 1\]"):
        random_bipartite(2, 3, p, seed=1)


def test_random_generators_deterministic():
    assert random_graph(10, 0.5, seed=7) == random_graph(10, 0.5, seed=7)
    assert random_graph(10, 0.5, seed=7) != random_graph(10, 0.5, seed=8)
    f = random_forest(30, seed=3)
    # forests are acyclic: m <= n - #components
    assert f.m <= f.n - 1
    c = random_chain_graph(5, 6, seed=1)
    # nested-suffix neighborhoods
    rows = sorted(set(x) for x in (c.neighbors_x(i) for i in range(5)))


def test_generate_dispatch():
    g = generate("half-graph", k=5)
    assert g.n == 10 and g.m == 15
    h = generate("hypercube", d=4)
    assert h.n == 16 and h.m == 32
    z = generate("z", q=2, s=2)
    assert (z.nx, z.ny) == (2, 4)
    with pytest.raises(ValueError):
        generate("nope")


def _first_difference_is_edge(gs, v, w):
    i = next(i for i in range(len(gs)) if v[i] != w[i])
    return gs[i].has_edge(v[i], w[i])


# each product's adjacency rule, read off its definition
PRODUCT_RULES = {
    cartesian_product: lambda gs, v, w: sum(a != b for a, b in zip(v, w)) == 1
    and _first_difference_is_edge(gs, v, w),
    strong_product: lambda gs, v, w: all(
        a == b or g.has_edge(a, b) for g, a, b in zip(gs, v, w)),
    direct_product: lambda gs, v, w: all(g.has_edge(a, b) for g, a, b in zip(gs, v, w)),
    lexicographic_product: _first_difference_is_edge,
}


@pytest.mark.parametrize("product", list(PRODUCT_RULES), ids=lambda f: f.__name__)
def test_products_match_their_definitions(product):
    for gs in ([path(3), cycle(4), complete(2)], [complete(2), path(3)], [cycle(4)]):
        g, coords = product(gs)
        assert coords == list(itertools.product(*[range(h.n) for h in gs]))
        rule = PRODUCT_RULES[product]
        for i, j in itertools.combinations(range(g.n), 2):
            assert g.has_edge(i, j) == rule(gs, coords[i], coords[j]), (coords[i], coords[j])


@pytest.mark.parametrize("product", list(PRODUCT_RULES), ids=lambda f: f.__name__)
def test_products_reject_over_cap_before_allocating(product):
    # 2**64 coordinate tuples could never be allocated, so only a check made
    # up front can raise here; 2**23 is the first power of two over the cap
    for d in (64, 23):
        with pytest.raises(ValueError, match="cap"):
            product([path(2)] * d)
