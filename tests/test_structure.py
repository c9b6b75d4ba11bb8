import gc
import itertools
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pugkit.generators import (
    co_half_graph,
    complete,
    cycle,
    edgeless,
    equivalence_graph,
    half_graph,
    half_graph_bipartite,
    hypercube,
    path,
    random_bipartite,
    random_forest,
    random_graph,
    random_kdegenerate,
    threshold_graph,
)
from pugkit.geometric import interval_graph_from, random_intervals
from pugkit.graphs import ColoredBipartiteGraph, Graph, bip_transform, induced_subgraph, members
from pugkit.rng import rng_for
from pugkit.sketch import arboricity_sketch
from pugkit.structure import (
    ChainNumberResult,
    ChainWitness,
    chain_number,
    forest_partition,
    interval_clique_number,
    peel_order,
    quasi_chain_number,
    twin_partition,
)


def brute_chain_number(g: Graph, cap: int) -> int:
    """Independent oracle: enumerate all ordered a/b tuples."""
    best = 0
    for k in range(1, cap + 1):
        found = False
        for a in itertools.permutations(range(g.n), k):
            rest = [v for v in range(g.n) if v not in a]
            for b in itertools.permutations(rest, k):
                if all(g.has_edge(a[i], b[j]) == (i <= j) for i in range(k) for j in range(k)):
                    found = True
                    break
            if found:
                break
        if not found:
            break
        best = k
    return best


def brute_qch(g: ColoredBipartiteGraph, cap: int) -> int:
    """Independent oracle: plain sequence enumeration, no memoization."""

    def extend(xs: tuple, ys: tuple) -> int:
        if len(xs) >= cap:
            return len(xs)
        best = len(xs)
        for x in range(g.nx):
            for y in range(g.ny):
                c1 = all(g.has_edge(x, yy) for yy in ys) and not any(
                    g.has_edge(xx, y) for xx in xs)
                c2 = not any(g.has_edge(x, yy) for yy in ys) and all(
                    g.has_edge(xx, y) for xx in xs)
                if c1 or c2:
                    if x in xs and y in ys:
                        continue  # no-growth steps are impossible; skip defensively
                    best = max(best, extend(xs + (x,), ys + (y,)))
        return best

    if g.nx == 0 or g.ny == 0:
        return 0
    return extend((), ())


def test_chain_number_half_graphs():
    for k in range(1, 6):
        res = chain_number(half_graph(k), cap=k)
        assert res.exact and res.value == k
        assert res.witness is not None and res.witness.check(half_graph(k))


def test_chain_number_trivial():
    assert chain_number(edgeless(6), cap=3).value == 0
    res = chain_number(path(4), cap=3)
    assert res.exact and res.value == 2
    assert res.value == brute_chain_number(path(4), 3)


def test_chain_number_cap_reporting():
    res = chain_number(half_graph(5), cap=2)
    assert not res.exact and res.value == 3
    assert res.witness is not None and res.witness.check(half_graph(5))


def test_chain_number_matches_brute_force_on_random():
    for seed in range(12):
        g = random_graph(8, 0.4, seed=seed)
        assert chain_number(g, cap=4).value == brute_chain_number(g, 4)


def test_chain_number_hereditary_monotone():
    rng = rng_for(99, "hered")
    for trial in range(40):
        g = random_graph(10, 0.4, seed=trial)
        vs = [v for v in range(10) if rng.random() < 0.6]
        sub, _ = induced_subgraph(g, vs)
        assert chain_number(sub, cap=4).value <= chain_number(g, cap=4).value


def test_witness_serialization():
    res = chain_number(half_graph(3), cap=3)
    s = res.witness.serialize()
    assert s.startswith("chain 3: a=") and " b=" in s


def test_qch_cobiclique():
    g = ColoredBipartiteGraph(2, 2, [])
    assert quasi_chain_number(g, cap=10) == 1
    assert brute_qch(g, 10) == 1


def test_qch_at_least_chain_number():
    g = half_graph_bipartite(3)
    assert quasi_chain_number(g, cap=20) >= 3


def test_qch_matches_brute_force():
    for seed in range(10):
        g = random_bipartite(3, 3, 0.5, seed=seed)
        assert quasi_chain_number(g, cap=12) == brute_qch(g, 12)


def test_qch_memo_hit_cannot_hide_a_binding_cap():
    # qch = 7; a state first met at a shallow depth is met again deeper,
    # where its remaining length crosses cap = 5
    g = ColoredBipartiteGraph(4, 6, [(0, 0), (0, 2), (0, 4), (1, 1), (1, 2), (1, 3), (1, 4),
                                     (1, 5), (2, 0), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)])
    assert quasi_chain_number(g, cap=10) == 7
    assert quasi_chain_number(g, cap=5) == 6


def test_qch_sandwich_on_samples():
    # ch(G) <= qch(G) <= 4 ch(G) + 4 on bipartite samples
    for seed in range(15):
        g = random_bipartite(4, 4, 0.5, seed=seed)
        ch = chain_number(g.to_graph(), cap=4).value
        qch = quasi_chain_number(g, cap=4 * ch + 4)
        assert ch <= qch <= 4 * ch + 4


class _ScanCapReached(Exception):
    pass


def scan_quasi_chain_number(g: ColoredBipartiteGraph, cap: int) -> int:
    """Reference: expand the full (x, y) candidate product at every state,
    with both candidate lists rebuilt from the rows."""
    if g.nx == 0 or g.ny == 0:
        return 0
    rows_x, rows_y = g.rows_x, g.rows_y
    memo: dict[tuple[int, int], int] = {}

    def further(xs: int, ys: int, depth: int) -> int:
        best = memo.get((xs, ys))
        if best is None:
            best = 0
            for x_sees, y_sees in ((ys, 0), (0, xs)):
                x_cands = [1 << x for x, row in enumerate(rows_x) if row & ys == x_sees]
                y_cands = [1 << y for y, row in enumerate(rows_y) if row & xs == y_sees]
                for bx in x_cands:
                    for by in y_cands:
                        if bx & xs and by & ys:
                            continue
                        if depth + 1 > cap:
                            raise _ScanCapReached
                        best = max(best, 1 + further(xs | bx, ys | by, depth + 1))
            memo[xs, ys] = best
        if depth + best > cap:
            raise _ScanCapReached
        return best

    try:
        return further(0, 0, 0)
    except _ScanCapReached:
        return cap + 1


def every_bigraph(nx: int, ny: int):
    pairs = list(itertools.product(range(nx), range(ny)))
    for mask in range(1 << len(pairs)):
        yield ColoredBipartiteGraph(nx, ny, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_qch_matches_scan_on_every_3x3_bigraph_at_every_cap():
    for g in every_bigraph(3, 3):
        for cap in range(7):
            assert quasi_chain_number(g, cap=cap) == scan_quasi_chain_number(g, cap), (g.rows_x, cap)


@st.composite
def small_bigraphs(draw):
    nx, ny = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    pairs = list(itertools.product(range(nx), range(ny)))
    return ColoredBipartiteGraph(nx, ny, [p for p in pairs if draw(st.booleans())])


@settings(derandomize=True, database=None, deadline=None)
@given(g=small_bigraphs())
def test_qch_matches_scan_on_drawn_bigraphs(g):
    for cap in range(g.nx + g.ny + 1):
        assert quasi_chain_number(g, cap=cap) == scan_quasi_chain_number(g, cap)


def test_qch_matches_brute_force_on_every_2x3_and_3x2_bigraph():
    for nx, ny in ((2, 3), (3, 2)):
        for g in every_bigraph(nx, ny):
            assert quasi_chain_number(g, cap=5) == brute_qch(g, 6)


def test_qch_rejects_a_negative_cap():
    for g in (ColoredBipartiteGraph(2, 2, [(0, 0)]), ColoredBipartiteGraph(0, 3, [])):
        with pytest.raises(ValueError, match="cap must be >= 0"):
            quasi_chain_number(g, cap=-1)


def test_twin_partition_modes():
    tp = twin_partition(complete(5), "true")
    assert len(tp.classes) == 1 and len(tp.classes[0]) == 5
    fp = twin_partition(edgeless(5), "false")
    assert len(fp.classes) == 1
    for mode in ("true", "false"):
        cp = twin_partition(cycle(5), mode)
        assert all(len(c) == 1 for c in cp.classes)
    with pytest.raises(ValueError):
        twin_partition(cycle(5), "both")


def test_twin_partition_is_twin_relation():
    g = random_graph(12, 0.5, seed=5)
    tp = twin_partition(g, "true")
    for cls in tp.classes:
        for x, y in itertools.combinations(cls, 2):
            assert g.has_edge(x, y)
            assert set(g.neighbors(x)) - {y} == set(g.neighbors(y)) - {x}


def _covers_exactly(parents, g):
    """Every parent link is an edge of g, and every edge is one link."""
    seen = set()
    for v, row in enumerate(parents.tolist()):
        for p in row:
            if p < 0:
                continue
            e = (v, p) if v < p else (p, v)
            if e in seen or not g.has_edge(v, p):
                return False
            seen.add(e)
    return len(seen) == g.m


def _forest_is_acyclic(parent_map, n):
    # union-find over parent edges
    root = list(range(n))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for v, p in enumerate(parent_map):
        if p < 0:
            continue
        ra, rb = find(v), find(p)
        if ra == rb:
            return False
        root[ra] = rb
    return True


@pytest.mark.parametrize("g,expect", [
    (path(8), 1),
    (complete(4), 3),
    (hypercube(3), 3),
    (hypercube(4), 4),
])
def test_forest_partition_counts(g, expect):
    parents = forest_partition(g)
    assert parents.shape == (g.n, expect)
    assert _covers_exactly(parents, g)
    for forest in parents.T.tolist():
        assert _forest_is_acyclic(forest, g.n)


def test_forest_partition_random():
    for seed in range(8):
        g = random_graph(20, 0.3, seed=seed)
        parents = forest_partition(g)
        assert _covers_exactly(parents, g)
        for forest in parents.T.tolist():
            assert _forest_is_acyclic(forest, g.n)


def test_interval_clique_number():
    assert interval_clique_number([(0.0, 1.0)] * 7 ) == 7
    assert interval_clique_number([(i, i + 0.5) for i in range(5)]) == 1
    # touching endpoints intersect
    assert interval_clique_number([(0, 1), (1, 2)]) == 2
    with pytest.raises(ValueError):
        interval_clique_number([(2, 1)])


def test_interval_clique_vs_pairwise_oracle():
    rng = rng_for(4, "ivals")
    for _ in range(30):
        iv = []
        for _ in range(10):
            a = rng.randrange(20)
            b = a + rng.randrange(6)
            iv.append((float(a), float(b)))
        # oracle: max clique of the interval graph = max point coverage;
        # check by brute force over all subsets (n=10)
        best = 0
        for mask in range(1 << 10):
            sel = [iv[i] for i in range(10) if mask >> i & 1]
            if all(a1 <= b2 and a2 <= b1 for (a1, b1), (a2, b2) in itertools.combinations(sel, 2)):
                best = max(best, len(sel))
        assert interval_clique_number(iv) == best


def test_co_half_graph_chain():
    assert chain_number(co_half_graph(4), cap=4).value == 4
    assert chain_number(bip_transform(cycle(4)).to_graph(), cap=4).value <= 2 * chain_number(cycle(4), cap=4).value


def reference_chain_number(g: Graph, cap: int) -> ChainNumberResult:
    """Reference: the same branch-and-bound with a `members` walk per a,
    the used set and b pool rebuilt per b, and the chain and target passed
    to every node."""
    n, rows = g.n, g.rows
    full = (1 << n) - 1
    by_degree = sorted(range(n), key=lambda v: (-g.degree(v), v))
    found: list[ChainWitness | None] = [None]

    def extend(a, b, used, cand_a, cand_b, target):
        if len(a) == target:
            found[0] = ChainWitness(tuple(a), tuple(b))
            return True
        remaining = target - len(a)
        pool_a, pool_b = cand_a & ~used, cand_b & ~used
        if pool_a.bit_count() < remaining or pool_b.bit_count() < remaining:
            return False
        for av in by_degree:
            if not pool_a >> av & 1:
                continue
            pool = rows[av] & pool_b
            if pool.bit_count() < remaining:
                continue
            for bv in members(pool):
                a.append(av)
                b.append(bv)
                if extend(a, b, used | 1 << av | 1 << bv,
                          cand_a & ~rows[bv], cand_b & rows[av], target):
                    return True
                a.pop()
                b.pop()
        return False

    value, witness = 0, None
    for k in range(1, cap + 2):
        if 2 * k > n or not extend([], [], 0, full, full, k):
            break
        value, witness = k, found[0]
    return ChainNumberResult(value, value <= cap, witness)


def test_chain_number_matches_the_reference_search():
    rng = rng_for(28, "chain-parity")
    cases = []
    for n, p in ((36, 0.15), (40, 0.15), (45, 0.15), (50, 0.12), (60, 0.1)):
        for cap in (4, 5):
            for _ in range(3):
                cases.append((random_graph(n, p, seed=rng.randrange(1 << 30)), cap))
    for k in range(1, 8):
        for gen in (half_graph, co_half_graph, threshold_graph):
            for cap in (k - 1, k, k + 1):
                cases.append((gen(k), cap))
    for _ in range(30):
        g = random_graph(rng.randrange(15), rng.random(), seed=rng.randrange(1 << 30))
        cases += [(g, cap) for cap in range(7)]
    assert len(cases) >= 300
    for g, cap in cases:
        assert chain_number(g, cap=cap) == reference_chain_number(g, cap), (g.rows, cap)


class _PairKeyedCapReached(Exception):
    pass


def pair_keyed_quasi_chain_number(g: ColoredBipartiteGraph, cap: int) -> int:
    """Reference: the memo keyed on (xs, ys) as they stand, each state
    bounded by nx + ny - |xs| - |ys|, and every successor looked up in the
    memo inside its own call."""
    if g.nx == 0 or g.ny == 0:
        return 0
    rows_x, rows_y = g.rows_x, g.rows_y
    full_x, full_y = (1 << g.nx) - 1, (1 << g.ny) - 1
    memo: dict[tuple[int, int], int] = {}

    def further(xs, ys, x_all, x_any, y_all, y_any, depth):
        best = memo.get((xs, ys))
        if best is None:
            add_x = add_y = 0
            products = []
            for cand_x, cand_y in ((x_all, full_y & ~y_any), (full_x & ~x_any, y_all)):
                if cand_x & xs:
                    add_y |= cand_y & ~ys
                if cand_y & ys:
                    add_x |= cand_x & ~xs
                if not (cand_x & xs or cand_y & ys):
                    products.append((cand_x, cand_y))
            steps = [(-1, y) for y in members(add_y)] + [(x, -1) for x in members(add_x)]
            steps += dict.fromkeys((x, y) for cand_x, cand_y in products
                                   for x in members(cand_x & ~add_x)
                                   for y in members(cand_y & ~add_y))
            best = 0
            if steps:
                if depth + 1 > cap:
                    raise _PairKeyedCapReached
                bound = g.nx + g.ny - xs.bit_count() - ys.bit_count()
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
                    best = max(best, 1 + further(nxs, nys, nx_all, nx_any, ny_all,
                                                 ny_any, depth + 1))
                    if best == bound:
                        break
            memo[xs, ys] = best
        if depth + best > cap:
            raise _PairKeyedCapReached
        return best

    try:
        return further(0, 0, full_x, 0, full_y, 0, 0)
    except _PairKeyedCapReached:
        return cap + 1


def test_qch_matches_the_pair_keyed_search_at_every_cap():
    rng = rng_for(28, "qch-parity")
    sizes = [(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(24)]
    sizes += [(8, 8)] * 4 + [(10, 6), (6, 10)] * 2
    for nx, ny in sizes:
        g = random_bipartite(nx, ny, 0.2 + 0.6 * rng.random(), seed=rng.randrange(1 << 30))
        for cap in range(nx + ny + 1):
            assert quasi_chain_number(g, cap=cap) == pair_keyed_quasi_chain_number(g, cap), \
                (g.rows_x, cap)


def test_qch_on_large_sides_needs_no_table_over_subsets():
    # a 30 x 30 bigraph: any table sized 2^30 would not fit in the time
    g = random_bipartite(30, 30, 0.5, seed=28)
    start = time.perf_counter()
    assert quasi_chain_number(g, cap=3) == 4
    assert time.perf_counter() - start < 1.0


def test_qch_releases_its_memo_on_return():
    # `further` is a recursive closure, so its memo would stay reachable
    # through a reference cycle until a full collection.  Without the
    # collector, what a call leaves allocated must be a small part of its
    # peak, on the plain path (cap 64) and on the capped one (cap 8).
    # Each call is made twice, so tuple free lists are warm before the
    # measured call.
    g = random_bipartite(10, 10, 0.4, seed=2)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for cap, want in ((64, 9), (8, 9)):
            quasi_chain_number(g, cap=cap)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert quasi_chain_number(g, cap=cap) == want
            left, peak = tracemalloc.get_traced_memory()
            assert left - before < (peak - before) / 4, (cap, left - before, peak - before)
    finally:
        tracemalloc.stop()
        gc.enable()


def scan_peel_order(g: Graph) -> tuple[list[int], int]:
    """Reference: scan every live vertex for the minimum (degree, id)."""
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    order = []
    degeneracy = 0
    for _ in range(g.n):
        v = min((x for x in range(g.n) if alive[x]), key=lambda x: (deg[x], x))
        degeneracy = max(degeneracy, deg[v])
        alive[v] = False
        order.append(v)
        for w in g.neighbors(v):
            if alive[w]:
                deg[w] -= 1
    return order, degeneracy


def test_peel_order_matches_scan():
    rng = rng_for(11, "peel")
    graphs = [edgeless(0), edgeless(5), complete(7), random_kdegenerate(300, 2, seed=1)]
    for _ in range(120):
        n = rng.randrange(1, 60)
        graphs.append(random_graph(n, rng.random(), seed=rng.randrange(1 << 30)))
    for g in graphs:
        assert peel_order(g) == scan_peel_order(g)
    # bench-scale inputs; the interval graphs have degeneracy 31 and 47, so
    # the bucket pointer climbs and falls back across many buckets
    graphs = [random_forest(705, seed=1), random_kdegenerate(400, 3, seed=4),
              edgeless(0), edgeless(1), path(2), path(300),
              Graph(40, [(0, v) for v in range(1, 40)]),
              Graph(40, [(v, 39) for v in range(39)]),
              equivalence_graph([45, 30, 1, 12]),
              interval_graph_from(random_intervals(150, seed=1)),
              interval_graph_from(random_intervals(200, seed=2))]
    for g in graphs:
        assert peel_order(g) == scan_peel_order(g)
        assert forest_partition(g).tolist() == slot_loop_parents(g)
    assert [peel_order(g)[1] for g in graphs[-2:]] == [31, 47]


def slot_loop_parents(g: Graph) -> list[list[int]]:
    """Reference: each vertex, in peel order, takes its later neighbours
    by id as its parents in forests 0, 1, ...; row v of the (n, degeneracy)
    table, -1 where v has no parent."""
    order, alpha = scan_peel_order(g)
    pos = {v: i for i, v in enumerate(order)}
    parents = [[-1] * alpha for _ in range(g.n)]
    for v in order:
        later = sorted(w for w in g.neighbors(v) if pos[w] > pos[v])
        for slot, w in enumerate(later):
            parents[v][slot] = w
    return parents


def test_forest_slots_match_the_slot_loop():
    rng = rng_for(12, "slots")
    graphs = [edgeless(0), edgeless(1), edgeless(6), complete(5),
              Graph(9, [(0, v) for v in range(1, 9)]), random_kdegenerate(300, 2, seed=1)]
    for _ in range(120):
        n = rng.randrange(2, 60)
        graphs.append(random_graph(n, rng.random() ** 2, seed=rng.randrange(1 << 30)))
    for g in graphs:
        want = slot_loop_parents(g)
        assert forest_partition(g).tolist() == want
        # the Bloom sketch pads a forest-free graph to one column of -1
        padded = [row or [-1] for row in want]
        assert arboricity_sketch(g)._parent_ids.tolist() == padded
