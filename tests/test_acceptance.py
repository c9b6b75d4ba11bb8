"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Statistical checks use fixed seeds so the suite is reproducible.
"""

import itertools
import math

import numpy as np

from pugkit import bipartite, generators, geometric, products, protocols, structure
from pugkit.combinators import (
    add_vertices_scheme,
    apply_part_flips,
    complementation_scheme,
    twin_reduce_scheme,
)
from pugkit.graphs import ColoredBipartiteGraph, Graph, bip_transform, induced_subgraph
from pugkit.labels import SchemeError
from pugkit.rng import derive_seed, rng_for
from pugkit.sketch import (
    arboricity_scheme,
    arboricity_sketch,
    boost,
    boost_copies,
    boost_exact,
    compress_equality_scheme,
    count_errors,
    evaluate_error,
)
from tests.per_pair import code_hash

SEED = 20260810


def report(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _tp_scheme_for_chain_graph(g: ColoredBipartiteGraph):
    # a chain graph is one-sided T_1-free; q = min side + 1 certifies
    # H_q-freeness for this fixed graph
    q = min(g.nx, g.ny) + 1
    return bipartite.tp_free_labels(g, p=1, q=q)


def _family_instances(family: str, count: int, seed: int):
    out = []
    for i in range(count):
        s = derive_seed(seed, family, i)
        if family == "forests":
            g = generators.random_forest(20 + i % 10, seed=s)
            out.append((g, arboricity_scheme(g)))
        elif family == "equivalence":
            g = generators.random_equivalence(18 + i % 8, 5, seed=s)
            out.append((g, bipartite.equivalence_labels(g)))
        else:  # chain graphs
            cg = generators.random_chain_graph(6 + i % 4, 8 + i % 5, seed=s)
            out.append((cg.to_graph(), _tp_scheme_for_chain_graph(cg)))
    return out


def test_criterion_1_compression_bound():
    """Compressed schemes: error <= 1/3 + 0.02 at 1e5 trials; one-sided."""
    total_budget = 100_000
    families = ("forests", "equivalence", "chain")
    details = []
    for family in families:
        pairs = _family_instances(family, 20, SEED)
        comps = [(g, compress_equality_scheme(sch)) for g, sch in pairs]
        per_graph = total_budget // len(comps)
        errors = trials = 0
        for gi, (g, comp) in enumerate(comps):
            rep = evaluate_error(comp, g, trials=per_graph,
                                 seed=derive_seed(SEED, "c1", family, gi))
            errors += rep.overall.errors
            trials += rep.overall.trials
        rate = errors / trials
        assert trials >= total_budget - len(comps)
        details.append(f"{family}={rate:.4f}")
        assert rate <= 1 / 3 + 0.02, (family, rate)
    # one-sided: true equalities never flip after hashing
    g, sch = _family_instances("forests", 1, SEED + 1)[0]
    comp = compress_equality_scheme(sch)
    rng = rng_for(SEED, "c1-onesided")
    for _ in range(300):
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        if u == v:
            continue
        s = rng.randrange(1 << 30)
        cu, cv = sch.codes[u], sch.codes[v]
        hu = [code_hash(comp, sch, s, c) for c in cu]
        hv = [code_hash(comp, sch, s, c) for c in cv]
        for i in range(len(hu)):
            for j in range(len(hv)):
                if cu[i] == cv[j]:
                    assert hu[i] == hv[j]
    report(1, True, "compressed error <= 1/3+0.02 on " + ", ".join(details)
           + "; one-sided property exact")


def test_criterion_2_boosting():
    """copies = ceil(3 ln(1/delta)); measured error <= delta + 3 CI."""
    assert boost_copies(0.1) == math.ceil(3 * math.log(10)) == 7
    assert boost_copies(0.01) == math.ceil(3 * math.log(100)) == 14
    g = generators.random_forest(24, seed=derive_seed(SEED, "c2"))
    base = compress_equality_scheme(arboricity_scheme(g))
    details = []
    for delta, trials in ((0.1, 20000), (0.01, 20000)):
        boosted = boost(base, delta)
        assert boosted.copies == boost_copies(delta)
        rep = evaluate_error(boosted, g, trials=trials,
                             seed=derive_seed(SEED, "c2", repr(delta)))
        lo, hi = rep.overall.wilson()
        half = hi - rep.overall.rate
        ok = rep.overall.rate <= delta + 3 * half
        details.append(f"delta={delta}: copies={boosted.copies} "
                       f"measured={rep.overall.rate:.4f}")
        assert ok, details[-1]
    report(2, True, "; ".join(details))


def test_criterion_3_derandomization():
    """First-try fully-correct rate >= (1 - 1/n) - 0.05 at n=100."""
    n, runs = 100, 200
    g = generators.random_forest(n, seed=derive_seed(SEED, "c3-graph"))
    sk = arboricity_sketch(g)
    boosted = boost_exact(sk, 1 / n**3)
    successes = 0
    for run in range(runs):
        labels = boosted.encode(derive_seed(SEED, "c3", run))
        successes += count_errors(boosted, labels, g) == 0
    frac = successes / runs
    ok = frac >= (1 - 1 / n) - 0.05
    report(3, ok, f"first-try success {frac:.3f} over {runs} runs "
                  f"(copies={boosted.copies}, need >= {1 - 1 / n - 0.05:.2f})")


def test_criterion_4_arboricity_sketch():
    """Adjacent error exactly 0; overall <= 1/3 + 0.02; width bound."""
    details = []
    for alpha in (1, 2, 3):
        if alpha == 1:
            g = generators.random_forest(40, seed=derive_seed(SEED, "c4", alpha))
        else:
            g = generators.random_kdegenerate(40, alpha,
                                              seed=derive_seed(SEED, "c4", alpha))
        sk = arboricity_sketch(g)
        assert sk.alpha == alpha, (alpha, sk.alpha)
        budget = 100_000 // 3
        rep_adj = evaluate_error(sk, g, trials=budget, pairs="adjacent",
                                 seed=derive_seed(SEED, "c4adj", alpha))
        assert rep_adj.adjacent.errors == 0, f"alpha={alpha}"
        rep_all = evaluate_error(sk, g, trials=budget,
                                 seed=derive_seed(SEED, "c4all", alpha))
        assert rep_all.overall.rate <= 1 / 3 + 0.02
        limit = 6 * alpha + math.ceil(math.log2(6 * alpha)) + 8
        assert sk.width <= limit
        details.append(f"alpha={alpha}: width={sk.width}<={limit} "
                       f"overall={rep_all.overall.rate:.3f}")
    report(4, True, "; ".join(details))


def _check_scheme(scheme, g) -> bool:
    if isinstance(g, ColoredBipartiteGraph):
        n = g.nx + g.ny
        for u in range(n):
            for v in range(u + 1, n):
                expect = int(u < g.nx <= v and g.has_edge(u, v - g.nx))
                if scheme.decode(u, v) != expect:
                    return False
        return True
    return scheme.check_exact(g.has_edge)


def test_criterion_5_exact_schemes():
    """Zero-error exhaustive checks, >= 50 generated instances per scheme."""
    counts = {}

    def batch(name, instances):
        n = 0
        for g, scheme in instances:
            assert _check_scheme(scheme, g), name
            n += 1
        counts[name] = n
        assert n >= 50, (name, n)

    def tp_instances():
        for i in range(50):
            g = generators.random_tp_free(8 + i % 5, 10 + i % 7, 2,
                                          seed=derive_seed(SEED, "c5tp", i))
            yield g, bipartite.tp_free_labels(g, p=2, q=4)

    def fpp_instances():
        for i in range(50):
            blocks = 2 + i % 3
            g = generators.random_fpp_free(blocks, 4, 5, 2,
                                           seed=derive_seed(SEED, "c5fpp", i))
            tree = bipartite.fpp_decomposition(g, 2, 3)
            assert tree.depth() <= 2 * 3  # depth <= 2q verified
            yield g, bipartite.fpp_labels(g, p=2, q=3)

    def fstar_instances():
        made = 0
        i = 0
        while made < 50:
            g = generators.random_fpp_free(2, 4, 4, 2,
                                           seed=derive_seed(SEED, "c5fs", i))
            i += 1
            part = bipartite.find_allen_partition(g, p=2, exhaustive_limit=8)
            if part is None:
                continue
            made += 1
            yield g, bipartite.fstar_labels(g, p=2, q=3, partition=part)

    def permutation_instances():
        made = 0
        i = 0
        while made < 50:
            pts = geometric.random_points(14 + i % 6,
                                          seed=derive_seed(SEED, "c5perm", i))
            i += 1
            g = geometric.permutation_graph_from(pts)
            k = max(structure.chain_number(g, cap=6).value, 1)
            yield g, geometric.permutation_labels(g, pts, k=k)
            made += 1

    def interval_instances():
        made = 0
        i = 0
        while made < 50:
            iv = geometric.random_intervals(16 + i % 8,
                                            seed=derive_seed(SEED, "c5iv", i))
            i += 1
            g = geometric.interval_graph_from(iv)
            k = max(structure.chain_number(g, cap=6).value, 1)
            try:
                scheme = geometric.interval_scheme(g, iv, k=k)
            except SchemeError:
                continue
            made += 1
            yield g, scheme

    def chain_instances():
        for i in range(50):
            cg = generators.random_chain_graph(7 + i % 5, 9 + i % 6,
                                               seed=derive_seed(SEED, "c5ch", i))
            yield cg, bipartite.chain_graph_labels(cg, k=max(cg.nx, cg.ny))

    def equivalence_instances():
        for i in range(48):
            g = generators.random_equivalence(16 + i % 10, 4,
                                              seed=derive_seed(SEED, "c5eq", i))
            yield g, bipartite.equivalence_labels(g)
        big = generators.random_equivalence(300, 24, seed=derive_seed(SEED, "c5eqbig", 0))
        yield big, bipartite.equivalence_labels(big)
        bb = generators.bipartite_equivalence_graph([(10, 10)] * 8)
        yield bb, bipartite.bipartite_equivalence_labels(bb)

    def combinator_instances():
        rng = rng_for(SEED, "c5comb")
        for i in range(50):
            g = generators.random_forest(16, seed=derive_seed(SEED, "c5cb", i))
            kind = i % 3
            if kind == 0:
                rest = list(range(2, g.n))
                sub, _ = induced_subgraph(g, rest)
                yield g, add_vertices_scheme(g, [0, 1], arboricity_scheme(sub), rest)
            elif kind == 1:
                parts = [list(range(0, 8)), list(range(8, 16))]
                flips = [[1, 0], [0, 1]]
                target = apply_part_flips(g, parts, flips)
                yield target, complementation_scheme(arboricity_scheme(g), parts, flips)
            else:
                edges = list(g.edges())
                twin_of = rng.randrange(g.n)
                dup = g.n
                edges += [(dup, w) for w in g.neighbors(twin_of)] + [(dup, twin_of)]
                gg = Graph(g.n + 1, edges)
                scheme, _ = twin_reduce_scheme(
                    gg, "true", lambda q, remap: arboricity_scheme(q))
                yield gg, scheme

    batch("tp-free", tp_instances())
    batch("fpp-free", fpp_instances())
    batch("fstar", fstar_instances())
    batch("permutation", permutation_instances())
    batch("interval", interval_instances())
    batch("chain-graph", chain_instances())
    batch("equivalence", equivalence_instances())
    batch("combinators", combinator_instances())
    report(5, True, "exact decode on " + ", ".join(
        f"{k}:{v}" for k, v in counts.items()))


def _bipartite_classes(a: int, b: int) -> list[int]:
    """Representative masks of all a-by-b bipartite graphs up to row and
    column permutations (vectorized canonical forms).

    Row i of a mask is its b-bit nibble at bit i * b.  Under a fixed column
    permutation, the least mask over row permutations puts the largest
    nibble at row 0 and the smallest at row a - 1, so only column
    permutations are enumerated and each mask's nibbles are sorted."""
    masks = np.arange(1 << (a * b), dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(a * b)[None, :]) & 1).reshape(-1, a, b)
    col_weights = 1 << np.arange(b, dtype=np.int64)
    row_shifts = b * np.arange(a, dtype=np.int64)
    canon = masks.copy()
    for cp in itertools.permutations(range(b)):
        nibbles = (bits[:, :, list(cp)] * col_weights).sum(axis=2)
        nibbles = -np.sort(-nibbles, axis=1)
        np.minimum(canon, (nibbles << row_shifts).sum(axis=1), out=canon)
    return [int(m) for m in np.unique(canon)]


def _bipartite_classes_by_all_permutations(a: int, b: int) -> list[int]:
    """Reference: the least mask over every row and column permutation."""
    total = 1 << (a * b)
    masks = np.arange(total, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(a * b)[None, :]) & 1
    weights = 1 << np.arange(a * b, dtype=np.int64)
    canon = masks.copy()
    for rp in itertools.permutations(range(a)):
        for cp in itertools.permutations(range(b)):
            idx = np.array([rp[i] * b + cp[j] for i in range(a) for j in range(b)])
            packed = (bits[:, idx] * weights[None, :]).sum(axis=1)
            np.minimum(canon, packed, out=canon)
    return [int(m) for m in np.unique(canon)]


def test_bipartite_classes_match_every_permutation():
    sizes = [(a, b) for b in range(1, 4) for a in range(1, b + 1)] + [(3, 4)]
    for a, b in sizes:
        assert _bipartite_classes(a, b) == _bipartite_classes_by_all_permutations(a, b), (a, b)


def _all_bipartite_sandwich(nx_max: int, ny_max: int):
    """Exhaustive sandwich check over all bipartite graphs up to the given
    side sizes (one representative per isomorphism class)."""
    checked = 0
    for a in range(1, nx_max + 1):
        for b in range(a, ny_max + 1):  # (a,b) and (b,a) are mirror images
            for mask in _bipartite_classes(a, b):
                edges = [(i, j) for i in range(a) for j in range(b)
                         if mask >> (i * b + j) & 1]
                g = ColoredBipartiteGraph(a, b, edges)
                ch = structure.chain_number(g.to_graph(), cap=min(a, b)).value
                qch = structure.quasi_chain_number(g, cap=4 * ch + 4)
                assert ch <= qch <= 4 * ch + 4, (a, b, mask, ch, qch)
                checked += 1
    return checked


def test_criterion_6_chain_number_oracle():
    """Generators hit k; monotone under induced subgraphs; qch sandwich."""
    for k in range(1, 7):
        for gen in (generators.half_graph, generators.co_half_graph,
                    generators.threshold_graph):
            res = structure.chain_number(gen(k), cap=k)
            assert res.exact and res.value == k, (gen.__name__, k, res.value)
    rng = rng_for(SEED, "c6")
    for trial in range(1000):
        g = generators.random_graph(11, 0.2 + 0.5 * (trial % 5) / 5,
                                    seed=derive_seed(SEED, "c6g", trial))
        vs = [v for v in range(g.n) if rng.random() < 0.6]
        sub, _ = induced_subgraph(g, vs)
        assert (structure.chain_number(sub, cap=3).value
                <= structure.chain_number(g, cap=3).value)
    exhaustive = _all_bipartite_sandwich(4, 4)
    sampled = 0
    for trial in range(300):
        a = 4 + trial % 7
        b = 4 + (trial * 3) % 7
        g = generators.random_bipartite(a, b, 0.2 + (trial % 4) * 0.2,
                                        seed=derive_seed(SEED, "c6s", trial))
        ch = structure.chain_number(g.to_graph(), cap=5).value
        qch = structure.quasi_chain_number(g, cap=4 * ch + 4)
        assert ch <= qch <= 4 * ch + 4
        sampled += 1
    report(6, True, f"generators k<=6 exact; 1000 monotone pairs; sandwich on "
                    f"{exhaustive} exhaustive + {sampled} sampled bigraphs")


def test_criterion_7_product_distance_sketch():
    """Per-pair success >= 2/3 on hypercubes and P3 powers, k in 1..3."""
    p2, p3 = generators.path(2), generators.path(3)
    p3_dist = [p3.bfs_distances(s) for s in range(3)]
    configs = [("Q10", [p2] * 10, 10), ("P3^6", [p3] * 6, 6)]
    details = []
    for name, factors, d in configs:
        fam = [factors[0]]
        for k in (1, 2, 3):
            base = products.FiniteFamilyDistanceSketch(fam, k=k)
            sk = products.ProductDistanceSketch(factors, base, k=k)
            assert sk.width == sk.m * sk.t * (base.width + 1)
            assert sk.m >= 9 * k * k and sk.t >= 9 * k
            assert sk.m * sk.t >= 27 * (k + 1) ** 2
            rng = rng_for(SEED, "c7", name, k)
            good = total = 0
            encodings = 20
            pairs_per = 10_000 // encodings
            for enc in range(encodings):
                labels = sk.encode(derive_seed(SEED, "c7e", name, k, enc))
                us, vs, wants = [], [], []
                for _ in range(pairs_per):
                    u = rng.randrange(sk.n)
                    v = rng.randrange(sk.n)
                    cu, cv = np.unravel_index(u, sk.dims), np.unravel_index(v, sk.dims)
                    if name == "Q10":
                        dist = sum(a != b for a, b in zip(cu, cv))
                    else:
                        dist = sum(p3_dist[a][b] for a, b in zip(cu, cv))
                    us.append(u)
                    vs.append(v)
                    wants.append(dist if dist <= k else products.BOTTOM)
                # the encoding's pairs decoded in one bulk call
                good += int(np.count_nonzero(sk.decode_pairs(labels, us, vs) == wants))
                total += pairs_per
            rate = good / total
            assert rate >= 2 / 3, (name, k, rate)
            details.append(f"{name},k={k}:{rate:.3f}")
    report(7, True, "success " + "; ".join(details))


def test_criterion_8_spread():
    """hamming_spread_check estimate < delta on 20 parameter triples."""
    rng = rng_for(SEED, "c8")
    done = 0
    tried = []
    while done < 20:
        k = rng.randrange(0, 4)
        delta = [1 / 3, 0.25, 0.5][rng.randrange(3)]
        n = k + 1 + rng.randrange(1, 12)
        u = math.ceil(9 * (k + 1) ** 2 / delta) + rng.randrange(0, 50)
        est = products.hamming_spread_check(u, n, k, delta, trials=2500,
                                            seed=derive_seed(SEED, "c8t", done))
        assert est < delta, (u, n, k, delta, est)
        tried.append((u, n, k, delta))
        done += 1
    report(8, True, f"20 parameter triples all below delta (last={tried[-1]})")


def test_criterion_9_protocol_roundtrips():
    """labels -> protocol -> diagonal labels decode bip(g) exactly."""
    checked = 0
    for i in range(30):
        s = derive_seed(SEED, "c9", i)
        kind = i % 3
        if kind == 0:
            g = generators.random_forest(10 + i % 12, seed=s)
            scheme = arboricity_scheme(g)
        elif kind == 1:
            g = generators.random_equivalence(10 + i % 10, 4, seed=s)
            scheme = bipartite.equivalence_labels(g)
        else:
            g = generators.random_kdegenerate(10 + i % 8, 2, seed=s)
            scheme = arboricity_scheme(g)
        assert g.n <= 32
        tree = protocols.labels_to_protocol(scheme)
        table_before = protocols.output_table(tree, g.n)
        norm = protocols.normalize_to_equality_nodes(tree)
        assert protocols.output_table(norm, g.n) == table_before
        diag = protocols.protocol_to_diagonal_labels(tree, g)
        bg = bip_transform(g)
        for u in range(2 * g.n):
            for v in range(2 * g.n):
                if u == v:
                    continue
                if u < g.n <= v:
                    expect = int(bg.has_edge(u, v - g.n))
                elif v < g.n <= u:
                    expect = int(bg.has_edge(v, u - g.n))
                else:
                    expect = 0
                assert diag.decode(u, v) == expect
        checked += 1
    report(9, True, f"{checked} graphs: protocol round-trip exact, "
                    "normalize preserves tables")


def _graph_classes(n: int) -> list[int]:
    """Representative edge masks of all n-vertex graphs up to isomorphism."""
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return [0]
    pos = {p: i for i, p in enumerate(pairs)}
    total = 1 << len(pairs)
    masks = np.arange(total, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(len(pairs))[None, :]) & 1
    weights = 1 << np.arange(len(pairs), dtype=np.int64)
    canon = masks.copy()
    for perm in itertools.permutations(range(n)):
        idx = np.array([pos[tuple(sorted((perm[u], perm[v])))] for u, v in pairs])
        packed = (bits[:, idx] * weights[None, :]).sum(axis=1)
        np.minimum(canon, packed, out=canon)
    return [int(m) for m in np.unique(canon)]


def test_criterion_10_twinwidth():
    from pugkit import twinwidth as tw
    from tests.test_twinwidth import id_split_sequence, make_two_level_instance

    for n in (8, 32, 64):
        for g in (generators.complete(n), generators.edgeless(n)):
            assert tw.verify_width(g, id_split_sequence(n)) == 0
    # exhaustive tww == verified width of the optimal witness, all graphs
    # with n <= 6 up to isomorphism
    checked = 0
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in _graph_classes(n):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph(n, edges)
            width, witness = tw.twin_width_exact(g)
            assert tw.verify_width(g, witness) == width
            checked += 1
    # certificate-driven labels on constructed instances
    instances = 0
    for seed in range(10):
        g, cert = make_two_level_instance(seed)
        ok, _ = tw.verify_certificate(g, cert)
        assert ok
        sch = tw.tw_labels(g, tw.CertTree(cert=cert))
        assert _check_scheme(sch, g)
        instances += 1
    report(10, True, f"verify_width 0 on K_n/edgeless; tww==witness width on "
                     f"{checked} iso-classes n<=6; {instances} certificate instances exact")


def test_criterion_11_geometric_structure():
    from pugkit.bipartite import is_chain_graph
    from pugkit.geometric import _cross_bigraph

    rng = rng_for(SEED, "c11")
    slices = 0
    for trial in range(1000):
        n = 8 + trial % 6
        pts = geometric.random_points(n, seed=derive_seed(SEED, "c11p", trial))
        g = geometric.permutation_graph_from(pts)
        axis = rng.randrange(2)
        t = rng.randrange(1, n)
        lo = [v for v in range(n) if pts[v][axis] < t - 0.5]
        hi = [v for v in range(n) if pts[v][axis] > t - 0.5]
        if lo and hi:
            assert is_chain_graph(_cross_bigraph(g, lo, hi)), trial
        slices += 1
    intervals = 0
    trial = 0
    while intervals < 200:
        iv = geometric.random_intervals(14 + trial % 10,
                                        seed=derive_seed(SEED, "c11iv", trial))
        trial += 1
        g = geometric.interval_graph_from(iv)
        tp = structure.twin_partition(g, "true")
        reps = sorted({tp.representative[v] for v in range(g.n)})
        sub, _ = induced_subgraph(g, reps)
        sub_iv = [iv[r] for r in reps]
        c = structure.interval_clique_number(sub_iv)
        bound = math.floor(math.sqrt(c) / 2)
        if bound >= 1:
            got = structure.chain_number(sub, cap=bound)
            assert got.value >= bound, (trial, c, bound, got.value)
        intervals += 1
    report(11, True, f"{slices} axis slices chain; {intervals} twin-free "
                     "interval instances meet the clique-vs-chain bound")
