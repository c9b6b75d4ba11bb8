import numpy as np
import pytest

from pugkit.generators import cycle, path
from pugkit.graphs import cartesian_product
from pugkit.products import (
    BOTTOM,
    BoostedDistanceSketch,
    FiniteFamilyDistanceSketch,
    ProductAdjacencySketch,
    ProductDistanceSketch,
    default_product_params,
    hamming_spread_check,
    product_distance_encoder,
)
from pugkit.rng import rng_for
from pugkit.sketch import exact_majority_copies, majority_failure, split_copies


def test_boosted_distance_sketch_copy_layout():
    base = FiniteFamilyDistanceSketch([path(5)], k=2)
    assert BoostedDistanceSketch(base, 0.01).copies == 1  # zero error: nothing to boost
    base.delta = 0.2  # as if randomized, so the boost keeps several copies
    b = BoostedDistanceSketch(base, 0.01)
    assert b.copies > 1 and b.width == b.copies * base.width
    labels, plain = b.encode_factor(0, seed=3), base.encode_factor(0, seed=0)
    for v, bits in enumerate(labels):
        assert split_copies(bits, base.width, b.copies) == [plain[v]] * b.copies
    for u in range(5):
        for v in range(5):
            assert b.decode(labels[u], labels[v]) == base.decode(plain[u], plain[v])


def test_boosted_distance_sketch_reports_the_proven_tail():
    base = FiniteFamilyDistanceSketch([path(5)], k=1)
    base.delta = 1 / 3
    b = BoostedDistanceSketch(base, 0.05)
    # the textbook count, 9 copies, has an exact tail of 0.145
    assert b.copies == exact_majority_copies(0.05, 1 / 3) == 23
    assert b.delta == majority_failure(23, 1 / 3) <= 0.05
    for target in (0, 0.5):
        with pytest.raises(ValueError):
            BoostedDistanceSketch(base, target)
    # so the product sketch's premise, base error at most 1/(10k), holds
    for k in (1, 2):
        base.k = k
        prod = ProductDistanceSketch([path(5), path(5)], base, k=k)
        assert isinstance(prod.base, BoostedDistanceSketch)
        assert prod.base.delta <= 1 / (10 * k)


def test_finite_family_base():
    base = FiniteFamilyDistanceSketch([path(3), path(5)], k=2)
    assert base.delta == 0
    l0 = base.encode_factor(0, seed=1)
    assert base.decode(l0[0], l0[2]) == 2
    assert base.decode(l0[0], l0[0]) == 0
    l1 = base.encode_factor(1, seed=1)
    assert base.decode(l1[0], l1[4]) == BOTTOM  # dist 4 > 2


def test_default_params():
    assert default_product_params(2) == (36, 18)
    m1, t1 = default_product_params(1)
    assert m1 >= 9 and t1 >= 9 and m1 * t1 >= 27 * 4
    m3, t3 = default_product_params(3)
    assert m3 == 81 and t3 == 27


def test_param_validation():
    base = FiniteFamilyDistanceSketch([path(2)], k=2)
    with pytest.raises(ValueError):
        ProductDistanceSketch([path(2)] * 3, base, k=2, m=4, t=4)


def test_single_factor_touches_one_cell():
    base = FiniteFamilyDistanceSketch([path(3)], k=2)
    sk, labels = product_distance_encoder([path(3)], base, k=2, seed=5)
    for i in range(sk.n):
        assert int((labels[i] != 0).sum()) == 1


def test_equal_coordinates_cancel():
    base = FiniteFamilyDistanceSketch([path(2)], k=1)
    sk = ProductDistanceSketch([path(2)] * 5, base, k=1)
    labels = sk.encode(seed=3)
    i = sk.index[(0, 1, 0, 1, 0)]
    z = labels[i] ^ labels[i]
    assert not z.any()
    assert sk.decode(labels[i], labels[i]) == 0


def test_label_width():
    base = FiniteFamilyDistanceSketch([path(3)], k=2)
    sk = ProductDistanceSketch([path(3)] * 4, base, k=2)
    assert sk.width == sk.m * sk.t * (base.width + 1)


def test_hypercube_distances():
    d, k = 6, 2
    base = FiniteFamilyDistanceSketch([path(2)], k=k)
    sk = ProductDistanceSketch([path(2)] * d, base, k=k)
    rng = rng_for(4, "pairs")
    good = total = 0
    for enc in range(12):
        labels = sk.encode(seed=enc)
        for _ in range(40):
            u = rng.randrange(sk.n)
            v = rng.randrange(sk.n)
            hd = bin(u ^ v).count("1")  # coords are binary tuples
            ui = sk.index[tuple(u >> (d - 1 - i) & 1 for i in range(d))]
            vi = sk.index[tuple(v >> (d - 1 - i) & 1 for i in range(d))]
            out = sk.decode(labels[ui], labels[vi])
            want = hd if hd <= k else BOTTOM
            good += out == want
            total += 1
    assert good / total >= 2 / 3


def test_p3_power_distances():
    d, k = 3, 3
    g3 = path(3)
    base = FiniteFamilyDistanceSketch([g3], k=k)
    sk = ProductDistanceSketch([g3] * d, base, k=k)
    prod, coords = cartesian_product([g3] * d)
    # oracle distances by BFS
    dist0 = [prod.bfs_distances(s) for s in range(prod.n)]
    rng = rng_for(6, "p3pairs")
    good = total = 0
    for enc in range(10):
        labels = sk.encode(seed=100 + enc)
        for _ in range(50):
            u = rng.randrange(prod.n)
            v = rng.randrange(prod.n)
            want = dist0[u][v] if dist0[u][v] <= k else BOTTOM
            out = sk.decode(labels[sk.index[coords[u]]], labels[sk.index[coords[v]]])
            good += out == want
            total += 1
    assert good / total >= 2 / 3


def test_raw_decoder_can_exceed_k():
    # with all coords distance <= k, the raw sum may exceed k; the
    # contract view maps it to BOTTOM
    base = FiniteFamilyDistanceSketch([path(2)], k=1)
    sk = ProductDistanceSketch([path(2)] * 4, base, k=1)
    x = sk.index[(0, 0, 0, 0)]
    y = sk.index[(1, 1, 0, 0)]
    raws = set()
    for enc in range(40):
        labels = sk.encode(seed=enc)
        raw = sk.decode_raw(labels[x], labels[y])
        raws.add(raw)
        assert sk.decode(labels[x], labels[y]) in (BOTTOM, 0, 1)
    assert 2 in raws or BOTTOM in raws


def test_adjacency_from_distance1():
    sk = ProductAdjacencySketch([path(2)] * 6)
    q6, coords = cartesian_product([path(2)] * 6)
    rng = rng_for(7, "adj")
    good = total = 0
    for enc in range(10):
        labels = sk.encode(seed=enc)
        for _ in range(40):
            u = rng.randrange(q6.n)
            v = rng.randrange(q6.n)
            out = sk.decode(labels[u], labels[v])
            good += out == int(q6.has_edge(u, v))
            total += 1
    assert good / total >= 2 / 3
    labels = sk.encode(seed=0)
    assert sk.decode(labels[3], labels[3]) == 0  # x == y decodes 0


def test_hamming_spread():
    # closed form for n=2: collision probability 1/u
    est = hamming_spread_check(u=108, n=2, k=1, delta=1 / 3, trials=4000, seed=1)
    assert est < 1 / 3
    assert abs(est - 1 / 108) < 0.02
    est2 = hamming_spread_check(u=243, n=10, k=2, delta=1 / 3, trials=3000, seed=2)
    assert est2 < 1 / 3
    with pytest.raises(ValueError):
        hamming_spread_check(u=10, n=5, k=2, delta=1 / 3, trials=10, seed=0)
    with pytest.raises(ValueError):
        hamming_spread_check(u=1000, n=2, k=2, delta=1 / 3, trials=10, seed=0)


def test_far_pairs_report_bottom():
    # >= k+1 differing coordinates: decoder outputs BOTTOM w.p. >= 2/3
    d, k = 8, 2
    base = FiniteFamilyDistanceSketch([path(2)], k=k)
    sk = ProductDistanceSketch([path(2)] * d, base, k=k)
    x = sk.index[(0,) * d]
    y = sk.index[(1,) * d]  # Hamming distance 8 > k
    hits = 0
    trials = 60
    for enc in range(trials):
        labels = sk.encode(seed=enc)
        hits += sk.decode(labels[x], labels[y]) == BOTTOM
    assert hits / trials >= 2 / 3


def test_spread_single_vector():
    # n=1, k=0: a single basis vector has weight 1, so the event is empty
    est = hamming_spread_check(u=27, n=1, k=0, delta=1 / 3, trials=500, seed=3)
    assert est == 0.0


def test_good_events_imply_exact_output():
    # conditioned on the three good events the decoder is deterministic
    d, k = 5, 2
    base = FiniteFamilyDistanceSketch([path(2)], k=k)
    sk = ProductDistanceSketch([path(2)] * d, base, k=k)
    from pugkit.rng import derive_seed

    x = (0, 0, 0, 0, 0)
    y = (1, 1, 0, 0, 0)
    diff = [0, 1]
    checked = 0
    for enc in range(60):
        b = [derive_seed(enc, "bucket", i) % sk.m for i in range(d)]
        c = [[derive_seed(enc, "slot", i, v) % sk.t for v in range(2)] for i in range(d)]
        distinct_b = len({b[i] for i in diff}) == len(diff)
        distinct_c = all(c[i][x[i]] != c[i][y[i]] for i in diff)
        if not (distinct_b and distinct_c):
            continue
        labels = sk.encode(seed=enc)
        out = sk.decode(labels[sk.index[x]], labels[sk.index[y]])
        assert out == 2
        checked += 1
    assert checked >= 10
