import itertools

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
    adjacency_from_distance1,
    default_product_params,
    hamming_spread_check,
    majority_vote,
    product_distance_encoder,
)
from pugkit.rng import counter_hash, rng_for
from pugkit.sketch import (
    _TAG_GRID_ROW,
    _TAG_GRID_SLOT,
    derandomize,
    exact_majority_copies,
    majority_failure,
    parse_sketch_file,
    to_bits,
    write_sketch_file,
)


def _old_vote(outs, copies):
    """The dict-and-tie-break vote `majority_vote` replaced: the most
    frequent output, BOTTOM on a count tie, unless no output has a strict
    majority while the copies disagree."""
    votes: dict[int, int] = {}
    for out in outs:
        votes[out] = votes.get(out, 0) + 1
    best = max(votes.items(), key=lambda kv: (kv[1], kv[0] == BOTTOM))
    if 2 * best[1] <= copies and len(votes) > 1:
        return BOTTOM
    return best[0]


def _ids(bits):
    return int(sum(int(b) << i for i, b in enumerate(bits)))


def _base_reference(base, x, y):
    """Per-pair decode of two base labels in bit form: the fields read as
    ints, BFS on the family graph, copies voted one by one."""
    if isinstance(base, BoostedDistanceSketch):
        w = base.base.width
        return _old_vote([_base_reference(base.base, x[i * w:(i + 1) * w], y[i * w:(i + 1) * w])
                          for i in range(base.copies)], base.copies)
    gb = base.gid_bits
    gx, gy, u, v = _ids(x[:gb]), _ids(y[:gb]), _ids(x[gb:]), _ids(y[gb:])
    if gx != gy or gx >= len(base.family) or max(u, v) >= base.family[gx].n:
        return BOTTOM
    d = base.family[gx].bfs_distances(u)[v]
    return d if 0 <= d <= base.k else BOTTOM


def _raw_reference(sk, wx, wy):
    """The per-pair grid decoder that `decode_raw_pairs` vectorises."""
    z = (wx ^ wy).reshape(sk.m, sk.t, sk.base.width + 1)
    parity = z[..., 0].astype(bool)
    per_row = parity.sum(axis=1)
    if np.any((per_row != 0) & (per_row != 2)) or int(per_row.sum()) > 2 * sk.k:
        return BOTTOM
    total = 0
    for row in np.nonzero(per_row == 2)[0]:
        c1, c2 = np.nonzero(parity[row])[0]
        d = _base_reference(sk.base, z[row, c1, 1:], z[row, c2, 1:])
        if d == BOTTOM:
            return BOTTOM
        total += d
    return total


def test_boosted_distance_sketch_copy_layout():
    base = FiniteFamilyDistanceSketch([path(5)], k=2)
    assert BoostedDistanceSketch(base, 0.01).copies == 1  # zero error: nothing to boost
    base.delta = 0.2  # as if randomized, so the boost keeps several copies
    b = BoostedDistanceSketch(base, 0.01)
    assert b.copies > 1 and b.width == b.copies * base.width
    labels, plain = b.encode_factor_bits(0, [3])[0], base.encode_factor_bits(0, [0])[0]
    assert labels.shape == (5, b.width)
    for v, bits in enumerate(labels):
        assert (bits.reshape(b.copies, base.width) == plain[v]).all()
    u, v = np.divmod(np.arange(25), 5)
    assert (b.decode_values(labels[u], labels[v]) == base.decode_values(plain[u], plain[v])).all()


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


def test_majority_vote_is_the_old_dict_rule():
    # every vote vector over {BOTTOM, 0..k} with 1..6 copies, k in 1..2
    checked = 0
    for k in (1, 2):
        for copies in range(1, 7):
            votes = np.array(list(itertools.product(range(-1, k + 1), repeat=copies)))
            want = [_old_vote(row, copies) for row in votes.tolist()]
            assert majority_vote(votes).tolist() == want
            checked += len(votes)
    assert checked == 6552


def test_finite_family_base():
    base = FiniteFamilyDistanceSketch([path(3), path(5)], k=2)
    assert base.delta == 0
    l0 = base.encode_factor_bits(0, [1])[0]
    assert base.decode_values(l0[0], l0[2]) == 2
    assert base.decode_values(l0[0], l0[0]) == 0
    l1 = base.encode_factor_bits(1, [1])[0]
    assert base.decode_values(l1[0], l1[4]) == BOTTOM  # dist 4 > 2
    assert base.decode_values(l0[0], l1[0]) == BOTTOM  # different graphs


def test_ids_past_the_family_decode_bottom():
    # XOR garbage in a grid cell can read any field value; ids past the
    # family or past a graph's vertices decode BOTTOM, never an IndexError
    base = FiniteFamilyDistanceSketch([path(3), path(2), cycle(5)], k=2)
    assert (base.gid_bits, base.vid_bits) == (2, 3)

    def label(gid, vid):
        return to_bits([gid | vid << base.gid_bits], base.width)[0]

    for gid, u, v in [(3, 0, 1), (1, 0, 2), (1, 7, 0), (0, 3, 3), (2, 5, 7), (3, 7, 7)]:
        assert base.decode_values(label(gid, u), label(gid, v)) == BOTTOM
    assert base.decode_values(label(2, 0), label(2, 2)) == 2
    # a product pair whose one paired bucket row holds such an id
    sk = ProductDistanceSketch([path(3)] * 2, FiniteFamilyDistanceSketch([path(3)], k=1), k=1)
    cw = sk.base.width + 1
    rows = np.zeros((2, sk.width), dtype=np.uint8)
    rows[0, :cw] = [1, 0, 0]  # vertex 0
    rows[1, cw:2 * cw] = [1, 1, 1]  # vertex 3 of P3
    assert sk.decode_raw_pairs(rows, [0], [1])[0] == BOTTOM
    assert _raw_reference(sk, rows[0], rows[1]) == BOTTOM


def test_decode_raw_pairs_matches_the_per_pair_reference():
    rng = np.random.default_rng(5)
    fam = FiniteFamilyDistanceSketch([path(3)], k=2)
    boosted = FiniteFamilyDistanceSketch([path(3)], k=1)
    boosted.delta = 0.2
    for sk in (ProductDistanceSketch([path(3)] * 4, fam, k=2),
               ProductDistanceSketch([path(3)] * 3, boosted, k=1)):
        for seed in range(3):
            labels = sk.encode(seed)
            # and the same labels with random base-label bits flipped, so
            # paired cells read garbage ids
            noise = rng.random(labels.shape) < 0.02
            noise.reshape(len(labels), -1, sk.base.width + 1)[..., 0] = False
            for rows in (labels, labels ^ noise):
                us, vs = rng.integers(0, sk.n, size=(2, 150))
                want = [_raw_reference(sk, rows[u], rows[v]) for u, v in zip(us, vs)]
                assert sk.decode_raw_pairs(rows, us, vs).tolist() == want


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
    cells = labels.reshape(sk.n, sk.m * sk.t, base.width + 1)
    for i in range(sk.n):
        assert int(cells[i].any(axis=1).sum()) == 1


def test_equal_coordinates_cancel():
    base = FiniteFamilyDistanceSketch([path(2)], k=1)
    sk = ProductDistanceSketch([path(2)] * 5, base, k=1)
    labels = sk.encode(seed=3)
    i = np.ravel_multi_index((0, 1, 0, 1, 0), sk.dims)
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
            ui = np.ravel_multi_index(tuple(u >> (d - 1 - i) & 1 for i in range(d)), sk.dims)
            vi = np.ravel_multi_index(tuple(v >> (d - 1 - i) & 1 for i in range(d)), sk.dims)
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
            ui, vi = (np.ravel_multi_index(coords[w], sk.dims) for w in (u, v))
            out = sk.decode(labels[ui], labels[vi])
            good += out == want
            total += 1
    assert good / total >= 2 / 3


def test_raw_decoder_can_exceed_k():
    # with all coords distance <= k, the raw sum may exceed k; the
    # contract view maps it to BOTTOM
    base = FiniteFamilyDistanceSketch([path(2)], k=1)
    sk = ProductDistanceSketch([path(2)] * 4, base, k=1)
    x = np.ravel_multi_index((0, 0, 0, 0), sk.dims)
    y = np.ravel_multi_index((1, 1, 0, 0), sk.dims)
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
    x = np.ravel_multi_index((0,) * d, sk.dims)
    y = np.ravel_multi_index((1,) * d, sk.dims)  # Hamming distance 8 > k
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
    x = (0, 0, 0, 0, 0)
    y = (1, 1, 0, 0, 0)
    diff = [0, 1]
    checked = 0
    for enc in range(60):
        # the encoder's draws: bucket b(i), slot c(i, v)
        b = [int(counter_hash(enc, _TAG_GRID_ROW, i)) % sk.m for i in range(d)]
        c = [[int(counter_hash(enc, _TAG_GRID_SLOT, i, v)) % sk.t for v in range(2)]
             for i in range(d)]
        distinct_b = len({b[i] for i in diff}) == len(diff)
        distinct_c = all(c[i][x[i]] != c[i][y[i]] for i in diff)
        if not (distinct_b and distinct_c):
            continue
        labels = sk.encode(seed=enc)
        xi, yi = (np.ravel_multi_index(w, sk.dims) for w in (x, y))
        out = sk.decode(labels[xi], labels[yi])
        assert out == 2
        checked += 1
    assert checked >= 10


def test_boosted_base_labels_wider_than_a_word_encode_and_decode():
    # 23 copies x 3 bits: 69-bit base labels once overflowed int64 cells
    base = FiniteFamilyDistanceSketch([path(5)], k=2)
    base.delta = 1 / 3
    sk = ProductDistanceSketch([path(5)] * 2, base, k=2)
    assert sk.base.copies == 23 and sk.base.width == 69
    labels = sk.encode(1)
    assert labels.shape == (25, sk.width)
    x, y = np.ravel_multi_index((0, 0), sk.dims), np.ravel_multi_index((1, 0), sk.dims)
    assert sk.decode(labels[x], labels[y]) in (BOTTOM, 0, 1, 2)
    assert sk.decode(labels[x], labels[x]) == 0
    assert sk.decode_raw(labels[x], labels[y]) == _raw_reference(sk, labels[x], labels[y])


@pytest.mark.parametrize("factors", [
    [path(2)] * 3, [path(2)] * 4, [path(3)] * 2, [path(3), cycle(4)]],
    ids=["Q3", "Q4", "P3^2", "P3xC4"])
def test_product_adjacency_derandomizes(factors):
    sk = adjacency_from_distance1(factors)
    g = cartesian_product(factors)[0]
    det = derandomize(sk, g, seed=1)
    assert det.check_exact(g)
    assert det.width == exact_majority_copies(1 / g.n**3, 1 / 3) * sk.width
    labels = list(det.labels)
    assert parse_sketch_file(write_sketch_file(labels, det.width, "prod")) == (labels, det.width)
