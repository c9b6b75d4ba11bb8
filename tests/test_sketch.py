import math
from collections import Counter

import numpy as np
import pytest

from pugkit import bipartite, products, sketch
from pugkit.generators import (
    complete,
    edgeless,
    equivalence_graph,
    path,
    random_forest,
    random_graph,
    random_kdegenerate,
)
from pugkit.labels import EqualityScheme, node
from pugkit.sketch import (
    ArboricitySketch,
    DerandomizationError,
    PackedEqualityScheme,
    SketchScheme,
    arboricity_scheme,
    arboricity_sketch,
    boost,
    boost_copies,
    compress_equality_scheme,
    count_errors,
    derandomize,
    evaluate_error,
    exact_majority_copies,
    export_pug,
    from_bits,
    majority_failure,
    naive_derandomize,
    naive_label_width,
    to_bits,
    wilson_interval,
)
from tests.per_pair import code_hash, reference_decode


class PerPair(SketchScheme):
    """A sketch given by `encode` and `decode` on int labels; its bit form
    encodes seed by seed and decodes pair by pair."""

    def encode_bits(self, seeds):
        return np.stack([to_bits(self.encode(int(seed)), self.width) for seed in seeds])

    def decode_bits(self, bits):
        out = np.zeros((len(bits), self.n, self.n), dtype=np.int8)
        for i, labels in enumerate(map(from_bits, bits)):
            for u in range(self.n):
                for v in range(u + 1, self.n):
                    out[i, u, v] = out[i, v, u] = self.decode(labels[u], labels[v])
        return out


def test_arboricity_scheme_exact_on_trees():
    g = random_forest(40, seed=2)
    sch = arboricity_scheme(g)
    assert sch.k == 2  # self + at most one parent
    assert sch.check_exact(g.has_edge)


def test_arboricity_scheme_exact_on_random():
    for seed in range(5):
        g = random_graph(15, 0.4, seed=seed)
        sch = arboricity_scheme(g)
        assert sch.check_exact(g.has_edge)


def test_compression_alphabet_size():
    g = path(5)
    sch = arboricity_scheme(g)
    comp = compress_equality_scheme(sch)
    assert comp.alphabet == 3 * sch.k * sch.k
    assert comp.alphabet == 12  # k=2 -> 3*4


def test_compression_one_sided():
    # equal codes hash equal: whenever Q(i,j)=1, R(i,j)=1 with probability 1
    g = random_graph(12, 0.35, seed=3)
    sch = arboricity_scheme(g)
    comp = compress_equality_scheme(sch)
    for seed in range(30):
        for u in range(0, 12, 3):
            for v in range(1, 12, 4):
                if u == v:
                    continue
                cu, cv = sch.codes[u], sch.codes[v]
                hu = [code_hash(comp, sch, seed, c) for c in cu]
                hv = [code_hash(comp, sch, seed, c) for c in cv]
                for i in range(len(hu)):
                    for j in range(len(hv)):
                        if cu[i] == cv[j]:
                            assert hu[i] == hv[j]


def test_compressed_decode_matches_when_no_collision():
    g = path(6)
    sch = arboricity_scheme(g)
    comp = compress_equality_scheme(sch)
    labels = comp.encode(seed=11)
    # adjacent pairs always decode 1 (one-sided OR decoder)
    for u, v in g.edges():
        assert comp.decode(labels[u], labels[v]) == 1


def test_compressed_error_rate():
    g = random_forest(30, seed=9)
    comp = compress_equality_scheme(arboricity_scheme(g))
    rep = evaluate_error(comp, g, trials=4000, seed=5)
    assert rep.adjacent.errors == 0
    assert rep.overall.rate <= 1 / 3 + 0.03


def test_boost_copy_counts():
    assert boost_copies(1 / 3) == 1
    assert boost_copies(0.1) == math.ceil(3 * math.log(10)) == 7
    assert boost_copies(0.01) == math.ceil(3 * math.log(100)) == 14
    with pytest.raises(ValueError):
        boost_copies(0.7)


def test_boost_width_and_error():
    g = random_forest(20, seed=1)
    base = arboricity_sketch(g)
    b = boost(base, 0.05)
    assert b.width == boost_copies(0.05) * base.width
    rep = evaluate_error(b, g, trials=3000, seed=2)
    lo, hi = rep.overall.wilson()
    assert rep.overall.rate <= 0.05 + 3 * (hi - rep.overall.rate)


def test_boosted_delta_is_the_proven_majority_tail():
    from pugkit.sketch import majority_failure

    base = arboricity_sketch(random_forest(20, seed=1))
    assert boost(base, 0.05).delta == majority_failure(9, 1 / 3) > 0.05
    assert boost(base, 0.4).delta == base.delta  # one copy: no boost


def test_bloom_sketch_one_sided_and_width():
    for seed in range(3):
        g = random_graph(14, 0.3, seed=seed)
        sk = arboricity_sketch(g)
        assert sk.width == sk.r_bits + 6 * sk.alpha
        labels = sk.encode(seed=seed)
        for u, v in g.edges():
            assert sk.decode(labels[u], labels[v]) == 1


def test_bloom_decode_matrix_matches_scalar():
    g = random_graph(10, 0.4, seed=6)
    sk = arboricity_sketch(g)
    labels = sk.encode(seed=8)
    mat, decode = sk.decode_matrix(labels), reference_decode(sk)
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                assert mat[u][v] == decode(labels[u], labels[v])


def test_derandomize_forest():
    g = random_forest(60, seed=12)
    sk = arboricity_sketch(g)
    det = derandomize(sk, g, seed=3)
    assert det.check_exact(g)
    assert det.attempts <= 5


def _naive_cases():
    """(naive labeling, its graph): an arboricity and an equivalence graph."""
    arb, eq = random_kdegenerate(40, 3, seed=2), equivalence_graph([5, 4, 4, 3, 1])
    return [(naive_derandomize(arboricity_scheme(arb)), arb),
            (naive_derandomize(bipartite.equivalence_labels(eq)), eq)]


def test_derandomize_zero_error_scheme_first_try():
    # the naive labeling's sketch has delta 0 and encodes the same labels
    # under every seed: no boost copy, and the first sample is exact
    for det, g in _naive_cases():
        assert isinstance(det.decoder, PackedEqualityScheme) and det.decoder.delta == 0
        out = derandomize(det.decoder, g, seed=1)
        assert (out.attempts, out.labels, out.width) == (1, det.labels, det.width)


def test_naive_labeling_is_a_zero_error_sketch():
    for det, g in _naive_cases():
        for pairs in ("all", "adjacent", "nonadjacent"):
            rep = evaluate_error(det.decoder, g, trials=2000, seed=3, pairs=pairs)
            assert rep.overall.errors == 0 and rep.overall.trials == 2000
        assert det.decoder.encode(5) == list(det.labels)


def test_derandomize_raises_on_broken_scheme():
    g = complete(6)

    class Broken(PerPair):
        def __init__(self):
            self.n, self.width, self.delta = g.n, 1, 1 / 3

        def encode(self, seed):
            return [0] * self.n

        def decode(self, bx, by):
            return 0  # always wrong on edges

    with pytest.raises(DerandomizationError):
        derandomize(Broken(), g, seed=0, max_retries=3)


def test_naive_derandomize_widths():
    # (s=0,k=1) scheme on n=8 -> 3-bit codes
    labels = [node((), (v,)) for v in range(8)]
    sch = EqualityScheme(labels, lambda sx, sy, eq: int(eq(0, 0)))
    det = naive_derandomize(sch)
    s, k, w = naive_label_width(sch)
    assert (s, k, w) == (0, 1, 3)
    g = equivalence_graph([8])  # all same code? no: codes are distinct ids
    # decode = equality of ids: only reflexive pairs; all pairs decode 0
    for u in range(8):
        for v in range(u + 1, 8):
            assert det.decode(det.labels[u], det.labels[v]) == 0


def test_naive_derandomize_matches_scheme():
    for seed in range(4):
        g = random_graph(14, 0.35, seed=seed)
        sch = arboricity_scheme(g)
        det = naive_derandomize(sch)
        assert det.check_exact(g)
        s, k, w = naive_label_width(sch)
        assert det.width == sch.k * w + (det.width - sch.k * w)  # shape bits on top


def test_evaluate_error_classes():
    g = random_forest(25, seed=7)
    comp = compress_equality_scheme(arboricity_scheme(g))
    rep = evaluate_error(comp, g, trials=2000, seed=4, pairs="adjacent")
    assert rep.adjacent.trials == 2000 and rep.nonadjacent.trials == 0
    assert rep.adjacent.errors == 0
    rep2 = evaluate_error(comp, g, trials=1000, seed=4, pairs="nonadjacent")
    assert rep2.nonadjacent.trials == 1000


def test_wilson_interval():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo2, hi2 = wilson_interval(50, 100)
    assert lo2 < 0.5 < hi2


def test_export_pug():
    g = path(4)
    sk = arboricity_sketch(g)
    if sk.width <= 24:
        pug = export_pug(sk)
        assert pug.num_nodes == 1 << sk.width
        phi = pug.phi(seed=5)
        labels = sk.encode(seed=5)
        assert phi == labels
        # sampled phi preserves each edge with probability 1 here (one-sided)
        for u, v in g.edges():
            assert pug.adjacent(phi[u], phi[v]) == 1

    class Tiny(ArboricitySketch):
        # one-bit labels v % 2, adjacent iff they differ
        def __init__(self, g):
            super().__init__(g)
            self.width = 1

        def encode_bits(self, seeds):
            return np.broadcast_to(np.arange(self.n) % 2, (len(seeds), self.n))[..., None]

        def decode_bits(self, bits):
            return (bits[:, :, None, 0] != bits[:, None, :, 0]).view(np.int8)

    pug2 = export_pug(Tiny(g))
    assert pug2.num_nodes == 2
    assert pug2.phi(seed=0) == [0, 1, 0, 1]
    assert pug2.edge_table() == [[0, 1], [1, 0]]


@pytest.mark.parametrize("kind", ["bloom", "compressed-arboricity", "compressed-equivalence"])
def test_edge_table_equals_the_per_pair_reference(kind):
    # the narrowest Bloom sketch takes 9 bits: a 3-bit bucket, 6 buckets;
    # the compressed schemes have 2 and 1 shapes, so every node parses
    if kind == "bloom":
        sk = arboricity_sketch(path(5))
    elif kind == "compressed-arboricity":
        sk = compress_equality_scheme(arboricity_scheme(path(5)))
    else:
        sk = compress_equality_scheme(bipartite.equivalence_labels(equivalence_graph([2, 3])))
    assert sk.width <= 9
    decode, nodes = reference_decode(sk), range(1 << sk.width)
    assert export_pug(sk).edge_table() == [[decode(a, b) for b in nodes] for a in nodes]


def test_export_pug_width_guard():
    g = random_graph(20, 0.5, seed=2)
    sk = arboricity_sketch(g)
    if sk.width > 24:
        with pytest.raises(ValueError):
            export_pug(sk)


def test_majority_failure_exact():
    from pugkit.sketch import exact_majority_copies, majority_failure

    # brute-force the binomial tail for small cases
    import itertools as it

    for copies, p in ((3, 1 / 3), (5, 1 / 3), (5, 0.2)):
        brute = 0.0
        for outcome in it.product((0, 1), repeat=copies):
            wrong = sum(outcome)
            if 2 * wrong >= copies:
                brute += (p ** wrong) * ((1 - p) ** (copies - wrong))
        assert abs(majority_failure(copies, p) - brute) < 1e-12
    # the exact tail, at the boundary p = 0 and p = 1 and on both sides of
    # p = 1/2, where the sum runs down from the tail's top term
    from fractions import Fraction
    from math import comb

    for p in map(Fraction, ("0", "1/3", "1/2", "3/5", "1")):
        for copies in range(62):
            tail = sum(comb(copies, i) * p**i * (1 - p)**(copies - i)
                       for i in range((copies + 1) // 2, copies + 1))
            assert abs(majority_failure(copies, float(p)) - tail) <= 1e-12 * tail, (copies, p)
    k = exact_majority_copies(1e-3, 1 / 3)
    assert majority_failure(k, 1 / 3) <= 1e-3
    assert k % 2 == 1 and majority_failure(k - 2, 1 / 3) > 1e-3


def test_majority_failure_does_not_underflow():
    from fractions import Fraction
    from math import comb

    def tail(copies, p):
        return sum(comb(copies, i) * p**i * (1 - p)**(copies - i)
                   for i in range((copies + 1) // 2, copies + 1))

    p = Fraction(1, 3)
    for copies in (1, 2, 9, 100, 101, 1_000, 1_001, 1_840, 2_001):
        want = tail(copies, p)
        assert abs(majority_failure(copies, float(p)) - want) <= 1e-9 * want, copies
    assert majority_failure(2_001, 1 / 3) > 0


def test_exact_majority_copies_rejects_a_base_error_of_a_half_or_more():
    for base in (0.5, 0.6, 0.9):
        with pytest.raises(ValueError, match="unreachable boost target"):
            exact_majority_copies(0.1, base)


def test_exact_majority_copies_matches_the_linear_scan():
    # the reference scans the odd counts in order for the first whose
    # majority tail meets the target
    grid = [(1 / n**3, p) for n in range(2, 1500) for p in (1 / 3, 0.3, 0.25, 0.1)]
    grid += [(d / 1000, 1 / 3) for d in range(1, 500)]
    tails = {p: [(k, majority_failure(k, p)) for k in range(1, 401, 2)]
             for p in {p for _, p in grid}}
    for target, p in grid:
        want = 1 if target >= p else next(k for k, tail in tails[p] if tail <= target)
        assert exact_majority_copies(target, p) == want, (target, p)


def test_pug_phi_preserves_pairs():
    g = path(6)
    sk = arboricity_sketch(g)
    pug = export_pug(sk)
    adj_ok = non_ok = 0
    trials = 60
    for s in range(trials):
        phi = pug.phi(seed=s)
        adj_ok += pug.adjacent(phi[0], phi[1]) == 1  # edge, one-sided
        non_ok += pug.adjacent(phi[0], phi[3]) == 0  # non-edge
    assert adj_ok == trials
    assert non_ok / trials >= 2 / 3 - 0.15  # 1 - delta with slack


def test_count_errors_agrees_with_loop():
    g = random_graph(12, 0.4, seed=11)
    sk = arboricity_sketch(g)
    labels, decode = sk.encode(seed=5), reference_decode(sk)
    slow = sum(
        decode(labels[u], labels[v]) != int(g.has_edge(u, v))
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )
    assert count_errors(sk, labels, g) == slow


def test_bloom_wide_alpha_count_errors_and_derandomize():
    # 72 buckets once overflowed the int64 the Bloom filter was packed into
    g = random_kdegenerate(60, 12, seed=1)
    sk = arboricity_sketch(g)
    assert sk.buckets > 63
    labels, decode = sk.encode(seed=2), reference_decode(sk)
    slow = sum(decode(labels[u], labels[v]) != int(g.has_edge(u, v))
               for u in range(g.n) for v in range(u + 1, g.n))
    assert count_errors(sk, labels, g) == slow
    assert derandomize(sk, g, seed=1).check_exact(g)


def test_evaluate_error_rejects_graphs_without_a_pair_to_sample():
    comp = compress_equality_scheme(arboricity_scheme(complete(30)))
    with pytest.raises(ValueError):
        evaluate_error(comp, complete(30), trials=10, seed=1, pairs="nonadjacent")
    assert evaluate_error(comp, complete(30), trials=10, seed=1).adjacent.trials == 10
    for n in (0, 1):
        g = edgeless(n)
        comp = compress_equality_scheme(arboricity_scheme(g))
        for pairs in ("all", "adjacent", "nonadjacent"):
            with pytest.raises(ValueError):
                evaluate_error(comp, g, trials=10, seed=1, pairs=pairs)


class _PairRecorder(SketchScheme):
    """Decodes every trial to 0 and counts the unordered pairs it is given."""

    def __init__(self, n):
        self.n, self.width, self.delta = n, 1, 0.0
        self.seen = Counter()

    def decode_trials(self, us, vs, seeds):
        assert (us != vs).all()
        self.seen.update(zip(np.minimum(us, vs).tolist(), np.maximum(us, vs).tolist()))
        return np.zeros(len(us), dtype=np.int8)


@pytest.mark.parametrize("pairs, allowed", [
    ("all", {(0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (1, 3)}),
    ("adjacent", {(0, 1), (1, 2), (2, 3)}),
    ("nonadjacent", {(0, 2), (0, 3), (1, 3)}),
])
def test_evaluate_error_draws_each_allowed_pair_uniformly(pairs, allowed):
    g, trials = path(4), 6000
    rec = _PairRecorder(g.n)
    rep = evaluate_error(rec, g, trials=trials, seed=9, pairs=pairs)
    assert set(rec.seen) == allowed
    p = 1 / len(allowed)
    sigma = math.sqrt(trials * p * (1 - p))
    for pair, count in rec.seen.items():
        assert abs(count - trials * p) <= 5 * sigma, (pair, count)
    adjacent = sum(count for pair, count in rec.seen.items() if g.has_edge(*pair))
    assert (rep.adjacent.errors, rep.adjacent.trials) == (adjacent, adjacent)
    assert (rep.nonadjacent.errors, rep.nonadjacent.trials) == (0, trials - adjacent)


def _sketch_classes():
    """Every `SketchScheme` subclass in pugkit, at any depth."""
    found, todo = [], SketchScheme.__subclasses__()
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("pugkit."):
            found.append(cls)
    return found


def test_every_sketch_is_bulk_native_with_one_derived_per_pair_path():
    classes = _sketch_classes()
    assert {sketch.ArboricitySketch, sketch.BoostedScheme, sketch.CompressedEqualityScheme,
            sketch.PackedEqualityScheme, products.ProductAdjacencySketch} <= set(classes)
    for cls in classes:
        for name in ("encode_bits", "decode_bits", "decode_trials"):
            assert callable(getattr(cls, name, None)), (cls, name)
        for name in ("decode", "encode", "decode_matrix"):
            assert getattr(cls, name) is getattr(SketchScheme, name), (cls, name)
