import math
from collections import Counter

import numpy as np
import pytest

from pugkit.generators import (
    complete,
    edgeless,
    equivalence_graph,
    hypercube,
    path,
    random_forest,
    random_graph,
    random_kdegenerate,
)
from pugkit.labels import EqualityScheme, LabelNode, pair_eq_matrix
from pugkit.sketch import (
    ArboricitySketch,
    DerandomizationError,
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
                q = pair_eq_matrix(sch, u, v)
                hu = [comp._hash(seed, c) for c in sch.codes[u]]
                hv = [comp._hash(seed, c) for c in sch.codes[v]]
                for i in range(len(hu)):
                    for j in range(len(hv)):
                        if q[i][j]:
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
    mat = sk.decode_matrix(labels)
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                assert mat[u][v] == sk.decode(labels[u], labels[v])


def test_derandomize_forest():
    g = random_forest(60, seed=12)
    sk = arboricity_sketch(g)
    det = derandomize(sk, g, seed=3)
    assert det.check_exact(g)
    assert det.attempts <= 5


def test_derandomize_zero_error_scheme_first_try():
    g = path(10)
    det = naive_derandomize(arboricity_scheme(g))

    class Wrap(PerPair):
        # a deterministic "sketch": encode ignores the seed
        def __init__(self, det):
            self.n, self.width, self.delta = g.n, det.width, 0.0
            self._det = det

        def encode(self, seed):
            return list(self._det.labels)

        def decode(self, bx, by):
            return self._det.decode(bx, by)

    out = derandomize(Wrap(det), g, seed=1)
    assert out.attempts == 1


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
    labels = [LabelNode(codes=(v,)) for v in range(8)]
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
        def __init__(self, g):
            super().__init__(g)
            self.width = 1

        def encode(self, seed):
            return [v % 2 for v in range(self.n)]

        def decode(self, bx, by):
            return int(bx != by)

    pug2 = export_pug(Tiny(g))
    assert pug2.num_nodes == 2
    assert pug2.edge_table() == [[0, 1], [1, 0]]


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
    labels = sk.encode(seed=5)
    slow = sum(
        sk.decode(labels[u], labels[v]) != int(g.has_edge(u, v))
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )
    assert count_errors(sk, labels, g) == slow


def test_bloom_wide_alpha_count_errors_and_derandomize():
    # 72 buckets once overflowed the int64 the Bloom filter was packed into
    g = random_kdegenerate(60, 12, seed=1)
    sk = arboricity_sketch(g)
    assert sk.buckets > 63
    labels = sk.encode(seed=2)
    slow = sum(sk.decode(labels[u], labels[v]) != int(g.has_edge(u, v))
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
