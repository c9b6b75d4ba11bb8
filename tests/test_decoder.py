"""The shape codec and the compiled (bulk) decoder.

Bulk decoding must agree with per-pair decoding on every pair u < v, for
every sketch, including the ones whose Q does not fit in a machine word,
Bloom filters wider than 63 buckets, and sketches that decode all pairs
through the per-pair reference.  Likewise the vectorised trial decoder
must agree with encoding and decoding each trial's pair on its own.
"""

import numpy as np
import pytest

from pugkit import bipartite
from pugkit.generators import (
    bipartite_equivalence_graph,
    cycle,
    equivalence_graph,
    path,
    random_chain_graph,
    random_forest,
    random_kdegenerate,
    random_tp_free,
)
from pugkit.geometric import interval_graph_from, interval_scheme, random_intervals
from pugkit.graphs import cartesian_product
from pugkit.labels import (
    CompiledDecoder,
    EqualityScheme,
    LabelNode,
    SchemeError,
    ShapeCodec,
    flat_codes,
    parse_label_file,
    shape_arity,
    shape_from_str,
    shape_of,
    shape_to_str,
    write_label_file,
)
from pugkit import sketch
from pugkit.products import adjacency_from_distance1
from pugkit.rng import counter_hash
from pugkit.sketch import (
    arboricity_scheme,
    arboricity_sketch,
    boost,
    compress_equality_scheme,
    count_errors,
    derandomize,
    evaluate_error,
    naive_derandomize,
)
from pugkit.structure import chain_number


def _assert_bulk_matches(decode, mat, labels):
    n = len(labels)
    assert mat.shape == (n, n)
    assert (mat == mat.T).all()
    for u in range(n):
        for v in range(u + 1, n):
            assert mat[u, v] == decode(labels[u], labels[v]), (u, v)


def _compressed(name):
    if name == "arboricity":
        return compress_equality_scheme(arboricity_scheme(random_kdegenerate(24, 3, seed=2)))
    if name == "equivalence":
        g = equivalence_graph([5, 4, 4, 3, 2, 1])
        return compress_equality_scheme(bipartite.equivalence_labels(g))
    tp = bipartite.tp_free_labels(random_tp_free(16, 22, 2, seed=1), p=2, q=6)
    assert tp.k >= 8  # k*k > 64: Q does not fit in one machine word
    return compress_equality_scheme(tp)


@pytest.mark.parametrize("name", ["arboricity", "equivalence", "tp-free"])
def test_compressed_decode_matrix_matches_decode(name):
    sk = _compressed(name)
    for seed in range(4):
        labels = sk.encode(seed)
        _assert_bulk_matches(sk.decode, sk.decode_matrix(labels), labels)


def test_boosted_compressed_decode_matrix_matches_decode():
    g = random_forest(14, seed=6)
    b = boost(compress_equality_scheme(arboricity_scheme(g)), 0.05)
    assert b.copies > 1
    for seed in range(3):
        labels = b.encode(seed)
        _assert_bulk_matches(b.decode, b.decode_matrix(labels), labels)


def test_naive_decode_matrix_matches_decode():
    for g in (random_kdegenerate(30, 3, seed=1), random_forest(40, seed=2)):
        det = naive_derandomize(arboricity_scheme(g))
        labels = list(det.labels)
        _assert_bulk_matches(det.decode, det.decode_matrix(labels), labels)
        assert det.check_exact(g)


@pytest.mark.parametrize("alpha", [1, 3, 10, 12])
def test_bloom_decode_matrix_matches_decode(alpha):
    g = random_kdegenerate(40, alpha, seed=alpha)
    sk = arboricity_sketch(g)
    assert sk.alpha == alpha
    for seed in range(2):
        labels = sk.encode(seed)
        _assert_bulk_matches(sk.decode, sk.decode_matrix(labels), labels)


def _sketch(name):
    """(sketch, the graph it sketches)."""
    if name == "compressed":
        g = random_kdegenerate(24, 3, seed=2)
        return compress_equality_scheme(arboricity_scheme(g)), g
    if name == "boosted-compressed":
        g = random_forest(14, seed=6)
        return boost(compress_equality_scheme(arboricity_scheme(g)), 0.05), g
    if name == "bloom":
        g = random_kdegenerate(30, 3, seed=3)
        return arboricity_sketch(g), g
    if name == "boosted-bloom":
        g = random_kdegenerate(20, 2, seed=5)
        return boost(arboricity_sketch(g), 0.05), g
    # decodes all pairs through the base-class per-pair reference
    factors = [path(3), cycle(4)]
    return adjacency_from_distance1(factors), cartesian_product(factors)[0]


SKETCHES = ["compressed", "boosted-compressed", "bloom", "boosted-bloom", "product-adjacency"]


@pytest.mark.parametrize("name", ["boosted-bloom", "product-adjacency"])
def test_sketch_decode_matrix_matches_decode(name):
    sk, _ = _sketch(name)
    for seed in range(2):
        labels = sk.encode(seed)
        _assert_bulk_matches(sk.decode, sk.decode_matrix(labels), labels)


@pytest.mark.parametrize("name", SKETCHES)
def test_count_errors_matches_per_pair_loop(name):
    sk, g = _sketch(name)
    for seed in range(3):
        labels = sk.encode(seed)
        slow = sum(sk.decode(labels[u], labels[v]) != int(g.has_edge(u, v))
                   for u in range(g.n) for v in range(u + 1, g.n))
        assert count_errors(sk, labels, g) == slow


@pytest.mark.parametrize("mode", ["bloom", "compressed", "naive"])
def test_deterministic_labeling_decodes_through_its_decoder(mode):
    g = random_forest(16, seed=4)
    if mode == "naive":
        det = naive_derandomize(arboricity_scheme(g))
    else:
        sk = arboricity_sketch(g) if mode == "bloom" else \
            compress_equality_scheme(arboricity_scheme(g))
        det = derandomize(sk, g, seed=2)
    labels = list(det.labels)
    mat = det.decode_matrix(labels)
    _assert_bulk_matches(det.decode, mat, labels)
    assert all(mat[u, v] == g.has_edge(u, v) for u in range(g.n) for v in range(u + 1, g.n))
    assert det.check_exact(g)
    assert (det.decode, det.decode_matrix) == (det.decoder.decode, det.decoder.decode_matrix)


def test_bulk_decode_blocks_do_not_change_the_output(monkeypatch):
    sk = compress_equality_scheme(arboricity_scheme(random_kdegenerate(30, 2, seed=4)))
    labels = sk.encode(3)
    whole = sk.decode_matrix(labels)
    monkeypatch.setattr(CompiledDecoder, "BLOCK_CELLS", 1)  # one row per block
    assert (compress_equality_scheme(sk.scheme).decode_matrix(labels) == whole).all()


def test_walker_runs_once_per_key_and_memo_is_per_scheme():
    calls = []

    def walker(sx, sy, eq):
        calls.append(1)
        return int(eq(0, 0))

    labels = [LabelNode(codes=(v % 3,)) for v in range(12)]
    det = naive_derandomize(EqualityScheme(labels, walker))
    mat = det.decode_matrix(list(det.labels))
    assert len(calls) == 2  # one shape pair, Q in {0, 1}
    det.decode_matrix(list(det.labels))
    assert len(calls) == 2
    naive_derandomize(EqualityScheme(labels, walker)).decode_matrix(list(det.labels))
    assert len(calls) == 4
    _assert_bulk_matches(det.decode, mat, list(det.labels))


def _raising_scheme():
    def walker(sx, sy, eq):
        if eq(0, 0):
            raise SchemeError("equal ids are outside this family")
        return 0

    return EqualityScheme([LabelNode(codes=(v % 4,)) for v in range(10)], walker)


def test_walker_scheme_error_raised_from_bulk_path():
    det = naive_derandomize(_raising_scheme())
    with pytest.raises(SchemeError):
        det.decode(det.labels[0], det.labels[4])
    with pytest.raises(SchemeError):
        det.decode_matrix(list(det.labels))
    sk = compress_equality_scheme(_raising_scheme())
    with pytest.raises(SchemeError):
        sk.decode_matrix(sk.encode(1))
    boosted = boost(sk, 0.05)
    with pytest.raises(SchemeError):
        count_errors(boosted, boosted.encode(1), equivalence_graph([10]))


def test_shape_codec_round_trip():
    labels = [LabelNode(tag=(1,), codes=(1, 2), children=(LabelNode(codes=(3,)),)),
              LabelNode(codes=(4,)), LabelNode(codes=(5,))]
    codec = ShapeCodec([shape_of(l) for l in labels], value_width=3)
    assert codec.shapes == [shape_of(labels[0]), shape_of(labels[1])]
    assert (codec.k, codec.shape_bits, codec.width) == (3, 1, 1 + 3 * 3)
    for l in labels:
        vals = [c % 8 for c in flat_codes(l)]
        sid, parsed = codec.parse(codec.pack(shape_of(l), vals))
        assert (codec.shapes[sid], parsed) == (shape_of(l), vals)


@pytest.mark.parametrize("label", [
    LabelNode(codes=tuple(range(100))),
    LabelNode(tag=(1, 0), codes=(1,), children=(LabelNode(codes=tuple(range(100))),)),
])
def test_shape_from_str_wide_arity_round_trip(label):
    # the shape parser once had room for only 64 codes per ':' in the string
    shape = shape_of(label)
    assert shape_from_str(shape_to_str(shape)) == shape
    assert shape_arity(shape_from_str(shape_to_str(shape))) == len(flat_codes(label))
    scheme = EqualityScheme([label, LabelNode(codes=(1,))], lambda sx, sy, eq: 0)
    parsed, _, _ = parse_label_file(write_label_file(scheme, "wide"))
    assert parsed == list(scheme.labels)


def test_parse_label_file_rejects_missing_codes():
    with pytest.raises(ValueError):
        parse_label_file("labels g s=0 k=2 width=2\nv 0 -:2 5\n")


def _scheme(name):
    if name == "arboricity":
        return arboricity_scheme(random_kdegenerate(30, 3, seed=3))
    if name == "equivalence":
        return bipartite.equivalence_labels(equivalence_graph([5, 4, 4, 3, 2, 1]))
    if name == "chain-graph":
        sch = bipartite.chain_graph_labels(random_chain_graph(8, 10, seed=2), k=10)
        assert sch.k == 0  # prefix bits only: the shapes alone decide
        return sch
    if name == "tp-free":
        sch = bipartite.tp_free_labels(random_tp_free(16, 22, 2, seed=1), p=2, q=6)
        assert sch.k >= 8
        return sch
    if name == "interval":
        iv = random_intervals(24, seed=0)
        g = interval_graph_from(iv)
        return interval_scheme(g, iv, k=max(chain_number(g, cap=6).value, 1))
    return bipartite.bipartite_equivalence_labels(
        bipartite_equivalence_graph([(3, 4), (2, 1), (1, 3)]))


@pytest.mark.parametrize("name", ["arboricity", "equivalence", "chain-graph", "tp-free",
                                  "interval", "bip-equivalence"])
def test_check_exact_and_bulk_match_direct_walker(name):
    sch = _scheme(name)
    direct = {}
    for u in range(sch.n):
        for v in range(u + 1, sch.n):
            cu, cv = sch.codes[u], sch.codes[v]
            direct[u, v] = sch.walker(sch.shapes[u], sch.shapes[v],
                                      lambda i, j: cu[i] == cv[j])
    mat = sch.decoder.decode_rows([sch.codec.ids], [sch.values])[0]
    assert {pair: mat[pair] for pair in direct} == direct
    assert sch.check_exact(lambda u, v: direct[u, v])
    first = min(direct)
    assert not sch.check_exact(lambda u, v: direct[u, v] ^ ((u, v) == first))


def test_check_exact_rejects_a_wrong_label():
    g = path(5)
    sch = arboricity_scheme(g)
    assert sch.check_exact(g.has_edge)
    # vertex 0 now carries vertex 3's label, so it decodes 3's edge to 2
    wrong = EqualityScheme((sch.labels[3],) + sch.labels[1:], sch.walker)
    assert not wrong.check_exact(g.has_edge)


def test_walker_scheme_error_raised_from_check_exact():
    with pytest.raises(SchemeError):
        _raising_scheme().check_exact(lambda u, v: False)


# ---------------------------------------------------------------------------
# The trial decoder and its counter-based streams.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64_reference(seed, tag, *ids):
    """counter_hash in Python ints: state <- mix((state + gamma) ^ word)."""
    def mix(z):
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
        return z ^ z >> 31

    h = seed & _MASK64
    for word in (tag, *ids):
        h = mix((h + 0x9E3779B97F4A7C15 & _MASK64) ^ word & _MASK64)
    return h


def test_counter_hash_known_answers():
    # with no ids, counter_hash(s, 0) is splitmix64's next output from state s:
    # the published stream from state 0 begins e220a839..., 6e789e6a...
    assert int(counter_hash(0, 0)) == 0xE220A8397B1DCDAF
    assert int(counter_hash(0x9E3779B97F4A7C15, 0)) == 0x6E789E6AA1B965F4
    cases = [(0, 1), (5, 2, 7), (-1, 3, 0, 1), (1 << 70, 4, 123456789, 2),
             (-(1 << 70) + 3, 5, _MASK64, 0, 9), (12345, 1, -1)]
    for seed, tag, *ids in cases:
        assert int(counter_hash(seed, tag, *ids)) == _splitmix64_reference(seed, tag, *ids)
    # arrays broadcast, elementwise equal to the scalar calls
    seeds = np.array([0, 1, _MASK64, 1 << 63], dtype=np.uint64)[:, None]
    ids = np.arange(6)
    got = counter_hash(seeds, 2, ids, 5)
    assert got.dtype == np.uint64 and got.shape == (4, 6)
    assert got.tolist() == [[_splitmix64_reference(s, 2, i, 5) for i in ids.tolist()]
                            for s in seeds.ravel().tolist()]


def _trial_sketch(name):
    """(sketch, number of vertices) for the trial-decoder tests."""
    if name.startswith("compressed-"):
        sk = _compressed(name.split("-", 1)[1])
        return sk, sk.n
    if name.startswith("bloom-"):
        alpha = int(name.split("-")[1])
        sk = arboricity_sketch(random_kdegenerate(40, alpha, seed=alpha))
        assert sk.alpha == alpha
        return sk, sk.n
    sk, g = _sketch(name)
    return sk, g.n


TRIAL_SKETCHES = ["compressed-arboricity", "compressed-equivalence", "compressed-tp-free",
                  "bloom-1", "bloom-3", "bloom-12", "boosted-compressed", "boosted-bloom",
                  "product-adjacency"]


@pytest.mark.parametrize("name", TRIAL_SKETCHES)
def test_decode_trials_matches_per_trial_decode(name):
    sk, n = _trial_sketch(name)
    trials = 40 if name == "product-adjacency" else 300
    rng = np.random.default_rng(7)
    us, vs = rng.integers(0, n, trials), rng.integers(0, n, trials)
    seeds = counter_hash(11, 0, np.arange(trials))
    seeds[:3] = [0, _MASK64, 1 << 63]
    bits = sk.decode_trials(us, vs, seeds)
    assert bits.dtype == np.int8 and bits.shape == (trials,)
    want = [sk.decode(*sk.encode_pair(u, v, s))
            for u, v, s in zip(us.tolist(), vs.tolist(), seeds.tolist())]
    assert bits.tolist() == want
    assert 0 < sum(want) < trials


@pytest.mark.parametrize("name", ["bloom", "boosted-bloom"])
def test_encode_pair_is_encode_restricted(name):
    sk, g = _sketch(name)
    for seed in (0, 77, _MASK64):
        full = sk.encode(seed)
        for u in range(0, g.n, 3):
            for v in range(1, g.n, 4):
                assert sk.encode_pair(u, v, seed) == (full[u], full[v]), (seed, u, v)


@pytest.mark.parametrize("name", ["compressed", "bloom", "boosted-bloom"])
def test_evaluate_error_does_not_depend_on_the_trial_block(name, monkeypatch):
    sk, g = _sketch(name)
    whole = [evaluate_error(sk, g, trials=500, seed=3, pairs=pairs)
             for pairs in ("all", "adjacent", "nonadjacent")]
    monkeypatch.setattr(sketch, "TRIAL_BLOCK", 7)
    assert [evaluate_error(sk, g, trials=500, seed=3, pairs=pairs)
            for pairs in ("all", "adjacent", "nonadjacent")] == whole
