"""The shape codec and the compiled (bulk) decoder.

Bulk decoding must agree with the per-pair references of `tests.per_pair`
on every pair u < v, for every sketch, including the ones whose Q does not
fit in a machine word and Bloom filters wider than 63 buckets.  Likewise
the vectorised trial decoder must agree with encoding and decoding each
trial's pair on its own.
"""

import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pugkit import bipartite
from pugkit.combinators import tuple_count
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
from pugkit.graphs import GraphFormatError, cartesian_product
from pugkit.labels import (
    Ask,
    CompiledDecoder,
    EqualityScheme,
    SchemeError,
    ShapeCodec,
    ShapeNode,
    node,
    parse_label_file,
    shape_arity,
    shape_from_str,
    shape_to_str,
    decode_pair,
    walker_tree,
    write_decoder_file,
    write_label_file,
)
from pugkit import labels as labels_mod
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
from tests.per_pair import pack, parse, reference_decode
from tests.test_readers import LEAKS


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
        _assert_bulk_matches(reference_decode(sk), sk.decode_matrix(labels), labels)


def test_boosted_compressed_decode_matrix_matches_decode():
    g = random_forest(14, seed=6)
    b = boost(compress_equality_scheme(arboricity_scheme(g)), 0.05)
    assert b.copies > 1
    for seed in range(3):
        labels = b.encode(seed)
        _assert_bulk_matches(reference_decode(b), b.decode_matrix(labels), labels)


def test_naive_decode_matrix_matches_decode():
    for g in (random_kdegenerate(30, 3, seed=1), random_forest(40, seed=2)):
        det = naive_derandomize(arboricity_scheme(g))
        labels = list(det.labels)
        _assert_bulk_matches(reference_decode(det.decoder), det.decode_matrix(labels), labels)
        assert det.check_exact(g)


@pytest.mark.parametrize("alpha", [1, 3, 10, 12])
def test_bloom_decode_matrix_matches_decode(alpha):
    g = random_kdegenerate(40, alpha, seed=alpha)
    sk = arboricity_sketch(g)
    assert sk.alpha == alpha
    for seed in range(2):
        labels = sk.encode(seed)
        _assert_bulk_matches(reference_decode(sk), sk.decode_matrix(labels), labels)


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
    factors = [path(3), cycle(4)]
    return adjacency_from_distance1(factors), cartesian_product(factors)[0]


SKETCHES = ["compressed", "boosted-compressed", "bloom", "boosted-bloom", "product-adjacency"]


@pytest.mark.parametrize("name", ["boosted-bloom", "product-adjacency"])
def test_sketch_decode_matrix_matches_decode(name):
    sk, _ = _sketch(name)
    for seed in range(2):
        labels = sk.encode(seed)
        _assert_bulk_matches(reference_decode(sk), sk.decode_matrix(labels), labels)


@pytest.mark.parametrize("name", SKETCHES)
def test_count_errors_matches_per_pair_loop(name):
    sk, g = _sketch(name)
    decode = reference_decode(sk)
    for seed in range(3):
        labels = sk.encode(seed)
        slow = sum(decode(labels[u], labels[v]) != int(g.has_edge(u, v))
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
    # a compressed sketch with word keys, then two schemes whose k*k > 64
    # cells of Q make byte keys, each decoded whole and one pair per block
    g = random_kdegenerate(30, 2, seed=4)
    labels = compress_equality_scheme(arboricity_scheme(g)).encode(3)

    def decode(name):
        # a fresh scheme, so that its walker runs start from an empty memo
        if name == "arboricity":
            sk = compress_equality_scheme(arboricity_scheme(g))
            return sk.decode_matrix(labels), sk.decoder.memo
        sch = _scheme(name)
        sid, vals = sch.table
        return sch.decoder.decode_rows(sid[None], vals[None])[0], sch.decoder.memo

    cases = {name: decode(name) for name in ("arboricity", "tp-free", "interval")}
    monkeypatch.setattr(CompiledDecoder, "BLOCK_BYTES", 1)  # one pair per block
    for name, (whole, memo) in cases.items():
        blocks, block_memo = decode(name)
        assert (blocks == whole).all(), name
        assert block_memo.keys() == memo.keys(), name
        assert {type(key) for key in memo} == {int if name == "arboricity" else bytes}, name


def _counted_walker_runs(monkeypatch):
    """A list that grows by one for every walker run of the bulk decoder."""
    runs, decode_pair = [], labels_mod.decode_pair

    def counted(*args):
        runs.append(1)
        return decode_pair(*args)

    monkeypatch.setattr(labels_mod, "decode_pair", counted)
    return runs


@pytest.mark.parametrize("name", ["arboricity", "equivalence", "compressed"])
def test_counted_and_sorted_dedupe_decode_alike(monkeypatch, name):
    runs = _counted_walker_runs(monkeypatch)

    def decode(counted):
        monkeypatch.setattr(CompiledDecoder, "counts_keys",
                            staticmethod(lambda span, pairs: counted))
        runs.clear()
        if name == "compressed":
            # three tables in one call, each under its own seed
            sk = compress_equality_scheme(arboricity_scheme(random_kdegenerate(24, 2, seed=2)))
            return sk.decode_bits(sk.encode_bits([0, 1, 2])), len(runs)
        sch = (arboricity_scheme(random_kdegenerate(30, 2, seed=3)) if name == "arboricity"
               else bipartite.equivalence_labels(equivalence_graph([5, 4, 4, 3, 2, 1])))
        sid, vals = sch.table
        return sch.decoder.decode_rows(sid[None], vals[None]), len(runs)

    (by_sort, sort_runs), (by_count, count_runs) = decode(False), decode(True)
    assert (by_sort == by_count).all()
    assert sort_runs == count_runs > 0
    # the rule itself: a one-pair block never builds a key table
    monkeypatch.undo()
    assert not any(CompiledDecoder.counts_keys(span, 1) for span in (1, 2, 1 << 20))


@pytest.mark.parametrize("counted", [False, True])
@pytest.mark.parametrize("n, k", [(0, 0), (1, 0), (1, 1), (6, 0), (6, 1)])
def test_bulk_decode_of_empty_single_and_codeless_tables(monkeypatch, n, k, counted):
    monkeypatch.setattr(CompiledDecoder, "counts_keys", staticmethod(lambda span, pairs: counted))
    labels = [node((v % 2,), (v // 3,) * k) for v in range(n)]

    def walker(sx, sy, eq):
        return int(sx.tag != sy.tag or bool(k and eq(0, 0)))

    sch = EqualityScheme(labels, walker)
    sid, vals = sch.table
    assert vals.shape == (n, k if n else 0)
    mats = sch.decoder.decode_rows(np.stack([sid, sid]), np.stack([vals, vals]))
    assert mats.shape == (2, n, n)
    for u in range(n):
        for v in range(n):
            assert mats[0, u, v] == mats[1, u, v] == (u != v and sch.decode(u, v))


def test_walker_runs_once_per_key_and_memo_is_per_scheme():
    calls = []

    def walker(sx, sy, eq):
        calls.append(1)
        return int(eq(0, 0))

    labels = [node((), (v % 3,)) for v in range(12)]
    det = naive_derandomize(EqualityScheme(labels, walker))
    mat = det.decode_matrix(list(det.labels))
    assert len(calls) == 2  # one shape pair, Q in {0, 1}
    det.decode_matrix(list(det.labels))
    assert len(calls) == 2
    naive_derandomize(EqualityScheme(labels, walker)).decode_matrix(list(det.labels))
    assert len(calls) == 4
    _assert_bulk_matches(det.decode, mat, list(det.labels))


@pytest.mark.parametrize("shapes, layout", [(1, int), (2, bytes)])
def test_memo_key_is_one_word_exactly_when_it_fits(shapes, layout):
    # k = 8 and one shape take exactly 64 key bits, all of them Q; a second
    # shape adds two bits of shape pair, and the key becomes bytes.  x
    # against z has an empty Q, and x against y[i, j] only cell (i, j), so
    # a key that misses any cell merges two of these pairs.
    x, z = tuple(range(8)), tuple(range(100, 108))
    y = [tuple(i if s == j else 200 + 8 * (8 * i + j) + s for s in range(8))
         for i in range(8) for j in range(8)]
    labels = [node(tag, c) for tag in [(), (1,)][:shapes] for c in [x, z, *y]]
    calls = []

    def walker(sx, sy, eq):
        calls.append(1)
        return (sum(eq(i, j) * (8 * i + j + 1) for i in range(8) for j in range(8))
                + len(sx.tag) + 2 * len(sy.tag)) % 120

    codes = [c for _, c in labels]
    distinct = list(dict.fromkeys(sh for sh, _ in labels))
    codec = ShapeCodec(distinct)
    sid = np.array([distinct.index(sh) for sh, _ in labels])
    vals = codec.table(sid, np.fromiter(itertools.chain.from_iterable(codes), dtype=np.int64))
    dec = CompiledDecoder(codec, walker)
    mat = dec.decode_rows(sid[None], vals[None])[0]
    assert (codec.k, len(codec.shapes)) == (8, shapes)
    assert {type(key) for key in dec.memo} == {layout}
    keys = set()
    for u in range(len(labels)):
        for v in range(u + 1, len(labels)):
            a, b = codes[u], codes[v]
            keys.add((sid[u], sid[v], tuple(x == y for x in a for y in b)))
    # one walker run per distinct (shape pair, Q); then the per-pair walker
    assert len(calls) == len(keys)
    for u in range(len(labels)):
        for v in range(u + 1, len(labels)):
            assert mat[u, v] == decode_pair(walker, codec.shapes[sid[u]], codes[u],
                                            codec.shapes[sid[v]], codes[v])


def _raising_scheme():
    def walker(sx, sy, eq):
        if eq(0, 0):
            raise SchemeError("equal ids are outside this family")
        return 0

    return EqualityScheme([node((), (v % 4,)) for v in range(10)], walker)


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
    labels = [node((1,), (1, 2), node((), (3,))), node((), (4,)), node((), (5,))]
    scheme = EqualityScheme(labels, lambda sx, sy, eq: 0)
    sk = sketch.PackedEqualityScheme(scheme)
    codec = sk.codec
    assert codec.shapes == [labels[0][0], labels[1][0]]
    # five distinct codes take 3 bits each
    assert (codec.k, codec.shape_bits, sk.value_width, sk.width) == (3, 1, 3, 1 + 3 * 3)
    # the codes 1..5 are written as their ranks 0..4
    ids, ranks = [0, 1, 1], [[0, 1, 2], [3], [4]]
    assert scheme.sid.tolist() == ids
    assert sk.encode(0) == [pack(sk, sid, vals) for sid, vals in zip(ids, ranks)]
    for (_, codes), sid in zip(labels, ids):
        vals = [c % 8 for c in codes]
        assert parse(sk, pack(sk, sid, vals)) == (sid, vals)


@pytest.mark.parametrize("label", [
    node((), tuple(range(100))),
    node((1, 0), (1,), node((), tuple(range(100)))),
])
def test_shape_from_str_wide_arity_round_trip(label):
    # the shape parser once had room for only 64 codes per ':' in the string
    shape, codes = label
    assert shape_from_str(shape_to_str(shape)) == shape
    assert shape_arity(shape_from_str(shape_to_str(shape))) == len(codes)
    scheme = EqualityScheme([label, node((), (1,))], lambda sx, sy, eq: 0)
    parsed, _, _ = parse_label_file(write_label_file(scheme, "wide"))
    assert parsed == list(zip(scheme.shapes, scheme.codes))


def _sliced_shape_from_str(s: str, counter: list[int]) -> tuple[ShapeNode, str]:
    """The recursive shape parser that slices the rest of the text for every
    child: the reference for the shapes `shape_from_str` reads and the texts
    it rejects."""
    tag_s, rest = s.split(":", 1)
    tag = () if tag_s == "-" else tuple(int(b) for b in tag_s)
    num = ""
    while rest and rest[0].isdigit():
        num += rest[0]
        rest = rest[1:]
    arity = int(num)
    slot0 = counter[0]
    counter[0] += arity
    kids = []
    while rest.startswith("("):
        depth = 0
        for i, ch in enumerate(rest):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    child, leftover = _sliced_shape_from_str(rest[1:i], counter)
                    if leftover:
                        raise ValueError("trailing shape text")
                    kids.append(child)
                    rest = rest[i + 1:]
                    break
        else:
            raise ValueError("unbalanced shape parentheses")
    return ShapeNode(tag, arity, tuple(kids), slot0), rest


def _shape_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as e:
        return str(e)


def _sliced_parse(text):
    shape, rest = _sliced_shape_from_str(text, [0])
    if rest:
        raise ValueError("trailing shape text")
    return shape


SHAPES = st.recursive(
    st.builds("{}:{}".format, st.sampled_from(["-", "0", "1", "10"]), st.integers(0, 3)),
    lambda inner: st.builds(lambda head, kids: head + "".join(f"({k})" for k in kids),
                            st.builds("{}:{}".format, st.sampled_from(["-", "01"]),
                                      st.integers(0, 2)),
                            st.lists(inner, min_size=1, max_size=3)),
    max_leaves=8)


@st.composite
def shape_texts(draw):
    """Shape text with up to two characters inserted, replaced or deleted."""
    text = draw(SHAPES)
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(["", "(", ")", ":", "-", "0", "x", "\u00b2"]))
        text = text[:at] + piece + text[at + draw(st.integers(0, 1)):]
    return text


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(shape_texts())
@example("1:2(-:0)(0:1(-:3))")
@example("-:0(-:1))")
@example("-:0((-:1)")
@example("-:0(-)")
@example("-:\u00b2")
@example("1(0:0):0")
def test_shape_from_str_matches_the_slicing_parser(text):
    # the same shape, slot offsets included, or a rejection in pugkit's own
    # words, which a label file puts on the shape's line
    want, got = _shape_outcome(_sliced_parse, text), _shape_outcome(shape_from_str, text)
    if isinstance(want, ShapeNode):
        assert got == want
    else:
        assert isinstance(got, str) and not LEAKS.search(got), got
        with pytest.raises(GraphFormatError, match=r"^line 2: ") as err:
            parse_label_file(f"labels g\nv 0 {text} -\n")
        assert not LEAKS.search(str(err.value))


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
    sid, vals = sch.table
    mat = sch.decoder.decode_rows(sid[None], vals[None])[0]
    assert {pair: mat[pair] for pair in direct} == direct
    assert sch.check_exact(lambda u, v: direct[u, v])
    first = min(direct)
    assert not sch.check_exact(lambda u, v: direct[u, v] ^ ((u, v) == first))


def test_check_exact_rejects_a_wrong_label():
    g = path(5)
    sch = arboricity_scheme(g)
    assert sch.check_exact(g.has_edge)
    # vertex 0 now carries vertex 3's label, so it decodes 3's edge to 2
    wrong = EqualityScheme([sch.label(3)] + [sch.label(v) for v in range(1, sch.n)], sch.walker)
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
    want, decode = [], reference_decode(sk)
    for u, v, s in zip(us.tolist(), vs.tolist(), seeds.tolist()):
        labels = sk.encode(s)
        want.append(decode(labels[u], labels[v]))
    assert bits.tolist() == want
    assert 0 < sum(want) < trials


@pytest.mark.parametrize("name", ["compressed", "bloom", "boosted-bloom"])
def test_evaluate_error_does_not_depend_on_the_trial_block(name, monkeypatch):
    sk, g = _sketch(name)
    whole = [evaluate_error(sk, g, trials=500, seed=3, pairs=pairs)
             for pairs in ("all", "adjacent", "nonadjacent")]
    monkeypatch.setattr(sketch, "TRIAL_BLOCK", 7)
    assert [evaluate_error(sk, g, trials=500, seed=3, pairs=pairs)
            for pairs in ("all", "adjacent", "nonadjacent")] == whole


def _probe_walker(sx, sy, eq):
    if eq(0, 1):
        return int(eq(0, 1))  # asked again: no second branch
    if eq(1, 0):
        raise SchemeError("Q[1][0] without Q[0][1]")
    return 0


def test_walker_tree_branches_once_per_cell_and_marks_violations(monkeypatch):
    sh, _ = node((), (0, 1))
    assert walker_tree(_probe_walker, sh, sh) == Ask(0, 1, Ask(1, 0, 0, None), 1)
    with pytest.raises(IndexError):
        walker_tree(lambda sx, sy, eq: eq(0, 2), sh, sh)
    # one row per non-violation leaf, preorder, '*' for the cells not asked
    monkeypatch.setitem(labels_mod._WALKER_BUILDERS, "probe", lambda spec: _probe_walker)
    sch = EqualityScheme([node((), (0, 1))], {"name": "probe"})
    assert write_decoder_file(sch).splitlines()[2:] == ["t 0 0 *00* 0", "t 0 0 **1* 1"]


def _spec_names(spec):
    yield spec["name"]
    for val in spec.values():
        if isinstance(val, dict):
            yield from _spec_names(val)


def _family_builds():
    """Builders of a small scheme of every family and combinator, whose
    specs name every registered walker."""
    from pugkit import combinators, geometric, protocols, twinwidth
    from pugkit.generators import biclique, random_fpp_free
    from pugkit.graphs import induced_subgraph

    g = random_kdegenerate(10, 2, seed=4)
    sub, _ = induced_subgraph(g, range(2, 10))
    beq = bipartite_equivalence_graph([(2, 2), (1, 2)])
    fg = random_fpp_free(2, 3, 4, 2, seed=5)
    whole = bipartite.AllenPartition(tuple(range(fg.nx)), (), tuple(range(fg.ny)), ())
    pts = geometric.random_points(10, seed=2)
    pg = geometric.permutation_graph_from(pts)
    ivs = random_intervals(12, seed=3)
    ig = interval_graph_from(ivs)
    eqg = equivalence_graph([2, 3])
    # same class: a protocol for adjacency, but for the diagonal
    same = tuple(min((v, *eqg.neighbors(v))) for v in range(eqg.n))
    return [
        lambda: bipartite.equivalence_labels(equivalence_graph([2, 3])),
        lambda: bipartite.bipartite_equivalence_labels(beq),
        lambda: bipartite.chain_graph_labels(random_chain_graph(4, 5, seed=1), k=6),
        lambda: bipartite.tp_free_labels(random_tp_free(5, 6, 2, seed=1), p=2, q=4),
        lambda: bipartite.fpp_labels(fg, p=1, q=2),
        lambda: bipartite.fstar_labels(fg, p=2, q=3, partition=whole),
        lambda: bipartite.p7_labels(biclique(2, 3), c=1),
        lambda: arboricity_scheme(g),
        lambda: twinwidth.tw_labels(beq, twinwidth.CertTree()),
        lambda: combinators.add_vertices_scheme(g, [0, 1], arboricity_scheme(sub),
                                                list(range(2, 10))),
        lambda: combinators.complementation_scheme(arboricity_scheme(g),
                                                   [range(5), range(5, 10)], [[1, 0], [0, 1]]),
        lambda: combinators.twin_reduce_scheme(g, "false", lambda q, remap: arboricity_scheme(q))[0],
        lambda: combinators.bip_lower(combinators.bip_lift(arboricity_scheme(g))),
        lambda: geometric.permutation_labels(pg, pts, k=max(chain_number(pg, cap=6).value, 1)),
        lambda: interval_scheme(ig, ivs, k=max(chain_number(ig, cap=6).value, 1)),
        lambda: protocols.protocol_to_diagonal_labels(
            protocols.EqNode(same, same, protocols.Leaf(0), protocols.Leaf(1)), eqg),
    ]


def test_every_registered_walker_rebuilds_from_its_spec():
    from pugkit.labels import _WALKER_BUILDERS, build_walker

    schemes = [build() for build in _family_builds()]
    names = {name for sch in schemes for name in _spec_names(sch.spec)}
    assert names == set(_WALKER_BUILDERS)
    for sch in schemes:
        # the spec as a `decoder tree` file carries it
        walker = build_walker(json.loads(json.dumps(sch.spec)))
        for u in range(sch.n):
            for v in range(sch.n):
                if u != v:
                    cu, cv = sch.codes[u], sch.codes[v]
                    got = walker(sch.shapes[u], sch.shapes[v], lambda i, j: cu[i] == cv[j])
                    assert got == sch.decode(u, v), (sch.name, u, v)


def _tuples(shape):
    """The tuples of a shape in preorder, walked with a stack."""
    stack = [shape]
    while stack:
        top = stack.pop()
        yield top
        stack.extend(reversed(top.children))


def test_scheme_shapes_and_codes_equal_a_fresh_build():
    # a label file reads back as the (shape, codes) pairs it was written
    # from; its reader counts every slot offset afresh from 0 at the root
    for build in _family_builds():
        sch = build()
        parsed, _, _ = parse_label_file(write_label_file(sch, "g"))
        assert parsed == list(zip(sch.shapes, sch.codes))


def test_node_places_children_after_its_own_codes():
    leaf = node((1,), (7, 8))
    shape, codes = node((0,), (5,), leaf, node(), leaf)
    assert codes == (5, 7, 8, 7, 8)
    assert shape == ShapeNode((0,), 1, (ShapeNode((1,), 2, (), 1), ShapeNode((), 0, (), 3),
                                        ShapeNode((1,), 2, (), 3)), 0)
    # interned: an equal shape is the same object, wherever it was built
    assert node((1,), (0, 0))[0] is leaf[0]
    assert node((0,), (1,), node((1,), (2, 3)), node(), leaf)[0] is shape


def test_prefix_figures_read_off_shapes_equal_a_walk_of_every_label():
    # s and prefix_len read the shapes, and `pugkit label`'s tuples= reads
    # the distinct shapes; a walk of every label's tuples is the reference
    for build in _family_builds():
        sch = build()
        lens = [sum(len(t.tag) for t in _tuples(sh)) for sh in sch.shapes]
        assert [sch.prefix_len(v) for v in range(sch.n)] == lens
        assert sch.s == max(lens, default=0)
        counts = [sum(1 for _ in _tuples(sh)) for sh in sch.shapes]
        assert [tuple_count(sh) for sh in sch.shapes] == counts
        assert max(map(tuple_count, sch.codec.shapes), default=0) == max(counts, default=0)


def test_only_the_outer_scheme_builds_a_codec_and_only_once_decoded(monkeypatch):
    # bip_lower(bip_lift(arboricity)), fstar over two fpp parts, and fpp
    # over tp-free leaves among them: their parts never build either

    built = Counter()

    def counted(cls):
        class Counted(cls):
            def __init__(self, *args):
                built[cls.__name__] += 1
                super().__init__(*args)

        return Counted

    for cls in (ShapeCodec, CompiledDecoder):
        monkeypatch.setattr(labels_mod, cls.__name__, counted(cls))
    for build in _family_builds():
        sch = build()
        assert not built, sch.name
        sch.decode(0, 1)
        sch.check_exact(lambda u, v: sch.decode(u, v))
        assert built == {"ShapeCodec": 1, "CompiledDecoder": 1}, sch.name
        built.clear()


def test_no_family_builder_checks_itself_pair_by_pair(monkeypatch):
    def refuse(self, u, v):
        raise AssertionError("a builder decoded one pair")

    builds = _family_builds()
    monkeypatch.setattr(EqualityScheme, "decode", refuse)
    for build in builds:
        build()
