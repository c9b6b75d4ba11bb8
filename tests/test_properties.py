"""Property tests (hypothesis) of advertised contracts on arbitrary input.

Every property runs derandomized with no example database, so a run is
deterministic and writes no `.hypothesis/` directory.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pugkit.bipartite import (
    _chain_walker_factory,
    bipartite_equivalence_labels,
    chain_graph_labels,
    equivalence_labels,
    is_chain_graph,
)
from pugkit.cli import main
from pugkit.combinators import _bits, _width_for
from pugkit.generators import (
    biclique,
    bipartite_equivalence_graph,
    chain_graph,
    equivalence_graph,
    path,
    random_equivalence,
    random_forest,
    random_kdegenerate,
)
from pugkit.graphs import BITSET_THRESHOLD, ColoredBipartiteGraph, Graph, write_graph
from pugkit.labels import (
    _WALKER_BUILDERS,
    CompiledDecoder,
    EqualityScheme,
    SchemeError,
    ShapeCodec,
    node,
    shape_arity,
)
from pugkit.products import adjacency_from_distance1
from pugkit.rng import counter_hash
from pugkit.sketch import (
    PackedEqualityScheme,
    arboricity_scheme,
    arboricity_sketch,
    boost,
    compress_equality_scheme,
    evaluate_error,
    from_bits,
    naive_derandomize,
    parse_sketch_file,
    to_bits,
    write_sketch_file,
)
from pugkit.structure import quasi_chain_number
from pugkit.twinwidth import Star, TwCertificate, parse_certificate, write_certificate
from tests.per_pair import code_hash, parse, reference_decode

WALKERS = sorted(_WALKER_BUILDERS)

# every parameter a registered walker factory reads from its spec
PARAMS = ["bits", "idx_bits", "c", "r", "mode", "part_bits", "chain_bits", "tree",
          "base", "leaf", "sub1", "sub2"]

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)

SPECS = st.deferred(lambda: st.builds(
    lambda name, params: {**params, "name": name},
    st.sampled_from(WALKERS),
    st.dictionaries(st.sampled_from(PARAMS), JSON | SPECS, max_size=4)))


@pytest.fixture(scope="module")
def label_files(tmp_path_factory):
    """Label files with tagged shapes (chain-graph) and with codes only
    (arboricity), each with a pair of vertices to query; each one's decoder
    table sits next to it, with the suffix .dec."""
    tmp = tmp_path_factory.mktemp("props")
    out = {}
    for name, g, scheme, pair in (
            ("b", biclique(5, 6), ["--scheme", "chain-graph", "--k", "2"], ("0", "5")),
            ("f", random_forest(8, seed=1), ["--scheme", "arboricity"], ("1", "2"))):
        gf, labels = tmp / f"{name}.graph", tmp / f"{name}.labels"
        gf.write_text(write_graph(g, name))
        assert main(["label", str(gf), *scheme, "--out", str(labels),
                     "--decoder-out", str(labels.with_suffix(".dec"))]) == 0
        out[name] = (labels, pair)
    return out


@settings(derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=SPECS, which=st.sampled_from(["b", "f"]))
def test_query_with_any_tree_spec_exits_0_2_or_3(label_files, tmp_path, capsys, spec, which):
    labels, (u, v) = label_files[which]
    dec = tmp_path / "spec.dec"
    dec.write_text(f"decoder tree {json.dumps(spec)}\n")
    code = main(["query", str(labels), u, v, "--decoder", str(dec)])
    out = capsys.readouterr().out
    assert code in (0, 2, 3)
    assert out.startswith(f"{u} {v} ") if code == 0 else out == ""


# a decoder table row with drawn shape ids, Q field and output, valid or not
TABLE_ROW = st.builds("t {} {} {} {}".format, st.integers(-1, 2), st.integers(-1, 2),
                      st.text("01*", min_size=1, max_size=4)
                      | st.sampled_from(["-", "x", "01-", "2*", "*****"]),
                      st.integers(-1, 2) | st.sampled_from(["x", "1.5"]))


@settings(derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), which=st.sampled_from(["b", "f"]))
def test_query_with_any_decoder_table_exits_0_2_or_3(label_files, tmp_path, capsys, data, which):
    # the real table with lines dropped, drawn rows and shape lines (under
    # drawn ids) added, all in any order
    labels, (u, v) = label_files[which]
    head, *lines = labels.with_suffix(".dec").read_text().splitlines()
    drop = data.draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))
    body = [line for line, gone in zip(lines, drop) if not gone]
    shape = st.builds("shape {} {}".format, st.integers(-1, 2),
                      st.sampled_from([l.split()[2] for l in lines if l.startswith("shape")]))
    body = data.draw(st.permutations(body + data.draw(st.lists(TABLE_ROW | shape, max_size=4))))
    dec = tmp_path / "table.dec"
    dec.write_text("".join(line + "\n" for line in [head, *body]))
    code = main(["query", str(labels), u, v, "--decoder", str(dec)])
    out = capsys.readouterr().out
    assert code in (0, 2, 3)
    assert out.startswith(f"{u} {v} ") if code == 0 else out == ""


_G = random_kdegenerate(14, 2, seed=3)
_ARB = arboricity_scheme(_G)
_COMP = compress_equality_scheme(_ARB)
_ONE_SIDED = {"compressed": _COMP, "bloom": arboricity_sketch(_G),
              "boosted-compressed": boost(_COMP, 0.05),
              "boosted-bloom": boost(arboricity_sketch(_G), 0.05)}
_EDGES = np.array(list(_G.edges()), dtype=np.int64)


@settings(derandomize=True, database=None, deadline=None)
@given(seed=st.integers(-(1 << 70), 1 << 70))
def test_one_sided_under_any_seed(seed):
    # equal codes hash equal, under `code_hash` and in every encoded label
    hashed = {}
    for label, codes in zip(_COMP.encode(seed), _ARB.codes):
        for code, value in zip(codes, parse(_COMP, label)[1]):
            assert hashed.setdefault(code, code_hash(_COMP, _ARB, seed, code)) == value
    # adjacent pairs decode 1 under every encoding, in both orders
    us = np.concatenate([_EDGES[:, 0], _EDGES[:, 1]])
    vs = np.concatenate([_EDGES[:, 1], _EDGES[:, 0]])
    seeds = counter_hash(seed, 0, np.arange(len(us)))
    for sk in _ONE_SIDED.values():
        assert (sk.decode_trials(us, vs, seeds) == 1).all()
    # any int is a seed, taken modulo 2**64 as derive_seed takes it
    rep = evaluate_error(_COMP, _G, trials=30, seed=seed)
    assert rep == evaluate_error(_COMP, _G, trials=30, seed=seed & ((1 << 64) - 1))
    assert rep.adjacent.errors == 0


_BIT_FORM = {**_ONE_SIDED, "product-adjacency": adjacency_from_distance1([path(2)] * 3),
             "naive": naive_derandomize(_ARB).decoder}


@settings(derandomize=True, database=None, deadline=None)
@given(seeds=st.lists(st.integers(-(1 << 70), 1 << 70), max_size=3),
       which=st.sampled_from(sorted(_BIT_FORM)))
def test_bit_form_decodes_as_the_labels_and_every_pair(seeds, which):
    sk = _BIT_FORM[which]
    bits = sk.encode_bits(seeds)
    mats = sk.decode_bits(bits)
    assert bits.shape == (len(seeds), sk.n, sk.width) and mats.shape == (len(seeds), sk.n, sk.n)
    decode = reference_decode(sk)
    for seed, b, mat in zip(seeds, bits, mats):
        labels = sk.encode(seed)
        assert from_bits(b) == labels
        assert (mat == sk.decode_matrix(labels)).all()
        for u, v in itertools.permutations(range(sk.n), 2):
            assert mat[u, v] == decode(labels[u], labels[v])


def _decoded(decode, bx, by):
    """decode(bx, by), or IndexError where it raises one: an arbitrary
    shape-id field may name no shape."""
    try:
        return decode(bx, by)
    except IndexError:
        return IndexError


@settings(derandomize=True, database=None, deadline=None)
@given(data=st.data(), which=st.sampled_from(sorted(_BIT_FORM)))
def test_derived_decode_equals_the_per_pair_reference(data, which):
    # on in-width labels drawn from encodings and from arbitrary bits, in
    # both orders and against themselves
    sk = _BIT_FORM[which]
    encoded = st.builds(lambda seed, v: sk.encode(seed)[v],
                        st.integers(0, 1 << 64), st.integers(0, sk.n - 1))
    label = encoded | st.integers(0, (1 << sk.width) - 1)
    bx, by = data.draw(label), data.draw(label)
    decode = reference_decode(sk)
    for x, y in ((bx, by), (by, bx), (bx, bx)):
        assert _decoded(sk.decode, x, y) == _decoded(decode, x, y)


@settings(derandomize=True, database=None, deadline=None)
@given(data=st.data(), width=st.integers(0, 300))
def test_bits_round_trip(data, width):
    labels = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=6))
    bits = to_bits(labels, width)
    assert bits.shape == (len(labels), width)
    assert [[label >> i & 1 for i in range(width)] for label in labels] == bits.tolist()
    assert from_bits(bits) == labels
    for bad in (-1, 1 << width):
        with pytest.raises(ValueError):
            to_bits(labels + [bad], width)


_BLOOM = {"bloom": _ONE_SIDED["bloom"], "boosted-bloom": _ONE_SIDED["boosted-bloom"]}


@settings(derandomize=True, database=None, deadline=None)
@given(data=st.data(), which=st.sampled_from(sorted(_BLOOM)))
def test_bloom_bucket_fields_past_the_filter_decode_as_per_pair(data, which):
    # any copy's bucket field may name a bucket past the filter; bulk and
    # per-pair decoding both read it as no Bloom bit, on every pair
    sk = _BLOOM[which]
    base = getattr(sk, "base", sk)
    assert base.buckets < 1 << base.r_bits
    field = st.integers(base.buckets, (1 << base.r_bits) - 1) | st.integers(0, base.buckets - 1)
    copy = st.builds(lambda r, bloom: r | bloom << base.r_bits,
                     field, st.integers(0, (1 << base.buckets) - 1))
    label = st.lists(copy, min_size=sk.width // base.width,
                     max_size=sk.width // base.width).map(
        lambda parts: sum(p << i * base.width for i, p in enumerate(parts)))
    labels = data.draw(st.lists(label, min_size=1, max_size=6))
    mat, decode = sk.decode_matrix(labels), reference_decode(sk)
    for u, v in itertools.product(range(len(labels)), repeat=2):
        assert mat[u, v] == decode(labels[u], labels[v])


@settings(derandomize=True, database=None, deadline=None)
@given(data=st.data(), width=st.integers(1, 2048),
       name=st.text("abxy019-_.", min_size=1, max_size=8))
def test_sketch_file_round_trip(data, width, name):
    labels = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=5))
    assert parse_sketch_file(write_sketch_file(labels, width, name)) == (labels, width)


@pytest.fixture(scope="module")
def p3_file(tmp_path_factory):
    path_file = tmp_path_factory.mktemp("p3") / "p3.graph"
    path_file.write_text(write_graph(path(3), "p3"))
    return path_file


@settings(derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), d=st.integers(1, 6), k=st.integers(1, 3),
       seed=st.integers(-(1 << 70), 1 << 70))
def test_product_dist_on_any_seed_and_query_exits_0(p3_file, capsys, data, d, k, seed):
    # XOR garbage in a cell may read any id; every answer is bot or 0..k
    vertex = st.lists(st.integers(0, 2), min_size=d, max_size=d).map(
        lambda c: ",".join(map(str, c)))
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=8))
    queries = [arg for u, v in pairs for arg in ("--query", f"{u}:{v}")]
    assert main(["product-dist", str(p3_file), "--d", str(d), "--k", str(k),
                 "--seed", str(seed), *queries]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split()[:2] for line in lines] == [list(pair) for pair in pairs]
    assert all(line.split()[2] in {"bot", *map(str, range(k + 1))} for line in lines)


# a realization or certificate line: an id field drawn from small ids, a
# negative one and one too large to loop to
IDS = st.sampled_from([*range(-1, 7), 99999999999])
NUMBER = st.sampled_from(["0", "1", "2.5", "-3", "nan", "inf", "x", "1e400"])
CSV = st.sampled_from(["-", "x", ""]) | st.lists(st.integers(-1, 9), min_size=1, max_size=3).map(
    lambda xs: ",".join(map(str, xs)))


def _body(data, lines, drawn):
    """The real lines with up to two dropped and up to three drawn lines
    added, in any order."""
    drop = data.draw(st.sets(st.integers(0, len(lines) - 1), max_size=2))
    body = [line for i, line in enumerate(lines) if i not in drop]
    return data.draw(st.permutations(body + data.draw(st.lists(drawn, max_size=3))))


@pytest.fixture(scope="module")
def realizations(tmp_path_factory):
    """An interval and a permutation graph, each with its realization text."""
    from pugkit.geometric import (interval_graph_from, permutation_graph_from,
                                  random_intervals, random_points, write_realization)

    tmp = tmp_path_factory.mktemp("real")
    out = {}
    for scheme, kind, items, build in (
            ("interval", "intervals", random_intervals(6, seed=1), interval_graph_from),
            ("permutation", "points", random_points(6, seed=1), permutation_graph_from)):
        gf = tmp / f"{scheme}.graph"
        gf.write_text(write_graph(build(items), scheme))
        out[scheme] = (gf, write_realization(kind, items, scheme))
    return out


@settings(derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), scheme=st.sampled_from(["interval", "permutation"]))
def test_label_with_any_realization_exits_0_2_or_3(realizations, tmp_path, capsys, data, scheme):
    gf, text = realizations[scheme]
    head, *lines = text.splitlines()
    drawn = st.builds("{} {} {} {}".format, st.sampled_from(["i", "p", "q"]), IDS, NUMBER, NUMBER)
    drawn |= st.sampled_from(["i 0 1", "p", "intervals x", "points x"])
    head = data.draw(st.just(head) | st.sampled_from(["intervals r", "points r", "intervals"]))
    rf = tmp_path / "r.real"
    rf.write_text("".join(line + "\n" for line in [head, *_body(data, lines, drawn)]))
    code = main(["label", str(gf), "--scheme", scheme, "--k", "3", "--realization", str(rf)])
    capsys.readouterr()
    assert code in (0, 2, 3)


@settings(derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_verify_with_any_certificate_exits_0_2_or_3(tmp_path, capsys, data):
    from pugkit.twinwidth import write_certificate
    from tests.test_twinwidth import make_two_level_instance

    g, cert = make_two_level_instance()
    gf, cf = tmp_path / "g.graph", tmp_path / "c.cert"
    gf.write_text(write_graph(g, "g"))
    head, *lines = write_certificate(cert, "g").splitlines()
    key = st.sampled_from(["A", "B", "X", "Y", "center", "leaves", ""])
    field = st.builds("{}={}".format, key, CSV)
    drawn = st.one_of(
        st.builds("flip {} {} {}".format, IDS, field, field),
        st.builds("division {} {} {}".format, IDS, st.sampled_from(["x", "y", "z"]), CSV),
        st.builds("uset {} {} {}".format, IDS, field, field),
        st.builds("star {} {} {} {}".format, IDS, IDS, field, field),
        st.builds("order {}".format, st.sampled_from(["x0 y0", "x", "x9 y1", "q1"])),
        st.sampled_from(["flip 0 A=1", "star 0", "uset", "junk 1"]))
    cf.write_text("".join(line + "\n" for line in [head, *_body(data, lines, drawn)]))
    code = main(["verify", "twcert", str(gf), str(cf)])
    capsys.readouterr()
    assert code in (0, 2, 3)


# code values at both edges of `narrow_values`: the table narrows to int8
# up to 127 and to int16 up to 32767
EDGE_VALUES = st.sampled_from([0, 1, *range(125, 130), *range(32765, 32770)])
ARITY_0 = st.sampled_from([(), (1,), (0, 1)]).map(node)
LABELS = st.one_of(
    st.lists(ARITY_0, max_size=5),  # a k = 0 scheme: the shapes alone decide
    st.lists(ARITY_0 | st.builds(lambda *c: node((), c), EDGE_VALUES)
             | st.builds(lambda *c: node((), c), EDGE_VALUES, EDGE_VALUES)
             | st.builds(lambda a, b, c: node((1,), (a,), node((), (b, c))),
                         EDGE_VALUES, EDGE_VALUES, EDGE_VALUES)
             # k = 8 fills the 64-bit memo key with Q alone; with a second
             # shape the decoder keys by bytes
             | st.builds(lambda *c: node((), c), *[EDGE_VALUES] * 8), max_size=7))


def _q_walker(sx, sy, eq):
    """A small int, not a bit, that tells the shapes and the cells of Q
    apart, so that two pairs that wrongly share a memo key decode
    differently."""
    ay = shape_arity(sy)
    q = sum(eq(i, j) << (i * ay + j) for i in range(shape_arity(sx)) for j in range(ay))
    return (8 * q + 3 * len(sx.tag) + len(sy.tag)) % 61


@settings(derandomize=True, database=None, deadline=None)
@given(labels=LABELS, data=st.data())
def test_bulk_decoders_equal_the_per_pair_walker(labels, data):
    n = len(labels)
    shapes, codes = [sh for sh, _ in labels], [c for _, c in labels]

    def walker(u, v, vals=codes):
        return _q_walker(shapes[u], shapes[v], lambda i, j: vals[u][i] == vals[v][j])

    def key(u, v, vals=codes):
        return shapes[u], shapes[v], tuple(a == b for a in vals[u] for b in vals[v])

    def counted(sx, sy, eq):
        calls.append(1)
        return _q_walker(sx, sy, eq)

    # decode_rows over two stacked tables of the raw codes, the second reversed
    codec, calls = ShapeCodec(shapes), []
    sid, vals = codec.table(codec.ids, codes)
    rev = np.arange(n)[::-1]
    mats = CompiledDecoder(codec, counted).decode_rows(np.stack([sid, sid[rev]]),
                                                       np.stack([vals, vals[rev]]))
    for u in range(n):
        for v in range(u + 1, n):
            assert mats[0, u, v] == mats[0, v, u] == walker(u, v)
            assert mats[1, n - 1 - v, n - 1 - u] == walker(v, u)
    # one walker run per distinct (shape pair, Q) among the pairs decoded
    assert len(calls) == len({key(u, v) for u in range(n) for v in range(n) if u != v})
    # the same codes as the naive packed sketch's bits, both orders stacked
    naive = PackedEqualityScheme(EqualityScheme(labels, _q_walker))
    bits = naive.encode_bits([0])[0]
    assert (naive.decode_bits(np.stack([bits, bits[::-1]])) == mats).all()
    # the compressed trial decoder: each trial's pair under its own encoding
    if n:
        sk = compress_equality_scheme(EqualityScheme(labels, counted))
        us = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8)))
        vs = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=len(us),
                                         max_size=len(us))))
        seeds = counter_hash(data.draw(st.integers(0, 1 << 64)), 0, np.arange(len(us)))
        want, keys = [], set()
        for u, v, s in zip(us.tolist(), vs.tolist(), seeds.tolist()):
            hashed = [parse(sk, bits)[1] for bits in sk.encode(s)]
            want.append(walker(u, v, hashed))
            keys.add(key(u, v, hashed))
        calls.clear()
        assert sk.decode_trials(us, vs, seeds).tolist() == want
        assert len(calls) == len(keys)


IDS = st.lists(st.integers(0, 30), max_size=4).map(tuple)


@st.composite
def certificates(draw):
    """Well-formed certificates: dense ids, one star slice per uset, and
    usets and stars that name division ids."""
    order = draw(st.lists(st.tuples(st.sampled_from("xy"), st.integers(0, 30)),
                          max_size=6).map(tuple))
    flips = draw(st.lists(st.tuples(IDS, IDS), max_size=3).map(tuple))
    division = draw(st.lists(st.tuples(st.sampled_from("xy"),
                                       st.lists(st.integers(0, 30), min_size=1,
                                                max_size=4).map(tuple)),
                             max_size=5).map(tuple))
    if not division:
        return TwCertificate(order, flips, division, (), ())
    part = st.integers(0, len(division) - 1)
    parts = st.lists(part, max_size=3).map(tuple)
    usets = draw(st.lists(st.tuples(parts, parts), max_size=3).map(tuple))
    stars = tuple(draw(st.lists(st.builds(Star, part, parts), max_size=3).map(tuple))
                  for _ in usets)
    return TwCertificate(order, flips, division, usets, stars)


@settings(derandomize=True, database=None, deadline=None)
@given(cert=certificates(), name=st.text("abxy019-_.", min_size=1, max_size=8))
def test_certificate_file_round_trip(cert, name):
    assert parse_certificate(write_certificate(cert, name)) == (cert, name)


def _kept(draw, pairs):
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return [pair for pair, k in zip(pairs, keep) if k]


@st.composite
def graphs(draw, n_max=9):
    n = draw(st.integers(0, n_max))
    return Graph(n, _kept(draw, list(itertools.combinations(range(n), 2))))


@st.composite
def bigraphs(draw, side_max=6):
    nx, ny = draw(st.integers(0, side_max)), draw(st.integers(0, side_max))
    return ColoredBipartiteGraph(nx, ny, _kept(draw, list(itertools.product(range(nx), range(ny)))))


def _probes(n: int):
    """Every pair below BITSET_THRESHOLD; above it, each vertex's pairs at distance <= 2."""
    if n <= BITSET_THRESHOLD:
        return itertools.product(range(n), repeat=2)
    return ((v, w) for v in range(n) for w in range(max(0, v - 2), min(n, v + 3)))


@settings(derandomize=True, database=None, deadline=None)
@given(g=graphs())
@example(g=Graph(0, []))
@example(g=path(BITSET_THRESHOLD + 1))
def test_graph_rows_are_the_neighbour_bitsets(g):
    assert len(g.rows) == g.n
    for v in range(g.n):
        assert g.rows[v] == sum(1 << w for w in g.neighbors(v))
    for v, w in _probes(g.n):
        assert g.has_edge(v, w) == bool(g.rows[v] >> w & 1)


@settings(derandomize=True, database=None, deadline=None)
@given(g=bigraphs())
@example(g=ColoredBipartiteGraph(0, 3, []))
@example(g=ColoredBipartiteGraph(BITSET_THRESHOLD + 1, BITSET_THRESHOLD,
                                 [(x, y) for y in range(BITSET_THRESHOLD) for x in (y, y + 1)]))
def test_bigraph_rows_are_the_neighbour_bitsets(g):
    assert (len(g.rows_x), len(g.rows_y)) == (g.nx, g.ny)
    for x in range(g.nx):
        assert g.rows_x[x] == sum(1 << y for y in g.neighbors_x(x))
    for y in range(g.ny):
        assert g.rows_y[y] == sum(1 << x for x in g.neighbors_y(y))
    for x, y in _probes(max(g.nx, g.ny)):
        if x < g.nx and y < g.ny:
            assert g.has_edge(x, y) == bool(g.rows_x[x] >> y & 1)


@settings(derandomize=True, database=None, deadline=None)
@given(g=bigraphs(side_max=5))
def test_quasi_chain_number_is_min_of_qch_and_cap_plus_one(g):
    qch = quasi_chain_number(g, cap=g.nx + g.ny)
    for cap in range(g.nx + g.ny + 1):
        assert quasi_chain_number(g, cap=cap) == min(qch, cap + 1)


# --- the family self-checks against the per-pair checks they replace ---------

def _flip_one(draw, edges: set, pairs: list) -> list:
    """`edges`, sorted, with at most one of `pairs` toggled."""
    if pairs and draw(st.booleans()):
        edges = edges ^ {draw(st.sampled_from(pairs))}
    return sorted(edges)


@st.composite
def equivalence_inputs(draw):
    """A union of cliques on shuffled ids, or one with a vertex pair flipped."""
    sizes = draw(st.lists(st.integers(1, 4), max_size=4))
    n = sum(sizes)
    perm = draw(st.permutations(range(n)))
    edges = {tuple(sorted((perm[u], perm[v]))) for u, v in equivalence_graph(sizes).edges()}
    return Graph(n, _flip_one(draw, edges, list(itertools.combinations(range(n), 2))))


@st.composite
def bip_equivalence_inputs(draw):
    """A union of bicliques, or one with an X-Y pair flipped."""
    blocks = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4))
    g = bipartite_equivalence_graph(blocks)
    pairs = list(itertools.product(range(g.nx), range(g.ny)))
    return ColoredBipartiteGraph(g.nx, g.ny, _flip_one(draw, set(g.edges()), pairs))


@st.composite
def chain_inputs(draw):
    """A chain graph on shuffled Y ids, or one with an X-Y pair flipped."""
    ny = draw(st.integers(0, 6))
    profile = draw(st.lists(st.integers(0, ny), max_size=6))
    perm = draw(st.permutations(range(ny)))
    edges = {(x, perm[y]) for x, y in chain_graph(profile, ny).edges()}
    pairs = list(itertools.product(range(len(profile)), range(ny)))
    return ColoredBipartiteGraph(len(profile), ny, _flip_one(draw, edges, pairs))


def _outcome(build, *args):
    """What a label builder does with its input: the labels, or the message
    of the SchemeError it raises."""
    try:
        sch = build(*args)
        return sch.shapes, sch.codes
    except SchemeError as e:
        return str(e)


def _chain_graph_labels_per_pair(g, k):
    """`chain_graph_labels` as it was, checking its labels by running the
    walker on every (x, y) pair: the reference for its bitset check."""
    rank = sorted(range(g.ny), key=lambda y: (g.deg_y(y), y))
    rank_of = {y: r + 1 for r, y in enumerate(rank)}
    order = sorted([(g.ny - g.deg_x(x), 1, x) for x in range(g.nx)]
                   + [(rank_of[y], 0, y) for y in range(g.ny)], key=lambda t: (t[0], t[1]))
    idx_x, idx_y, a_runs, prev_side = {}, {}, 0, None
    for _, side, v in order:
        if side == 1:
            a_runs += prev_side != 1
            idx_x[v] = a_runs
        else:
            idx_y[v] = a_runs
        prev_side = side
    if max(a_runs, len(set(idx_y.values()))) > k + 1:
        raise SchemeError(f"more than k+1={k + 1} maximal intervals (chain number > {k})")
    bits = _width_for(k + 2)
    labels = ([node((0,) + _bits(idx_x[x], bits)) for x in range(g.nx)]
              + [node((1,) + _bits(idx_y[y], bits)) for y in range(g.ny)])
    scheme = EqualityScheme(labels, _chain_walker_factory(bits))
    for x in range(g.nx):
        for y in range(g.ny):
            if scheme.decode(x, g.nx + y) != int(g.has_edge(x, y)):
                raise SchemeError("input is not a chain graph (2K2 found)")
    return scheme


def _has_induced_2k2(g) -> bool:
    return any(g.has_edge(x1, y1) and g.has_edge(x2, y2)
               and not g.has_edge(x1, y2) and not g.has_edge(x2, y1)
               for x1, x2 in itertools.permutations(range(g.nx), 2)
               for y1, y2 in itertools.permutations(range(g.ny), 2))


@settings(derandomize=True, database=None, deadline=None)
@given(g=graphs(n_max=8) | equivalence_inputs())
def test_equivalence_check_rejects_as_the_per_pair_check(g):
    per_pair = all(g.has_edge(u, v) for comp in g.connected_components()
                   for u, v in itertools.combinations(comp, 2))
    if per_pair:
        assert equivalence_labels(g).check_exact(g.has_edge)
    else:
        assert _outcome(equivalence_labels, g) == "input is not an equivalence graph (induced P3)"


@settings(derandomize=True, database=None, deadline=None)
@given(g=bigraphs() | bip_equivalence_inputs())
def test_bip_equivalence_check_rejects_as_the_per_pair_check(g):
    per_pair = all(g.has_edge(x, y) for cx, cy in g.connected_components()
                   for x in cx for y in cy)
    if per_pair:
        assert bipartite_equivalence_labels(g).check_exact(g.to_graph().has_edge)
    else:
        assert _outcome(bipartite_equivalence_labels, g) == \
            "input is not a bipartite equivalence graph"


@settings(derandomize=True, database=None, deadline=None)
@given(g=bigraphs() | chain_inputs(), k=st.integers(0, 7))
def test_chain_graph_check_rejects_as_the_per_pair_check(g, k):
    assert _outcome(chain_graph_labels, g, k) == _outcome(_chain_graph_labels_per_pair, g, k)
    assert is_chain_graph(g) != _has_induced_2k2(g)


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(n=st.integers(50, 800), seed=st.integers(0, 1 << 16))
@example(n=50, seed=0)
@example(n=800, seed=0)
def test_sketch_width_does_not_grow_with_n(n, seed):
    # a sketch's size is a constant of the family, not of n: forests and
    # 3-degenerate graphs (arboricity 1 and 3, every arity present) and
    # equivalence graphs (one code) over a 16x range of n
    forest, kdeg = random_forest(n, seed), random_kdegenerate(n, 3, seed)
    assert compress_equality_scheme(arboricity_scheme(forest)).width == 9
    assert compress_equality_scheme(arboricity_scheme(kdeg)).width == 26
    assert (arboricity_sketch(forest).width, arboricity_sketch(kdeg).width) == (9, 23)
    equiv = random_equivalence(n, 5, seed)
    assert compress_equality_scheme(equivalence_labels(equiv)).width == 2
