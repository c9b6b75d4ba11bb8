"""Table-built schemes against the per-vertex `node()` builders they
replaced: the arboricity, equivalence and bipartite equivalence schemes
must hold the same labels, codec, alphabet and code table, so every file
and sketch they feed stays byte-identical.  A label-built scheme's code
table numbers its codes by rank, whatever their size."""

import numpy as np
import pytest

from pugkit.bipartite import bipartite_equivalence_labels, equivalence_labels
from pugkit.generators import (
    bipartite_equivalence_graph,
    equivalence_graph,
    random_forest,
    random_kdegenerate,
)
from pugkit.graphs import ColoredBipartiteGraph, Graph
from pugkit.labels import EqualityScheme, TableScheme, node, shape_arity
from pugkit.sketch import (
    CompressedEqualityScheme,
    arboricity_scheme,
    evaluate_error,
    naive_derandomize,
    naive_label_width,
)
from pugkit.structure import forest_partition


def node_arboricity_scheme(g: Graph) -> EqualityScheme:
    """The arboricity scheme as one `node()` label per vertex: (self id,
    then one parent id per forest)."""
    parents = forest_partition(g)
    rows = np.column_stack([np.arange(g.n), parents]).tolist()
    arities = (1 + np.count_nonzero(parents >= 0, axis=1)).tolist()
    shapes = [node((), (0,) * a)[0] for a in range(parents.shape[1] + 2)]
    labels = [(shapes[a], tuple(row[:a])) for row, a in zip(rows, arities)]
    return EqualityScheme(labels, {"name": "arboricity"}, name="arboricity")


def node_equivalence_labels(g: Graph) -> EqualityScheme:
    """The equivalence scheme as one `node()` label per vertex: the index
    of its component."""
    cls = [0] * g.n
    for i, comp in enumerate(g.connected_components()):
        for v in comp:
            cls[v] = i
    labels = [node((), (cls[v],)) for v in range(g.n)]
    return EqualityScheme(labels, {"name": "equivalence"}, name="equivalence")


def node_bipartite_equivalence_labels(g: ColoredBipartiteGraph) -> EqualityScheme:
    """The bipartite equivalence scheme as one `node()` label per vertex:
    its side's tag and the index of its component, X first, then Y."""
    labels = [None] * (g.nx + g.ny)
    for i, (cx, cy) in enumerate(g.connected_components()):
        for x in cx:
            labels[x] = node((0,), (i,))
        for y in cy:
            labels[g.nx + y] = node((1,), (i,))
    return EqualityScheme(labels, {"name": "bip-equivalence"}, name="bip-equivalence")


def star(n: int, centre: int, first: int = 0) -> Graph:
    """The star on vertices first..n-1 with its centre at `centre`; the
    vertices below `first` are isolated."""
    return Graph(n, [(centre, v) for v in range(first, n) if v != centre])


EMPTY = {"n=0": Graph(0, []), "n=1": Graph(1, []), "edgeless": Graph(6, [])}
# the peel takes the centre of a star before its last leaf only when the
# centre's id is the smaller, so vertex 0 has a parent, arity 2, in both
# 40-vertex stars; an isolated vertex 0 shows arity 1 first
ARBORICITY = {**EMPTY, "star0": star(40, 0), "star39": star(40, 39),
              "isolated0-star1": star(40, 1, first=1),
              "forest705": random_forest(705, seed=1), "kdeg400": random_kdegenerate(400, 3, seed=1)}
EQUIVALENCE = {**EMPTY, "classes": equivalence_graph([45, 30, 1, 12]),
               "singletons": equivalence_graph([1, 1, 1])}
# isolated vertices on either side are components of their own, and
# with nx = 0 the first shape seen is Y's
BIPARTITE = {"empty": ColoredBipartiteGraph(0, 0, []), "nx=0": ColoredBipartiteGraph(0, 3, []),
             "ny=0": ColoredBipartiteGraph(2, 0, []),
             "isolated": bipartite_equivalence_graph([(0, 2), (3, 2), (1, 0), (2, 4), (0, 1)]),
             "star": ColoredBipartiteGraph(2, 3, [(1, 0), (1, 2)])}
CASES = ([(node_arboricity_scheme, arboricity_scheme, name, g) for name, g in ARBORICITY.items()]
         + [(node_arboricity_scheme, arboricity_scheme, name, g) for name, g in EQUIVALENCE.items()
            if name not in EMPTY]
         + [(node_equivalence_labels, equivalence_labels, name, g)
            for name, g in EQUIVALENCE.items()]
         + [(node_bipartite_equivalence_labels, bipartite_equivalence_labels, name, g)
            for name, g in BIPARTITE.items()])


def assert_same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("reference, build, name, g", CASES,
                         ids=[f"{build.__name__}-{name}" for _, build, name, _ in CASES])
def test_table_built_scheme_equals_the_node_built_one(reference, build, name, g):
    want, got = reference(g), build(g)
    assert isinstance(got, TableScheme)
    assert (got.name, got.spec, got.n) == (want.name, want.spec, want.n)
    assert got.shapes == want.shapes and got.codes == want.codes
    assert got.codec.shapes == want.codec.shapes
    assert (got.codec.arities, got.codec.k, got.codec.shape_bits) == \
        (want.codec.arities, want.codec.k, want.codec.shape_bits)
    assert got.alphabet == want.alphabet
    assert_same_arrays(got.table, want.table)
    assert (got.s, got.k) == (want.s, want.k)
    assert naive_label_width(got) == naive_label_width(want)
    sid, vals = want.table
    np.testing.assert_array_equal(got.decoder.decode_rows(sid[None], vals[None]),
                                  want.decoder.decode_rows(sid[None], vals[None]))
    assert [got.label(v) for v in range(got.n)] == [want.label(v) for v in range(want.n)]


def test_the_first_shape_seen_gets_id_zero():
    for name, arities in (("star0", [2, 1]), ("star39", [2, 1]), ("isolated0-star1", [1, 2])):
        assert [sh.arity for sh in arboricity_scheme(ARBORICITY[name]).codec.shapes] == arities


def test_the_bulk_path_builds_no_per_vertex_labels():
    # the sketches, the bulk check and the naive width read the table alone;
    # one pair decoded builds the labels
    kd, eq = random_kdegenerate(60, 3, seed=2), equivalence_graph([5, 1, 7])
    for sch, g in ((arboricity_scheme(kd), kd), (equivalence_labels(eq), eq)):
        evaluate_error(CompressedEqualityScheme(sch), g, trials=50, seed=3)
        naive_derandomize(sch)
        assert sch.check_exact(g.has_edge)
        assert "shapes" not in vars(sch) and "codes" not in vars(sch)
        assert sch.decode(0, 1) == g.has_edge(0, 1)
        assert "shapes" in vars(sch) and "codes" in vars(sch)


@pytest.mark.parametrize("top", [2**63 + 1, 2**70], ids=["2**63+1", "2**70"])
def test_codes_of_any_size_are_numbered_by_rank(top):
    # codes past int64 on both sides, and two that a float would merge:
    # the table, decoding, and the naive and compressed labels are those of
    # the same labels with each code replaced by its rank
    raw = [(top, -3), (2**63, -3), (2**63 + 1, 5), (top, 2**63), (5,)]
    rank = {c: i for i, c in enumerate(sorted({c for cs in raw for c in cs}))}

    def scheme(codes):
        labels = [node((len(cs) % 2,), cs[:1], node((), cs[1:])) for cs in codes]
        return EqualityScheme(labels, lambda sx, sy, eq: int(eq(0, shape_arity(sy) - 1)))

    got, want = scheme(raw), scheme([tuple(rank[c] for c in cs) for cs in raw])
    assert [row[:len(cs)] for row, cs in zip(got.table[1].tolist(), raw)] == \
        [[rank[c] for c in cs] for cs in raw]
    assert_same_arrays(got.table, want.table)
    assert got.alphabet == want.alphabet == len(rank)
    pairs = [(u, v) for u in range(got.n) for v in range(got.n)]
    assert [got.decode(u, v) for u, v in pairs] == [want.decode(u, v) for u, v in pairs]
    assert naive_derandomize(got).labels == naive_derandomize(want).labels
    for seed in range(3):
        assert CompressedEqualityScheme(got).encode(seed) == \
            CompressedEqualityScheme(want).encode(seed)
