"""The graph-file parser: its array path against the line loop.

`parse_graph` reads text in the exact form `write_graph` emits as arrays
and sends everything else, and canonical text that fails a check, to the
line loop.  These tests hold it to the line loop kept in
`tests/line_loop_parse.py`: the same graph and name, or the same exception
type and message, on texts mixed from canonical lines and every variant
the line loop accepts or rejects.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pugkit.graphs import (
    ARRAY_PARSE_MIN_EDGES,
    VERTEX_CAP,
    ColoredBipartiteGraph,
    Graph,
    GraphFormatError,
    _parse_canonical,
    parse_graph,
    write_graph,
)
from tests.line_loop_parse import parse_graph as line_loop_parse

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

#: Arabic-Indic digits: `int` reads them, the canonical form does not.
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def view(g):
    """Every adjacency of g, both sides of a bigraph included."""
    if isinstance(g, Graph):
        return ("graph", g.n, tuple(map(g.neighbors, range(g.n))))
    return ("bigraph", g.nx, g.ny, tuple(map(g.neighbors_x, range(g.nx))),
            tuple(map(g.neighbors_y, range(g.ny))))


def outcome(parse, text):
    """(view, name) of the parse, or (exception type, message)."""
    try:
        g, name = parse(text)
    except Exception as e:  # any type: the type is what is compared
        return type(e), str(e)
    return view(g), name


def edge_list(g) -> np.ndarray:
    return np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2)


@st.composite
def spelled(draw, value: int, plain: bool) -> str:
    """`value` as the line loop reads it: plain, or sometimes with leading
    zeros, a '+' sign or non-ASCII digits."""
    style = "plain" if plain else draw(st.sampled_from(["plain"] * 7 + ["zeros", "plus", "arabic"]))
    text = str(value)
    if style == "zeros":
        return "0" * draw(st.integers(1, 3)) + text
    if style == "plus":
        return "+" + text
    if style == "arabic":
        return text.translate(ARABIC_INDIC)
    return text


@st.composite
def graph_texts(draw) -> str:
    """A header of either kind, then distinct edges in either order plus up
    to two faults: a duplicate in either order, a self-loop, an id >= the
    part size or an id >= 2^63.  In half of the texts every line is
    canonical; in the other half the lines mix in comments, blank lines,
    tabs, CRLF and other spellings of the ids."""
    plain = draw(st.booleans())
    bip = draw(st.booleans())
    sizes = [draw(st.integers(0, 12)) for _ in range(2 if bip else 1)]
    if draw(st.sampled_from([False] * 19 + [True])):
        sizes[0] = draw(st.sampled_from([VERTEX_CAP + 1, 2**63]))
    nx, ny = (sizes * 2)[:2]
    pairs = list(itertools.product(range(min(nx, 12)), range(min(ny, 12))))
    if not bip:
        pairs = [(u, v) for u, v in pairs if u < v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * ARRAY_PARSE_MIN_EDGES)
                 if pairs else st.just([]))
    if not bip:
        edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        fault = draw(st.sampled_from(["dup", "loop", "past", "huge"]))
        u = draw(st.integers(0, max(nx, 1) - 1))
        if fault == "dup" and edges:
            u, v = draw(st.sampled_from(edges))
            if not bip and draw(st.booleans()):
                u, v = v, u
        elif fault == "past":
            v = ny + draw(st.integers(0, 2))
        elif fault == "huge":
            v = draw(st.sampled_from([2**63, 2**63 + 7, 10**20]))
        else:
            v = u
        edges.insert(draw(st.integers(0, len(edges))), (u, v))

    def sep():
        return " " if plain else draw(st.sampled_from([" "] * 12 + ["\t", "  "]))

    name = draw(st.sampled_from(["g", "h3", "a-b_c", "x.y"]))
    words = ["bigraph" if bip else "graph", name] + [draw(spelled(s, plain)) for s in sizes]
    lines = [sep().join(words)]
    for u, v in edges:
        lines.append(sep().join(["e", draw(spelled(u, plain)), draw(spelled(v, plain))]))
        if not plain and draw(st.sampled_from([False] * 9 + [True])):
            lines.append(draw(st.sampled_from(["# note", "  # e 0 1", "#", "", "   ", "\t"])))
        if not plain and draw(st.sampled_from([False] * 19 + [True])):
            lines[-1] += " # trailing"
    if plain:
        return "\n".join(lines) + "\n"
    newline = draw(st.sampled_from(["\n"] * 9 + ["\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline] * 5 + [""]))


@PROPERTY
@given(graph_texts())
@example("graph g 3\ne 0 1\n")
@example("bigraph g 2 0\n")
@example("graph g 0\n")
@example("graph g 4\ne 0 1\ne 1 0\n")
@example("graph g 3\ne 1 1\n")
@example("graph g 3\ne 0 3\n")
@example("bigraph g 2 3\ne 2 0\n")
@example("graph g 3\ne 0 \u0662\n")
@example("graph g 4\ne 0 1e 2 3\n")
def test_parse_graph_matches_the_line_loop(text):
    expected = outcome(line_loop_parse, text)
    assert outcome(parse_graph, text) == expected
    # the array path itself, below the edge-line count parse_graph tries it at
    arrays = _parse_canonical(text)
    if arrays is not None:
        assert (view(arrays[0]), arrays[1]) == expected


@st.composite
def any_graphs(draw, min_edges=0):
    """A graph or bigraph, often with more edges than ARRAY_PARSE_MIN_EDGES."""
    bip = draw(st.booleans())
    if bip:
        nx, ny = draw(st.integers(min_edges > 0, 10)), draw(st.integers(min_edges > 0, 10))
        pairs = list(itertools.product(range(nx), range(ny)))
    else:
        n = draw(st.integers(2 if min_edges else 0, 16))
        pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=min_edges, max_size=80)) if pairs else []
    return ColoredBipartiteGraph(nx, ny, edges) if bip else Graph(n, edges)


@PROPERTY
@given(any_graphs())
def test_edge_array_is_the_edge_list_and_files_round_trip(g):
    arr = g.edge_array()
    assert arr.dtype == np.int64 and not arr.flags.writeable
    assert np.array_equal(arr, edge_list(g))
    text = write_graph(g, "g")
    for parsed, name in (parse_graph(text), _parse_canonical(text)):
        assert name == "g" and parsed == g and view(parsed) == view(g)
        assert parsed.edge_array().dtype == np.int64 and not parsed.edge_array().flags.writeable
        assert np.array_equal(parsed.edge_array(), edge_list(g))


@st.composite
def edited_texts(draw) -> str:
    """A canonical graph file with a few characters inserted, deleted or
    replaced, or arbitrary text."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text())
    text = write_graph(draw(any_graphs(min_edges=3)), draw(st.sampled_from(["g", "a#b"])))
    # with an Arabic-Indic 3 and a no-break space
    alphabet = st.sampled_from(list("e 0123456789\n\t\r#+-x") + ["\u0663", "\u00a0"])
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            text = text[:at] + draw(alphabet) + text[at:]
        else:
            text = text[:at] + (draw(alphabet) if edit == "replace" else "") + text[at + 1:]
    return text


@PROPERTY
@given(edited_texts())
@example("graph g 3\ne 0 99999999999999999999\n")
@example("graph g 5\ne 0 1\ne 1 0\n")
@example("bigraph g 0 3\ne 0 1\n")
def test_the_array_path_never_raises(text):
    # it returns a graph the line loop agrees with, or declines
    arrays = _parse_canonical(text)
    if arrays is not None:
        assert (view(arrays[0]), arrays[1]) == outcome(line_loop_parse, text)


def _canonical_prefix(n: int) -> str:
    """A canonical graph file on n vertices with ARRAY_PARSE_MIN_EDGES edges."""
    edges = list(itertools.combinations(range(n), 2))[:ARRAY_PARSE_MIN_EDGES]
    return write_graph(Graph(n, edges), "g")


def test_an_id_past_int64_falls_back_to_the_line_loop():
    # the array path must decline, not overflow: the line loop names the edge
    text = _canonical_prefix(12) + "e 0 99999999999999999999\n"
    assert _parse_canonical(text) is None
    with pytest.raises(GraphFormatError, match=r"edge \(0,99999999999999999999\) out of range"):
        parse_graph(text)


@pytest.mark.parametrize("extra, message", [
    ("e 3 3\n", "self-loop at 3"),
    ("e 1 0\n", r"duplicate edge \(0, 1\)"),
    ("e 0 12\n", r"edge \(0,12\) out of range \[0,12\)"),
    ("e 0 1 # again\n", r"duplicate edge \(0, 1\)"),
])
def test_canonical_text_that_fails_a_check_gets_the_line_loop_message(extra, message):
    text = _canonical_prefix(12) + extra
    with pytest.raises(GraphFormatError, match=message):
        parse_graph(text)
    assert outcome(parse_graph, text) == outcome(line_loop_parse, text)


def test_canonical_text_is_read_as_arrays():
    text = _canonical_prefix(12)
    arrays = _parse_canonical(text)
    assert arrays is not None and arrays == parse_graph(text)


@pytest.mark.parametrize("text, message", [
    ("graph a 3\ne 0 x\n", "line 2: expected 'e <u> <v>', got 'e 0 x'"),
    ("graph a x\n", "line 1: bad header 'graph a x'"),
    ("bigraph a 2 y # sizes\n", "line 1: bad header 'bigraph a 2 y'"),
])
def test_a_bad_integer_names_its_line(text, message):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert str(err.value) == message
