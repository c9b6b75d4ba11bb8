"""The text readers, all built on `graphs.LineReader`.

Each reader the CLI reaches gets a valid file with up to three characters
inserted, deleted or replaced: the command exits 0, 2 or 3, and an exit-3
message names its line in pugkit's own words.  Every writer's file reads
back to an equal object, and only `LineReader` splits text into lines or
strips comments.
"""

import ast
import json
import pathlib
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pugkit
from pugkit import bipartite, protocols
from pugkit.cli import main
from pugkit.generators import complete, path, random_forest, random_kdegenerate, random_tp_free
from pugkit.geometric import (interval_graph_from, parse_realization, random_intervals,
                              write_realization)
from pugkit.graphs import Graph, GraphFormatError, write_graph
from pugkit.labels import (SHAPE_DEPTH_CAP, SchemeError, node, parse_decoder_file,
                           parse_label_file, shape_arity, shape_from_str, write_decoder_file,
                           write_label_file)
from pugkit.sketch import arboricity_scheme
from pugkit.twinwidth import (parse_certificate, parse_partition_seq, twin_width_exact,
                              write_certificate, write_partition_seq)

#: Python's own words for a failed conversion, which no message may hold.
LEAKS = re.compile(r"invalid literal|unpack|could not convert|index out of range")
LINE = re.compile(r"line \d+: ")
#: The checks that a whole file fails and no one line does: a graph's edge
#: checks (their texts are the line loop's, kept word for word) and a
#: certificate's cross-references.
WHOLE_FILE = re.compile(r"edge \(-?\d+,-?\d+\) out of range|self-loop at "
                        r"|duplicate edge \(|star slice -?\d+ has no uset|not a division id")

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
ROUND_TRIP = settings(derandomize=True, database=None, deadline=None, max_examples=25)

#: What an edit puts in: the formats' own characters, a tab, a no-break
#: space, an Arabic-Indic 3 and a superscript 2.
ALPHABET = st.sampled_from(list("0123456789-,|:()=*#\n xe.") + ["\t", " ", "٣", "²"])


@st.composite
def edited(draw, text: str) -> str:
    """`text` with up to three characters inserted, deleted or replaced."""
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = "" if edit == "delete" else draw(ALPHABET)
        text = text[:at] + piece + text[at + (edit != "insert"):]
    return text


def exits_0_2_or_3(capsys, *argv) -> int:
    """Runs the CLI: it exits 0, 2 or 3, and on 3 its message names the
    line at fault (or is a whole-file verdict) and leaks no Python text."""
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    if code == 3:
        assert LINE.search(err) or WHOLE_FILE.search(err), err
        assert not LEAKS.search(err), err
    return code


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid files of every format the CLI reads, with what each needs."""
    tmp = tmp_path_factory.mktemp("readers")

    def put(name: str, text: str) -> pathlib.Path:
        (tmp / name).write_text(text)
        return tmp / name

    out = {}
    # K9 less one edge: 35 edge lines, enough for the array path
    k9 = Graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9)][1:])
    out["graph"] = write_graph(k9, "k9")
    for name, g, scheme in (("forest", random_forest(8, seed=1), ["--scheme", "arboricity"]),
                            ("tp", random_tp_free(9, 12, 2, seed=1),
                             ["--scheme", "tp-free", "--p", "2", "--q", "4"])):
        gf = put(f"{name}.graph", write_graph(g, name))
        assert main(["label", str(gf), *scheme, "--out", str(tmp / f"{name}.labels"),
                     "--decoder-out", str(tmp / f"{name}.dec")]) == 0
    assert (tmp / "forest.dec").read_text().startswith("decoder table")
    assert (tmp / "tp.dec").read_text().startswith("decoder tree")
    items = random_intervals(6, seed=1)
    out["interval.graph"] = put("interval.graph", write_graph(interval_graph_from(items), "iv"))
    out["intervals"] = write_realization("intervals", items, "iv")
    from tests.test_twinwidth import make_two_level_instance

    g, cert = make_two_level_instance()
    out["cert.graph"] = put("cert.graph", write_graph(g, "two"))
    out["cert"] = write_certificate(cert, "two")
    out["k4.graph"] = put("k4.graph", write_graph(complete(4), "k4"))
    out["seq"] = write_partition_seq(twin_width_exact(path(5))[1])
    out["path.graph"] = put("path.graph", write_graph(path(5), "p5"))
    out["tmp"] = tmp
    return out


@PROPERTY
@given(data=st.data())
def test_edited_graph_file(files, tmp_path, capsys, data):
    gf = tmp_path / "g.graph"
    gf.write_text(data.draw(edited(files["graph"])))
    exits_0_2_or_3(capsys, "verify", "width-seq", gf, files["k4.graph"])


@PROPERTY
@given(data=st.data())
def test_edited_label_file(files, tmp_path, capsys, data):
    labels = tmp_path / "l.labels"
    labels.write_text(data.draw(edited((files["tmp"] / "forest.labels").read_text())))
    exits_0_2_or_3(capsys, "query", labels, 1, 2, "--decoder", files["tmp"] / "forest.dec")


@PROPERTY
@given(data=st.data(), kind=st.sampled_from(["tree", "table"]))
def test_edited_decoder_file(files, tmp_path, capsys, data, kind):
    name, pair = ("tp", (0, 9)) if kind == "tree" else ("forest", (1, 2))
    dec = tmp_path / "d.dec"
    dec.write_text(data.draw(edited((files["tmp"] / f"{name}.dec").read_text())))
    exits_0_2_or_3(capsys, "query", files["tmp"] / f"{name}.labels", *pair, "--decoder", dec)


@PROPERTY
@given(data=st.data())
def test_edited_realization_file(files, tmp_path, capsys, data):
    rf = tmp_path / "r.real"
    rf.write_text(data.draw(edited(files["intervals"])))
    exits_0_2_or_3(capsys, "label", files["interval.graph"], "--scheme", "interval", "--k", 3,
                   "--realization", rf)


@PROPERTY
@given(data=st.data())
def test_edited_certificate_file(files, tmp_path, capsys, data):
    cf = tmp_path / "c.cert"
    cf.write_text(data.draw(edited(files["cert"])))
    exits_0_2_or_3(capsys, "verify", "twcert", files["cert.graph"], cf)


@PROPERTY
@given(data=st.data())
def test_edited_width_seq_file(files, tmp_path, capsys, data):
    sf = tmp_path / "s.seq"
    sf.write_text(data.draw(edited(files["seq"])))
    exits_0_2_or_3(capsys, "verify", "width-seq", files["path.graph"], sf)


# ---------------------------------------------------------------------------
# Malformed lines, each named in pugkit's words.
# ---------------------------------------------------------------------------

def _replace_line(text: str, lineno: int, line: str) -> str:
    lines = text.splitlines()
    lines[lineno - 1] = line
    return "\n".join(lines) + "\n"


def _insert_line(text: str, lineno: int, line: str) -> str:
    lines = text.splitlines()
    lines.insert(lineno - 1, line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("what, lineno, line, message", [
    ("labels", 2, "v 0 -0 -", "line 2: expected a shape '<tag>:<arity>', got '-0'"),
    ("labels", 2, "v 0 1x:0 -", "line 2: expected a shape '<tag>:<arity>', got '1x:0'"),
    ("labels", 1, "labels c5 s=x k=2", "line 1: expected an integer, got 'x'"),
    ("labels", 2, "v 0 -:1 4,x", "line 2: expected a comma list of integers or '-', got '4,x'"),
    ("labels", 2, "v x -:2 1,2", "line 2: expected an integer, got 'x'"),
    ("labels", 1, "labels f s=1", "line 1: header s=1 does not match the labels' s=0"),
    ("labels", 3, "v 0 -:1 5", "line 3: vertex id 0 appears twice"),
    ("labels", 2, "v 8 -:1 5", "line 2: vertex id 8 is not in 0..7"),
    ("dec", 3, "t 0 x 00 1", "line 3: expected an integer, got 'x'"),
    ("dec", 3, "t 0 0 0*2* 1", "line 3: expected 4 Q cells of '0', '1' or '*', got '0*2*'"),
    ("dec", 3, "t 0 0 000 1", "line 3: expected 4 Q cells of '0', '1' or '*', got '000'"),
    ("dec", 3, "x 0 0", "line 3: expected a 'shape' or 't' line, got 'x 0 0'"),
    ("dec", 1, "decoder graph", "line 1: expected 'decoder tree <spec>' or 'decoder table', "
                                "got 'decoder graph'"),
    ("tree", 2, "GARBAGE here", "line 2: expected a 'shape' line, got 'GARBAGE here'"),
    ("tree", 2, "t 0 0 00 1", "line 2: expected a 'shape' line, got 't 0 0 00 1'"),
    ("tree", 2, "shape 0 -:2:1", "line 2: expected a shape '<tag>:<arity>', got '-:2:1'"),
    ("tree", 2, "shape 0 -:2(-:0", "line 2: unbalanced shape parentheses"),
])
def test_a_malformed_query_file_names_its_line(files, tmp_path, capsys, what, lineno, line,
                                               message):
    name = "tp" if what == "tree" else "forest"
    paths = {"labels": files["tmp"] / f"{name}.labels", "dec": files["tmp"] / f"{name}.dec"}
    target = "labels" if what == "labels" else "dec"
    # a tree file is its header line alone: its bad line goes in after it
    edit = _insert_line if what == "tree" else _replace_line
    bad = tmp_path / "bad"
    bad.write_text(edit(paths[target].read_text(), lineno, line))
    paths[target] = bad
    code = main(["query", str(paths["labels"]), "0", "1", "--decoder", str(paths["dec"])])
    err = capsys.readouterr().err
    assert code == 3 and err.rstrip().endswith(message), err


def test_a_tree_decoder_reads_its_body(files, tmp_path, capsys):
    # a tree file's body was never read: a stray line decoded as if absent
    tmp, dec = files["tmp"], tmp_path / "t.dec"
    dec.write_text('decoder tree {"name": "arboricity"}\nGARBAGE here\n')
    assert exits_0_2_or_3(capsys, "query", tmp / "forest.labels", 0, 7, "--decoder", dec) == 3
    # the shape lines of older tree files are read and checked, not used
    dec.write_text('decoder tree {"name": "arboricity"}\nshape 5 -:9\n')
    code = main(["query", str(tmp / "forest.labels"), "0", "7", "--decoder", str(dec)])
    assert code == 0


def test_a_decoder_table_shape_nested_past_the_cap_exits_3(files, tmp_path, capsys):
    # 600 levels used to parse, and then hashing the shape recursed past the
    # interpreter's limit: a traceback
    deep = "-:0" + "(-:0" * 600 + ")" * 600
    dec = tmp_path / "deep.dec"
    dec.write_text(f"decoder table s=0 k=0\nshape 0 {deep}\n")
    code = main(["query", str(files["tmp"] / "forest.labels"), "0", "1", "--decoder", str(dec)])
    assert code == 3 and "line 2: shape nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("i 0 1 x", "line 2: expected a finite number, got 'x'"),
    ("i 0 nan 2", "line 2: expected a finite number, got 'nan'"),
    ("i 0 1 1e400", "line 2: expected a finite number, got '1e400'"),
    ("i 0 2 0", "line 2: expected an interval with l <= r, got 'i 0 2 0'"),
    ("i x 0 1", "line 2: expected an integer, got 'x'"),
    ("i 1 0 1", "line 3: interval id 1 appears twice"),
    ("i -1 0 1", "line 2: interval id -1 is not in 0..5"),
])
def test_a_malformed_realization_line_exits_3(files, tmp_path, capsys, line, message):
    rf = tmp_path / "r.real"
    rf.write_text(_replace_line(files["intervals"], 2, line))
    code = main(["label", str(files["interval.graph"]), "--scheme", "interval", "--k", "3",
                 "--realization", str(rf)])
    err = capsys.readouterr().err
    assert code == 3 and err.rstrip().endswith(message), err


@pytest.mark.parametrize("seq, message", [
    ("q 0,1|2", "line 1: expected 'p <part>|<part>|...', got 'q 0,1|2'"),
    ("p 0,x|1", "line 1: expected a comma list of integers or '-', got '0,x'"),
    ("p 0,1|2,3|4|", "line 1: expected a comma list of integers or '-', got ''"),
    ("p 0,1 2,3", "line 1: expected 'p <part>|<part>|...', got 'p 0,1 2,3'"),
])
def test_a_malformed_width_seq_exits_3(tmp_path, capsys, seq, message):
    # these exited 2, the family-contract code, or 3 with int()'s message
    gf, sf = tmp_path / "k3.graph", tmp_path / "s.seq"
    gf.write_text(write_graph(complete(3), "k3"))
    sf.write_text(seq + "\n")
    code = main(["verify", "width-seq", str(gf), str(sf)])
    err = capsys.readouterr().err
    assert code == 3 and err.rstrip().endswith(message), err


def test_certificate_and_protocol_faults_name_their_line():
    from tests.test_twinwidth import make_two_level_instance

    text = write_certificate(make_two_level_instance()[1], "two")
    for lineno, line, message in (
            (3, "flip 0 C=1 B=-", "line 3: expected A=..., got 'C=1'"),
            (3, "flip 0 A=1,x B=-", "line 3: expected a comma list of integers or '-', got '1,x'"),
            (2, "order x0 y", "line 2: expected an integer, got ''"),
            (3, "flip 1 A=2,3 B=0,1", "line 3: flip id 1 is not in 0..0"),
            (4, "division 1 x 0,1", "line 5: division id 1 appears twice"),
            (10, "uset 2 X=1 Y=4", "line 10: uset id 2 is not in 0..1"),
            (12, "star 1 1 center=1 leaves=4", "line 12: slice 1 star id 1 is not in 0..0")):
        with pytest.raises(GraphFormatError) as err:
            parse_certificate(_replace_line(text, lineno, line))
        assert str(err.value) == message
    text = protocols.write_protocol(protocols.gt_protocol(3), "gt", 3)
    for lineno, line, message in (
            (3, "leaf x", "line 3: expected an integer, got 'x'"),
            (2, "comm A 0,1", "line 2: expected m=..., got '0,1'"),
            (3, "leaf 0 1", "line 3: expected 'leaf <out>', got 'leaf 0 1'"),
            (3, "node 1", "line 3: expected a 'leaf', 'comm' or 'eq' node, got 'node'")):
        with pytest.raises(GraphFormatError) as err:
            protocols.parse_protocol(_replace_line(text, lineno, line))
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# Every writer's file reads back.
# ---------------------------------------------------------------------------

SCHEMES = {
    "forest": lambda seed: arboricity_scheme(random_forest(12, seed=seed)),
    "kdeg3": lambda seed: arboricity_scheme(random_kdegenerate(14, 3, seed=seed)),
    "tp-free": lambda seed: bipartite.tp_free_labels(random_tp_free(8, 10, 2, seed=seed), p=2, q=4),
}


@ROUND_TRIP
@given(family=st.sampled_from(sorted(SCHEMES)), seed=st.integers(0, 50),
       name=st.text("abxy019-_.", min_size=1, max_size=8))
def test_label_and_decoder_files_round_trip(family, seed, name):
    sch = SCHEMES[family](seed)
    parsed, got_name, fields = parse_label_file(write_label_file(sch, name))
    assert (parsed, got_name) == (list(zip(sch.shapes, sch.codes)), name)
    assert fields == {"s": sch.s, "k": sch.k, "width": sch.s + sch.k}
    text = write_decoder_file(sch)
    assert text.startswith("decoder tree" if family == "tp-free" else "decoder table")
    decode = parse_decoder_file(text)
    assert all(decode(parsed[u], parsed[v]) == sch.decode(u, v)
               for u in range(sch.n) for v in range(sch.n) if u != v)


def test_a_parsed_decoder_raises_the_library_errors():
    # a shape the table does not list breaks the family contract (exit 2); a
    # tree walker that cannot run on the labels is a fault of the file (exit 3)
    sch = arboricity_scheme(path(4))
    decode = parse_decoder_file(write_decoder_file(sch))
    with pytest.raises(SchemeError, match="^label shape unknown to decoder$"):
        decode(node((1,), (0, 1, 2)), (sch.shapes[0], sch.codes[0]))
    decode = parse_decoder_file('decoder tree {"name": "equivalence"}\n')
    with pytest.raises(GraphFormatError,
                       match=r"^line 1: decoder does not fit the labels \(IndexError\)$"):
        decode(node(), node())


@pytest.mark.parametrize("tree, want", [
    ([0, 0, [9, 9, 0, 0], 1], 1),      # the bad ask is off the path, so never read
    ([1, 1, 0, 1], 0),
    ([0, 2, 0, 1], "IndexError"),      # a cell past the tuple
    ([-1, 0, 0, 1], "IndexError"),     # no wrap to the last code
    ([0, True, 0, 1], "IndexError"),
    ([0, 0, 1], "ValueError"),         # an ask of three fields
    ([0, 0, 0, 2], "ValueError"),      # a leaf that is not a bit
    (True, "ValueError"),
    ("1", "ValueError"),
])
def test_an_eq_tree_decoder_reads_only_its_path_and_rejects_bad_nodes(tree, want):
    decode = parse_decoder_file(f"decoder tree {json.dumps({'name': 'eq-tree', 'tree': tree})}\n")
    x, y = node((), (5, 6)), node((), (5, 7))
    if isinstance(want, int):
        assert decode(x, y) == want
        return
    with pytest.raises(GraphFormatError,
                       match=rf"^line 1: decoder does not fit the labels \({want}\)$"):
        decode(x, y)


@pytest.mark.parametrize("header, message", [
    ("labels g s=0 k=0 width=0", "line 1: header s=0 does not match the labels' s=2"),
    ("labels g s=2 k=1", "line 1: header k=1 does not match the labels' k=2"),
    ("labels g width=2", "line 1: header width=2 does not match the labels' width=4"),
    ("labels g s=2 k=2 width=4", None),
    ("labels g k=2", None),
    ("labels g", None),
])
def test_label_header_fields_match_the_labels(header, message):
    text = f"{header}\nv 0 11:2 5,6\nv 1 -:1 5\n"
    if message is None:
        assert parse_label_file(text)[0][0][1] == (5, 6)
    else:
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
            parse_label_file(text)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@ROUND_TRIP
@given(st.lists(st.tuples(FINITE, FINITE), max_size=6), st.sampled_from(["intervals", "points"]))
def test_realization_files_round_trip(pairs, kind):
    items = [(min(p), max(p)) for p in pairs] if kind == "intervals" else pairs
    assert parse_realization(write_realization(kind, items, "r")) == (kind, items, "r")


CODES = st.lists(st.integers(-3, 9), min_size=3, max_size=3).map(tuple)
NODES = st.recursive(
    st.builds(protocols.Leaf, st.integers(0, 1)),
    lambda inner: st.builds(protocols.CommNode, st.sampled_from("AB"), CODES, inner, inner)
    | st.builds(protocols.EqNode, CODES, CODES, inner, inner),
    max_leaves=8)


@ROUND_TRIP
@given(NODES, st.text("abxy019-_.", min_size=1, max_size=8))
def test_protocol_files_round_trip(tree, name):
    assert protocols.parse_protocol(protocols.write_protocol(tree, name, 3)) == (tree, name, 3)


PARTS = st.lists(st.lists(st.integers(0, 30), min_size=1, max_size=4), min_size=0, max_size=4)


@ROUND_TRIP
@given(st.lists(PARTS, min_size=1, max_size=4))
@example([[[0, 1, 2]], [[0], [1, 2]], [[0], [1], [2]]])
def test_width_seq_files_round_trip(seq):
    assert parse_partition_seq(write_partition_seq(seq)) == [[tuple(sorted(p)) for p in parts]
                                                             for parts in seq]


# ---------------------------------------------------------------------------
# One line reader.
# ---------------------------------------------------------------------------

def test_only_the_line_reader_splits_lines_or_strips_comments():
    # every text format is read through graphs.LineReader; no module keeps a
    # line loop of its own
    found = []
    for source in sorted(pathlib.Path(pugkit.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text())
        for top in tree.body:
            if source.name == "graphs.py" and getattr(top, "name", None) == "LineReader":
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "splitlines" \
                        or isinstance(node, ast.Constant) and node.value == "#":
                    found.append(f"{source.name}:{node.lineno}")
    assert found == []


def _is_dict_of_object(node):
    # `x.__dict__` or `vars(x)`
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__"
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "vars")


def test_no_module_writes_to_an_objects_dict():
    # an object's state is what its class declares: no module seeds a value
    # past a frozen dataclass's fields by writing to its __dict__
    mutators = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__"}
    found = []
    for source in sorted(pathlib.Path(pugkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            if any(isinstance(t, ast.Subscript) and _is_dict_of_object(t.value) for t in targets) \
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in mutators and _is_dict_of_object(node.func.value):
                found.append(f"{source.name}:{node.lineno}")
    assert found == []


def test_shapes_nest_up_to_the_cap():
    def nested(depth):
        return "-:1" + "(-:1" * (depth - 1) + ")" * (depth - 1)

    assert shape_arity(shape_from_str(nested(SHAPE_DEPTH_CAP))) == SHAPE_DEPTH_CAP
    with pytest.raises(GraphFormatError, match="^shape nested too deeply$"):
        shape_from_str(nested(SHAPE_DEPTH_CAP + 1))
