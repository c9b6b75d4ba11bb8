import itertools
import os
import random
import time

import pytest

from pugkit.cli import main
from pugkit.labels import SchemeError
from pugkit.twinwidth import write_certificate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_half_graph(tmp_path, capsys):
    out = tmp_path / "h5.graph"
    code, _, _ = run(capsys, "gen", "half-graph", "--k", "5", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("graph half-graph 10")
    assert text.count("\ne ") == 15


def test_gen_hypercube_and_z(tmp_path, capsys):
    out = tmp_path / "q4.graph"
    code, _, _ = run(capsys, "gen", "hypercube", "--d", "4", "--out", str(out))
    assert code == 0
    assert out.read_text().count("\ne ") == 32
    out2 = tmp_path / "z.graph"
    code2, _, _ = run(capsys, "gen", "z", "--q", "2", "--s", "2", "--out", str(out2))
    assert code2 == 0
    assert out2.read_text().startswith("bigraph z 2 4")


@pytest.mark.parametrize("kind", ["tree", "table"])
def test_diagonal_labels_query_through_their_decoder_file(tmp_path, capsys, kind):
    # a protocol's diagonal labels name a registered walker, so their
    # decoder file reads back, in the library and in `pugkit query`
    from pugkit.generators import equivalence_graph, random_forest
    from pugkit.labels import parse_decoder_file, parse_label_file, write_decoder_file, write_label_file
    from pugkit.protocols import EqNode, Leaf, labels_to_protocol, protocol_to_diagonal_labels
    from pugkit.sketch import arboricity_scheme

    if kind == "tree":
        g = random_forest(30, seed=3)
        tree = labels_to_protocol(arboricity_scheme(g))
    else:
        g = equivalence_graph([2, 3, 1])
        same = tuple(min((v, *g.neighbors(v))) for v in range(g.n))
        tree = EqNode(same, same, Leaf(0), Leaf(1))
    diag = protocol_to_diagonal_labels(tree, g)
    labels, dec = tmp_path / "diag.labels", tmp_path / "diag.dec"
    labels.write_text(write_label_file(diag, "bip"))
    dec.write_text(write_decoder_file(diag))
    assert dec.read_text().startswith(f"decoder {kind}")
    decode, parsed = parse_decoder_file(dec.read_text()), parse_label_file(labels.read_text())[0]
    pairs = list(itertools.permutations(range(diag.n), 2))
    assert [decode(parsed[u], parsed[v]) for u, v in pairs] == \
        [diag.decode(u, v) for u, v in pairs]
    for u, v in random.Random(1).sample(pairs, 20):
        code, out, _ = run(capsys, "query", str(labels), str(u), str(v), "--decoder", str(dec))
        assert (code, out) == (0, f"{u} {v} {diag.decode(u, v)}\n")


def test_gen_bad_params(capsys):
    code, _, err = run(capsys, "gen", "half-graph")
    assert code == 3


def test_label_query_roundtrip(tmp_path, capsys):
    g = tmp_path / "g.graph"
    run(capsys, "gen", "forest", "--n", "12", "--seed", "5", "--out", str(g))
    labels = tmp_path / "labels.txt"
    dec = tmp_path / "dec.txt"
    code, _, err = run(capsys, "label", str(g), "--scheme", "arboricity",
                       "--out", str(labels), "--decoder-out", str(dec))
    assert code == 0 and "scheme=arboricity" in err
    from pugkit.graphs import parse_graph

    graph, _ = parse_graph(g.read_text())
    for u, v in list(graph.edges())[:5]:
        code, out, _ = run(capsys, "query", str(labels), str(u), str(v),
                           "--decoder", str(dec))
        assert code == 0
        assert out.strip().endswith("1")
    # label file parses losslessly
    from pugkit.labels import parse_label_file

    parsed, name, fields = parse_label_file(labels.read_text())
    assert len(parsed) == graph.n


def test_label_tp_free(tmp_path, capsys):
    g = tmp_path / "t.graph"
    run(capsys, "gen", "biclique", "--a", "3", "--b", "4", "--out", str(g))
    labels = tmp_path / "l.txt"
    dec = tmp_path / "d.txt"
    code, _, _ = run(capsys, "label", str(g), "--scheme", "tp-free",
                     "--p", "1", "--q", "2", "--out", str(labels),
                     "--decoder-out", str(dec))
    assert code == 0
    code, out, _ = run(capsys, "query", str(labels), "0", "3", "--decoder", str(dec))
    assert code == 0 and out.strip().endswith("1")


def test_scheme_graph_kind_mismatch(tmp_path, capsys):
    g = tmp_path / "g.graph"
    run(capsys, "gen", "path", "--n", "4", "--out", str(g))
    code, _, _ = run(capsys, "label", str(g), "--scheme", "bip-equivalence")
    assert code == 2


def test_sketch_and_eval(tmp_path, capsys):
    g = tmp_path / "g.graph"
    run(capsys, "gen", "forest", "--n", "20", "--seed", "2", "--out", str(g))
    sk = tmp_path / "sk.txt"
    code, _, err = run(capsys, "sketch", str(g), "--scheme", "arboricity-bloom",
                       "--seed", "7", "--out", str(sk))
    assert code == 0 and "width=" in err
    code2, out, _ = run(capsys, "eval", str(g), "--scheme", "arboricity-bloom",
                        "--seed", "3", "--trials", "2000")
    assert code2 == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("class")
    adjacent = [l for l in lines if l.startswith("adjacent")][0]
    assert int(adjacent.split()[2]) == 0  # one-sided


@pytest.mark.parametrize("scheme", [["arboricity-bloom"], ["compress:arboricity"],
                                    ["compress:arboricity", "--delta", "0.01"]])
def test_eval_reports_the_sketch_width_as_sketch_does(tmp_path, capsys, scheme):
    g = tmp_path / "g.graph"
    run(capsys, "gen", "forest", "--n", "20", "--seed", "2", "--out", str(g))
    _, _, want = run(capsys, "sketch", str(g), "--scheme", *scheme, "--seed", "7",
                     "--out", str(tmp_path / "sk.txt"))
    code, out, err = run(capsys, "eval", str(g), "--scheme", *scheme, "--seed", "3",
                         "--trials", "50")
    assert code == 0 and out.startswith("class trials") and len(out.splitlines()) == 4
    assert err == want and want.startswith(f"sketch={scheme[0]} width=")


def test_sketch_product_adjacency_is_an_unknown_scheme(tmp_path, capsys):
    g = tmp_path / "g.graph"
    run(capsys, "gen", "forest", "--n", "10", "--seed", "2", "--out", str(g))
    code, _, err = run(capsys, "sketch", str(g), "--scheme", "product-adjacency",
                       "--seed", "1", "--out", str(tmp_path / "sk.txt"))
    assert code == 3
    assert "unknown sketch scheme" in err and "--factors" not in err


def test_eval_same_seed_deterministic(tmp_path, capsys):
    g = tmp_path / "g.graph"
    run(capsys, "gen", "forest", "--n", "15", "--seed", "2", "--out", str(g))
    argv = ("eval", str(g), "--scheme", "compress:arboricity", "--seed", "3", "--trials", "500")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0 and out1 == out2


def test_derand_modes(tmp_path, capsys):
    g = tmp_path / "g.graph"
    run(capsys, "gen", "forest", "--n", "25", "--seed", "4", "--out", str(g))
    out = tmp_path / "d.txt"
    code, _, err = run(capsys, "derand", str(g), "--scheme", "arboricity-bloom",
                       "--seed", "11", "--out", str(out))
    assert code == 0 and "attempts=" in err
    code2, _, err2 = run(capsys, "derand", str(g), "--scheme", "arboricity",
                         "--mode", "naive", "--seed", "1", "--out", str(out))
    assert code2 == 0


_CHAIN_BIGRAPH = "bigraph cg 3 3\ne 0 0\ne 1 0\ne 1 1\ne 2 0\ne 2 1\ne 2 2\n"


def test_eval_takes_a_bigraph_input(tmp_path, capsys):
    # the bigraph is read as a graph with X at 0..nx-1 and Y at nx..,
    # the ids its labels give them
    g = tmp_path / "cg.graph"
    g.write_text(_CHAIN_BIGRAPH)
    code, out, err = run(capsys, "eval", str(g), "--scheme", "compress:chain-graph", "--k", "3",
                         "--trials", "10", "--seed", "1")
    assert code == 0 and out.startswith("class trials"), err


@pytest.mark.parametrize("mode", ["naive", "sampled"])
def test_derand_takes_a_bigraph_input_and_verifies_it(tmp_path, capsys, mode):
    from pugkit import bipartite, sketch
    from pugkit.graphs import parse_graph
    from pugkit.sketch import parse_sketch_file

    g = tmp_path / "cg.graph"
    g.write_text(_CHAIN_BIGRAPH)
    scheme = "chain-graph" if mode == "naive" else "compress:chain-graph"
    code, out, err = run(capsys, "derand", str(g), "--scheme", scheme, "--k", "3", "--seed", "1",
                         "--mode", mode)
    assert code == 0, err
    labels, width = parse_sketch_file(out)
    bigraph, _ = parse_graph(_CHAIN_BIGRAPH)
    base = bipartite.chain_graph_labels(bigraph, k=3)
    det = sketch.naive_derandomize(base) if mode == "naive" else \
        sketch.derandomize(sketch.compress_equality_scheme(base), bigraph.to_graph(), seed=1)
    assert (tuple(labels), width) == (det.labels, det.width)
    assert sketch.DeterministicLabeling(tuple(labels), width, det.decoder).check_exact(
        bigraph.to_graph())
    # the command runs that check itself, on bigraphs too
    checked = []

    def reject(self, graph):
        checked.append(graph.n)
        return False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sketch.DeterministicLabeling, "check_exact", reject)
        code, _, err = run(capsys, "derand", str(g), "--scheme", scheme, "--k", "3",
                           "--seed", "1", "--mode", mode)
    assert (code, checked) == (2, [6]) and "fail verification" in err


def test_derand_rejects_delta(tmp_path, capsys):
    # derandomize boosts to error 1/n^3 itself; a --delta boost under it
    # only widened the labels
    g = tmp_path / "f.graph"
    run(capsys, "gen", "forest", "--n", "40", "--seed", "3", "--out", str(g))
    out = tmp_path / "d.txt"
    code, _, err = run(capsys, "derand", str(g), "--scheme", "arboricity-bloom", "--seed", "2",
                       "--out", str(out))
    assert code == 0 and "width=1323 " in err
    for mode in ("sampled", "naive"):
        code, _, err = run(capsys, "derand", str(g), "--scheme", "arboricity-bloom",
                           "--delta", "0.05", "--seed", "2", "--mode", mode)
        assert code == 3 and "sizes its own boost" in err


def test_verify_twcert(tmp_path, capsys):
    from tests.test_twinwidth import make_two_level_instance
    from pugkit.graphs import write_graph

    g, cert = make_two_level_instance()
    gf = tmp_path / "g.graph"
    gf.write_text(write_graph(g, "two-level"))
    cf = tmp_path / "c.cert"
    cf.write_text(write_certificate(cert, "two-level"))
    code, out, _ = run(capsys, "verify", "twcert", str(gf), str(cf))
    assert code == 0 and "accepted" in out
    # corrupt: drop the flip
    bad = cert.__class__(cert.order, (), cert.division, cert.usets, cert.stars)
    cf.write_text(write_certificate(bad, "bad"))
    code2, out2, _ = run(capsys, "verify", "twcert", str(gf), str(cf))
    assert code2 == 2 and "rejected" in out2


def test_verify_width_seq(tmp_path, capsys):
    from pugkit.graphs import write_graph
    from pugkit.generators import complete

    gf = tmp_path / "k4.graph"
    gf.write_text(write_graph(complete(4), "k4"))
    sf = tmp_path / "seq.txt"
    sf.write_text("p 0,1,2,3\np 0|1,2,3\np 0|1|2,3\np 0|1|2|3\n")
    code, out, _ = run(capsys, "verify", "width-seq", str(gf), str(sf))
    assert code == 0 and "width=0" in out
    sf.write_text("p 0,1,2,3\np 0|1|2|3\n")
    code2, _, _ = run(capsys, "verify", "width-seq", str(gf), str(sf))
    assert code2 == 2


def test_chain_number_cmd(tmp_path, capsys):
    g = tmp_path / "h.graph"
    run(capsys, "gen", "half-graph", "--k", "4", "--out", str(g))
    code, out, _ = run(capsys, "chain-number", str(g), "--cap", "5")
    assert code == 0
    assert "chain-number = 4" in out


def test_twinwidth_cmd(tmp_path, capsys):
    from pugkit.graphs import write_graph
    from pugkit.generators import cycle

    gf = tmp_path / "c5.graph"
    gf.write_text(write_graph(cycle(5), "c5"))
    code, out, _ = run(capsys, "twinwidth", str(gf))
    assert code == 0 and out.startswith("twin-width =")


def test_sketch_file_roundtrip(tmp_path, capsys):
    from pugkit.sketch import parse_sketch_file, write_sketch_file

    labels = [0x1f, 0x00, 0xabc]
    text = write_sketch_file(labels, width=12, gname="demo")
    parsed, width = parse_sketch_file(text)
    assert parsed == labels and width == 12


@pytest.mark.parametrize("text", [
    "labels g s=0 k=0 width=4\nv 3 a\n",  # ids not 0..n-1
    "labels g s=0 k=0 width=4\nv 0 a\nv 0 b\n",
    "",
    "labels g s=0 k=0\nv 0 a\n",  # no width=
    "labels g s=0 k=0 width=x\nv 0 a\n",
])
def test_sketch_file_malformed(text):
    from pugkit.graphs import GraphFormatError
    from pugkit.sketch import parse_sketch_file

    with pytest.raises(GraphFormatError):  # a format error: the CLI exits 3
        parse_sketch_file(text)


def test_product_dist_cmd(tmp_path, capsys):
    g = tmp_path / "p2.graph"
    run(capsys, "gen", "path", "--n", "2", "--out", str(g))
    code, out, _ = run(capsys, "product-dist", str(g), "--d", "4", "--k", "2",
                       "--seed", "9",
                       "--query", "0,0,0,0:0,0,0,0",
                       "--query", "0,0,0,0:1,1,1,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("product d=4")
    assert lines[1].endswith(" 0")  # identical tuples decode distance 0
    # Hamming distance 4 > k: correct answer is bot (statistically likely)
    assert lines[2].split()[-1] in ("bot", "0", "1", "2")
    code2, _, _ = run(capsys, "product-dist", str(g), "--d", "2", "--k", "1",
                      "--seed", "1", "--query", "0,0:9,9")
    assert code2 == 3  # bad address


def test_product_dist_rejects_empty_and_oversized_powers(tmp_path, capsys):
    # d <= 0 leaves no factor; 3^40 vertices are far past the vertex cap,
    # rejected before anything is allocated
    g = tmp_path / "p3.graph"
    run(capsys, "gen", "path", "--n", "3", "--out", str(g))
    for d in ("0", "-1", "40"):
        start = time.perf_counter()
        code, out, err = run(capsys, "product-dist", str(g), "--d", d, "--k", "1",
                             "--seed", "1", "--query", "0:1")
        assert code == 3 and out == "" and "Traceback" not in err, d
        assert time.perf_counter() - start < 5, d


def test_product_dist_refuses_a_label_grid_past_the_cell_cap(tmp_path, capsys, monkeypatch):
    # one query pair is two labels of `width` cells each
    from pugkit import products

    g = tmp_path / "p3.graph"
    run(capsys, "gen", "path", "--n", "3", "--out", str(g))
    # k = 300 asks for two labels of 6.6e9 cells each: refused before allocating
    code, _, err = run(capsys, "product-dist", str(g), "--d", "1", "--k", "300", "--seed", "1",
                       "--query", "0:1")
    assert code == 3 and "exceed the cell cap" in err and "Traceback" not in err
    argv = ["product-dist", str(g), "--d", "2", "--k", "1", "--seed", "1", "--query", "0,0:1,2"]
    code, want, _ = run(capsys, *argv)
    width = int(want.split()[5][len("width="):])
    assert code == 0
    monkeypatch.setattr(products, "CELL_CAP", 2 * width)
    assert run(capsys, *argv) == (0, want, "")
    monkeypatch.setattr(products, "CELL_CAP", 2 * width - 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "exceed the cell cap" in err and "Traceback" not in err


@pytest.mark.parametrize("address", [
    "0,0,0:1,1",    # wrong length
    "0,-1:1,1",     # negative
    "0,3:1,1",      # out of range
    "0,1:1,99999999999999999999999",  # past any machine integer
])
def test_product_dist_bad_address_exits_3(tmp_path, capsys, address):
    g = tmp_path / "p3.graph"
    run(capsys, "gen", "path", "--n", "3", "--out", str(g))
    code, out, err = run(capsys, "product-dist", str(g), "--d", "2", "--k", "1", "--seed", "1",
                         "--query", "0,0:1,1", "--query", address)
    assert code == 3 and out == "" and "bad product vertex address" in err
    assert "Traceback" not in err


def test_format_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("nonsense\n")
    code, _, _ = run(capsys, "chain-number", str(bad))
    assert code == 3


def _labelled(tmp_path, capsys, g, name, *scheme):
    """Writes g, then its label and decoder files; returns their paths."""
    from pugkit.graphs import write_graph

    gf, labels, dec = (tmp_path / f"{name}.{ext}" for ext in ("graph", "labels", "dec"))
    gf.write_text(write_graph(g, name))
    code, _, _ = run(capsys, "label", str(gf), *scheme, "--out", str(labels),
                     "--decoder-out", str(dec))
    assert code == 0
    return labels, dec


@pytest.mark.parametrize("kind", ["table", "tree"])
def test_query_matches_scheme_decode_on_every_pair(tmp_path, capsys, kind):
    from pugkit import bipartite
    from pugkit.generators import random_forest, random_tp_free
    from pugkit.sketch import arboricity_scheme

    if kind == "table":
        g = random_forest(10, seed=3)
        sch = arboricity_scheme(g)
        labels, dec = _labelled(tmp_path, capsys, g, "f", "--scheme", "arboricity")
    else:
        g = random_tp_free(9, 12, 2, seed=1)
        sch = bipartite.tp_free_labels(g, p=2, q=4)
        labels, dec = _labelled(tmp_path, capsys, g, "t", "--scheme", "tp-free",
                                "--p", "2", "--q", "4")
    assert dec.read_text().startswith(f"decoder {kind}")
    for u in range(sch.n):
        for v in range(sch.n):
            if u != v:
                code, out, _ = run(capsys, "query", str(labels), str(u), str(v),
                                   "--decoder", str(dec))
                assert (code, out) == (0, f"{u} {v} {sch.decode(u, v)}\n")


@pytest.mark.parametrize("case", ["missing-decoder", "short-table-row", "bare-tree",
                                  "tree-spec-not-object", "tree-spec-bare-name",
                                  "tree-spec-wrong-type",
                                  "sparse-label-ids", "duplicate-label-id",
                                  "q-field-wrong-length", "q-field-bad-char"])
def test_query_malformed_files_exit_3(tmp_path, capsys, case):
    from pugkit.generators import biclique, path

    labels, dec = _labelled(tmp_path, capsys, path(8), "p", "--scheme", "arboricity")
    text = labels.read_text()
    pair = ("0", "1")
    if case == "tree-spec-wrong-type":
        # X vertex 0 and Y vertex 5 make the chain walker read its bit count
        labels, dec = _labelled(tmp_path, capsys, biclique(5, 6), "b",
                                "--scheme", "chain-graph", "--k", "2")
        dec.write_text('decoder tree {"name": "chain-graph", "bits": "x"}\n')
        pair = ("0", "5")
    elif case == "missing-decoder":
        dec = tmp_path / "absent.dec"
    elif case == "short-table-row":
        dec.write_text(dec.read_text() + "t 0 0\n")
    elif case.startswith("q-field"):
        # a copy of the first row with one Q cell too many, or a '2' cell
        _, sx, sy, q, out = next(l for l in dec.read_text().splitlines() if l.startswith("t ")).split()
        q = q + "*" if case == "q-field-wrong-length" else "2" + q[1:]
        dec.write_text(dec.read_text() + f"t {sx} {sy} {q} {out}\n")
    elif case == "bare-tree":
        dec.write_text("decoder tree\n")
    elif case == "tree-spec-not-object":
        dec.write_text("decoder tree [1]\n")
    elif case == "tree-spec-bare-name":
        # a spec is a JSON object; write_decoder_file never writes a bare name
        dec.write_text('decoder tree "arboricity"\n')
    elif case == "sparse-label-ids":
        labels.write_text(text.replace("\nv 7 ", "\nv 30 "))
    else:
        labels.write_text(text + text.splitlines()[1] + "\n")
    code, out, err = run(capsys, "query", str(labels), *pair, "--decoder", str(dec))
    assert code == 3 and out == "" and err.startswith("error:")
    if case in ("tree-spec-not-object", "tree-spec-bare-name"):
        assert "bad decoder spec" in err


@pytest.mark.parametrize("where", ["label-file", "decoder-table"])
def test_query_with_a_deeply_nested_shape_exits_3(tmp_path, capsys, where):
    # 3,000 levels pass the interpreter's recursion limit in either parser
    deep = "-:0" + "(-:0" * 3000 + ")" * 3000
    labels, dec = tmp_path / "deep.lab", tmp_path / "g.dec"
    labels.write_text(f"labels g s=0 k=0 width=0\nv 0 {deep if where == 'label-file' else '-:0'} -\n"
                      "v 1 -:0 -\n")
    dec.write_text('decoder tree {"name": "equivalence"}\n' if where == "label-file"
                   else f"decoder table s=0 k=0\nshape 0 {deep}\n")
    code, out, err = run(capsys, "query", str(labels), "0", "1", "--decoder", str(dec))
    assert (code, out) == (3, "")
    assert "line 2: shape nested too deeply" in err and "Traceback" not in err


def test_query_tree_walker_scheme_error_exit_2(tmp_path, capsys, monkeypatch):
    from pugkit import labels as labels_mod
    from pugkit.generators import path

    def contract(spec):
        def walk(sx, sy, eq):
            raise SchemeError("outside the family")
        return walk

    monkeypatch.setitem(labels_mod._WALKER_BUILDERS, "contract", contract)
    labels, dec = _labelled(tmp_path, capsys, path(8), "p", "--scheme", "arboricity")
    dec.write_text('decoder tree {"name": "contract"}\n')
    code, out, err = run(capsys, "query", str(labels), "0", "1", "--decoder", str(dec))
    assert (code, out) == (2, "") and "outside the family" in err


def test_label_empty_graph(tmp_path, capsys):
    gf, out = tmp_path / "e0.graph", tmp_path / "e0.labels"
    gf.write_text("graph e0 0\n")
    code, _, err = run(capsys, "label", str(gf), "--scheme", "arboricity", "--out", str(out))
    assert code == 0 and "tuples=0" in err
    assert out.read_text() == "labels e0 s=0 k=0 width=0\n"


@pytest.mark.parametrize("drop, message", [("shape ", "label shape unknown"),
                                           ("t ", "pair missing")])
def test_query_table_contract_errors_exit_2(tmp_path, capsys, drop, message):
    from pugkit.generators import path

    labels, dec = _labelled(tmp_path, capsys, path(8), "p", "--scheme", "arboricity")
    lines = dec.read_text().splitlines(keepends=True)
    dec.write_text("".join(l for l in lines if not l.startswith(drop)))
    code, _, err = run(capsys, "query", str(labels), "0", "1", "--decoder", str(dec))
    assert code == 2 and message in err


def _table_schemes():
    from pugkit import bipartite
    from pugkit.generators import (
        bipartite_equivalence_graph,
        half_graph_bipartite,
        random_equivalence,
        random_forest,
        random_kdegenerate,
    )
    from pugkit.sketch import arboricity_scheme

    return {
        "forest": lambda: arboricity_scheme(random_forest(30, seed=2)),
        "kdeg2": lambda: arboricity_scheme(random_kdegenerate(30, 2, seed=2)),
        "kdeg3": lambda: arboricity_scheme(random_kdegenerate(30, 3, seed=2)),
        "equivalence": lambda: bipartite.equivalence_labels(random_equivalence(20, 4, seed=3)),
        "bip-equivalence": lambda: bipartite.bipartite_equivalence_labels(
            bipartite_equivalence_graph([(2, 3), (1, 2), (3, 1)])),
        "chain-graph": lambda: bipartite.chain_graph_labels(half_graph_bipartite(3), k=3),
    }


def full_mask_table(scheme) -> str:
    """The reference decoder table that spells every cell: one row per Q
    mask of each shape pair, bit i*ay + j of the mask written at position
    ax*ay - 1 - (i*ay + j), and no row where the walker raises SchemeError."""
    from pugkit.labels import shape_to_str

    codec = scheme.codec
    lines = [f"decoder table s={scheme.s} k={scheme.k}"]
    lines += [f"shape {i} {shape_to_str(sh)}" for i, sh in enumerate(codec.shapes)]
    for xi, sx in enumerate(codec.shapes):
        for yi, sy in enumerate(codec.shapes):
            ax, ay = codec.arities[xi], codec.arities[yi]
            for mask in range(1 << (ax * ay)):
                try:
                    out = scheme.walker(sx, sy, lambda i, j: bool(mask >> (i * ay + j) & 1))
                except SchemeError:
                    continue
                lines.append(f"t {xi} {yi} {format(mask, f'0{ax * ay}b') if ax * ay else '-'} {out}")
    return "\n".join(lines) + "\n"


def named_cells(text: str, arities) -> dict[tuple[int, int], set[tuple[int, int]]]:
    """Per shape-id pair of a decoder table, the cells (i, j) that some row
    spells as '0' or '1'."""
    named = {}
    for line in text.splitlines():
        if line.startswith("t "):
            _, sx, sy, field, _ = line.split()
            q, ay = "" if field == "-" else field, arities[int(sy)]
            named.setdefault((int(sx), int(sy)), set()).update(
                divmod(len(q) - 1 - pos, ay) for pos, c in enumerate(q) if c in "01")
    return named


@pytest.mark.parametrize("family", sorted(_table_schemes()))
def test_decoder_tables_decode_every_pair(family, monkeypatch):
    from pugkit import labels
    from pugkit.labels import decode_pair, parse_decoder_file, write_decoder_file

    asked = []

    def watched_decode_pair(walker, *labels):
        # the table walker's eq, recording each cell it asks
        def watched(sx, sy, eq):
            return walker(sx, sy, lambda i, j: asked.append((i, j)) or eq(i, j))
        return decode_pair(watched, *labels)

    sch = _table_schemes()[family]()
    want = [[sch.decode(u, v) for v in range(sch.n)] for u in range(sch.n)]
    monkeypatch.setattr(labels, "decode_pair", watched_decode_pair)
    tree_rows, full = write_decoder_file(sch), full_mask_table(sch)
    assert tree_rows.startswith("decoder table")
    assert tree_rows.count("\nt ") <= full.count("\nt ")
    ids = sch.sid.tolist()
    for text in (tree_rows, full):
        decode, named = parse_decoder_file(text), named_cells(text, sch.codec.arities)
        for u in range(sch.n):
            for v in range(sch.n):
                asked.clear()
                assert decode((sch.shapes[u], sch.codes[u]),
                              (sch.shapes[v], sch.codes[v])) == want[u][v]
                # only the cells that the shape pair's rows name are asked
                assert set(asked) <= named.get((ids[u], ids[v]), set())


def test_sketch_prints_the_proven_boosted_delta(tmp_path, capsys):
    from pugkit.sketch import majority_failure

    g = tmp_path / "f.graph"
    run(capsys, "gen", "forest", "--n", "30", "--seed", "3", "--out", str(g))
    code, _, err = run(capsys, "sketch", str(g), "--scheme", "arboricity-bloom",
                       "--delta", "0.05", "--seed", "1", "--out", str(tmp_path / "f.sk"))
    assert code == 0
    assert f"delta<={majority_failure(9, 1 / 3):g}" in err and "delta<=0.05" not in err


def run_subprocess(*argv):
    """The CLI in a child process under a 1 GiB address-space limit and a
    timeout, so a reader that sizes arrays from its input or loops on it
    fails the test instead of exhausting the machine."""
    import resource
    import subprocess
    import sys

    import pugkit

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pugkit.__file__))}
    return subprocess.run([sys.executable, "-m", "pugkit.cli", *map(str, argv)],
                          capture_output=True, text=True, timeout=60, env=env,
                          preexec_fn=cap_memory)


@pytest.mark.parametrize("header", ["graph g 99999999999", "bigraph b 1 99999999999"])
@pytest.mark.parametrize("command", [["label", "--scheme", "arboricity"], ["chain-number"]],
                         ids=["label", "chain-number"])
def test_oversized_graph_header_exits_3(tmp_path, header, command):
    gf = tmp_path / "big.graph"
    gf.write_text(header + "\n")
    proc = run_subprocess(command[0], gf, *command[1:])
    assert proc.returncode == 3 and "vertex count" in proc.stderr


@pytest.mark.parametrize("body", ["i 3 0 1", "i 0 0 1\ni 0 2 3", "i -1 0 1\ni 0 0 1",
                                  "i 0 0", "i 0 0 1\ni 2 5 6"],
                         ids=["sparse", "duplicate", "negative", "short-line", "gap"])
def test_malformed_realization_exits_3(tmp_path, body):
    from pugkit.generators import path
    from pugkit.graphs import write_graph

    gf, rf = tmp_path / "p.graph", tmp_path / "iv.real"
    gf.write_text(write_graph(path(2), "p"))
    rf.write_text(f"intervals iv\n{body}\n")
    proc = run_subprocess("label", gf, "--scheme", "interval", "--k", 1, "--realization", rf)
    assert proc.returncode == 3 and proc.stderr.startswith("error: cannot read realization")


@pytest.mark.parametrize("edit, code", [
    ("uset 3 X=- Y=-", 3), ("uset 99999999999 X=- Y=-", 3), ("flip 0 A=1", 3),
    ("flip 0 A=- B=-", 3), ("star 0 0 center=0 leaves=2,3", 3), ("star 7 0 center=0 leaves=-", 3),
    ("uset 2 X=9 Y=-", 3), ("flip 1 A=- C=-", 3), ("division 5 z 0", 3),
    ("flip 1 A=99 B=-", 2), ("division 5 y 9", 2)],
    ids=["sparse-uset", "huge-uset", "short-flip", "duplicate-flip", "duplicate-star",
         "star-outside-slices", "uset-unknown-part", "flip-bad-key", "division-bad-side",
         "flip-outside-graph", "division-outside-graph"])
def test_malformed_certificate_exits_2_or_3(tmp_path, edit, code):
    # a line added to a valid certificate: malformed files exit 3, and
    # well-formed ones naming vertices the graph lacks are rejected with 2
    from tests.test_twinwidth import make_two_level_instance
    from pugkit.graphs import write_graph

    g, cert = make_two_level_instance()
    gf, cf = tmp_path / "g.graph", tmp_path / "c.cert"
    gf.write_text(write_graph(g, "two-level"))
    cf.write_text(write_certificate(cert, "two-level") + edit + "\n")
    proc = run_subprocess("verify", "twcert", gf, cf)
    assert proc.returncode == code, proc.stderr
    assert ("rejected" in proc.stdout) if code == 2 else proc.stderr.startswith("error:")


#: Each label scheme: its input kind, its required flags in the order they
#: are checked, and the realization kind it reads.
LABEL_SCHEME_ARGS = {
    "equivalence": ("graph", (), None),
    "bip-equivalence": ("bigraph", (), None),
    "chain-graph": ("bigraph", ("k",), None),
    "arboricity": ("graph", (), None),
    "tp-free": ("bigraph", ("p", "q"), None),
    "fpp": ("bigraph", ("p", "q"), None),
    "fstar": ("bigraph", ("p", "q"), None),
    "p7": ("bigraph", ("c",), None),
    "interval": ("graph", ("k",), "intervals"),
    "permutation": ("graph", ("k",), "points"),
}
#: What each command needs past the graph and the scheme.
SCHEME_COMMAND_TAIL = {"label": [], "sketch": ["--seed", "1"],
                       "eval": ["--seed", "1", "--trials", "9"],
                       "derand": ["--seed", "1", "--mode", "naive"]}


@pytest.fixture
def scheme_inputs(tmp_path):
    from pugkit.generators import biclique, path
    from pugkit.geometric import write_realization
    from pugkit.graphs import write_graph

    files = {"graph": path(3), "bigraph": biclique(2, 2)}
    for kind, g in files.items():
        (tmp_path / kind).write_text(write_graph(g, kind))
    for kind in ("intervals", "points"):
        (tmp_path / kind).write_text(write_realization(kind, [(0, 1), (1, 2), (2, 3)], kind))
    return tmp_path


@pytest.mark.parametrize("command", ["label", "sketch", "eval", "derand"])
@pytest.mark.parametrize("scheme", sorted(LABEL_SCHEME_ARGS))
def test_every_scheme_argument_error_keeps_its_code_and_text(scheme_inputs, capsys, command,
                                                            scheme):
    # sketch and eval take the scheme as compress:<scheme>, derand as its naive base
    kind, flags, realization = LABEL_SCHEME_ARGS[scheme]
    name = f"compress:{scheme}" if command in ("sketch", "eval") else scheme

    def fails(graph, *extra):
        code, _, err = run(capsys, command, str(scheme_inputs / graph), "--scheme", name,
                           *SCHEME_COMMAND_TAIL[command], *extra)
        return code, err

    other = "bigraph" if kind == "graph" else "graph"
    assert fails(other) == (2, f"error: scheme {scheme} needs a {kind} input\n")
    real = ["--realization", str(scheme_inputs / realization)] if realization else []
    if realization:
        missing = scheme_inputs / "missing"
        assert fails(kind) == (3, "error: missing --realization file\n")
        assert fails(kind, "--realization", str(missing)) == (
            3, f"error: cannot read realization: [Errno 2] No such file or directory: "
               f"'{missing}'\n")
        wrong = "points" if realization == "intervals" else "intervals"
        assert fails(kind, "--realization", str(scheme_inputs / wrong)) == (
            3, f"error: {scheme} scheme needs {'an' if wrong == 'points' else 'a'} "
               f"{realization} file\n")
    for at, flag in enumerate(flags):
        given = [arg for f in flags if f != flag for arg in (f"--{f}", "1")]
        assert fails(kind, *real, *given) == (3, f"error: scheme {scheme} requires --{flag}\n")
        assert fails(kind, *real, *given[:2 * at]) == (
            3, f"error: scheme {scheme} requires --{flag}\n")


@pytest.mark.parametrize("command, name, message", [
    ("label", "nope", "unknown label scheme 'nope'"),
    ("derand", "nope", "unknown label scheme 'nope'"),
    ("sketch", "compress:nope", "unknown label scheme 'nope'"),
    ("eval", "compress:nope", "unknown label scheme 'nope'"),
    ("sketch", "nope", "unknown sketch scheme 'nope'"),
    ("eval", "compress:", "unknown label scheme ''"),
])
def test_an_unknown_scheme_exits_3(scheme_inputs, capsys, command, name, message):
    code, _, err = run(capsys, command, str(scheme_inputs / "graph"), "--scheme", name,
                       *SCHEME_COMMAND_TAIL[command])
    assert (code, err) == (3, f"error: {message}\n")


@pytest.mark.parametrize("kind", ["table", "tree"])
def test_decoder_files_run_their_walker_through_decode_pair(monkeypatch, kind):
    from pugkit import bipartite, labels
    from pugkit.generators import random_forest, random_tp_free
    from pugkit.labels import ShapeCodec, parse_decoder_file, write_decoder_file
    from pugkit.sketch import arboricity_scheme

    sch = (arboricity_scheme(random_forest(10, seed=3)) if kind == "table"
           else bipartite.tp_free_labels(random_tp_free(9, 12, 2, seed=1), p=2, q=4))
    text = write_decoder_file(sch)
    assert text.startswith(f"decoder {kind}")
    pairs = [(u, v) for u in range(sch.n) for v in range(sch.n) if u != v]
    expected = [sch.decode(u, v) for u, v in pairs]
    calls, built, decode_pair = [], [], labels.decode_pair

    def counted(*args):
        calls.append(args)
        return decode_pair(*args)

    monkeypatch.setattr(labels, "decode_pair", counted)
    monkeypatch.setattr(ShapeCodec, "__init__", lambda self, shapes: built.append(1))
    decode = parse_decoder_file(text)
    pair_labels = list(zip(sch.shapes, sch.codes))
    assert [decode(pair_labels[u], pair_labels[v]) for u, v in pairs] == expected
    assert len(calls) == len(pairs)
    assert not built  # one pair needs no code table


def test_the_cli_builds_no_eq_for_a_walker():
    # nor do the decoder-file codecs it calls: they hand walkers to decode_pair
    import ast
    import pathlib

    import pugkit.cli
    import pugkit.labels

    cli = ast.parse(pathlib.Path(pugkit.cli.__file__).read_text())
    codecs = [node for node in ast.parse(pathlib.Path(pugkit.labels.__file__).read_text()).body
              if isinstance(node, ast.FunctionDef)
              and node.name in ("write_decoder_file", "parse_decoder_file")]
    assert len(codecs) == 2
    for node in (n for root in (cli, *codecs) for n in ast.walk(root)):
        assert not (isinstance(node, ast.Lambda) and len(node.args.args) == 2), ast.unparse(node)
        assert not (isinstance(node, ast.FunctionDef) and node.name == "eq")


def test_the_empty_graph_width_sequence_round_trips(tmp_path, capsys):
    gf, sf = tmp_path / "e.graph", tmp_path / "e.seq"
    gf.write_text("graph e 0\n")
    code, out, _ = run(capsys, "twinwidth", str(gf))
    assert code == 0 and out.startswith("twin-width = 0\n")
    sf.write_text(out.split("\n", 1)[1])
    code, out, _ = run(capsys, "verify", "width-seq", str(gf), str(sf))
    assert (code, out) == (0, "sequence valid: width=0\n")


@pytest.mark.parametrize("name", ["p 3", "a#b", "tab\there", "nbsp\xa0here"])
def test_gen_rejects_a_name_no_reader_takes(tmp_path, capsys, name):
    out = tmp_path / "p.graph"
    code, _, err = run(capsys, "gen", "path", "--n", "3", "--name", name, "--out", str(out))
    assert (code, err) == (3, f"error: --name takes no whitespace or '#', got {name!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["forest", "--n", "12"], "gen forest requires --seed"),
    (["chain-graph", "--profile", "1,2,3"], "gen chain-graph requires --ny"),
    (["half-graph"], "gen half-graph requires --k"),
    (["chain-graph", "--profile", "1,x", "--ny", "3"],
     "--profile expects a comma list of integers, got '1,x'"),
    (["equivalence", "--sizes", "2,,3"], "--sizes expects a comma list of integers, got '2,,3'"),
    (["gnp", "--n", "5", "--seed", "1"], "gen gnp requires --prob"),
    (["gnp", "--n", "5", "--p", "1", "--seed", "1"], "gen gnp requires --prob"),
])
def test_gen_messages_name_the_flag(capsys, argv, message):
    code, out, err = run(capsys, "gen", *argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("prob", ["2", "-1", "nan"])
def test_gen_gnp_rejects_a_probability_outside_0_1(capsys, prob):
    code, out, err = run(capsys, "gen", "gnp", "--n", "4", "--prob", prob, "--seed", "1")
    assert (code, out) == (3, "")
    assert err == f"error: bad generator parameters: edge probability {float(prob)!r} " \
                  "is not in [0, 1]\n"


def test_gen_gnp_reads_its_probability_from_prob(capsys):
    from pugkit.generators import random_graph
    from pugkit.graphs import write_graph

    code, out, _ = run(capsys, "gen", "gnp", "--n", "6", "--prob", "0.5", "--seed", "1")
    assert code == 0 and out.startswith("graph gnp 6\n")
    assert out == write_graph(random_graph(6, 0.5, 1), "gnp")


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("family, product, factor_n", [
    ("strong-hypercube", "strong_product", 2),
    ("direct-power", "direct_product", 3),
    ("lex-power", "lexicographic_product", 3),
])
def test_gen_reaches_the_product_powers(capsys, family, product, factor_n, d):
    from pugkit import generators
    from pugkit.graphs import parse_graph

    code, out, _ = run(capsys, "gen", family, "--n", "3", "--d", str(d))
    g, name = parse_graph(out)
    want = getattr(generators, product)([generators.path(factor_n)] * d)[0]
    assert (code, name, g.n, g.m) == (0, family, want.n, want.m)


@pytest.mark.parametrize("argv", [["gen", "path", "--n", "3", "--c", "1"],
                                  ["label", "g.graph", "--scheme", "arboricity", "--delta", "0.1"]])
def test_flags_nothing_reads_are_unrecognized(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
