"""Property tests (hypothesis) of advertised contracts on arbitrary input.

Every property runs derandomized with no example database, so a run is
deterministic and writes no `.hypothesis/` directory.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pugkit.cli import main
from pugkit.generators import biclique, random_forest
from pugkit.graphs import write_graph
from pugkit.labels import _WALKER_BUILDERS

WALKERS = sorted(_WALKER_BUILDERS)

# every parameter a registered walker factory reads from its spec
PARAMS = ["bits", "idx_bits", "c", "r", "mode", "part_bits", "chain_bits",
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
    (arboricity), each with a pair of vertices to query."""
    tmp = tmp_path_factory.mktemp("props")
    out = {}
    for name, g, scheme, pair in (
            ("b", biclique(5, 6), ["--scheme", "chain-graph", "--k", "2"], ("0", "5")),
            ("f", random_forest(8, seed=1), ["--scheme", "arboricity"], ("1", "2"))):
        gf, labels = tmp / f"{name}.graph", tmp / f"{name}.labels"
        gf.write_text(write_graph(g, name))
        assert main(["label", str(gf), *scheme, "--out", str(labels)]) == 0
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
