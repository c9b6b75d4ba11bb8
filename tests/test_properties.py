"""Property tests (hypothesis) of advertised contracts on arbitrary input.

Every property runs derandomized with no example database, so a run is
deterministic and writes no `.hypothesis/` directory.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pugkit.cli import main
from pugkit.generators import biclique, random_forest, random_kdegenerate
from pugkit.graphs import write_graph
from pugkit.labels import _WALKER_BUILDERS
from pugkit.rng import counter_hash
from pugkit.sketch import (
    arboricity_scheme,
    arboricity_sketch,
    boost,
    compress_equality_scheme,
    evaluate_error,
)

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


_G = random_kdegenerate(14, 2, seed=3)
_COMP = compress_equality_scheme(arboricity_scheme(_G))
_ONE_SIDED = {"compressed": _COMP, "bloom": arboricity_sketch(_G),
              "boosted-compressed": boost(_COMP, 0.05),
              "boosted-bloom": boost(arboricity_sketch(_G), 0.05)}
_EDGES = np.array(list(_G.edges()), dtype=np.int64)


@settings(derandomize=True, database=None, deadline=None)
@given(seed=st.integers(-(1 << 70), 1 << 70))
def test_one_sided_under_any_seed(seed):
    # equal codes hash equal, under `_hash` and in every encoded label
    hashed = {}
    for label, codes in zip(_COMP.encode(seed), _COMP.scheme.codes):
        for code, value in zip(codes, _COMP.codec.parse(label)[1]):
            assert hashed.setdefault(code, _COMP._hash(seed, code)) == value
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
