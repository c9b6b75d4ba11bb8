import pytest

from pugkit.generators import (
    biclique,
    bipartite_equivalence_graph,
    complete,
    cycle,
    edgeless,
    path,
    random_bipartite,
    random_graph,
)
from pugkit.graphs import ColoredBipartiteGraph, Graph
from pugkit.labels import SchemeError
from pugkit import twinwidth
from pugkit.structure import quasi_chain_number
from pugkit.twinwidth import (
    CertTree,
    Star,
    TwCertificate,
    apply_flips,
    convex_twin_width_exact,
    parse_certificate,
    partition_width,
    quotient_graph,
    tw_labels,
    twin_width_exact,
    verify_certificate,
    verify_width,
    write_certificate,
)


def id_split_sequence(n):
    """The uncontraction sequence that peels vertices in id order."""
    seq = [[list(range(n))]]
    for v in range(n - 1):
        prev = seq[-1]
        block = [p for p in prev if len(p) > 1][0]
        rest = [p for p in prev if len(p) <= 1]
        seq.append(rest + [[block[0]]] + [block[1:]])
    return seq


def test_verify_width_complete_and_edgeless():
    for n in (4, 16, 64):
        for g in (complete(n), edgeless(n)):
            assert verify_width(g, id_split_sequence(n)) == 0


def test_verify_width_validates_structure():
    g = path(4)
    with pytest.raises(SchemeError):
        verify_width(g, [[[0, 1, 2, 3]], [[0], [1], [2], [3]]])
    with pytest.raises(SchemeError):
        verify_width(g, [[[0, 1, 2]], [[0], [1], [2]]])  # not a partition of V


def test_verify_width_monotone_under_padding():
    g = cycle(5)
    seq = id_split_sequence(5)
    w = verify_width(g, seq)
    _, witness = twin_width_exact(g)
    assert verify_width(g, witness) <= w


def test_twin_width_small_values():
    assert twin_width_exact(complete(4))[0] == 0
    assert twin_width_exact(edgeless(5))[0] == 0
    w_c4, seq = twin_width_exact(cycle(4))
    assert verify_width(cycle(4), seq) == w_c4
    w_p4, _ = twin_width_exact(path(4))
    assert w_p4 <= 1
    # C5 and C6 are classic width-candidates
    assert twin_width_exact(cycle(5))[0] <= 3


def brute_twin_width(g: Graph) -> int:
    """Independent oracle: enumerate complete uncontraction sequences."""
    from pugkit.twinwidth import _canon

    def explore(parts) -> int:
        own = partition_width(g, parts)
        if len(parts) == g.n:
            return own
        best = None
        items = list(parts)
        for idx, part in enumerate(items):
            if len(part) < 2:
                continue
            members = sorted(part)
            for split_mask in range((1 << (len(members) - 1)) - 1):
                left = frozenset(m for i, m in enumerate(members[1:], 1)
                                 if split_mask >> (i - 1) & 1) | {members[0]}
                right = frozenset(part) - left
                nxt = _canon(items[:idx] + items[idx + 1:] + [left, right])
                sub = explore(nxt)
                best = sub if best is None else min(best, sub)
        return max(own, best)

    return explore(_canon([range(g.n)]))


def test_twin_width_matches_independent_brute_force():
    for seed in range(4):
        g = random_graph(5, 0.5, seed=seed)
        assert twin_width_exact(g)[0] == brute_twin_width(g)
    assert twin_width_exact(path(4))[0] == brute_twin_width(path(4))


def test_twin_width_matches_witness_on_random():
    for seed in range(6):
        g = random_graph(6, 0.5, seed=seed)
        w, seq = twin_width_exact(g)
        assert verify_width(g, seq) == w


def test_convex_twin_width_bridge():
    for seed in range(6):
        g = random_bipartite(3, 3, 0.5, seed=seed)
        ctww = convex_twin_width_exact(g)
        tww, _ = twin_width_exact(g.to_graph())
        assert tww <= ctww


def test_convex_twin_width_with_an_empty_side():
    # a side with no vertices is already merged: every division is pure
    for nx, ny in ((0, 0), (0, 1), (1, 0), (0, 3), (2, 0)):
        assert convex_twin_width_exact(ColoredBipartiteGraph(nx, ny, [])) == 0


def test_apply_flips():
    g = biclique(3, 3)
    out, fx, fy = apply_flips(g, [])
    assert out == g and fx == [0, 0, 0]
    out2, fx2, fy2 = apply_flips(g, [((0, 1, 2), (0, 1, 2))])
    assert out2.m == 0
    assert fx2 == [1, 1, 1] and fy2 == [1, 1, 1]
    out3, _, _ = apply_flips(g, [((0, 1, 2), (0, 1, 2))] * 2)
    assert out3 == g  # involution


def trivial_biclique_cert(a: int, b: int) -> TwCertificate:
    """One flip erasing a biclique; singleton division; no stars."""
    order = tuple(("x", i) for i in range(a)) + tuple(("y", j) for j in range(b))
    division = tuple(("x", (i,)) for i in range(a)) + tuple(("y", (j,)) for j in range(b))
    return TwCertificate(
        order=order,
        flips=((tuple(range(a)), tuple(range(b))),),
        division=division,
        usets=(),
        stars=(),
    )


def test_verify_trivial_certificate():
    g = biclique(2, 3)
    cert = trivial_biclique_cert(2, 3)
    ok, h = verify_certificate(g, cert)
    assert ok and not h


def test_verify_rejects_uncovered_edges():
    g = biclique(2, 2)
    cert = TwCertificate(
        order=(("x", 0), ("x", 1), ("y", 0), ("y", 1)),
        flips=(),
        division=(("x", (0, 1)), ("y", (0, 1))),
        usets=(),
        stars=(),
    )
    reasons: list[str] = []
    ok, _ = verify_certificate(g, cert, reasons=reasons)
    assert not ok and any("covered" in r for r in reasons)


def test_verify_rejects_nonconvex_division():
    g = ColoredBipartiteGraph(3, 1, [(0, 0)])
    cert = TwCertificate(
        order=(("x", 0), ("x", 1), ("x", 2), ("y", 0)),
        flips=(),
        division=(("x", (0, 2)), ("x", (1,)), ("y", (0,))),
        usets=((((0,)), ()),),
        stars=((),),
    )
    reasons: list[str] = []
    ok, _ = verify_certificate(g, cert, reasons=reasons)
    assert not ok and any("convex" in r for r in reasons)


def test_verify_rejects_duplicated_edge_cover():
    # one H-edge claimed by two slices
    g = ColoredBipartiteGraph(1, 1, [(0, 0)])
    cert = TwCertificate(
        order=(("x", 0), ("y", 0)),
        flips=(),
        division=(("x", (0,)), ("y", (0,))),
        usets=(((0,), (1,)), ((0,), (1,))),
        stars=((Star(0, (1,)),), (Star(0, (1,)),)),
    )
    reasons: list[str] = []
    ok, _ = verify_certificate(g, cert, reasons=reasons)
    assert not ok


def test_verify_rejects_p4_star_slice():
    # quotient slice forming a path on four parts is not a star forest
    g = ColoredBipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)])
    cert = TwCertificate(
        order=(("x", 0), ("x", 1), ("y", 0), ("y", 1)),
        flips=(),
        division=(("x", (0,)), ("x", (1,)), ("y", (0,)), ("y", (1,))),
        usets=(((0, 1), (2, 3)),),
        stars=((Star(2, (0, 1)), Star(1, (3,))),),
    )
    reasons: list[str] = []
    ok, _ = verify_certificate(g, cert, reasons=reasons)
    # part 1 appears in two stars: rejected
    assert not ok


def test_verify_certificate_skips_quasi_chain_without_a_small_star(monkeypatch):
    # one star spanning the whole graph: above QCH_CHECK_LIMIT, so no star
    # needs the graph's quasi-chain number
    g = random_bipartite(13, 13, 0.5, seed=1)
    cert = TwCertificate(
        order=tuple(("x", i) for i in range(13)) + tuple(("y", j) for j in range(13)),
        flips=(),
        division=(("x", tuple(range(13))), ("y", tuple(range(13)))),
        usets=(((0,), (1,)),),
        stars=((Star(0, (1,)),),),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("quasi_chain_number called")

    monkeypatch.setattr(twinwidth, "quasi_chain_number", refuse)
    reasons: list[str] = []
    ok, h = verify_certificate(g, cert, reasons=reasons)
    assert ok and h == {(0, 1)}, reasons


def make_two_level_instance(seed: int = 0):
    """A graph assembled from a hand certificate: two stars over equivalence
    leaves, plus one rectangle flip filling a pure block."""
    # parts: X = {0,1}, {2,3}; Y = {0,1}, {2}, {3,4}
    from pugkit.rng import rng_for

    rng = rng_for(seed, "twgen")
    parts_x = [(0, 1), (2, 3)]
    parts_y = [(0, 1), (2,), (3, 4)]
    division = tuple([("x", p) for p in parts_x] + [("y", p) for p in parts_y])
    # star slice 0: center X-part 0, leaves Y-parts 2 (=(0,1)) and 3 (=(2,));
    # star slice 1: center X-part 1 with leaf Y-part 4 (=(3,4))
    stars = (
        (Star(0, (2, 3)),),
        (Star(1, (4,)),),
    )
    usets = (((0,), (2, 3)), ((1,), (4,)))
    # children must be bipartite equivalence graphs (the leaves of the
    # certificate tree); pick disjoint-biclique rows per star block
    child_edges = {
        (0, 2): [(0, 0), (1, 1)],
        (0, 3): [(1, 0)],
        (1, 4): [(0, 0), (0, 1)],
    }
    # flip: rectangle over X-part 1 x Y-part (0,1) -> complete block there
    flips = (((2, 3), (0, 1)),)
    edges = set()
    for (xi, yi), es in child_edges.items():
        xs = parts_x[xi]
        ys = parts_y[yi - 2]
        for a, b in es:
            edges.add((xs[a], ys[b]))
    for x in (2, 3):
        for y in (0, 1):
            edges.add((x, y))  # the flipped-away block
    g = ColoredBipartiteGraph(4, 5, sorted(edges))
    order = tuple(("x", i) for i in range(4)) + tuple(("y", j) for j in range(5))
    cert = TwCertificate(order, flips, division, usets, stars)
    return g, cert


def test_two_level_certificate_verifies_and_labels():
    g, cert = make_two_level_instance()
    reasons: list[str] = []
    ok, h = verify_certificate(g, cert, reasons=reasons)
    assert ok, reasons
    tree = CertTree(cert=cert, children={})
    sch = tw_labels(g, tree)
    n = g.nx + g.ny
    for u in range(n):
        for v in range(u + 1, n):
            expect = int(u < g.nx <= v and g.has_edge(u, v - g.nx))
            assert sch.decode(u, v) == expect, (u, v)


def union_instance(g1: ColoredBipartiteGraph, g2: ColoredBipartiteGraph):
    """The disjoint union of g1 and g2 with a one-slice certificate whose two
    stars are g1 and g2: a star passes iff its quasi-chain number is below
    the union's."""
    nx, ny = g1.nx + g2.nx, g1.ny + g2.ny
    edges = [(x, y) for x in range(g1.nx) for y in g1.neighbors_x(x)]
    edges += [(g1.nx + x, g1.ny + y) for x in range(g2.nx) for y in g2.neighbors_x(x)]
    cert = TwCertificate(
        order=tuple(("x", i) for i in range(nx)) + tuple(("y", j) for j in range(ny)),
        flips=(),
        division=(("x", tuple(range(g1.nx))), ("x", tuple(range(g1.nx, nx))),
                  ("y", tuple(range(g1.ny))), ("y", tuple(range(g1.ny, ny)))),
        usets=(((0, 1), (2, 3)),),
        stars=((Star(0, (2,)), Star(1, (3,))),),
    )
    return ColoredBipartiteGraph(nx, ny, edges), cert


def certificate_corpus():
    """The two-level instances with every single edge toggled, and unions of
    small random bigraphs."""
    for seed in range(10):
        g, cert = make_two_level_instance(seed)
        yield g, cert
        for x in range(g.nx):
            for y in range(g.ny):
                edges = [(a, b) for a in range(g.nx) for b in g.neighbors_x(a)]
                yield ColoredBipartiteGraph(g.nx, g.ny, sorted(set(edges) ^ {(x, y)})), cert
    for seed in range(40):
        yield union_instance(random_bipartite(1 + seed % 3, 2 + seed % 4, 0.5, seed=seed),
                             random_bipartite(2 + seed % 4, 1 + seed % 3, 0.4, seed=100 + seed))


def uncapped_star_reason(g: ColoredBipartiteGraph, cert: TwCertificate) -> str | None:
    """Reference: every star of at most QCH_CHECK_LIMIT vertices must satisfy
    qch(star) <= max(qch(g) - 1, 0), with qch(g) searched without a cap."""
    k = quasi_chain_number(g, cap=g.nx + g.ny)
    parts = [p for _, p in cert.division]
    for i, stars in enumerate(cert.stars):
        for st in stars:
            members = (st.center,) + st.leaves
            xs = sorted(v for m in members if cert.division[m][0] == "x" for v in parts[m])
            ys = sorted(v for m in members if cert.division[m][0] == "y" for v in parts[m])
            if len(xs) + len(ys) <= twinwidth.QCH_CHECK_LIMIT and \
                    quasi_chain_number(g.induced(xs, ys), cap=k) > max(k - 1, 0):
                return f"slice {i}: star at {st.center} does not decrease the quasi-chain number"
    return None


def test_verify_certificate_star_verdicts_match_the_uncapped_rule():
    verdicts = {True: 0, False: 0}
    for g, cert in certificate_corpus():
        reasons: list[str] = []
        ok, _ = verify_certificate(g, cert, reasons=reasons)
        if not ok and "quasi-chain" not in reasons[0]:
            continue  # rejected before the star check
        want = uncapped_star_reason(g, cert)
        assert (ok, reasons) == (want is None, [want] if want else []), reasons
        verdicts[ok] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 5, verdicts


def test_verify_certificate_caps_the_whole_graph_search_by_the_star(monkeypatch):
    g, cert = make_two_level_instance()
    caps = []

    def spy(h, cap):
        if h is g:
            caps.append(cap)
        return quasi_chain_number(h, cap=cap)

    monkeypatch.setattr(twinwidth, "quasi_chain_number", spy)
    ok, _ = verify_certificate(g, cert)
    # the stars span 5 and 4 vertices, with values 2 and 2; qch(g) = 6
    assert ok and caps == [2]


def test_tw_labels_leaf_only():
    b = bipartite_equivalence_graph([(2, 2), (1, 2)])
    sch = tw_labels(b, CertTree())
    for x in range(b.nx):
        for y in range(b.ny):
            assert sch.decode(x, b.nx + y) == int(b.has_edge(x, y))


def test_tw_labels_rejects_bad_certificate():
    g = biclique(2, 2)
    bad = TwCertificate(
        order=(("x", 0), ("x", 1), ("y", 0), ("y", 1)),
        flips=(),
        division=(("x", (0, 1)), ("y", (0, 1))),
        usets=(),
        stars=(),
    )
    with pytest.raises(SchemeError):
        tw_labels(g, CertTree(cert=bad))


def test_certificate_file_roundtrip():
    g, cert = make_two_level_instance()
    text = write_certificate(cert, "demo")
    parsed, name = parse_certificate(text)
    assert name == "demo"
    assert parsed == cert
    ok, _ = verify_certificate(g, parsed)
    assert ok


def test_quotient_graph():
    g = ColoredBipartiteGraph(2, 2, [(0, 0)])
    division = (("x", (0,)), ("x", (1,)), ("y", (0, 1)))
    h = quotient_graph(g, division)
    assert h == {(0, 2)}
