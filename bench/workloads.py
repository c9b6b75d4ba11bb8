"""The four workloads: seeded corpora, the library calls of one CLI job, and
the checks on its outputs.

Each job replays the library work of one CLI invocation on one generated
input: `gen -> label -> query` (label-query), `sketch -> eval` (eval),
`derand` (derand) and `chain-number` (chain).  Inputs are drawn here from
the benchmark's own `random.Random` streams, not from pugkit's seeded
generators, so both sides of a comparison see identical graphs even when a
change touches pugkit's randomness.  Set-up builds each graph as a pugkit
object and serialises it with pugkit's writers; a job starts from that text.

A job's `run` makes the library calls, each inside a tracer span named
after the module and call, and returns its outputs.  `check` then compares
them with the ground truth kept from set-up, outside the timed region.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable

from pugkit import bipartite, cli, geometric, graphs, labels, sketch, structure

QUERIES = 200            # decoded query pairs per label-query job
EVAL_TRIALS = 1500       # evaluate_error trials per eval job
BOOST_DELTA = 0.05       # target error of the boosted eval sketches
SPOT_PAIRS = 200         # derand: pairs re-decoded by the benchmark itself
COMPRESS_SLACK = 0.02    # acceptance criterion 1: rate <= 1/3 + 0.02
WILSON_HALF_WIDTHS = 3   # acceptance criterion 2: rate <= delta + 3 half-widths


@dataclass
class Job:
    id: str
    run: Callable          # (job, tracer) -> outputs dict
    check: Callable        # (job, outputs) -> error message or None
    text: str              # the serialised graph the job parses
    n: int                 # vertices, in label ids (bigraphs: X then Y)
    edges: frozenset       # ground truth: (u, v) with u < v, in label ids
    params: dict = field(default_factory=dict)

    def adjacent(self, u: int, v: int) -> bool:
        return (u, v) in self.edges if u < v else (v, u) in self.edges


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


# ---------------------------------------------------------------------------
# Seeded inputs: edge lists, as (u, v) for graphs and (x, y) for bigraphs.
# ---------------------------------------------------------------------------

def _forest(rng, n, tree_prob=0.9):
    return [(rng.randrange(v), v) for v in range(1, n) if rng.random() < tree_prob]


def _kdegenerate(rng, n, k):
    return [(w, v) for v in range(1, n) for w in rng.sample(range(v), min(k, v))]


def _equivalence(rng, n, classes):
    cls = [rng.randrange(classes) for _ in range(n)]
    return [(u, v) for u in range(n) for v in range(u + 1, n) if cls[u] == cls[v]]


def _gnp(rng, n, p):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _bip_gnp(rng, nx, ny, p):
    return [(x, y) for x in range(nx) for y in range(ny) if rng.random() < p]


def _chain_bigraph(rng, nx, ny):
    profile = sorted(rng.randrange(ny + 1) for _ in range(nx))
    return [(x, y) for x, d in enumerate(profile) for y in range(ny - d, ny)]


def _tp_free(rng, nx, ny, p):
    # nested suffixes of Y with at most (p-1)//2 flips per row: any two rows
    # differ privately by at most p-1 on one side, so no T_p has both
    # centres in X
    edges = []
    for x in range(nx):
        row = set(range(ny - rng.randrange(ny + 1), ny))
        for _ in range(rng.randrange((p - 1) // 2 + 1)):
            row ^= {rng.randrange(ny)}
        edges += [(x, y) for y in sorted(row)]
    return edges


def _fpp_free(rng, blocks, bx, by, p):
    edges = []
    for b in range(blocks):
        edges += [(b * bx + x, b * by + y) for x, y in _tp_free(rng, bx, by, p)]
    return edges


def _half(k, clique_a=False, clique_b=False):
    edges = [(i, k + j) for i in range(k) for j in range(k) if i <= j]
    if clique_a:
        edges += [(i, j) for i in range(k) for j in range(i + 1, k)]
    if clique_b:
        edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    return edges


def _intervals(rng, n):
    span = 3 * n
    out = []
    for _ in range(n):
        a = rng.randrange(span)
        out.append((float(a), float(a + rng.randrange(1, max(n, 2)))))
    return out


def _interval_edges(items):
    return [(u, v) for u in range(len(items)) for v in range(u + 1, len(items))
            if items[u][0] <= items[v][1] and items[v][0] <= items[u][1]]


def _points(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(float(i), float(perm[i])) for i in range(n)]


def _point_edges(items):
    return [(u, v) for u in range(len(items)) for v in range(u + 1, len(items))
            if (items[u][0] - items[v][0]) * (items[u][1] - items[v][1]) >= 0]


def _job(job_id, run, check, edges, n=None, bip=None, **params) -> Job:
    """Serialise the input with pugkit's writer and keep the ground truth."""
    if bip is not None:
        nx, ny = bip
        g = graphs.ColoredBipartiteGraph(nx, ny, edges)
        truth = frozenset((x, nx + y) for x, y in edges)
        n = nx + ny
    else:
        g = graphs.Graph(n, edges)
        truth = frozenset((min(u, v), max(u, v)) for u, v in edges)
    return Job(job_id, run, check, graphs.write_graph(g, job_id.split(":")[0]),
               n, truth, params)


def _ladder(lo: int, hi: int, ratio: float) -> list[int]:
    """lo, lo*ratio, lo*ratio^2, ... up to hi, largest first."""
    out = [lo]
    while round(out[-1] * ratio) <= hi:
        out.append(round(out[-1] * ratio))
    return out[::-1]


def _queries(rng, n, count=QUERIES):
    out = []
    while len(out) < count:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            out.append((u, v))
    return out


# ---------------------------------------------------------------------------
# Shared job steps.
# ---------------------------------------------------------------------------

def _parse(job, tr):
    with tr.span("graphs.parse_graph"):
        g, name = graphs.parse_graph(job.text)
    return g, name


def _label_scheme(scheme, g, p, tr, k=None):
    if scheme == "arboricity":
        with tr.span("sketch.arboricity_scheme"):
            return sketch.arboricity_scheme(g)
    if scheme in ("interval", "permutation"):
        with tr.span("geometric.labels", scheme):
            if scheme == "interval":
                return geometric.interval_scheme(g, p["items"], k=k)
            return geometric.permutation_labels(g, p["items"], k=k)
    with tr.span("bipartite.labels", scheme):
        if scheme == "equivalence":
            return bipartite.equivalence_labels(g)
        if scheme == "chain-graph":
            return bipartite.chain_graph_labels(g, k=p["k"])
        if scheme == "tp-free":
            return bipartite.tp_free_labels(g, p=p["p"], q=p["q"])
        if scheme == "fpp":
            return bipartite.fpp_labels(g, p=p["p"], q=p["q"])
    raise ValueError(f"unknown label scheme {scheme!r}")


def _sketch(job, g, tr):
    """The CLI's _build_sketch: arboricity-bloom or compress:<scheme>, then
    an optional boost.  Returns (sketch, kind) with kind the eval split."""
    scheme = job.params["scheme"]
    if scheme == "arboricity-bloom":
        with tr.span("sketch.build", "bloom"):
            sk = sketch.arboricity_sketch(g)
        kind = "bloom"
    else:
        base = _label_scheme(scheme.split(":", 1)[1], g, job.params, tr)
        with tr.span("sketch.build", "compress"):
            sk = sketch.compress_equality_scheme(base)
        kind = "compress"
    if job.params.get("delta") is not None:
        with tr.span("sketch.build", "boost"):
            sk = sketch.boost(sk, job.params["delta"])
        kind = "boosted"
    return sk, kind


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


# ---------------------------------------------------------------------------
# label-query: gen -> label -> query, then the README's exhaustive check.
# ---------------------------------------------------------------------------

def _run_label_query(job, tr):
    p = job.params
    g, name = _parse(job, tr)
    k = None
    if "realization" in p:
        with tr.span("geometric.parse_realization"):
            _, items, _ = geometric.parse_realization(p["realization"])
        # the chain number picks --k, as acceptance criterion 5 does
        with tr.span("structure.chain_number") as sp:
            res = structure.chain_number(g, cap=6)
        sp.add(exact=int(res.exact))
        k = max(res.value, 1)
        p = dict(p, items=items)
    scheme = _label_scheme(p["scheme"], g, p, tr, k=k)
    with tr.span("labels.write_label_file"):
        label_text = labels.write_label_file(scheme, name)
    with tr.span("labels.parse_label_file"):
        parsed, _, _ = labels.parse_label_file(label_text)
    with tr.span("cli.write_decoder_file"):
        decoder_text = cli.write_decoder_file(scheme)
    with tr.span("cli.parse_decoder_file"):
        decode = cli.parse_decoder_file(decoder_text)
    with tr.span("cli.decode", pairs=len(p["queries"])):
        bits = [decode(parsed[u], parsed[v]) for u, v in p["queries"]]
    with tr.span("labels.check_exact", pairs=_pairs(scheme.n)):
        exact = scheme.check_exact(job.adjacent)
    with tr.span("sketch.naive_label_width"):
        s, kk, w = sketch.naive_label_width(scheme)
    return {"work": len(bits) + _pairs(scheme.n), "bits": s + kk * w,
            "n": scheme.n, "exact": exact, "decoded": bits,
            "labels": digest(label_text), "decoder": digest(decoder_text)}


def _check_label_query(job, out):
    if out["n"] != job.n:
        return f"{out['n']} labels for {job.n} vertices"
    if not out["exact"]:
        return "check_exact found a wrongly decoded pair"
    for (u, v), bit in zip(job.params["queries"], out["decoded"]):
        if bit != int(job.adjacent(u, v)):
            return f"query ({u},{v}) decoded {bit}"
    return None


def _label_query_corpus(rng):
    run, check = _run_label_query, _check_label_query
    jobs = []

    def add(name, scheme, edges, n=None, bip=None, **params):
        job = _job(f"{name}:{len(jobs)}", run, check, edges, n=n, bip=bip,
                   scheme=scheme, **params)
        job.params["queries"] = _queries(rng, job.n)
        jobs.append(job)

    # sizes grow geometrically, so job times spread evenly and the
    # percentiles do not sit in a gap between two jobs.
    # arboricity: forest_partition's peel and the O(n^2) check dominate;
    # degeneracy 3 gives k=4 codes and a ~75k-line `decoder table`,
    # degeneracy <= 2 a small one
    for n in _ladder(60, 800, 1.25):
        add("forest", "arboricity", _forest(rng, n), n)
    for n in _ladder(60, 500, 1.3):
        add("kdeg2", "arboricity", _kdegenerate(rng, n, 2), n)
    for n in (400, 200, 100):
        add("kdeg3", "arboricity", _kdegenerate(rng, n, 3), n)
    for n in _ladder(60, 400, 1.25):
        add("equivalence", "equivalence", _equivalence(rng, n, n // 20), n)
    for nx in _ladder(20, 160, 1.3):
        add("chain-graph", "chain-graph", _chain_bigraph(rng, nx, nx + 10),
            bip=(nx, nx + 10), k=nx + 10)
    # tp-free labels have k = q codes, so these take the `decoder tree` path
    for nx in _ladder(8, 60, 1.3):
        add("tp-free", "tp-free", _tp_free(rng, nx, nx + 6, 2), bip=(nx, nx + 6),
            p=2, q=nx + 1)
    for blocks in range(2, 9):
        add("fpp", "fpp", _fpp_free(rng, blocks, 4, 5, 2), bip=(4 * blocks, 5 * blocks),
            p=2, q=3)
    # below n ~ 100 random interval graphs often have chain number exactly
    # 6, and proving it can take seconds; above, a 7-chain turns up fast
    for n in _ladder(100, 180, 1.1):
        items = _intervals(rng, n)
        add("interval", "interval", _interval_edges(items), n,
            realization=geometric.write_realization("intervals", items, "iv"))
    # permutation labels need chain number <= 6, which holds below n ~ 25
    for n in range(12, 23):
        items = _points(rng, n)
        add("permutation", "permutation", _point_edges(items), n,
            realization=geometric.write_realization("points", items, "pts"))
    return jobs


# ---------------------------------------------------------------------------
# eval: sketch -> eval with a fixed trial count.
# ---------------------------------------------------------------------------

def _run_eval(job, tr):
    g, _ = _parse(job, tr)
    sk, kind = _sketch(job, g, tr)
    if isinstance(g, graphs.ColoredBipartiteGraph):
        with tr.span("graphs.to_graph"):
            g = g.to_graph()
    trials = job.params["trials"]
    with tr.span("sketch.evaluate_error", kind, trials=trials):
        rep = sketch.evaluate_error(sk, g, trials=trials, seed=job.params["seed"],
                                    pairs=job.params["pairs"])
    return {"work": trials, "bits": sk.width, "kind": kind,
            "counts": (rep.adjacent.errors, rep.adjacent.trials,
                       rep.nonadjacent.errors, rep.nonadjacent.trials),
            "wilson_hi": rep.overall.wilson()[1]}


def _check_eval(job, out):
    ea, na, en, nn = out["counts"]
    pairs = job.params["pairs"]
    if na + nn != job.params["trials"]:
        return f"{na + nn} trials reported"
    if (pairs == "adjacent" and nn) or (pairs == "nonadjacent" and na):
        return f"pairs={pairs} sampled the other class"
    scheme = job.params["scheme"]
    if ea and scheme in ("arboricity-bloom", "compress:arboricity"):
        return f"{ea} adjacent errors from a one-sided sketch"
    rate = (ea + en) / (na + nn)
    if out["kind"] == "boosted":
        limit = job.params["delta"] + WILSON_HALF_WIDTHS * (out["wilson_hi"] - rate)
    else:
        limit = 1 / 3 + COMPRESS_SLACK
    if rate > limit:
        return f"error rate {rate:.4f} above {limit:.4f}"
    return None


def _eval_corpus(rng):
    run, check = _run_eval, _check_eval
    jobs = []

    def add(name, scheme, edges, pairs, n=None, bip=None, delta=None, **params):
        jobs.append(_job(f"{name}:{len(jobs)}", run, check, edges, n=n, bip=bip,
                         scheme=scheme, pairs=pairs, delta=delta, trials=EVAL_TRIALS,
                         seed=rng.getrandbits(63), **params))

    every = ("all", "adjacent", "nonadjacent")
    for n in (600, 400, 250, 150, 100):
        edges = _forest(rng, n)
        for pairs in every:
            add("c-arb-forest", "compress:arboricity", edges, pairs, n)
    for n in (500, 300, 150):
        edges = _kdegenerate(rng, n, 3)
        for pairs in ("all", "nonadjacent"):
            add("c-arb-kdeg3", "compress:arboricity", edges, pairs, n)
    # few large classes keep the adjacent share high: with one code the
    # hashed alphabet is 3, so a nonadjacent pair errs with probability 1/3
    for n in (400, 250, 150, 100):
        edges = _equivalence(rng, n, 4)
        for pairs in ("all", "adjacent"):
            add("c-equivalence", "compress:equivalence", edges, pairs, n)
    for nx in (40, 30, 20):
        add("c-tp-free", "compress:tp-free", _tp_free(rng, nx, nx + 6, 2), "all",
            bip=(nx, nx + 6), p=2, q=nx + 1)
    for n in (600, 300, 150):
        edges = _forest(rng, n)
        for pairs in every:
            add("bloom-forest", "arboricity-bloom", edges, pairs, n)
    for n in (400, 200):
        for k in (2, 3):
            edges = _kdegenerate(rng, n, k)
            for pairs in ("all", "nonadjacent"):
                add(f"bloom-kdeg{k}", "arboricity-bloom", edges, pairs, n)
    for n in (250, 100):
        edges = _forest(rng, n)
        for pairs in ("all", "nonadjacent"):
            add("boost-c-arb", "compress:arboricity", edges, pairs, n, delta=BOOST_DELTA)
    return jobs


# ---------------------------------------------------------------------------
# derand: sampled and naive derandomisation, re-verified as cmd_derand does.
# ---------------------------------------------------------------------------

def _run_derand(job, tr):
    g, name = _parse(job, tr)
    if job.params["mode"] == "naive":
        base = _label_scheme(job.params["scheme"], g, job.params, tr)
        with tr.span("sketch.naive_derandomize"):
            det = sketch.naive_derandomize(base)
    else:
        sk, _ = _sketch(job, g, tr)
        # derandomize boosts by the exact binomial tail; the copy count is
        # the boosted width over the base width
        with tr.span("sketch.derandomize") as sp:
            det = sketch.derandomize(sk, g, seed=job.params["seed"])
        sp.add(attempts=det.attempts, copies=det.width // sk.width,
               first_try=int(det.attempts == 1))
    with tr.span("sketch.verify", pairs=_pairs(g.n)):
        ok = det.check_exact(g)
    with tr.span("cli.write_sketch_file"):
        text = cli.write_sketch_file(list(det.labels), det.width, name)
    return {"work": 1, "bits": det.width, "ok": ok, "det": det,
            "labels": digest(text), "attempts": det.attempts}


def _check_derand(job, out):
    if not out["ok"]:
        return "check_exact rejected the derandomized labels"
    det = out["det"]
    if len(det.labels) != job.n:
        return f"{len(det.labels)} labels for {job.n} vertices"
    rng = random.Random(job.id)
    for u, v in _queries(rng, job.n, SPOT_PAIRS):
        if det.decode(det.labels[u], det.labels[v]) != int(job.adjacent(u, v)):
            return f"pair ({u},{v}) decodes wrongly"
    return None


def _derand_corpus(rng):
    run, check = _run_derand, _check_derand
    jobs = []

    def add(name, scheme, edges, n, mode="sampled", **params):
        jobs.append(_job(f"{name}:{len(jobs)}", run, check, edges, n=n, scheme=scheme,
                         mode=mode, seed=rng.getrandbits(63), **params))

    # the Bloom sketch has a bulk decoder (decode_matrix); compressed
    # schemes fall back to per-pair decoding inside derandomize.  Sizes
    # grow geometrically, as in label-query, with two graphs per size so
    # that the tail does not hang on one graph.
    for _ in range(2):
        for n in _ladder(12, 40, 1.12):
            add("bloom-forest", "arboricity-bloom", _forest(rng, n), n)
        for k in (2, 3):
            for n in _ladder(16, 34, 1.2):
                add(f"bloom-kdeg{k}", "arboricity-bloom", _kdegenerate(rng, n, k), n)
        for n in _ladder(6, 16, 1.1):
            add("c-arb-forest", "compress:arboricity", _forest(rng, n), n)
        for n in _ladder(8, 17, 1.2):
            add("c-arb-kdeg2", "compress:arboricity", _kdegenerate(rng, n, 2), n)
        for n in _ladder(8, 18, 1.15):
            add("c-equivalence", "compress:equivalence",
                _equivalence(rng, n, max(n // 6, 2)), n)
    for n in _ladder(60, 400, 1.35):
        add("naive-forest", "arboricity", _forest(rng, n), n, mode="naive")
    for n in _ladder(60, 300, 1.5):
        add("naive-kdeg3", "arboricity", _kdegenerate(rng, n, 3), n, mode="naive")
        add("naive-equivalence", "equivalence", _equivalence(rng, n, n // 10), n,
            mode="naive")
    return jobs


# ---------------------------------------------------------------------------
# chain: bounded chain-number search and the quasi-chain sandwich.
# ---------------------------------------------------------------------------

def _run_chain(job, tr):
    g, _ = _parse(job, tr)
    with tr.span("structure.chain_number") as sp:
        res = structure.chain_number(g, cap=job.params["cap"])
    sp.add(exact=int(res.exact))
    witness = res.witness
    return {"work": 1, "value": res.value, "exact": res.exact,
            "witness": None if witness is None else (witness.a_ids, witness.b_ids),
            "witness_ok": None if witness is None else witness.check(g)}


def _check_chain(job, out):
    cap, want = job.params["cap"], job.params.get("expect")
    value, exact = out["value"], out["exact"]
    if want is not None and (not exact or value != want):
        return f"chain number {value} (exact={exact}), generator value {want}"
    if exact != (value <= cap) or value > cap + 1:
        return f"value {value} inconsistent with cap {cap} (exact={exact})"
    if value == 0:
        return None
    if out["witness"] is None or not out["witness_ok"]:
        return "missing or rejected chain witness"
    a, b = out["witness"]
    if len(a) != value or len(b) != value or set(a) & set(b):
        return "malformed chain witness"
    for i in range(value):
        for j in range(value):
            if job.adjacent(a[i], b[j]) != (i <= j):
                return f"witness pair ({a[i]},{b[j]}) breaks the chain pattern"
    return None


def _run_qch(job, tr):
    g, _ = _parse(job, tr)
    with tr.span("graphs.to_graph"):
        flat = g.to_graph()
    with tr.span("structure.chain_number") as sp:
        res = structure.chain_number(flat, cap=5)
    sp.add(exact=int(res.exact))
    with tr.span("structure.quasi_chain_number"):
        qch = structure.quasi_chain_number(g, cap=4 * res.value + 4)
    return {"work": 1, "value": res.value, "qch": qch}


def _check_qch(job, out):
    ch, qch = out["value"], out["qch"]
    if not ch <= qch <= 4 * ch + 4:
        return f"sandwich ch={ch} <= qch={qch} <= 4ch+4 fails"
    return None


def _chain_corpus(rng):
    jobs = []

    def add(name, edges, n=None, bip=None, run=_run_chain, check=_check_chain, **params):
        jobs.append(_job(f"{name}:{len(jobs)}", run, check, edges, n=n, bip=bip,
                         **params))

    # generator graphs: the value must be exact and equal to k
    for k in (8, 6, 4):
        add("half", _half(k), 2 * k, cap=k, expect=k)
        add("threshold", _half(k, clique_a=True), 2 * k, cap=k, expect=k)
        add("co-half", _half(k, clique_a=True, clique_b=True), 2 * k, cap=k, expect=k)
    # gnp with the chain number near the cap: proving "no chain of size
    # cap+1" is the expensive branch-and-bound case
    for n, p, cap in ((60, 0.1, 5), (50, 0.12, 5), (45, 0.15, 5), (40, 0.15, 5),
                      (36, 0.15, 5), (50, 0.1, 4)):
        for _ in range(10):
            add("gnp", _gnp(rng, n, p), n, cap=cap)
    for n in (160, 120):
        for _ in range(2):
            add("interval", _interval_edges(_intervals(rng, n)), n, cap=6)
    for n in (60, 40):
        for _ in range(2):
            add("permutation", _point_edges(_points(rng, n)), n, cap=6)
    # quasi-chain number: memoised search over (X-subset, Y-subset) states
    for a in (8, 7, 6):
        for p in (0.5, 0.45, 0.4, 0.35, 0.3):
            for _ in range(3):
                add("qch-bip", _bip_gnp(rng, a, a, p), bip=(a, a), run=_run_qch,
                    check=_check_qch)
    for nx, ny in ((6, 8), (6, 7), (5, 7), (5, 6), (4, 6)):
        for _ in range(2):
            add("qch-chain", _chain_bigraph(rng, nx, ny), bip=(nx, ny), run=_run_qch,
                check=_check_qch)
    return jobs


# ---------------------------------------------------------------------------
# Known defects, run once per run with a short time limit.
# They fail today; a fix turns them into passes.
# ---------------------------------------------------------------------------

def _run_eval_complete(job, tr):
    """evaluate_error(pairs="nonadjacent") on a complete graph: there is no
    pair to sample.  Passing means returning or raising ValueError promptly."""
    g, _ = _parse(job, tr)
    sk, kind = _sketch(job, g, tr)
    try:
        with tr.span("sketch.evaluate_error", kind):
            sketch.evaluate_error(sk, g, trials=100, seed=1, pairs="nonadjacent")
    except ValueError:
        pass
    return {}


def _run_derand_wide_bloom(job, tr):
    """Sampled derandomisation of arboricity-bloom at alpha = 12, where the
    Bloom filter has 72 buckets.  Passing means verified labels or a
    ValueError that rejects the parameters."""
    g, _ = _parse(job, tr)
    sk, _ = _sketch(job, g, tr)
    try:
        with tr.span("sketch.derandomize"):
            det = sketch.derandomize(sk, g, seed=1)
    except ValueError:
        return {}
    with tr.span("sketch.verify", pairs=_pairs(g.n)):
        ok = det.check_exact(g)
    return {"ok": ok}


def _check_defect(job, out):
    return None if out.get("ok", True) else "labels fail verification"


def _defects(rng, workload):
    if workload == "eval":
        return [_job("defect-nonadjacent-complete:0", _run_eval_complete, _check_defect,
                     _equivalence(rng, 30, 1), n=30, scheme="compress:equivalence")]
    if workload == "derand":
        return [_job("defect-bloom-alpha12:0", _run_derand_wide_bloom, _check_defect,
                     _kdegenerate(rng, 60, 12), n=60, scheme="arboricity-bloom")]
    return []


@dataclass(frozen=True)
class Workload:
    corpus: Callable
    rate_name: str       # the report's name for the throughput in seconds
    rate_unit: str


WORKLOADS = {
    "label-query": Workload(_label_query_corpus, "pairs_per_s", "pairs/s"),
    "eval": Workload(_eval_corpus, "trials_per_s", "trials/s"),
    "derand": Workload(_derand_corpus, "jobs_per_s", "jobs/s"),
    "chain": Workload(_chain_corpus, "jobs_per_s", "jobs/s"),
}


def build(workload: str, seed: int) -> list[Job]:
    """The workload's job list for one seed."""
    return WORKLOADS[workload].corpus(random.Random(f"{workload}:{seed}"))


def defects(workload: str, seed: int) -> list[Job]:
    """The workload's known-defect probes."""
    return _defects(random.Random(f"{workload}:{seed}:defects"), workload)


def outputs_key(out: dict) -> tuple:
    """The outputs two runs of one job must agree on: labels, decoded bits,
    error counts, widths, search results."""
    return tuple(sorted((k, repr(v)) for k, v in out.items() if k != "det"))

