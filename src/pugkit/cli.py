"""Command-line front end: argparse, dispatch and exit codes.  Each file
format lives with its type, and the commands call those codecs.

Exit codes: 0 success, 2 family-contract violation (SchemeError and
friends), 3 format error.  Every randomized command requires an explicit
--seed; there is no ambient entropy.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bipartite, combinators, generators, geometric, products, sketch, structure, twinwidth
from .graphs import (ColoredBipartiteGraph, Graph, GraphFormatError, LineReader, parse_graph,
                     write_graph)
from .labels import (EqualityScheme, SchemeError, parse_decoder_file, parse_label_file,
                     write_decoder_file, write_label_file)
from .sketch import write_sketch_file

EXIT_OK = 0
EXIT_CONTRACT = 2
EXIT_FORMAT = 3


class CliError(Exception):
    def __init__(self, code: int, msg: str):
        super().__init__(msg)
        self.code = code


def _read(path: str, parse, what: str):
    """`parse` of the file's text; an unreadable or malformed file exits 3."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, GraphFormatError) as e:
        raise CliError(EXIT_FORMAT, f"cannot read {what}: {e}")


def _read_graph(path: str):
    return _read(path, parse_graph, f"graph {path}")


def _as_graph(g) -> Graph:
    """The input as a graph: a bigraph's X-vertex x as x and Y-vertex y as
    nx + y, the ids its labels give them."""
    return g.to_graph() if isinstance(g, ColoredBipartiteGraph) else g


def _write_out(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    # the name must read back as one field of the graph header
    if args.name and list(LineReader(args.name)) != [[args.name]]:
        raise CliError(EXIT_FORMAT, f"--name takes no whitespace or '#', got {args.name!r}")
    params = {key: val for key in ("k", "q", "s", "p", "d", "n", "a", "b", "ny", "seed", "prob")
              if (val := getattr(args, key)) is not None}
    for key in ("sizes", "profile"):
        if text := getattr(args, key):
            try:
                params[key] = [int(t) for t in text.split(",")]
            except ValueError:
                raise CliError(EXIT_FORMAT, f"--{key} expects a comma list of integers, "
                                            f"got {text!r}") from None
    try:
        g = generators.generate(args.family, **params)
    except KeyError as e:
        raise CliError(EXIT_FORMAT, f"gen {args.family} requires --{e.args[0]}") from None
    except ValueError as e:
        raise CliError(EXIT_FORMAT, f"bad generator parameters: {e}")
    _write_out(write_graph(g, args.name or args.family), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# label schemes
# ---------------------------------------------------------------------------

#: Each label scheme: its input class, its builder, the flags the builder
#: takes (checked in this order) and the kind of realization file it reads.
LABEL_SCHEMES = {
    "equivalence": (Graph, bipartite.equivalence_labels, (), None),
    "bip-equivalence": (ColoredBipartiteGraph, bipartite.bipartite_equivalence_labels, (), None),
    "chain-graph": (ColoredBipartiteGraph, bipartite.chain_graph_labels, ("k",), None),
    "arboricity": (Graph, sketch.arboricity_scheme, (), None),
    "tp-free": (ColoredBipartiteGraph, bipartite.tp_free_labels, ("p", "q"), None),
    "fpp": (ColoredBipartiteGraph, bipartite.fpp_labels, ("p", "q"), None),
    "fstar": (ColoredBipartiteGraph, bipartite.fstar_labels, ("p", "q"), None),
    "p7": (ColoredBipartiteGraph, bipartite.p7_labels, ("c",), None),
    "interval": (Graph, geometric.interval_scheme, ("k",), "intervals"),
    "permutation": (Graph, geometric.permutation_labels, ("k",), "points"),
}


def _build_label_scheme(g, args, name: str) -> EqualityScheme:
    """Checks the input class (exit 2), then the realization, then the flags."""
    if name not in LABEL_SCHEMES:
        raise CliError(EXIT_FORMAT, f"unknown label scheme {name!r}")
    cls, build, flags, realization = LABEL_SCHEMES[name]
    _need(g, cls, name)
    items = []
    if realization:
        if not args.realization:
            raise CliError(EXIT_FORMAT, "missing --realization file")
        kind, got, _ = _read(args.realization, geometric.parse_realization, "realization")
        if kind != realization:
            article = "an" if realization == "intervals" else "a"
            raise CliError(EXIT_FORMAT, f"{name} scheme needs {article} {realization} file")
        items.append(got)
    for flag in flags:
        if getattr(args, flag) is None:
            raise CliError(EXIT_FORMAT, f"scheme {name} requires --{flag}")
    return build(g, *items, **{flag: getattr(args, flag) for flag in flags})


def _need(g, cls, scheme):
    if not isinstance(g, cls):
        kind = "graph" if cls is Graph else "bigraph"
        raise CliError(EXIT_CONTRACT, f"scheme {scheme} needs a {kind} input")


def cmd_label(args) -> int:
    g, gname = _read_graph(args.graph)
    scheme = _build_label_scheme(g, args, args.scheme)
    _write_out(write_label_file(scheme, gname), args.out)
    if args.decoder_out:
        _write_out(write_decoder_file(scheme), args.decoder_out)
    s, k, w = sketch.naive_label_width(scheme)
    tuples = max(map(combinators.tuple_count, scheme.codec.shapes), default=0)
    print(f"scheme={scheme.name} s={scheme.s} k={scheme.k} "
          f"naive-bits={scheme.s + scheme.k * w} tuples={tuples}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sketches
# ---------------------------------------------------------------------------

def _build_sketch(g, args):
    name = args.scheme
    if name == "arboricity-bloom":
        _need(g, Graph, name)
        sk = sketch.arboricity_sketch(g)
    elif name.startswith("compress:"):
        sk = sketch.compress_equality_scheme(_build_label_scheme(g, args, name[len("compress:"):]))
    else:
        raise CliError(EXIT_FORMAT, f"unknown sketch scheme {name!r}")
    if args.delta is not None:
        sk = sketch.boost(sk, args.delta)
    return sk


def cmd_sketch(args) -> int:
    g, gname = _read_graph(args.graph)
    sk = _build_sketch(g, args)
    labels = sk.encode(args.seed)
    _write_out(write_sketch_file(labels, sk.width, gname), args.out)
    print(f"sketch={args.scheme} width={sk.width} delta<={sk.delta:g}",
          file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# query / eval / derand
# ---------------------------------------------------------------------------

def cmd_query(args) -> int:
    labels, _, _ = _read(args.labels, parse_label_file, "labels")
    decode = _read(args.decoder, parse_decoder_file, "decoder")
    u, v = args.u, args.v
    if not (0 <= u < len(labels) and 0 <= v < len(labels)):
        raise CliError(EXIT_FORMAT, "vertex id out of range")
    try:
        print(f"{u} {v} {decode(labels[u], labels[v])}")
    except GraphFormatError as e:  # the decoder does not fit the labels
        raise CliError(EXIT_FORMAT, str(e)) from None
    return EXIT_OK


def cmd_eval(args) -> int:
    g, _ = _read_graph(args.graph)
    sk = _build_sketch(g, args)
    rep = sketch.evaluate_error(sk, _as_graph(g), trials=args.trials, seed=args.seed,
                                pairs=args.pairs)
    print("class trials errors rate wilson_lo wilson_hi")
    for label, est in (("adjacent", rep.adjacent), ("nonadjacent", rep.nonadjacent),
                       ("overall", rep.overall)):
        lo, hi = est.wilson()
        print(f"{label} {est.trials} {est.errors} {est.rate:.6f} {lo:.6f} {hi:.6f}")
    print(f"sketch={args.scheme} width={sk.width} delta<={sk.delta:g}", file=sys.stderr)
    return EXIT_OK


def cmd_derand(args) -> int:
    if args.delta is not None:
        raise CliError(EXIT_FORMAT, "derand takes no --delta: it sizes its own boost")
    g, gname = _read_graph(args.graph)
    graph = _as_graph(g)
    if args.mode == "naive":
        det = sketch.naive_derandomize(_build_label_scheme(g, args, args.scheme))
    else:
        try:
            det = sketch.derandomize(_build_sketch(g, args), graph, seed=args.seed)
        except sketch.DerandomizationError as e:
            raise CliError(EXIT_CONTRACT, str(e))
    if not det.check_exact(graph):
        raise CliError(EXIT_CONTRACT, "derandomized labels fail verification")
    _write_out(write_sketch_file(list(det.labels), det.width, gname), args.out)
    print(f"derand mode={args.mode} width={det.width} attempts={det.attempts}",
          file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / chain-number / twinwidth
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    g, _ = _read_graph(args.graph)
    if args.kind == "twcert":
        _need(g, ColoredBipartiteGraph, "twcert")
        cert, _ = _read(args.file, twinwidth.parse_certificate, "certificate")
        reasons: list[str] = []
        ok, h = twinwidth.verify_certificate(g, cert, reasons=reasons)
        if ok:
            print(f"certificate accepted: {len(h)} quotient edges, "
                  f"q={cert.q} r={cert.r}")
            return EXIT_OK
        print("certificate rejected: " + "; ".join(reasons))
        return EXIT_CONTRACT
    _need(g, Graph, "width-seq")
    seq = _read(args.file, twinwidth.parse_partition_seq, "sequence")
    try:
        width = twinwidth.verify_width(g, seq)
    except SchemeError as e:
        raise CliError(EXIT_CONTRACT, f"sequence invalid: {e}")
    print(f"sequence valid: width={width}")
    return EXIT_OK


def cmd_product_dist(args) -> int:
    """Distance-k sketch over the d-wise Cartesian power of the input
    graph; product vertices are addressed as comma-separated factor ids."""
    g, _ = _read_graph(args.graph)
    if not isinstance(g, Graph):
        raise CliError(EXIT_CONTRACT, "product sketches need a graph input")
    base = products.FiniteFamilyDistanceSketch([g], k=args.k)
    sk = products.ProductDistanceSketch([g] * args.d, base, k=args.k)
    queries, ids = [], []
    for pair in args.query or []:
        try:
            us, vs = pair.split(":")
            ids += [int(np.ravel_multi_index([int(t) for t in w.split(",")], sk.dims))
                    for w in (us, vs)]
        except (ValueError, TypeError) as e:
            raise CliError(EXIT_FORMAT, f"bad product vertex address {pair!r}: {e}")
        queries.append((us, vs))
    # only the queried vertices' labels are encoded
    rows = sk.grid_bits([args.seed], ids)[0]
    outs = sk.decode_pairs(rows, range(0, len(ids), 2), range(1, len(ids), 2))
    print(f"product d={args.d} k={args.k} m={sk.m} t={sk.t} width={sk.width}")
    for (us, vs), out in zip(queries, outs.tolist()):
        print(f"{us} {vs} {'bot' if out == products.BOTTOM else out}")
    return EXIT_OK


def cmd_chain_number(args) -> int:
    g, _ = _read_graph(args.graph)
    res = structure.chain_number(_as_graph(g), cap=args.cap)
    rel = "=" if res.exact else ">="
    print(f"chain-number {rel} {res.value}")
    if res.witness:
        print(res.witness.serialize())
    return EXIT_OK


def cmd_twinwidth(args) -> int:
    g = _as_graph(_read_graph(args.graph)[0])
    if g.n > twinwidth.TWIN_WIDTH_EXACT_MAX_N:
        raise CliError(EXIT_CONTRACT,
                       f"exact twin-width capped at n <= {twinwidth.TWIN_WIDTH_EXACT_MAX_N}")
    width, seq = twinwidth.twin_width_exact(g)
    print(f"twin-width = {width}")
    sys.stdout.write(twinwidth.write_partition_seq(seq))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pugkit",
                                 description="adjacency sketches and equality-based "
                                             "labeling schemes")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a named graph family member")
    g.add_argument("family")
    for flag in ("k", "q", "s", "p", "d", "n", "a", "b", "ny", "seed"):
        g.add_argument(f"--{flag}", type=int)
    g.add_argument("--prob", type=float)
    g.add_argument("--sizes")
    g.add_argument("--profile")
    g.add_argument("--name")
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    def add_scheme_flags(p, randomized=False):
        p.add_argument("--scheme", required=True)
        for flag in ("k", "p", "q", "c"):
            p.add_argument(f"--{flag}", type=int)
        p.add_argument("--realization")
        if randomized:
            p.add_argument("--delta", type=float)
            p.add_argument("--seed", type=int, required=True)

    l = sub.add_parser("label", help="build deterministic equality labels")
    l.add_argument("graph")
    add_scheme_flags(l)
    l.add_argument("--out")
    l.add_argument("--decoder-out")
    l.set_defaults(func=cmd_label)

    s = sub.add_parser("sketch", help="sample a randomized sketch")
    s.add_argument("graph")
    add_scheme_flags(s, randomized=True)
    s.add_argument("--out")
    s.set_defaults(func=cmd_sketch)

    q = sub.add_parser("query", help="decode one pair from a label file")
    q.add_argument("labels")
    q.add_argument("u", type=int)
    q.add_argument("v", type=int)
    q.add_argument("--decoder", required=True)
    q.set_defaults(func=cmd_query)

    e = sub.add_parser("eval", help="Monte-Carlo error estimation")
    e.add_argument("graph")
    add_scheme_flags(e, randomized=True)
    e.add_argument("--trials", type=int, required=True)
    e.add_argument("--pairs", choices=("all", "adjacent", "nonadjacent"),
                   default="all")
    e.set_defaults(func=cmd_eval)

    d = sub.add_parser("derand", help="derandomize a sketch into labels")
    d.add_argument("graph")
    add_scheme_flags(d, randomized=True)
    d.add_argument("--mode", choices=("sampled", "naive"), default="sampled")
    d.add_argument("--out")
    d.set_defaults(func=cmd_derand)

    v = sub.add_parser("verify", help="verify certificates and sequences")
    v.add_argument("kind", choices=("twcert", "width-seq"))
    v.add_argument("graph")
    v.add_argument("file")
    v.set_defaults(func=cmd_verify)

    pd = sub.add_parser("product-dist",
                        help="distance-k sketch over a Cartesian power")
    pd.add_argument("graph")
    pd.add_argument("--d", type=int, required=True)
    pd.add_argument("--k", type=int, required=True)
    pd.add_argument("--seed", type=int, required=True)
    pd.add_argument("--query", action="append",
                    help="pair as u1,u2,...:v1,v2,... (repeatable)")
    pd.set_defaults(func=cmd_product_dist)

    c = sub.add_parser("chain-number", help="bounded exhaustive chain number")
    c.add_argument("graph")
    c.add_argument("--cap", type=int, default=6)
    c.set_defaults(func=cmd_chain_number)

    t = sub.add_parser("twinwidth", help="exact twin-width for tiny graphs")
    t.add_argument("graph")
    t.set_defaults(func=cmd_twinwidth)

    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except SchemeError as e:
        print(f"family contract violation: {e}", file=sys.stderr)
        return EXIT_CONTRACT
    except (GraphFormatError, ValueError) as e:
        print(f"format error: {e}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
