"""Twin-width machinery: width verifiers, exhaustive twin-width for tiny
graphs, convex variants, q-flips, divisions, star-forest certificates, and
the certificate-driven labeling.

Certificates are inputs (files or hand-constructed); synthesizing the
division/flip data is out of scope -- the library verifies, it does not
guess.  Certificate and width-seq files are read and written here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .bipartite import _bip_equivalence_walker, bipartite_equivalence_labels
from .combinators import across_sides
from .graphs import (ColoredBipartiteGraph, Graph, GraphFormatError, LineReader, in_id_order,
                     mask_of, members)
from .labels import EqualityScheme, Label, SchemeError, node, register_walker
from .structure import quasi_chain_number


# ---------------------------------------------------------------------------
# Uncontraction sequences and width.
# ---------------------------------------------------------------------------

Partition = tuple[frozenset, ...]


def _canon(parts) -> Partition:
    return tuple(sorted((frozenset(p) for p in parts), key=lambda s: sorted(s)))


def _pure(g: Graph, a: frozenset, b: frozenset) -> bool:
    edges = sum(1 for u in a for v in b if g.has_edge(u, v))
    return edges == 0 or edges == len(a) * len(b)


def partition_width(g: Graph, parts: Sequence[frozenset]) -> int:
    worst = 0
    for u_part in parts:
        bad = sum(1 for w_part in parts
                  if w_part is not u_part and not _pure(g, u_part, w_part))
        worst = max(worst, bad)
    return worst


def verify_width(g: Graph, seq: Sequence[Sequence[Sequence[int]]]) -> int:
    """Validate an uncontraction sequence and return its width.

    The sequence must start at {V}, end at singletons, and split exactly
    one part into two at each step.  On the empty graph the partition with
    no parts is both the first and the last.
    """
    parts_seq = [_canon(p) for p in seq]
    if not parts_seq:
        raise SchemeError("empty sequence")
    if parts_seq[0] != _canon([range(g.n)] if g.n else []):
        raise SchemeError("sequence must start with the whole vertex set")
    if parts_seq[-1] != _canon([[v] for v in range(g.n)]):
        raise SchemeError("sequence must end with singletons")
    for i, parts in enumerate(parts_seq):
        flat = sorted(v for p in parts for v in p)
        if flat != list(range(g.n)):
            raise SchemeError(f"step {i} is not a partition")
    for i in range(len(parts_seq) - 1):
        prev = set(parts_seq[i])
        nxt = set(parts_seq[i + 1])
        gone = prev - nxt
        new = nxt - prev
        if len(gone) != 1 or len(new) != 2:
            raise SchemeError(f"step {i}->{i + 1} does not split one part in two")
        (old,) = gone
        if frozenset().union(*new) != old:
            raise SchemeError(f"step {i}->{i + 1} split does not cover the part")
    return max(partition_width(g, parts) for parts in parts_seq)


def _minimax(start, own, moves) -> tuple[int, list]:
    """Exhaustive minimax DP: best(s) is own(s) at a state with no moves,
    else the least max(own(s), best(t)) over the moves t of s, taking the
    first move that attains it.  Returns best(start) and the path of chosen
    states from `start`."""
    memo: dict = {}

    def best(state) -> int:
        if state in memo:
            return memo[state][0]
        w = own(state)
        result, choice = w, None
        for nxt in moves(state):
            score = max(w, best(nxt))
            if choice is None or score < result:
                result, choice = score, nxt
        memo[state] = (result, choice)
        return result

    width = best(start)
    path = [start]
    while memo[path[-1]][1] is not None:
        path.append(memo[path[-1]][1])
    return width, path


#: The largest n `twin_width_exact` accepts.
TWIN_WIDTH_EXACT_MAX_N = 8


def twin_width_exact(g: Graph) -> tuple[int, list[Partition]]:
    """Exhaustive twin-width via minimax DP over all partitions (n <= 8).

    Returns (width, witness uncontraction sequence).
    """
    if g.n > TWIN_WIDTH_EXACT_MAX_N:
        raise ValueError(f"twin_width_exact capped at n={TWIN_WIDTH_EXACT_MAX_N}")
    if g.n == 0:
        return 0, [()]

    def merges(parts: Partition):
        for i, j in itertools.combinations(range(len(parts)), 2):
            yield _canon([p for t, p in enumerate(parts) if t not in (i, j)]
                         + [parts[i] | parts[j]])

    start = _canon([[v] for v in range(g.n)])
    width, path = _minimax(start, lambda parts: partition_width(g, parts), merges)
    return width, list(reversed(path))  # the coarsening path, read as an uncontraction


# ---------------------------------------------------------------------------
# Convex twin-width for ordered bipartite graphs.
# ---------------------------------------------------------------------------

def convex_division_width(g: ColoredBipartiteGraph, x_parts, y_parts) -> int:
    worst = 0
    for xp in x_parts:
        worst = max(worst, sum(1 for yp in y_parts if not _pure(g, xp, yp)))
    for yp in y_parts:
        worst = max(worst, sum(1 for xp in x_parts if not _pure(g, xp, yp)))
    return worst


#: The most vertices (nx + ny) `convex_twin_width_exact` accepts.
CONVEX_TWIN_WIDTH_EXACT_MAX_N = 10


def convex_twin_width_exact(g: ColoredBipartiteGraph) -> int:
    """Exhaustive convex twin-width of an ordered bipartite graph (vertex
    ids are the order): minimax DP over interval-division states."""
    if g.nx + g.ny > CONVEX_TWIN_WIDTH_EXACT_MAX_N:
        raise ValueError("convex_twin_width_exact capped at "
                         f"{CONVEX_TWIN_WIDTH_EXACT_MAX_N} vertices")

    def merges(parts):
        for i in range(len(parts) - 1):
            yield parts[:i] + (parts[i] + parts[i + 1],) + parts[i + 2:]

    def moves(state):
        xp, yp = state
        for nxp in merges(xp):
            yield nxp, yp
        for nyp in merges(yp):
            yield xp, nyp

    x0 = tuple((i,) for i in range(g.nx))
    y0 = tuple((j,) for j in range(g.ny))
    return _minimax((x0, y0), lambda state: convex_division_width(g, *state), moves)[0]


# ---------------------------------------------------------------------------
# Flips.
# ---------------------------------------------------------------------------

def apply_flips(g: ColoredBipartiteGraph,
                flips: Sequence[tuple[Sequence[int], Sequence[int]]]
                ) -> tuple[ColoredBipartiteGraph, list[int], list[int]]:
    """Apply rectangle flips sequentially; returns (graph, fx, fy) where
    f(v) is the bitmask of flips containing v (bit i = flip i)."""
    fx = [0] * g.nx
    fy = [0] * g.ny
    rows = list(g.rows_x)
    for i, (axs, bys) in enumerate(flips):
        ymask = mask_of(bys)
        for x in axs:
            fx[x] |= 1 << i
            rows[x] ^= ymask
        for y in bys:
            fy[y] |= 1 << i
    out = ColoredBipartiteGraph(g.nx, g.ny,
                                [(x, y) for x, row in enumerate(rows) for y in members(row)])
    return out, fx, fy


# ---------------------------------------------------------------------------
# Certificates.
# ---------------------------------------------------------------------------

@dataclass
class Star:
    center: int  # division part index
    leaves: tuple[int, ...]


@dataclass
class TwCertificate:
    """Star-forest covering certificate data for one bipartite graph.

    order: total order over ('x'|'y', id) pairs; division parts must be
    convex within their own side's induced order.  usets[i] lists the
    division part indices of slice i; stars[i] the stars of that slice.
    """

    order: tuple[tuple[str, int], ...]
    flips: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    division: tuple[tuple[str, tuple[int, ...]], ...]
    usets: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    stars: tuple[tuple[Star, ...], ...]

    @property
    def q(self) -> int:
        return len(self.flips)

    @property
    def r(self) -> int:
        return len(self.usets)


def quotient_graph(f: ColoredBipartiteGraph,
                   division: Sequence[tuple[str, tuple[int, ...]]]):
    """Edges between X-parts and Y-parts of the flipped graph."""
    x_parts = [(i, p) for i, (side, p) in enumerate(division) if side == "x"]
    y_parts = [(i, p) for i, (side, p) in enumerate(division) if side == "y"]
    edges = set()
    for i, xp in x_parts:
        for j, yp in y_parts:
            if any(f.has_edge(x, y) for x in xp for y in yp):
                edges.add((i, j))
    return edges


#: The most vertices a star may span for `verify_certificate` to check its
#: quasi-chain decrement.
QCH_CHECK_LIMIT = 14


def verify_certificate(g: ColoredBipartiteGraph, cert: TwCertificate,
                       reasons: list[str] | None = None):
    """Check division convexity/purity, the exactly-one-slice edge cover,
    the star-forest structure, and (on stars of at most `QCH_CHECK_LIMIT`
    vertices) the quasi-chain decrement.  Returns (ok, H-edge set)."""
    out = reasons if reasons is not None else []

    def fail(msg):
        out.append(msg)
        return False, set()

    pos = {v: i for i, v in enumerate(cert.order)}
    if sorted(cert.order) != sorted([("x", i) for i in range(g.nx)]
                                    + [("y", j) for j in range(g.ny)]):
        return fail("order does not cover X u Y exactly")
    named = [(side, v) for side, part in cert.division for v in part]
    named += [(side, v) for flip in cert.flips for side, vs in zip("xy", flip) for v in vs]
    if any(v not in pos for v in named):
        return fail("a division part or flip names a vertex outside the graph")
    covered_x, covered_y = [], []
    for side, part in cert.division:
        if not part:
            return fail("empty division part")
        (covered_x if side == "x" else covered_y).extend(part)
        ps = sorted(pos[(side, v)] for v in part)
        side_positions = sorted(p for (s, v), p in pos.items() if s == side)
        lo = side_positions.index(ps[0])
        if ps != side_positions[lo:lo + len(ps)]:
            return fail(f"part {part} is not convex in the {side}-order")
    if sorted(covered_x) != list(range(g.nx)) or sorted(covered_y) != list(range(g.ny)):
        return fail("division does not partition the sides")

    f, fx, fy = apply_flips(g, cert.flips)
    h_edges = quotient_graph(f, cert.division)

    side_of = {i: side for i, (side, _) in enumerate(cert.division)}
    star_edges_by_slice: list[set[tuple[int, int]]] = []
    for i, ((ux, uy), stars) in enumerate(zip(cert.usets, cert.stars)):
        used_parts = set()
        slice_edges = set()
        for st in stars:
            members = (st.center,) + st.leaves
            for part in members:
                if part in used_parts:
                    return fail(f"slice {i}: part {part} appears in two stars")
                used_parts.add(part)
            leaf_sides = {side_of[l] for l in st.leaves}
            if st.leaves and leaf_sides == {side_of[st.center]}:
                return fail(f"slice {i}: star leaves on the center's side")
            for leaf in st.leaves:
                a, b = ((st.center, leaf) if side_of[st.center] == "x"
                        else (leaf, st.center))
                slice_edges.add((a, b))
        in_u = set(ux) | set(uy)
        if not used_parts <= in_u:
            return fail(f"slice {i}: star parts outside the U-sets")
        # the slice's H-edges must be exactly the declared star edges
        hx = [p for p in ux if side_of[p] == "x"]
        hy = [p for p in uy if side_of[p] == "y"]
        actual = {(a, b) for (a, b) in h_edges if a in hx and b in hy}
        if actual != slice_edges:
            return fail(f"slice {i}: quotient edges differ from the declared stars "
                        f"(extra {actual - slice_edges}, missing {slice_edges - actual})")
        star_edges_by_slice.append(slice_edges)

    cover_count: dict[tuple[int, int], int] = {}
    for se in star_edges_by_slice:
        for e in se:
            cover_count[e] = cover_count.get(e, 0) + 1
    for e in h_edges:
        if cover_count.get(e, 0) != 1:
            return fail(f"H-edge {e} covered {cover_count.get(e, 0)} times "
                        "(must be exactly once)")

    # A star passes iff its value s is 0 or below the whole graph's.  Only
    # "qch(g) > s" is asked, so g is searched with cap s, which stops at the
    # first sequence of length s + 1, and the best lower bound proven on g
    # spares later stars a search.
    g_above = 0  # qch(g) >= g_above, as proven so far
    parts = [p for _, p in cert.division]
    for i, stars in enumerate(cert.stars):
        for st in stars:
            members = (st.center,) + st.leaves
            xs = sorted(v for m in members if side_of[m] == "x" for v in parts[m])
            ys = sorted(v for m in members if side_of[m] == "y" for v in parts[m])
            if len(xs) + len(ys) <= QCH_CHECK_LIMIT:
                s = quasi_chain_number(g.induced(xs, ys), cap=len(xs) + len(ys))
                if s >= g_above and s > 0:
                    if quasi_chain_number(g, cap=s) <= s:
                        return fail(f"slice {i}: star at {st.center} does not "
                                    "decrease the quasi-chain number")
                    g_above = s + 1
    return True, h_edges


# ---------------------------------------------------------------------------
# Certificate-driven labeling.
# ---------------------------------------------------------------------------

@dataclass
class CertTree:
    """Recursive certificate: an inner node's certificate plus one child
    tree per star (keyed by (slice, star index)); None certificate = leaf
    (the graph must be a bipartite equivalence graph)."""

    cert: TwCertificate | None = None
    children: dict[tuple[int, int], "CertTree"] = field(default_factory=dict)


def _tw_rec(nx, ny, eq) -> int:
    if nx.tag[0] == 0 and ny.tag[0] == 0:
        return _bip_equivalence_walker(nx.children[0], ny.children[0], eq)
    if nx.tag[0] != ny.tag[0]:
        raise SchemeError("misaligned certificate labels")
    r = nx.arity
    matches = [i for i in range(r) if eq(nx.slot0 + i, ny.slot0 + i)]
    if len(matches) > 1:
        raise SchemeError("vertex pair shares two stars (certificate invalid)")
    if matches:
        i = matches[0]
        return _tw_rec(nx.children[i], ny.children[i], eq)
    fxb = nx.tag[1:]
    fyb = ny.tag[1:]
    both = sum(1 for a, b in zip(fxb, fyb) if a == 1 and b == 1)
    return both & 1


_tw_walker = across_sides(lambda sx, sy, eq: _tw_rec(sx.children[0], sy.children[0], eq))
register_walker("tw-cert", lambda spec: _tw_walker)


def tw_labels(g: ColoredBipartiteGraph, tree: CertTree) -> EqualityScheme:
    """Labels driven by a verified certificate tree.

    Leaf: a bipartite-equivalence label.  Inner: the flip-membership
    vector as prefix bits, one star-id code per slice (fresh sentinel when
    the vertex's part is in no star), then the child labels.  The decoder
    recurses into the unique matching star, else outputs the parity of the
    common flip memberships.
    """

    def build(sub: ColoredBipartiteGraph, xs: list[int], ys: list[int],
              ct: CertTree) -> dict[tuple[str, int], Label]:
        if ct.cert is None:
            scheme = bipartite_equivalence_labels(sub)
            out = {}
            for i, x in enumerate(xs):
                out[("x", x)] = node((0,), (), scheme.label(i))
            for j, y in enumerate(ys):
                out[("y", y)] = node((0,), (), scheme.label(sub.nx + j))
            return out
        cert = ct.cert
        reasons: list[str] = []
        if not verify_certificate(sub, cert, reasons=reasons)[0]:
            raise SchemeError(f"certificate failed verification: {reasons}")
        _, fx, fy = apply_flips(sub, cert.flips)
        q = cert.q
        parts = [p for _, p in cert.division]
        side_of = {i: side for i, (side, _) in enumerate(cert.division)}
        part_of_x = {}
        part_of_y = {}
        for idx, (side, p) in enumerate(cert.division):
            for v in p:
                (part_of_x if side == "x" else part_of_y)[v] = idx

        # per slice: star order by smallest center vertex id
        slice_star_order = []
        star_of_part: list[dict[int, int]] = []
        for i, stars in enumerate(cert.stars):
            order = sorted(range(len(stars)),
                           key=lambda s: min(parts[stars[s].center]))
            slice_star_order.append(order)
            belongs = {}
            for sid, s_idx in enumerate(order):
                st = stars[s_idx]
                for m in (st.center,) + st.leaves:
                    belongs[m] = sid
            star_of_part.append(belongs)

        child_labels: dict[tuple[int, int], dict] = {}
        for i, stars in enumerate(cert.stars):
            for sid, s_idx in enumerate(slice_star_order[i]):
                st = stars[s_idx]
                members = (st.center,) + st.leaves
                cxs = sorted(v for m in members if side_of[m] == "x" for v in parts[m])
                cys = sorted(v for m in members if side_of[m] == "y" for v in parts[m])
                gxs = [xs[v] for v in cxs]
                gys = [ys[v] for v in cys]
                csub = sub.induced(cxs, cys)
                child = ct.children.get((i, s_idx))
                if child is None:
                    child = CertTree()
                child_labels[(i, sid)] = build(csub, gxs, gys, child)

        out = {}
        sentinel = [10**6]

        def fresh() -> int:
            sentinel[0] += 1
            return sentinel[0]

        for local, glob, f, part_of in (
            (range(sub.nx), xs, fx, part_of_x),
            (range(sub.ny), ys, fy, part_of_y),
        ):
            is_x = part_of is part_of_x
            for v in local:
                gkey = ("x" if is_x else "y", glob[v])
                fbits = tuple(f[v] >> i & 1 for i in range(q))
                codes = []
                kids = []
                pid = part_of[v]
                for i in range(cert.r):
                    sid = star_of_part[i].get(pid)
                    if sid is None:
                        codes.append(fresh())
                        kids.append(node())
                    else:
                        codes.append(sid)
                        kids.append(child_labels[(i, sid)][gkey])
                out[gkey] = node((1,) + fbits, tuple(codes), *kids)
        return out

    labels_map = build(g, list(range(g.nx)), list(range(g.ny)), tree)
    labels = [node((0,), (), labels_map[("x", x)]) for x in range(g.nx)]
    labels += [node((1,), (), labels_map[("y", y)]) for y in range(g.ny)]
    return EqualityScheme(labels, {"name": "tw-cert"}, name="tw-cert")


# ---------------------------------------------------------------------------
# Certificate and width-seq text formats.
# ---------------------------------------------------------------------------

def write_certificate(cert: TwCertificate, name: str) -> str:
    lines = [f"twcert {name}"]
    lines.append("order " + " ".join(f"{s}{v}" for s, v in cert.order))
    for i, (axs, bys) in enumerate(cert.flips):
        lines.append(f"flip {i} A={','.join(map(str, axs)) or '-'} "
                     f"B={','.join(map(str, bys)) or '-'}")
    for i, (side, part) in enumerate(cert.division):
        lines.append(f"division {i} {side} {','.join(map(str, part))}")
    for i, (ux, uy) in enumerate(cert.usets):
        lines.append(f"uset {i} X={','.join(map(str, ux)) or '-'} "
                     f"Y={','.join(map(str, uy)) or '-'}")
    for i, stars in enumerate(cert.stars):
        for j, st in enumerate(stars):
            lines.append(f"star {i} {j} center={st.center} "
                         f"leaves={','.join(map(str, st.leaves)) or '-'}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> tuple[TwCertificate, str]:
    """Reads `write_certificate` text.  Flip, division and uset ids, and each
    slice's star ids, must run 0, 1, 2, ...; every star must lie in a uset's
    slice, and usets and stars must name division ids."""
    name, order, lines = None, (), LineReader(text)
    sections: dict[str, list] = {"flip": [], "division": [], "uset": [], "star": []}
    for parts in lines:
        if name is None:
            if parts[0] != "twcert" or len(parts) != 2:
                raise lines.error("bad certificate header")
            name = parts[1]
            continue
        kind = parts[0]
        if kind == "order":
            order = tuple((tok[0], lines.integer(tok[1:])) for tok in parts[1:])
            continue
        if len(parts) != {"flip": 4, "division": 4, "uset": 4, "star": 5}.get(kind):
            raise lines.error(f"bad {kind!r} line")
        if kind == "division":
            if parts[2] not in ("x", "y"):
                raise lines.error("division side must be x or y")
            val = (parts[2], lines.int_list(parts[3]))
        elif kind == "star":
            val = (lines.lineno, lines.integer(parts[2]),
                   Star(lines.integer(lines.keyed(parts[3], "center")),
                        lines.int_list(lines.keyed(parts[4], "leaves"))))
        else:
            keys = "AB" if kind == "flip" else "XY"
            val = tuple(lines.int_list(lines.keyed(tok, key)) for tok, key in zip(parts[2:], keys))
        sections[kind].append((lines.lineno, lines.integer(parts[1]), val))
    if name is None:
        raise GraphFormatError("empty certificate file")
    division = in_id_order(sections["division"], "division")
    usets = in_id_order(sections["uset"], "uset")
    slices: list[list] = [[] for _ in usets]
    for _, i, star in sections["star"]:
        if not 0 <= i < len(usets):
            raise GraphFormatError(f"star slice {i} has no uset")
        slices[i].append(star)
    stars = tuple(tuple(in_id_order(sl, f"slice {i} star")) for i, sl in enumerate(slices))
    named = [p for ux, uy in usets for p in ux + uy]
    named += [p for sl in stars for st in sl for p in (st.center, *st.leaves)]
    if any(not 0 <= p < len(division) for p in named):
        raise GraphFormatError("a uset or star names a part that is not a division id")
    return TwCertificate(order, tuple(in_id_order(sections["flip"], "flip")), tuple(division),
                         tuple(usets), stars), name


def write_partition_seq(seq) -> str:
    """A width-seq file: one `p <part>|<part>|...` line per partition."""
    return "".join("p " + "|".join(",".join(map(str, sorted(p))) for p in parts) + "\n"
                   for parts in seq)


def parse_partition_seq(text: str) -> list[list[tuple[int, ...]]]:
    """The partitions of a width-seq file, each part a comma list of ids.  A
    bare `p` is the partition with no parts, the empty graph's only one."""
    lines, form = LineReader(text), "'p <part>|<part>|...'"
    return [[] if parts == ["p"] else
            [lines.int_list(part) for part in lines.fields(parts, form)[1].split("|")]
            for parts in lines]
