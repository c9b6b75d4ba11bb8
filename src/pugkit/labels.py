"""Equality-based labels and their decoders.

A label is a tree of tuples, each tuple holding a few prefix bits (readable
by the decoder) and a few equality codes (readable only through equality
comparisons).  A scheme bundles one label per vertex with a walker that
decides adjacency from the two label shapes and an equality oracle over
code slots; the walker never sees raw code values, which is what makes the
one-sided compression argument go through.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterator, Sequence

import numpy as np

EqOracle = Callable[[int, int], bool]


class SchemeError(ValueError):
    """Raised when an input violates a scheme's family contract."""


@dataclass(frozen=True)
class LabelNode:
    """One tuple of a label: prefix bits, equality codes, child tuples."""

    tag: tuple[int, ...] = ()
    codes: tuple[int, ...] = ()
    children: tuple["LabelNode", ...] = ()

    def walk(self) -> Iterator["LabelNode"]:
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass(frozen=True)
class ShapeNode:
    """A label's skeleton: tags and arities with preorder slot offsets."""

    tag: tuple[int, ...]
    arity: int
    children: tuple["ShapeNode", ...]
    slot0: int


def shape_arity(shape: ShapeNode) -> int:
    """Number of code slots in a shape: its own and its descendants'."""
    return shape.arity + sum(shape_arity(c) for c in shape.children)


def bits_for(count: int) -> int:
    """Bits needed to write any of `count` values (0 for count <= 1)."""
    return max(count - 1, 0).bit_length()


def shape_of(label: LabelNode) -> ShapeNode:
    counter = [0]

    def build(node: LabelNode) -> ShapeNode:
        slot0 = counter[0]
        counter[0] += len(node.codes)
        kids = tuple(build(c) for c in node.children)
        return ShapeNode(node.tag, len(node.codes), kids, slot0)

    return build(label)


def flat_codes(label: LabelNode) -> tuple[int, ...]:
    out: list[int] = []
    for node in label.walk():
        out.extend(node.codes)
    return tuple(out)


def prefix_bits(label: LabelNode) -> tuple[int, ...]:
    out: list[int] = []
    for node in label.walk():
        out.extend(node.tag)
    return tuple(out)


Walker = Callable[[ShapeNode, ShapeNode, EqOracle], int]


class EqualityScheme:
    """An equality-based labeling of one graph: labels plus a walker.

    `decoder_spec` is a JSON-able description sufficient to rebuild the
    walker (see `walker_registry`); schemes built only for in-process use
    may leave it None.
    """

    def __init__(self, labels: Sequence[LabelNode], walker: Walker,
                 decoder_spec: dict | None = None, name: str = "scheme"):
        self.name = name
        self.labels = tuple(labels)
        self.walker = walker
        self.decoder_spec = decoder_spec
        self.shapes = tuple(shape_of(l) for l in self.labels)
        self.codes = tuple(flat_codes(l) for l in self.labels)
        self.codec = ShapeCodec(self.shapes)
        self.decoder = CompiledDecoder(self.codec, walker)
        #: distinct code values renumbered to [0, #distinct), by sorted value
        self.canon = {val: i for i, val in enumerate(sorted({c for cs in self.codes for c in cs}))}
        #: per vertex, its canonical code values: with `codec.ids`, the bulk decoder input
        self.values = [[self.canon[c] for c in codes] for codes in self.codes]

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def k(self) -> int:
        """Max number of equality codes over all labels."""
        return max((len(c) for c in self.codes), default=0)

    @property
    def s(self) -> int:
        """Max number of prefix bits over all labels."""
        return max((len(prefix_bits(l)) for l in self.labels), default=0)

    def prefix_len(self, v: int) -> int:
        return len(prefix_bits(self.labels[v]))

    def code_count(self, v: int) -> int:
        return len(self.codes[v])

    def decode(self, u: int, v: int) -> int:
        return self.decoder.decode_pair(self.shapes[u], self.codes[u],
                                        self.shapes[v], self.codes[v])

    def check_exact(self, adjacency: Callable[[int, int], bool]) -> bool:
        """Exhaustive all-pairs check against an adjacency oracle: all pairs
        are decoded in bulk, then each pair u < v is compared with one
        `adjacency(u, v)` call."""
        mat, n = self.decoder.decode_rows([self.codec.ids], [self.values])[0], self.n
        for u in range(n):
            want = np.fromiter(map(adjacency, repeat(u), range(u + 1, n)),
                               dtype=np.int8, count=n - u - 1)
            if (mat[u, u + 1:] != want).any():
                return False
        return True


def pair_eq_matrix(scheme: EqualityScheme, u: int, v: int) -> list[list[bool]]:
    """The full equality matrix Q_{u,v} (row = u's slots, column = v's)."""
    cu, cv = scheme.codes[u], scheme.codes[v]
    return [[a == b for b in cv] for a in cu]


# ---------------------------------------------------------------------------
# Packed labels and their bulk decoder.
# ---------------------------------------------------------------------------

class ShapeCodec:
    """The packed label layout [shape id][one value per code slot].

    Shapes are interned in first-seen order.  A label holds its shape id in
    the low `shape_bits` bits, then one `value_width`-bit value per code
    slot in preorder; `width` leaves room for the largest arity `k`.
    """

    def __init__(self, shapes: Sequence[ShapeNode], value_width: int = 0):
        self.index: dict[ShapeNode, int] = {}
        #: the shape id of each of `shapes`, in order
        self.ids = [self.index.setdefault(sh, len(self.index)) for sh in shapes]
        self.shapes = list(self.index)
        self.arities = [shape_arity(sh) for sh in self.shapes]
        self.k = max(self.arities, default=0)
        self.shape_bits = bits_for(len(self.shapes))
        self.value_width = value_width

    @property
    def width(self) -> int:
        return self.shape_bits + self.k * self.value_width

    def widened(self, value_width: int) -> "ShapeCodec":
        """The same shape table, packing `value_width` bits per code value."""
        codec = copy.copy(self)
        codec.value_width = value_width
        return codec

    def pack(self, shape: ShapeNode, values: Sequence[int]) -> int:
        bits, shift = self.index[shape], self.shape_bits
        for val in values:
            bits |= val << shift
            shift += self.value_width
        return bits

    def parse(self, bits: int) -> tuple[int, list[int]]:
        """(shape id, one value per code slot) of a packed label."""
        sid = bits & ((1 << self.shape_bits) - 1)
        rest = bits >> self.shape_bits
        mask = (1 << self.value_width) - 1
        vals = []
        for _ in range(self.arities[sid]):
            vals.append(rest & mask)
            rest >>= self.value_width
        return sid, vals


class CompiledDecoder:
    """The one evaluator of a scheme's walker, for one pair or in bulk.

    An equality-based decoder sees only the two shapes and the equality
    pattern Q of their codes.  `decode_pair` runs the walker lazily on one
    pair, asking only the equality tests the walker needs.  `decode_pairs`
    is the bulk core over flat arrays of pairs: it computes Q for all of
    them with numpy, keys each pair exactly by its shape-id pair and packed
    Q bits, and runs the walker once per distinct key, on the code values of
    the first pair with that key; later pairs with that key read the memo.
    `decode_rows` decodes every pair of whole label sets through it, in
    blocks of rows, and so does the compressed sketches' trial decoder.
    `decode` and `decode_stack` are the per-pair and all-pairs entries over
    labels packed by the codec.  The memo belongs to this object and so dies
    with the scheme that owns it.
    """

    #: Q cells compared per block; bounds the size of the decode temporaries.
    BLOCK_CELLS = 1 << 16

    def __init__(self, codec: ShapeCodec, walker: Walker):
        self.codec = codec
        self.walker = walker
        self.memo: dict[bytes, int] = {}

    def decode_pair(self, shape_x: ShapeNode, vals_x: Sequence[int],
                    shape_y: ShapeNode, vals_y: Sequence[int]) -> int:
        return self.walker(shape_x, shape_y, lambda i, j: vals_x[i] == vals_y[j])

    def decode(self, bx: int, by: int) -> int:
        sx, vx = self.codec.parse(bx)
        sy, vy = self.codec.parse(by)
        return self.decode_pair(self.codec.shapes[sx], vx, self.codec.shapes[sy], vy)

    def decode_matrix(self, labels: Sequence[int]) -> np.ndarray:
        return self.decode_stack([labels])[0]

    def decode_stack(self, label_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """`decode_rows` of packed label sets."""
        parsed = [[self.codec.parse(bits) for bits in labels] for labels in label_sets]
        return self.decode_rows([[sid for sid, _ in p] for p in parsed],
                                [[vals for _, vals in p] for p in parsed])

    def decode_rows(self, ids: Sequence[Sequence[int]],
                    rows: Sequence[Sequence[Sequence[int]]]) -> np.ndarray:
        """Decode every pair u < v of each label set.

        Vertex v of set s has shape id ids[s][v] and the code values
        rows[s][v], all >= 0.  Returns a (sets, n, n) int8 array whose strict
        upper triangle holds the decoded bit of (u, v) and whose lower
        triangle mirrors it.
        """
        codec, k = self.codec, self.codec.k
        c, n = len(ids), len(ids[0]) if ids else 0
        sid = np.array(ids, dtype=np.int64).reshape(c, n)
        # padding slots hold -1 on the x side and -2 on the y side, as decode_pairs asks
        vals = np.full((c, n, k), -1, dtype=np.int64)
        vals[np.arange(k) < np.array(codec.arities, dtype=np.int64)[sid][..., None]] = \
            np.fromiter(chain.from_iterable(chain.from_iterable(rows)), dtype=np.int64)
        vals = vals.astype(narrow_values(int(vals.max(initial=0))))
        vals_y = np.where(vals < 0, -2, vals)
        out = np.zeros((c, n, n), dtype=np.int8)
        rows_per_block = max(1, self.BLOCK_CELLS // max(c * n * k * k, 1))
        for lo in range(0, n, rows_per_block):
            r, v = np.nonzero(np.arange(n) > np.arange(lo, min(n, lo + rows_per_block))[:, None])
            u, cells = r + lo, c * len(r)
            if cells:
                def codes(p, u=u, v=v):
                    s, i = divmod(p, len(u))
                    return rows[s][u[i]], rows[s][v[i]]

                out[:, u, v] = self.decode_pairs(
                    sid[:, u].ravel(), vals[:, u].reshape(cells, k),
                    sid[:, v].ravel(), vals_y[:, v].reshape(cells, k), codes).reshape(c, len(u))
        return out + out.transpose(0, 2, 1)

    def decode_pairs(self, sid_x: np.ndarray, vals_x: np.ndarray,
                     sid_y: np.ndarray, vals_y: np.ndarray,
                     codes: Callable[[int], tuple[Sequence[int], Sequence[int]]] | None = None
                     ) -> np.ndarray:
        """The decoded bit of each pair p, as an int8 array.

        The pair's x side has shape id sid_x[p] and code values vals_x[p], a
        row of k values that are >= 0 on the shape's slots; the y side
        likewise.  The padding after the slots is -1 in vals_x and -2 in
        vals_y, so it never compares equal and Q is zero outside each pair's
        arities.  Q is computed for all pairs at once, so the caller bounds
        the block to about `BLOCK_CELLS` cells.  The walker reads pair p's
        code values from `codes(p)`, the two lists, when the caller holds
        them as lists, and otherwise from vals_x and vals_y.
        """
        k, shapes, arities = self.codec.k, self.codec.shapes, self.codec.arities
        q = (vals_x[:, :, None] == vals_y[:, None, :]).reshape(len(vals_x), k * k)
        pair = (sid_x * len(shapes) + sid_y).reshape(-1, 1)
        keys = np.concatenate([pair.view(np.uint8), np.packbits(q, axis=1)], axis=1)
        keys = np.ascontiguousarray(keys).view(np.dtype((np.void, keys.shape[1])))
        uniq, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
        memo, keys = self.memo, uniq.tolist()
        res = [memo.get(key) for key in keys]
        new = [i for i, bit in enumerate(res) if bit is None]
        if new:
            # the walker runs on the code values of the first pair with each new key
            at = first[new]
            for i, p, sx, sy in zip(new, at.tolist(), sid_x[at].tolist(), sid_y[at].tolist()):
                vx, vy = codes(p) if codes else (vals_x[p, :arities[sx]].tolist(),
                                                 vals_y[p, :arities[sy]].tolist())
                res[i] = memo[keys[i]] = self.decode_pair(shapes[sx], vx, shapes[sy], vy)
        return np.array(res, dtype=np.int8)[inverse]


def narrow_values(top: int) -> np.dtype:
    """The narrowest signed type holding code values up to `top` and the
    padding -2: Q then takes the cheapest k*k compares."""
    return np.min_scalar_type(-top - 2)


# ---------------------------------------------------------------------------
# Walker registry: decoder_spec -> walker, for rebuilding decoders from
# files.  Family modules register their walkers at import time.
# ---------------------------------------------------------------------------

_WALKER_BUILDERS: dict[str, Callable[[dict], Walker]] = {}


def register_walker(name: str, builder: Callable[[dict], Walker]) -> None:
    _WALKER_BUILDERS[name] = builder


def build_walker(spec: dict) -> Walker:
    name = spec.get("name") if isinstance(spec, dict) else spec
    if not isinstance(name, str) or name not in _WALKER_BUILDERS:
        raise KeyError(f"unknown decoder spec {name!r}")
    return _WALKER_BUILDERS[name](spec)


# ---------------------------------------------------------------------------
# Label file format.
#
#   labels <graph-name> s=<s> k=<k> width=<c>
#   v <id> <prefix-bits> <code,code,...>
#
# The prefix-bits field serializes the label tree: tuples are separated by
# '.', children delimited by '(' ')':  tag-bits[(child)(child)...]
# An empty tag is '-'.  Codes are the preorder-flattened code list.
# ---------------------------------------------------------------------------

def _shape_from_str(s: str, counter: list[int]) -> tuple[ShapeNode, str]:
    tag_s, rest = s.split(":", 1)
    tag = () if tag_s == "-" else tuple(int(b) for b in tag_s)
    num = ""
    while rest and rest[0].isdigit():
        num += rest[0]
        rest = rest[1:]
    arity = int(num)
    slot0 = counter[0]
    counter[0] += arity
    kids = []
    while rest.startswith("("):
        depth = 0
        for i, ch in enumerate(rest):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    child, leftover = _shape_from_str(rest[1:i], counter)
                    if leftover:
                        raise ValueError("trailing shape text")
                    kids.append(child)
                    rest = rest[i + 1:]
                    break
        else:
            raise ValueError("unbalanced shape parentheses")
    return ShapeNode(tag, arity, tuple(kids), slot0), rest


def shape_to_str(shape: ShapeNode) -> str:
    tag = "".join(map(str, shape.tag)) or "-"
    kids = "".join(f"({shape_to_str(c)})" for c in shape.children)
    return f"{tag}:{shape.arity}{kids}"


def shape_from_str(s: str) -> ShapeNode:
    shape, rest = _shape_from_str(s, [0])
    if rest:
        raise ValueError("trailing shape text")
    return shape


def _label_from_shape(shape: ShapeNode, codes: Sequence[int]) -> LabelNode:
    own = tuple(codes[shape.slot0:shape.slot0 + shape.arity])
    return LabelNode(shape.tag, own, tuple(_label_from_shape(c, codes) for c in shape.children))


def write_label_file(scheme: EqualityScheme, graph_name: str) -> str:
    lines = [f"labels {graph_name} s={scheme.s} k={scheme.k} width={scheme.s + scheme.k}"]
    for v, (shape, codes) in enumerate(zip(scheme.shapes, scheme.codes)):
        lines.append(f"v {v} {shape_to_str(shape)} {','.join(map(str, codes)) or '-'}")
    return "\n".join(lines) + "\n"


def parse_label_file(text: str) -> tuple[list[LabelNode], str, dict]:
    """Returns (labels, graph-name, header-fields)."""
    labels: dict[int, LabelNode] = {}
    name = None
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if name is None:
            if parts[0] != "labels" or len(parts) < 2:
                raise ValueError(f"line {lineno}: bad label header")
            name = parts[1]
            for f in parts[2:]:
                key, _, val = f.partition("=")
                fields[key] = int(val)
            continue
        if parts[0] != "v" or len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 'v <id> <shape> <codes>'")
        vid = int(parts[1])
        if vid in labels:
            raise ValueError(f"line {lineno}: duplicate vertex {vid}")
        codes = [] if parts[3] == "-" else [int(c) for c in parts[3].split(",")]
        shape = shape_from_str(parts[2])
        if shape_arity(shape) != len(codes):
            raise ValueError(f"line {lineno}: malformed label")
        labels[vid] = _label_from_shape(shape, codes)
    if name is None:
        raise ValueError("empty label file")
    try:
        ordered = [labels[i] for i in range(len(labels))]
    except KeyError as e:
        raise ValueError(f"vertex ids are not 0..{len(labels) - 1}: {e} is missing")
    return ordered, name, fields
