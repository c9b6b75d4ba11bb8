"""Equality-based labels and their decoders.

A label is a tree of tuples, each tuple holding a few prefix bits (readable
by the decoder) and a few equality codes (readable only through equality
comparisons).  `node` builds one as its (shape, codes) pair: the shape is
the tree of tags and arities with each tuple's first code slot, and the
codes are the label's codes in preorder.  A scheme bundles one label per
vertex with a walker that decides adjacency from the two label shapes and
an equality oracle over code slots; the walker never sees raw code values,
which is what makes the one-sided compression argument go through.

`ShapeCodec` interns a scheme's label shapes and lays its codes out as a
padded code table, and `CompiledDecoder` evaluates the walker over pairs
of table rows.  Labels as bits are the packed sketches of `sketch`, which
read their bit fields back into such a table.  Label and decoder files,
a scheme's labels and walker on disk, are read and written here too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, repeat
from operator import or_
from typing import Callable, Iterable, Sequence

import numpy as np

from .graphs import GraphFormatError, LineReader, in_id_order, members

EqOracle = Callable[[int, int], bool]

#: Guardrail on shape text: deeper nesting is a format error, so recursive walks stay shallow.
SHAPE_DEPTH_CAP = 100


class SchemeError(ValueError):
    """Raised when an input violates a scheme's family contract."""


@dataclass(frozen=True)
class ShapeNode:
    """A label's skeleton: tags and arities with preorder slot offsets.

    A tuple's slot0 is its first code slot in the preorder of the whole
    label, counted from 0 at the label's root tuple.
    """

    tag: tuple[int, ...]
    arity: int
    children: tuple["ShapeNode", ...]
    slot0: int


#: A label: its shape and its codes in preorder, code slot i holding codes[i].
Label = tuple[ShapeNode, tuple[int, ...]]


def node(tag: tuple[int, ...] = (), codes: tuple[int, ...] = (), *children: Label) -> Label:
    """The label of one tuple with prefix bits `tag` and equality codes
    `codes` over the labels `children`: its (shape, codes) pair.  Its code
    slots are its own codes, then each child's in order, so every slot
    offset is counted from 0 at this tuple.  Shapes are interned: a shape
    equal to one in the intern table is that object, so a scheme holds one
    shape object per distinct shape, not one per label."""
    kids, all_codes = [], tuple(codes)
    for shape, kid_codes in children:
        kids.append(_placed(shape, len(all_codes)))
        all_codes += kid_codes
    return _shape(tuple(tag), len(codes), tuple(kids), 0), all_codes


# The intern tables are bounded, so a long-lived process keeps at most this
# many shapes; an evicted shape is built again, equal to the first.
_shape = lru_cache(maxsize=1 << 14)(ShapeNode)


@lru_cache(maxsize=1 << 14)
def _placed(shape: ShapeNode, slot0: int) -> ShapeNode:
    """`shape`, interned, with every slot offset moved so that its root's is `slot0`."""
    move = slot0 - shape.slot0
    return _shape(shape.tag, shape.arity,
                  tuple(_placed(c, c.slot0 + move) for c in shape.children), slot0)


def shape_arity(shape: ShapeNode) -> int:
    """Number of code slots in a shape: its own and its descendants'."""
    return shape.arity + sum(shape_arity(c) for c in shape.children)


def bits_for(count: int) -> int:
    """Bits needed to write any of `count` values (0 for count <= 1)."""
    return max(count - 1, 0).bit_length()


def shape_prefix_len(shape: ShapeNode) -> int:
    """Number of prefix bits in a shape: its own tag's and its descendants'."""
    return len(shape.tag) + sum(shape_prefix_len(c) for c in shape.children)


Walker = Callable[[ShapeNode, ShapeNode, EqOracle], int]
#: A decoder spec: a registry JSON object, whose parts may be live walkers.
Spec = dict | Walker


class EqualityScheme:
    """An equality-based labeling of one graph: one label per vertex, as
    `node` builds it, plus one decoder spec.

    `spec` is the registry's JSON object naming the walker, which is
    `build_walker(spec)`; a live walker may stand in for it or for any part
    where no spec exists (a test walker).  A scheme keeps its labels'
    shapes and codes and its spec.  The walker, codec, decoder, canonical
    values and code table are built the first time something reads them,
    so a scheme made only to be a part of another pays for its labels
    alone.
    """

    def __init__(self, labels: Iterable[Label], spec: Spec, name: str = "scheme"):
        self.name = name
        self.spec = spec
        self.shapes, self.codes = tuple(zip(*labels)) or ((), ())

    def label(self, v: int) -> Label:
        return self.shapes[v], self.codes[v]

    @cached_property
    def walker(self) -> Walker:
        return build_walker(self.spec)

    @cached_property
    def codec(self) -> ShapeCodec:
        return ShapeCodec(self.shapes)

    @cached_property
    def decoder(self) -> CompiledDecoder:
        return CompiledDecoder(self.codec, self.walker)

    @cached_property
    def canon(self) -> dict[int, int]:
        """Distinct code values renumbered to [0, #distinct), by sorted value."""
        return {val: i for i, val in enumerate(sorted({c for cs in self.codes for c in cs}))}

    @cached_property
    def values(self) -> list[list[int]]:
        """Per vertex, its canonical code values."""
        canon = self.canon
        return [[canon[c] for c in codes] for codes in self.codes]

    @cached_property
    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """The padded code table of the canonical values: the bulk decoder input."""
        return self.codec.table(self.codec.ids, self.values)

    @property
    def n(self) -> int:
        return len(self.shapes)

    @property
    def k(self) -> int:
        """Max number of equality codes over all labels."""
        return self.codec.k

    @cached_property
    def s(self) -> int:
        """Max number of prefix bits over all labels, read off the distinct shapes."""
        return max(map(shape_prefix_len, self.codec.shapes), default=0)

    def prefix_len(self, v: int) -> int:
        return shape_prefix_len(self.shapes[v])

    def decode(self, u: int, v: int) -> int:
        return decode_pair(self.walker, self.shapes[u], self.codes[u],
                           self.shapes[v], self.codes[v])

    def check_exact(self, adjacency: Callable[[int, int], bool]) -> bool:
        """Exhaustive all-pairs check against an adjacency oracle: all pairs
        are decoded in bulk, then each pair u < v is compared with one
        `adjacency(u, v)` call."""
        sid, vals = self.table
        mat, n = self.decoder.decode_rows(sid[None], vals[None])[0], self.n
        for u in range(n):
            want = np.fromiter(map(adjacency, repeat(u), range(u + 1, n)),
                               dtype=np.int8, count=n - u - 1)
            if (mat[u, u + 1:] != want).any():
                return False
        return True


# ---------------------------------------------------------------------------
# A walker's equality decision tree: decoder tables and protocols read it.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ask:
    """Inner node of an equality decision tree: ask Q[i][j], go on in zero or one."""

    i: int
    j: int
    zero: "EqTree"
    one: "EqTree"


#: An `Ask`, an output bit, or None where the walker raises SchemeError.
EqTree = Ask | int | None


def walker_tree(walker: Walker, sx: ShapeNode, sy: ShapeNode) -> EqTree:
    """The walker's equality decision tree on the shape pair (sx, sy).

    The walker runs once per leaf, with an `eq` that replays a path of
    answers and then answers 0; each cell it asks past the path also gets a
    1-branch.  A cell asked again keeps its first answer, so the depth is at
    most ax * ay.  Asking a cell outside the two shapes raises IndexError.
    """
    ax, ay = shape_arity(sx), shape_arity(sy)

    def grow(path: list[int]) -> EqTree:
        asked: dict[tuple[int, int], int] = {}

        def eq(i: int, j: int) -> bool:
            if not (0 <= i < ax and 0 <= j < ay):
                raise IndexError(f"cell ({i}, {j}) is outside a {ax}x{ay} pattern")
            if (i, j) not in asked:
                asked[i, j] = path[len(asked)] if len(asked) < len(path) else 0
            return bool(asked[i, j])

        try:
            node = walker(sx, sy, eq)
        except SchemeError:
            node = None
        cells = list(asked)
        for d in range(len(cells) - 1, len(path) - 1, -1):
            node = Ask(*cells[d], node, grow(path + [0] * (d - len(path)) + [1]))
        return node

    return grow([])


def _eq_tree_walker(spec: dict) -> Walker:
    """The walker of an equality decision tree written as JSON: an ask is
    `[i, j, zero, one]` on cell (i, j) of the two root tuples' codes, a
    leaf is 0 or 1.  It asks only the cells on its path.  A cell outside
    the two tuples, a malformed ask or another leaf raises an error of
    `_SPEC_ERRORS`, since the tree may come from a decoder file."""
    root = spec["tree"]

    def walker(sx: ShapeNode, sy: ShapeNode, eq: EqOracle) -> int:
        cur = root
        while isinstance(cur, list):
            i, j, zero, one = cur
            if not (type(i) is int and type(j) is int and 0 <= i < sx.arity and 0 <= j < sy.arity):
                raise IndexError(f"cell ({i!r}, {j!r}) is outside a {sx.arity}x{sy.arity} pattern")
            cur = one if eq(sx.slot0 + i, sy.slot0 + j) else zero
        if type(cur) is not int or cur not in (0, 1):
            raise ValueError(f"equality tree leaf {cur!r} is not 0 or 1")
        return cur

    return walker


# ---------------------------------------------------------------------------
# Code tables and their bulk decoder.
# ---------------------------------------------------------------------------

class ShapeCodec:
    """A scheme's label shapes, interned in first-seen order, and the code
    table layout: one row per label, its shape id and one value per code
    slot, padded to the largest arity `k`.  `shape_bits` is what a shape id
    takes as a bit field.
    """

    def __init__(self, shapes: Sequence[ShapeNode]):
        self.index: dict[ShapeNode, int] = {}
        #: the shape id of each of `shapes`, in order
        self.ids = [self.index.setdefault(sh, len(self.index)) for sh in shapes]
        self.shapes = list(self.index)
        self.arities = [shape_arity(sh) for sh in self.shapes]
        self.k = max(self.arities, default=0)
        self.shape_bits = bits_for(len(self.shapes))

    def table(self, ids: Sequence[int], rows: Sequence[Sequence[int]]
              ) -> tuple[np.ndarray, np.ndarray]:
        """The padded code table of labels with shape ids `ids` and code
        values `rows`, all >= 0: an int64 array of the shape ids, and a
        (len(ids), k) int64 array whose row r holds rows[r], then -1 up to k.
        """
        sid = np.array(ids, dtype=np.int64)
        vals = np.full((len(sid), self.k), -1, dtype=np.int64)
        vals[np.arange(self.k) < np.array(self.arities, dtype=np.int64)[sid][:, None]] = \
            np.fromiter(chain.from_iterable(rows), dtype=np.int64)
        return sid, vals


def decode_pair(walker: Walker, shape_x: ShapeNode, vals_x: Sequence[int],
                shape_y: ShapeNode, vals_y: Sequence[int]) -> int:
    """The walker run lazily on one pair of labels, asking only the
    equality tests it needs: the one place, with `walker_tree`, that gives
    a walker its `eq`."""
    return walker(shape_x, shape_y, lambda i, j: vals_x[i] == vals_y[j])


class CompiledDecoder:
    """The bulk evaluator of a scheme's walker on code tables.

    An equality-based decoder sees only the two shapes and the equality
    pattern Q of their codes.  `decode_pairs` is the bulk core and the only
    code that knows Q's layout: over pairs of rows of a padded code table
    (`ShapeCodec.table`) it keys each pair by its shape-id pair and Q bits,
    and runs the walker through `decode_pair` once per distinct key; later
    pairs with that key read the memo.  The key is one 64-bit word when the
    shape pair and the k*k bits of Q fit in one, and a byte string
    otherwise; the codec fixes which, so one memo holds one kind.
    `decode_rows` decodes all pairs of whole tables through it.  Labels as
    bits decode here too: the packed sketches (`sketch.PackedEqualityScheme`)
    read their bit fields back into tables for `decode_rows`, and hand their
    trials' rows to `decode_pairs`.  The memo belongs to this object and so
    dies with the scheme that owns it.
    """

    #: Bytes of decode temporaries per block of pairs.  A pair costs about
    #: one byte per cell of its Q, and at least PAIR_BYTES for its row
    #: indices, its key and the dedupe's arrays, so blocks of small k stay
    #: bounded and blocks of large k still hold hundreds of pairs.
    BLOCK_BYTES = 1 << 20
    PAIR_BYTES = 64

    def __init__(self, codec: ShapeCodec, walker: Walker):
        self.codec = codec
        self.walker = walker
        self.memo: dict[int | bytes, int] = {}

    @staticmethod
    def counts_keys(span: int, pairs: int) -> bool:
        """Whether a block of `pairs` word keys, all in range(span), finds
        its distinct keys with a table indexed by key, of O(span) work,
        rather than with a sort of O(pairs log pairs).  It never does for
        one pair, so a one-pair decode allocates no table."""
        return span < pairs

    def decode_rows(self, sid: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Decode every pair u < v of each of c code tables of n rows.

        sid is (c, n) and vals (c, n, k): table s is (sid[s], vals[s]), as
        `ShapeCodec.table` builds it.  Returns a (c, n, n) int8 array whose
        strict upper triangle holds the decoded bit of (u, v) and whose lower
        triangle mirrors it.
        """
        c, n, k = vals.shape
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        # row s*n + u against row s*n + v, for each set s and u < v: one
        # table's pairs, offset to each table's first row
        rows, start = np.arange(n, dtype=np.int32), np.arange(c, dtype=np.int32)[:, None] * n
        x = (start + np.broadcast_to(rows[:, None], (n, n))[upper]).ravel()
        y = (start + np.broadcast_to(rows, (n, n))[upper]).ravel()
        out = np.zeros((c, n, n), dtype=np.int8)
        out[np.broadcast_to(upper, (c, n, n))] = self.decode_pairs(
            sid.reshape(c * n), vals.reshape(c * n, k), x, y)
        return out + out.transpose(0, 2, 1)

    def decode_pairs(self, sid: np.ndarray, vals: np.ndarray,
                     x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The decoded bit of each pair of table rows (x[p], y[p]), as int8.

        Row r of the table has shape id sid[r] and the k code values
        vals[r], >= 0 on the shape's slots and -1 after them.  No code value
        is -1, so the cells of Q outside a pair's arities depend only on its
        shape pair, and the key stays exact.  When k*k bits plus the bits of
        a shape-pair id fit in 64, the key is one word: the shape pair above
        bit (i*k + j) for each cell (i, j) of Q, built cell by cell with no
        (pairs, k, k) temporary.  Otherwise it is the shape pair's 8 bytes
        followed by Q's packed bits.  Pairs go in blocks of about
        `BLOCK_BYTES` of temporaries.  A block finds its distinct word keys
        with a table indexed by key when `counts_keys` allows it for the
        keys' range, #shapes^2 << k*k, and its own pair count, and with a
        sort otherwise; byte keys are always sorted.  The walker runs once
        per distinct key the memo lacks, on one pair with that key; the
        distinct rows of all of a block's new keys are read out as Python
        ints in one gather.
        """
        k, shapes, arities, memo = self.codec.k, self.codec.shapes, self.codec.arities, self.memo
        cells, shape_pairs = k * k, len(shapes) ** 2
        word = cells + bits_for(shape_pairs) <= 64
        narrow = vals.astype(narrow_values(int(vals.max(initial=0))))
        if word:
            narrow = narrow.T.copy()  # one row per code slot: Q is built cell by cell
        out = np.empty(len(x), dtype=np.int8)
        step = max(1, self.BLOCK_BYTES // max(cells, self.PAIR_BYTES))
        for lo in range(0, len(x), step):
            bx, by = x[lo:lo + step], y[lo:lo + step]
            pair = sid.take(bx) * len(shapes) + sid.take(by)
            counted = word and self.counts_keys(shape_pairs << cells, len(bx))
            if word:
                nx, ny = narrow.take(bx, axis=1), narrow.take(by, axis=1)
                keys = pair.astype(np.uint64) << np.uint64(cells)
                for i in range(k):
                    for j in range(k):
                        keys |= (nx[i] == ny[j]).astype(np.uint64) << np.uint64(i * k + j)
            else:
                q = narrow.take(bx, axis=0)[:, :, None] == narrow.take(by, axis=0)[:, None, :]
                keys = np.concatenate([pair.reshape(-1, 1).view(np.uint8),
                                       np.packbits(q.reshape(len(bx), cells), axis=1)], axis=1)
                keys = np.ascontiguousarray(keys).view(np.dtype((np.void, keys.shape[1]))).ravel()
            if counted:
                # slot[key] is some pair with that key, or -1; the keys are
                # then the slots that are set, in order
                slot = np.full(shape_pairs << cells, -1, dtype=np.intp)
                slot[keys] = np.arange(len(keys))
                uniq = np.flatnonzero(slot >= 0)
                reps = slot[uniq]
            else:
                uniq, reps, inverse = np.unique(keys, return_index=True, return_inverse=True)
            found = uniq.tolist()
            res = [memo.get(key) for key in found]
            new = [i for i, bit in enumerate(res) if bit is None]
            if new:
                # the distinct table rows of the new keys' pairs, read out
                # once as Python ints and cut to their arities
                pick = reps[new]
                rows, at = np.unique(np.concatenate([bx.take(pick), by.take(pick)]),
                                     return_inverse=True)
                ids = sid.take(rows).tolist()
                codes = [r[:arities[i]] for r, i in zip(vals.take(rows, axis=0).tolist(), ids)]
                at = at.tolist()
                for i, rx, ry in zip(new, at, at[len(new):]):
                    res[i] = memo[found[i]] = decode_pair(
                        self.walker, shapes[ids[rx]], codes[rx], shapes[ids[ry]], codes[ry])
            if counted:
                slot[uniq] = res
                out[lo:lo + step] = slot.take(keys)
            else:
                out[lo:lo + step] = np.array(res, dtype=np.int8)[inverse]
        return out


def narrow_values(top: int) -> np.dtype:
    """The narrowest signed type holding code values up to `top` and the
    padding -1: Q then takes the cheapest k*k compares."""
    return np.min_scalar_type(-top - 1)


# ---------------------------------------------------------------------------
# Walker registry: spec -> walker, for schemes and for decoders read from
# files.  Family modules register their walkers at import time.
# ---------------------------------------------------------------------------

_WALKER_BUILDERS: dict[str, Callable[[dict], Walker]] = {}


def register_walker(name: str, builder: Callable[[dict], Walker]) -> None:
    _WALKER_BUILDERS[name] = builder


register_walker("eq-tree", _eq_tree_walker)


def build_walker(spec: Spec) -> Walker:
    """The walker of a spec: its registered builder run on a JSON object,
    or a live walker unchanged.  A builder builds its parts' walkers here
    too, so JSON and live parts compose alike."""
    if callable(spec):
        return spec
    name = spec.get("name") if isinstance(spec, dict) else None
    if not isinstance(name, str) or name not in _WALKER_BUILDERS:
        raise KeyError(f"decoder spec {spec!r} is not an object naming a registered walker")
    return _WALKER_BUILDERS[name](spec)


# ---------------------------------------------------------------------------
# Label and decoder file formats.
#
#   labels <graph-name> s=<s> k=<k> width=<c>
#   v <id> <shape> <code,code,...>
#
# A shape serializes the label tree as tag-bits:arity(child)(child)..., an
# empty tag as '-'.  Codes are the preorder-flattened code list, '-' for
# none.  A decoder file is a scheme's walker on disk:
#
#   decoder tree <json decoder-spec>     (the header line alone)
#   decoder table s=<s> k=<k>            (small schemes only)
#       shape <idx> <shape-string>       (one per distinct label shape)
#       t <sx> <sy> <Q-field> <out>
# ---------------------------------------------------------------------------

def shape_to_str(shape: ShapeNode) -> str:
    tag = "".join(map(str, shape.tag)) or "-"
    kids = "".join(f"({shape_to_str(c)})" for c in shape.children)
    return f"{tag}:{shape.arity}{kids}"


def shape_from_str(s: str) -> ShapeNode:
    """The shape written by `shape_to_str`; bad text is a GraphFormatError.
    Each '(' opens a child, so `s` split at '(' is the tuples in preorder,
    each followed by the ')'s that close tuples."""
    stack: list[tuple] = []  # the open tuples: (tag, arity, kids, slot0)
    slots = 0
    for piece in s.split("("):
        head = piece.rstrip(")")
        tag, colon, arity = head.partition(":")
        # `int` reads exactly the decimal digits
        if not colon or not (tag in ("-", "") or tag.isdecimal()) or not arity.isdecimal():
            raise GraphFormatError(f"expected a shape '<tag>:<arity>', got {head!r}")
        stack.append((() if tag == "-" else tuple(map(int, tag)), int(arity), [], slots))
        slots += stack[-1][1]
        if len(stack) > SHAPE_DEPTH_CAP:
            raise GraphFormatError("shape nested too deeply")
        for _ in range(len(piece) - len(head)):  # each ')' closes the tuple on top
            if len(stack) == 1:
                raise GraphFormatError("unbalanced shape parentheses")
            tag, arity, kids, slot0 = stack.pop()
            stack[-1][2].append(ShapeNode(tag, arity, tuple(kids), slot0))
    if len(stack) > 1:
        raise GraphFormatError("unbalanced shape parentheses")
    tag, arity, kids, slot0 = stack[0]
    return ShapeNode(tag, arity, tuple(kids), slot0)


def read_shape(lines: LineReader, text: str) -> tuple[ShapeNode, int]:
    """The shape `text` on the current line of `lines`, and its arity."""
    try:
        shape = shape_from_str(text)
    except GraphFormatError as e:
        raise lines.error(str(e)) from None
    return shape, shape_arity(shape)


def write_label_file(scheme: EqualityScheme, graph_name: str) -> str:
    """The label file of `scheme`; each distinct shape is rendered once."""
    codec = scheme.codec
    texts = [shape_to_str(sh) for sh in codec.shapes]
    lines = [f"labels {graph_name} s={scheme.s} k={scheme.k} width={scheme.s + scheme.k}"]
    for v, (i, codes) in enumerate(zip(codec.ids, scheme.codes)):
        lines.append(f"v {v} {texts[i]} {','.join(map(str, codes)) or '-'}")
    return "\n".join(lines) + "\n"


def parse_label_file(text: str) -> tuple[list[tuple[ShapeNode, tuple[int, ...]]], str, dict]:
    """Returns (labels, graph-name, header-fields).  Each label reads back
    as its (shape, codes) pair, the pair `write_label_file` wrote from
    `EqualityScheme.shapes` and `EqualityScheme.codes`.  The header's
    s=, k= and width= fields, where present, must be the labels' own."""
    labels, shapes = [], {}  # shapes: shape text -> (shape, arity)
    name, fields, lines = None, {}, LineReader(text)
    for parts in lines:
        if name is None:
            if parts[0] != "labels" or len(parts) < 2:
                raise lines.error("bad label header")
            name, head_line = parts[1], lines.lineno
            fields = {key: lines.integer(val)
                      for key, _, val in (f.partition("=") for f in parts[2:])}
            continue
        if parts[0] != "v" or len(parts) != 4:
            raise lines.error("expected 'v <id> <shape> <codes>'")
        codes = lines.int_list(parts[3])
        if parts[2] not in shapes:
            shapes[parts[2]] = read_shape(lines, parts[2])
        shape, arity = shapes[parts[2]]
        if arity != len(codes):
            raise lines.error("malformed label")
        labels.append((lines.lineno, lines.integer(parts[1]), (shape, codes)))
    if name is None:
        raise GraphFormatError("empty label file")
    s = max((shape_prefix_len(sh) for sh, _ in shapes.values()), default=0)
    k = max((arity for _, arity in shapes.values()), default=0)
    for key, val in (("s", s), ("k", k), ("width", s + k)):
        if fields.get(key, val) != val:
            raise GraphFormatError(f"line {head_line}: header {key}={fields[key]} "
                                   f"does not match the labels' {key}={val}")
    return in_id_order(labels, "vertex"), name, fields


def write_decoder_file(scheme: EqualityScheme) -> str:
    """The decoder file of `scheme`.  A table row is a leaf of the walker's
    decision tree (`walker_tree`) on the shape pair, in preorder with the
    0-branch first; SchemeError leaves get none.  Its Q field holds Q[i][j] at
    position ax*ay-1-(i*ay+j): '0', '1', or '*' where the path does not ask;
    '-' for no cells.  A tree file's walker reads no shapes, so it lists none;
    `parse_decoder_file` still reads and checks the `shape` lines of older
    tree files.  A spec that `json.dumps` cannot write is a SchemeError."""
    try:
        spec = json.dumps(scheme.spec)
    except (TypeError, ValueError):  # a live walker in the spec
        raise SchemeError("scheme decoder is not serializable") from None
    if not (scheme.s <= 4 and scheme.k <= 4):
        return f"decoder tree {spec}\n"
    codec = scheme.codec
    lines = [f"decoder table s={scheme.s} k={scheme.k}",
             *(f"shape {i} {shape_to_str(sh)}" for i, sh in enumerate(codec.shapes))]
    for xi, sx in enumerate(codec.shapes):
        for yi, sy in enumerate(codec.shapes):
            ay = codec.arities[yi]

            def emit(node, q):
                if isinstance(node, Ask):
                    pos = len(q) - 1 - (node.i * ay + node.j)
                    emit(node.zero, q[:pos] + "0" + q[pos + 1:])
                    emit(node.one, q[:pos] + "1" + q[pos + 1:])
                elif node is not None:
                    lines.append(f"t {xi} {yi} {q or '-'} {node}")

            emit(walker_tree(scheme.walker, sx, sy), "*" * (codec.arities[xi] * ay))
    return "\n".join(lines) + "\n"


#: What a walker raises when built from wrong-typed spec parameters or run
#: on labels it does not fit.
_SPEC_ERRORS = (LookupError, TypeError, ValueError, AttributeError, ArithmeticError, RecursionError)


def parse_decoder_file(text: str) -> Callable[[Label, Label], int]:
    """Returns a decode(label_x, label_y) callable over the (shape, codes)
    pairs that `parse_label_file` reads.  It runs a `decoder tree`'s
    registered walker, or reads a `decoder table` as a walker that returns
    the output of the row matching Q on the row's asked cells (care masks
    in file order), through `decode_pair`; that walker asks only the cells
    that some row of the shape pair names.  Only a table's walker reads the
    shape lines; a tree file's, if any, are still read and checked.  A
    walker that cannot run on the labels is a GraphFormatError."""
    lines, kind, head_line, walker = LineReader(text), None, None, None
    shape_ids, rows = {}, []  # shape -> (idx, arity); (lineno, sx, sy, out, Q field)
    for parts in lines:
        if kind is None:
            if parts[0] != "decoder" or parts[1:2] not in (["tree"], ["table"]):
                raise lines.expected("'decoder tree <spec>' or 'decoder table'")
            kind, head_line = parts[1], lines.lineno
            if kind == "tree":
                if len(parts) < 3:
                    raise lines.error("decoder tree needs a JSON decoder spec")
                try:
                    walker = build_walker(json.loads(lines.line.split(None, 2)[2]))
                except _SPEC_ERRORS as e:
                    raise lines.error(f"bad decoder spec: {e!r}") from None
        elif parts[0] == "shape":
            _, idx, shape_text = lines.fields(parts, "'shape <idx> <shape>'")
            shape, arity = read_shape(lines, shape_text)
            shape_ids[shape] = lines.integer(idx), arity
        elif parts[0] == "t" and kind == "table":
            _, sx, sy, field, out = lines.fields(parts, "'t <sx> <sy> <Q> <out>'")
            rows.append((lines.lineno, *map(lines.integer, (sx, sy, out)), field))
        else:
            raise lines.expected("a 'shape' line" if kind == "tree" else "a 'shape' or 't' line")
    if kind is None:
        raise GraphFormatError("empty decoder file")
    if kind == "table":
        # (sx, sy) -> care mask -> value mask -> out: bit i*ay + j of care is
        # set where Q[i][j] is '0' or '1', and of value where it is '1'; a
        # row naming a shape id the file does not list cannot match a label
        arities, by_ids = dict(shape_ids.values()), {}
        for lineno, sx, sy, out, field in rows:
            if sx in arities and sy in arities:
                q, cells = "" if field == "-" else field, arities[sx] * arities[sy]
                if len(q) != cells or q.strip("01*"):
                    raise GraphFormatError(f"line {lineno}: expected {cells} Q cells of '0', "
                                           f"'1' or '*', got {field!r}")
                care, value = (int("0" + q.replace("0", "1").replace("*", "0"), 2),
                               int("0" + q.replace("*", "0"), 2))
                by_ids.setdefault((sx, sy), {}).setdefault(care, {})[value] = out
        # the (idx, arity) entries of two label shapes -> the cells that the
        # care masks of their rows name, as (bit, i, j), and their (care,
        # outs) rows; built on first use.  A row matches on q & care alone,
        # so q needs no other cell.
        asked = {}

        def walker(sx, sy, eq) -> int:
            kx, ky = shape_ids.get(sx), shape_ids.get(sy)
            if kx is None or ky is None:
                raise SchemeError("label shape unknown to decoder")
            if (pair := asked.get((kx, ky))) is None:
                cares, (ax, ay) = by_ids.get((kx[0], ky[0]), {}), (kx[1], ky[1])
                pair = asked[kx, ky] = (
                    [(1 << b, *divmod(b, ay)) for b in members(reduce(or_, cares, 0))
                     if b < ax * ay], list(cares.items()))
            q = 0
            for bit, i, j in pair[0]:
                if eq(i, j):
                    q |= bit
            for care, outs in pair[1]:
                if (out := outs.get(q & care)) is not None:
                    return out
            raise SchemeError("pair missing from decoder table")

    def decode(lx, ly) -> int:
        # lx and ly are (shape, codes) pairs; a walker that cannot run on the
        # labels is a file fault, a SchemeError is not
        try:
            return decode_pair(walker, *lx, *ly)
        except SchemeError:
            raise
        except _SPEC_ERRORS as e:
            raise GraphFormatError(f"line {head_line}: decoder does not fit the labels "
                                   f"({type(e).__name__})")

    return decode
