"""Per-pair reference decoders on int labels, written out pair by pair.

Every sketch decodes one pair through its bulk `decode_bits`; these are
the hand-written per-pair decoders the bulk paths are checked against:
the packed layout's `pack` / `parse` and code hash, the Bloom bit test,
and the boost's copy split and majority vote.
"""

from pugkit.labels import EqualityScheme, decode_pair
from pugkit.products import ProductAdjacencySketch
from pugkit.sketch import ArboricitySketch, BoostedScheme, PackedEqualityScheme, to_bits


def pack(sk: PackedEqualityScheme, shape_id: int, values) -> int:
    """The packed label [shape id][one value per code slot] of `sk`."""
    bits, shift = shape_id, sk.codec.shape_bits
    for val in values:
        bits |= val << shift
        shift += sk.value_width
    return bits


def parse(sk: PackedEqualityScheme, bits: int) -> tuple[int, list[int]]:
    """(shape id, one value per code slot) of a packed label: `pack` inverted."""
    sid = bits & ((1 << sk.codec.shape_bits) - 1)
    rest, mask = bits >> sk.codec.shape_bits, (1 << sk.value_width) - 1
    vals = []
    for _ in range(sk.codec.arities[sid]):
        vals.append(rest & mask)
        rest >>= sk.value_width
    return sid, vals


def code_hash(sk: PackedEqualityScheme, scheme: EqualityScheme, seed: int, code: int) -> int:
    """The field value `sk` writes, under `seed`, for a code of `scheme`:
    that of its rank among the scheme's distinct codes."""
    rank = sorted({c for cs in scheme.codes for c in cs}).index(code)
    return int(sk._code_values(seed, rank))


def packed_decode(sk: PackedEqualityScheme, bx: int, by: int) -> int:
    """Both labels parsed, then the walker run on their values."""
    (sx, vx), (sy, vy) = parse(sk, bx), parse(sk, by)
    shapes = sk.codec.shapes
    return decode_pair(sk.decoder.walker, shapes[sx], vx, shapes[sy], vy)


def bloom_decode(sk: ArboricitySketch, bx: int, by: int) -> int:
    """1 iff either label's Bloom filter holds the other's bucket."""
    mask = (1 << sk.r_bits) - 1
    rx, ry = bx & mask, by & mask
    return int(bool(bx >> sk.r_bits >> ry & 1 or by >> sk.r_bits >> rx & 1))


def split_copies(bits: int, width: int, copies: int) -> list[int]:
    """The `copies` labels of `width` bits each that `bits` holds: copy i
    at bits [i*width, (i+1)*width)."""
    mask = (1 << width) - 1
    return [bits >> (i * width) & mask for i in range(copies)]


def boosted_decode(sk: BoostedScheme, bx: int, by: int) -> int:
    """The strict majority of the copies' per-pair decodes."""
    w, c, base = sk.base.width, sk.copies, reference_decode(sk.base)
    votes = sum(map(base, split_copies(bx, w, c), split_copies(by, w, c)))
    return int(2 * votes > c)


def product_adjacency_decode(sk: ProductAdjacencySketch, bx: int, by: int) -> int:
    """1 iff the raw distance decoder of the two grid rows outputs 1."""
    x, y = to_bits([bx, by], sk.width)
    return int(sk.product.decode_raw(x, y) == 1)


def reference_decode(sk):
    """decode(bx, by) of `sk`, pair by pair."""
    for cls, decode in ((BoostedScheme, boosted_decode), (ArboricitySketch, bloom_decode),
                        (PackedEqualityScheme, packed_decode),
                        (ProductAdjacencySketch, product_adjacency_decode)):
        if isinstance(sk, cls):
            return lambda bx, by: decode(sk, bx, by)
    raise TypeError(f"no per-pair reference for {type(sk).__name__}")
