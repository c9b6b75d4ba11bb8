"""Randomized sketches: compression of equality schemes, boosting,
derandomization, Monte-Carlo error evaluation, and PUG export.

Encoders derive all their randomness from `counter_hash` as pure functions
of (seed, tag, id): a hashed code value, a vertex's Bloom bucket, a boost
copy's seed, a product sketch's buckets and slots.  So `decode_trials` can
decode the pairs of many fresh encodings at once, without encoding the
other vertices: it hashes the per-trial seeds and the pairs' ids as arrays.
`evaluate_error` draws each trial's pair and encoding seed the same way and
decodes its trials in blocks.

Every sketch is native in one array form of whole encodings:
`encode_bits(seeds)` is a (seeds, n, width) uint8 bit matrix, bit i of
vertex v's label at [.., v, i], and `decode_bits` decodes every pair of
each encoding from it, all seeds (or boost copies) in one numpy pass.
`SketchScheme.encode`, `decode_matrix` and the one-pair `decode` are
derived from these two; they convert at the one int <-> bits boundary,
`to_bits` / `from_bits`.  Python-int labels remain what files and
`DeterministicLabeling` hold.

An equality scheme's labels become bits in one place, the packed sketch
`PackedEqualityScheme`: [shape id][one value per code slot].  Written with
each code's canonical value it is naive derandomization, zero error and
the same under every seed; `CompressedEqualityScheme` writes each code's
hash into [3k^2] instead.  So a deterministic labeling is always a
sketch's zero-error encoding, read by that sketch.

A boosted label holds copy i at bits [i*w, (i+1)*w), encoded under
`copy_seeds`' seed i, for sketches and distance sketches alike
(`boost_bits`).  Sketch files hold a label set as hex bit strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graphs import Graph, GraphFormatError, LineReader, in_id_order
from .labels import EqualityScheme, TableScheme, bits_for, node, register_walker
from .rng import _MASK64, counter_hash, derive_seed
from .structure import forest_partition

# `counter_hash` tags: one per purpose, so the streams stay apart; the last
# three are a product sketch's factor buckets, vertex slots and factor seeds
(_TAG_CODE, _TAG_BUCKET, _TAG_COPY, _TAG_PAIR, _TAG_ENC,
 _TAG_GRID_ROW, _TAG_GRID_SLOT, _TAG_FACTOR) = range(1, 9)


def to_bits(labels: Sequence[int], width: int) -> np.ndarray:
    """The (len(labels), width) uint8 bit matrix of int labels: bit i of
    labels[v] at [v, i].  A negative label or one of more than `width` bits
    raises ValueError."""
    if any(label < 0 or label >> width for label in labels):
        raise ValueError(f"a label is negative or has more than {width} bits")
    size = (width + 7) // 8
    raw = b"".join(label.to_bytes(size, "little") for label in labels)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(labels), size),
                         axis=1, bitorder="little")
    return bits[:, :width]


def from_bits(bits: np.ndarray) -> list[int]:
    """The int labels of a (n, width) bit matrix: `to_bits` inverted."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    raw, size = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i * size:(i + 1) * size], "little") for i in range(len(packed))]


def _seed_words(seeds) -> np.ndarray:
    """Seeds as uint64 words, each int masked to 64 bits as `counter_hash`
    masks one seed."""
    return np.fromiter((int(s) & _MASK64 for s in seeds), dtype=np.uint64, count=len(seeds))


def _field_bits(values: np.ndarray, width: int) -> np.ndarray:
    """The `width` low bits of each value along the last axis, low bit
    first, the fields of one row concatenated: uint8."""
    bits = values[..., None] >> np.arange(width, dtype=values.dtype) & 1
    return bits.astype(np.uint8).reshape(*values.shape[:-1], values.shape[-1] * width)


def _read_fields(bits: np.ndarray, count: int, width: int) -> np.ndarray:
    """The `count` consecutive `width`-bit fields along the last axis of
    `bits`, low bit first, as int64: `_field_bits` inverted."""
    fields = bits.reshape(*bits.shape[:-1], count, width)
    return fields @ (np.int64(1) << np.arange(width, dtype=np.int64))


class SketchScheme:
    """Seeded randomized encoder + pure decoder with an error budget.

    A sketch gives `encode_bits(seeds)`, the (len(seeds), n, width) uint8
    bits of the labels under each seed, bit i of vertex v's label under
    seeds[s] at [s, v, i]; `decode_bits(bits)`, the (s, n, n) int8 decoded
    bit of every pair of each of s label sets in that form;
    `decode_trials(us, vs, seeds)`, the int8 bit decoded for the pair
    (us[t], vs[t]) under a fresh encoding seeded by seeds[t], for every t.
    `encode` and `decode_matrix` are the bit form of one label set, and
    `decode` of one pair; no sketch overrides them.
    """

    width: int
    delta: float
    n: int

    def encode(self, seed: int) -> list[int]:
        return from_bits(self.encode_bits([seed])[0])

    def decode_matrix(self, labels: list[int]) -> np.ndarray:
        """The n x n 0/1 matrix of decode(labels[u], labels[v])."""
        return self.decode_bits(to_bits(labels, self.width)[None])[0]

    def decode(self, bx: int, by: int) -> int:
        """The decoded bit of one pair of int labels."""
        return int(self.decode_matrix([bx, by])[0, 1])


def copy_seeds(seeds, copies: int) -> np.ndarray:
    """The seed of each of `copies` independent copies: one row per seed."""
    return counter_hash(np.asarray(seeds, dtype=np.uint64)[:, None], _TAG_COPY, np.arange(copies))


def boost_bits(encode_bits: Callable[[np.ndarray], np.ndarray], seeds, copies: int) -> np.ndarray:
    """The (len(seeds), n, copies * w) bits of `copies` independent copies
    of the (seeds, n, w) bits that `encode_bits` gives: copy i of a label
    under `copy_seeds`' seed i, at bits [i*w, (i+1)*w).  Every copy of
    every seed goes to `encode_bits` in one call."""
    cs = copy_seeds(_seed_words(seeds), copies)
    bits = encode_bits(cs.ravel())
    n, w = bits.shape[1:]
    return bits.reshape(len(cs), copies, n, w).transpose(0, 2, 1, 3).reshape(len(cs), n, copies * w)


class PackedEqualityScheme(SketchScheme):
    """An equality scheme's labels as bit fields: the zero-error packed sketch.

    Layout: [shape id][one `value_width`-bit value per code slot], the
    slots past a label's arity zero up to the largest arity k.  Each code
    is written as its canonical value, so the labels are the same under
    every seed and decode with zero error: naive derandomization, of
    s + k*ceil(log2(#distinct codes)) bits with the shape id as s.
    Subclasses write another value per code (`_code_values`) over their
    own `_alphabet`.  Decoding reads the fields back into a code table for
    the scheme's `CompiledDecoder`, whose memo it shares, since a walker
    sees only shapes and Q.  The sketch keeps the scheme's code table and
    decoder, not its labels.
    """

    delta = 0.0

    def __init__(self, scheme: EqualityScheme):
        self.n = scheme.n
        self.codec, self.decoder, self.table = scheme.codec, scheme.decoder, scheme.table
        self.alphabet = self._alphabet(scheme)
        self.value_width = bits_for(max(self.alphabet, 2))
        self.width = self.codec.shape_bits + self.codec.k * self.value_width

    def _alphabet(self, scheme: EqualityScheme) -> int:
        """How many values a code field takes: the scheme's alphabet."""
        return scheme.alphabet

    def _code_values(self, seeds, values) -> np.ndarray:
        """The field value of each canonical code value in `values` under
        each seed in `seeds`, broadcast together: the value itself."""
        return np.broadcast_to(values, np.broadcast_shapes(np.shape(seeds), np.shape(values)))

    def encode_bits(self, seeds) -> np.ndarray:
        # the code table's values under every seed; padding writes zeros
        sb = self.codec.shape_bits
        sid, vals = self.table
        values = np.where(vals < 0, 0, self._code_values(_seed_words(seeds)[:, None, None], vals))
        bits = np.empty((len(values), self.n, self.width), dtype=np.uint8)
        bits[..., :sb] = _field_bits(sid[:, None], sb)
        bits[..., sb:] = _field_bits(values, self.value_width)
        return bits

    def decode_trials(self, us: np.ndarray, vs: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        # a table of the trials' rows: us first, then vs, both under their
        # trial's seed
        sid, vals = self.table
        t, w = len(us), np.concatenate([us, vs])
        rows = vals.take(w, axis=0)
        values = self._code_values(np.tile(np.asarray(seeds, dtype=np.uint64), 2)[:, None], rows)
        values = np.where(rows < 0, -1, values.astype(np.int64))
        return self.decoder.decode_pairs(sid.take(w), values, np.arange(t), np.arange(t, 2 * t))

    def decode_bits(self, bits: np.ndarray) -> np.ndarray:
        # the fields read back into code tables, -1 past each arity as
        # `EqualityScheme.table` pads, and all tables decoded in one call
        codec, sb = self.codec, self.codec.shape_bits
        sid = _read_fields(bits[..., :sb], 1, sb)[..., 0]
        vals = _read_fields(bits[..., sb:], codec.k, self.value_width)
        vals[np.arange(codec.k) >= np.array(codec.arities, dtype=np.int64)[sid][..., None]] = -1
        return self.decoder.decode_rows(sid, vals)


class CompressedEqualityScheme(PackedEqualityScheme):
    """Equality scheme compressed by hashing codes into [3k^2] (one-sided).

    The packed layout with each code's hash under the seed in place of its
    value.  Equal codes always hash equal, so true-equality comparisons
    never flip; each false equality flips with probability 1/(3k^2),
    giving per-pair error at most k^2/(3k^2) = 1/3.
    """

    delta = 1 / 3

    def _alphabet(self, scheme: EqualityScheme) -> int:
        k = max(scheme.k, 1)
        return 3 * k * k

    def _code_values(self, seeds, values) -> np.ndarray:
        return counter_hash(seeds, _TAG_CODE, values) % np.uint64(self.alphabet)


def compress_equality_scheme(scheme: EqualityScheme) -> CompressedEqualityScheme:
    return CompressedEqualityScheme(scheme)


def boost_copies(delta_target: float, base_delta: float = 1 / 3) -> int:
    """Number of independent copies for majority voting (1 = no-op).

    This is the textbook 3*ln(1/delta) count.  For base error 1/3 the exact
    majority tail at it, which `BoostedScheme.delta` reports, misses the
    target: 0.173 at delta = 0.1, 0.145 at 0.05, 0.149 at 0.01.  Use
    `exact_majority_copies` where the target must hold (derandomization does).
    """
    if not (0 < delta_target < 1 / 2):
        raise ValueError("delta target must be in (0, 1/2)")
    if delta_target >= base_delta:
        return 1
    return math.ceil(3 * math.log(1 / delta_target))


def majority_failure(copies: int, p: float) -> float:
    """P[Binomial(copies, p) >= copies/2]: majority-vote failure rate.

    The sum starts at the tail's largest term, computed in log space, and
    runs outward from it by the pmf ratio, so no term underflows before
    the ones that carry the tail (`(1 - p) ** copies` is 0.0 at a few
    thousand copies).
    """
    need = (copies + 1) // 2
    if p <= 0 or p >= 1:
        return float(p >= 1 or need == 0)
    top = min(max(need, math.floor((copies + 1) * p)), copies)
    peak = math.exp(math.lgamma(copies + 1) - math.lgamma(top + 1) - math.lgamma(copies - top + 1)
                    + top * math.log(p) + (copies - top) * math.log1p(-p))
    total, odds = peak, p / (1 - p)
    term = peak
    for i in range(top, copies):  # upward: term(i + 1) from term(i)
        term *= (copies - i) / (i + 1) * odds
        total += term
    term = peak
    for i in range(top, need, -1):  # downward: term(i - 1) from term(i)
        term *= i / (copies - i + 1) / odds
        total += term
    return min(total, 1.0)


def exact_majority_copies(delta_target: float, base_delta: float = 1 / 3) -> int:
    """Minimal odd copy count whose exact majority tail meets the target."""
    if not (0 < delta_target < 1 / 2):
        raise ValueError("delta target must be in (0, 1/2)")
    if delta_target >= base_delta:
        return 1
    if base_delta >= 1 / 2:
        # a majority of copies errs at least half the time at any count
        raise ValueError("unreachable boost target")

    def met(m: int) -> bool:
        return majority_failure(2 * m + 1, base_delta) <= delta_target

    # the tail falls as the odd count 2m + 1 grows: double m until the target
    # is met, then bisect between the last miss and the first hit
    last = 49_999  # 99,999 copies
    miss, hit = -1, 0
    while not met(hit):
        if hit == last:
            raise ValueError("unreachable boost target")
        miss, hit = hit, min(2 * hit + 1, last)
    while hit - miss > 1:
        mid = (miss + hit) // 2
        miss, hit = (miss, mid) if met(mid) else (mid, hit)
    return 2 * hit + 1


#: (n, n) decode cells per block of boost copies; bounds decode_bits' temporaries
COPY_BLOCK_CELLS = 1 << 16


class BoostedScheme(SketchScheme):
    def __init__(self, base: SketchScheme, delta_target: float, copies: int | None = None):
        self.base = base
        self.copies = boost_copies(delta_target, base.delta) if copies is None else copies
        self.n = base.n
        self.width = self.copies * base.width
        #: the proven per-pair error: the exact majority tail at this count
        self.delta = majority_failure(self.copies, base.delta) if self.copies > 1 else base.delta

    def encode_bits(self, seeds) -> np.ndarray:
        return boost_bits(self.base.encode_bits, seeds, self.copies)

    def decode_trials(self, us: np.ndarray, vs: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        # copies x trials go to the base in one call, trial-major
        c = self.copies
        votes = self.base.decode_trials(np.repeat(us, c), np.repeat(vs, c),
                                        copy_seeds(seeds, c).ravel())
        return (2 * votes.reshape(-1, c).sum(axis=1, dtype=np.int32) > c).astype(np.int8)

    def decode_bits(self, bits: np.ndarray) -> np.ndarray:
        # the copies go to the base in blocks of about COPY_BLOCK_CELLS
        # decoded cells, their votes summed as they come
        s, n = bits.shape[:2]
        c, w = self.copies, self.base.width
        votes = np.zeros((s, n, n), dtype=np.int32)
        step = max(1, COPY_BLOCK_CELLS // max(s * n * n, 1))
        for lo in range(0, c, step):
            m = min(step, c - lo)
            part = bits[:, :, lo * w:(lo + m) * w].reshape(s, n, m, w).transpose(0, 2, 1, 3)
            decoded = self.base.decode_bits(part.reshape(s * m, n, w))
            votes += decoded.reshape(s, m, n, n).sum(axis=1, dtype=np.int32)
        return (2 * votes > c).astype(np.int8)


def boost(sch: SketchScheme, delta_target: float) -> SketchScheme:
    return BoostedScheme(sch, delta_target)


def boost_exact(sch: SketchScheme, delta_target: float) -> SketchScheme:
    """Boost with the copy count sized by the exact binomial tail, so the
    per-pair error target genuinely holds for base error `sch.delta`."""
    return BoostedScheme(sch, delta_target,
                         copies=exact_majority_copies(delta_target, sch.delta))


# ---------------------------------------------------------------------------
# Arboricity: the classic parent-pointer equality scheme and its Bloom-filter
# sketch of size O(alpha).
# ---------------------------------------------------------------------------

def _arboricity_walker(sx, sy, eq) -> int:
    # slot 0 is the vertex's own id, the rest are its forest parents
    for j in range(1, sy.arity):
        if eq(sx.slot0, sy.slot0 + j):
            return 1
    for i in range(1, sx.arity):
        if eq(sx.slot0 + i, sy.slot0):
            return 1
    return 0


register_walker("arboricity", lambda spec: _arboricity_walker)


def arboricity_scheme(g: Graph) -> TableScheme:
    """Equality labels (self id, then one parent id per forest): one
    tuple of codes, so one shape per arity.  The code table is the forest
    parent table with each vertex's own id in front, -1 past its parents."""
    parents = forest_partition(g)
    shapes = [node((), (0,) * a)[0] for a in range(parents.shape[1] + 2)]
    return TableScheme(shapes, 1 + np.count_nonzero(parents >= 0, axis=1),
                       np.column_stack([np.arange(g.n, dtype=np.int64), parents]),
                       {"name": "arboricity"}, name="arboricity")


class ArboricitySketch(SketchScheme):
    """Bloom-filter sketch for arboricity-alpha graphs.

    Layout [r(x)][bloom bits]: r(x) ~ [6 alpha]; bloom marks the hashes of
    the parent ids.  Adjacent pairs decode 1 with probability 1 (one-sided);
    non-adjacent error at most 2 alpha / (6 alpha) = 1/3.  The bucket r(v)
    is a hash of (seed, v), so a label costs O(alpha) hashes, not O(n).
    """

    def __init__(self, g: Graph):
        self.g = g
        self.n = g.n
        parents = forest_partition(g)
        self.alpha = max(parents.shape[1], 1)
        self.buckets = 6 * self.alpha
        self.r_bits = bits_for(self.buckets)
        self.width = self.r_bits + self.buckets
        self.delta = 1 / 3
        # parents padded with -1 to alpha columns: the encoder's and the
        # trial decoder's input
        self._parent_ids = np.pad(parents, ((0, 0), (0, self.alpha - parents.shape[1])),
                                  constant_values=-1)

    def _bucket(self, seed, vs) -> np.ndarray:
        """r(v) in [buckets] of each vertex id in `vs` under `seed`."""
        return counter_hash(seed, _TAG_BUCKET, vs) % np.uint64(self.buckets)

    def encode_bits(self, seeds) -> np.ndarray:
        # all buckets under all seeds at once, then each parent's bucket
        # marked in its child's Bloom bits
        r = self._bucket(_seed_words(seeds)[:, None], np.arange(self.n)).astype(np.intp)
        bits = np.zeros((len(r), self.n, self.width), dtype=np.uint8)
        bits[..., :self.r_bits] = _field_bits(r[..., None], self.r_bits)
        v, j = np.nonzero(self._parent_ids >= 0)
        cols = r[:, self._parent_ids[v, j]]
        cols += self.r_bits
        bits[np.arange(len(r))[:, None], v, cols] = 1
        return bits

    def decode_trials(self, us: np.ndarray, vs: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        # columns: u, v, then u's parents and v's parents (-1 padding)
        us, vs, a = np.asarray(us), np.asarray(vs), self.alpha
        ids = np.concatenate([us[:, None], vs[:, None], self._parent_ids.take(us, axis=0),
                              self._parent_ids.take(vs, axis=0)], axis=1)
        r = self._bucket(np.asarray(seeds, dtype=np.uint64)[:, None], ids)
        marked = (r[:, 2:] == np.repeat(r[:, 1::-1], a, axis=1)) & (ids[:, 2:] >= 0)
        return marked.any(axis=1).astype(np.int8)

    def decode_bits(self, bits: np.ndarray) -> np.ndarray:
        # hit[s, u, v] is u's Bloom bit at v's bucket; a bucket field >=
        # buckets reads the zero column past the filter: no Bloom bit
        s, n = bits.shape[:2]
        b = self.buckets
        r = np.minimum(_read_fields(bits[..., :self.r_bits], 1, self.r_bits)[..., 0], b)
        bloom = np.zeros((s, n, b + 1), dtype=np.uint8)
        bloom[..., :b] = bits[..., self.r_bits:]
        rows = np.arange(s * n, dtype=np.intp).reshape(s, n, 1) * (b + 1)
        hit = bloom.ravel()[rows + r[:, None, :]]
        return (hit | hit.transpose(0, 2, 1)).view(np.int8)


def arboricity_sketch(g: Graph) -> ArboricitySketch:
    return ArboricitySketch(g)


# ---------------------------------------------------------------------------
# Derandomization and sketch files.
# ---------------------------------------------------------------------------

@dataclass
class DeterministicLabeling:
    """Zero-error labels and the sketch whose decoder reads them."""

    labels: tuple[int, ...]
    width: int
    decoder: SketchScheme
    attempts: int = 1

    @property
    def decode(self) -> Callable[[int, int], int]:
        return self.decoder.decode

    @property
    def decode_matrix(self) -> Callable[[list[int]], np.ndarray]:
        return self.decoder.decode_matrix

    def check_exact(self, g: Graph) -> bool:
        return count_errors(self.decoder, list(self.labels), g) == 0


class DerandomizationError(RuntimeError):
    """The sampled scheme kept violating its error contract."""


def count_errors(sch: SketchScheme, labels: list[int], g: Graph) -> int:
    """Pairs u < v whose bit in `sch.decode_matrix(labels)` differs from g."""
    # g's edge rows have u < v, so adj is the strict upper triangle
    edges = g.edge_array()
    adj = np.zeros((g.n, g.n), dtype=np.int8)
    adj[edges[:, 0], edges[:, 1]] = 1
    return int(np.count_nonzero(np.triu(sch.decode_matrix(labels) != adj, 1)))


def derandomize(sch: SketchScheme, g: Graph, seed: int,
                max_retries: int = 50) -> DeterministicLabeling:
    """Boost to true error 1/n^3, sample, verify all pairs, retry on failure.

    A sample is fully correct with probability at least 1 - 1/n, so a few
    retries suffice; exhausting them signals a broken error contract.  The
    majority here is sized by the exact binomial tail, not the asymptotic
    copy-count formula, so the 1/n^3 target actually holds.
    """
    n = max(g.n, 2)
    boosted = boost_exact(sch, 1 / n**3)
    for attempt in range(1, max_retries + 1):
        labels = boosted.encode(derive_seed(seed, "derand", attempt))
        if count_errors(boosted, labels, g) == 0:
            return DeterministicLabeling(tuple(labels), boosted.width, boosted, attempts=attempt)
    raise DerandomizationError(
        f"no correct labeling in {max_retries} tries; scheme violates delta")


def naive_derandomize(scheme: EqualityScheme) -> DeterministicLabeling:
    """Write each canonically-renumbered code verbatim: zero error.

    The labels are the `PackedEqualityScheme` encoding, the same under
    every seed, of s + k*ceil(log2(#distinct codes)) bits; when codes are
    vertex ids this is the s + k*ceil(log n) of the naive bound.
    """
    sk = PackedEqualityScheme(scheme)
    return DeterministicLabeling(tuple(sk.encode(0)), sk.width, sk)


def naive_label_width(scheme: EqualityScheme) -> tuple[int, int, int]:
    """(s, k, per-code bits) of the naive derandomization."""
    return scheme.s, scheme.k, bits_for(max(scheme.alphabet, 2))


def write_sketch_file(labels, width: int, gname: str) -> str:
    digits = max((width + 3) // 4, 1)
    lines = [f"labels {gname} s=0 k=0 width={width}"]
    for v, bits in enumerate(labels):
        lines.append(f"v {v} {bits:0{digits}x}")
    return "\n".join(lines) + "\n"


def parse_sketch_file(text: str) -> tuple[list[int], int]:
    """The labels and the width of a `write_sketch_file` text: `labels
    <name> ... width=<bits>`, then `v <id> <hex-bits>` per vertex.  A
    malformed file is a GraphFormatError."""
    lines, rows, width = LineReader(text), [], None
    for parts in lines:
        if width is None:
            widths = [f[len("width="):] for f in parts if f.startswith("width=")]
            if parts[0] != "labels" or not widths:
                raise lines.expected("'labels <name> ... width=<bits>'")
            width = lines.integer(widths[0])
            continue
        _, v, bits = lines.fields(parts, "'v <id> <hex-bits>'")
        rows.append((lines.lineno, lines.integer(v), lines.integer(bits, 16)))
    if width is None:
        raise GraphFormatError("empty sketch file")
    return in_id_order(rows, "vertex"), width


# ---------------------------------------------------------------------------
# Monte-Carlo error evaluation.
# ---------------------------------------------------------------------------

#: The normal quantile of the 95% Wilson score interval.
WILSON_Z = 1.96


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    z = WILSON_Z
    if trials == 0:
        return (0.0, 1.0)
    p = errors / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class ErrorEstimate:
    errors: int
    trials: int

    @property
    def rate(self) -> float:
        return self.errors / self.trials if self.trials else 0.0

    def wilson(self) -> tuple[float, float]:
        return wilson_interval(self.errors, self.trials)


@dataclass
class ErrorReport:
    adjacent: ErrorEstimate
    nonadjacent: ErrorEstimate

    @property
    def overall(self) -> ErrorEstimate:
        return ErrorEstimate(self.adjacent.errors + self.nonadjacent.errors,
                             self.adjacent.trials + self.nonadjacent.trials)


#: trials sampled, encoded and decoded together; bounds evaluate_error's temporaries
TRIAL_BLOCK = 4096


def evaluate_error(sch: SketchScheme, g: Graph, trials: int, seed: int,
                   pairs: str = "all") -> ErrorReport:
    """Per-pair error estimate with a fresh encoding per trial.

    pairs: 'all' samples uniformly over ordered pairs u != v, 'adjacent' /
    'nonadjacent' restricts the pair class.  Trial t draws its pair from
    `counter_hash(seed, pair-tag, t, attempt)`, with attempt > 0 only where
    'nonadjacent' rejects an edge, and its encoding seed from
    `counter_hash(seed, encoding-tag, t)`; so the result does not depend on
    how the trials are split into blocks of `TRIAL_BLOCK`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if pairs not in ("all", "adjacent", "nonadjacent"):
        raise ValueError("pairs must be all|adjacent|nonadjacent")
    edges = g.edge_array()
    if pairs == "adjacent" and not len(edges):
        raise ValueError("graph has no edges")
    # rejection sampling below would never stop without a pair to draw
    n = g.n
    if n < 2:
        raise ValueError("graph has fewer than two vertices")
    if pairs == "nonadjacent" and len(edges) == n * (n - 1) // 2:
        raise ValueError("graph has no non-adjacent pairs")
    # edge keys u*n + v, sorted as the edge array is, then n*n, above every
    # pair's key, so a search never runs off the end
    edge_keys = np.append(edges[:, 0] * n + edges[:, 1], n * n)

    def adjacent(u, v):
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        return edge_keys[np.searchsorted(edge_keys, keys)] == keys

    def draw(t, attempt):
        h = counter_hash(seed, _TAG_PAIR, t, attempt)
        if pairs == "adjacent":
            return edges[(h % np.uint64(len(edges))).astype(np.int64)].T
        # one draw is an ordered pair u != v: u, then v among the other n - 1
        m = (h % np.uint64(n * (n - 1))).astype(np.int64)
        u, w = np.divmod(m, n - 1)
        return u, w + (w >= u)

    adj_err = adj_trials = non_err = 0
    for lo in range(0, trials, TRIAL_BLOCK):
        t = np.arange(lo, min(trials, lo + TRIAL_BLOCK), dtype=np.uint64)
        u, v = draw(t, 0)
        is_adj = adjacent(u, v)
        attempt = 0
        while pairs == "nonadjacent" and is_adj.any():
            attempt += 1
            redo = np.flatnonzero(is_adj)
            u[redo], v[redo] = draw(t[redo], attempt)
            is_adj[redo] = adjacent(u[redo], v[redo])
        wrong = sch.decode_trials(u, v, counter_hash(seed, _TAG_ENC, t)) != is_adj
        adj_trials += int(np.count_nonzero(is_adj))
        adj_err += int(np.count_nonzero(wrong & is_adj))
        non_err += int(np.count_nonzero(wrong & ~is_adj))
    return ErrorReport(ErrorEstimate(adj_err, adj_trials),
                       ErrorEstimate(non_err, trials - adj_trials))


# ---------------------------------------------------------------------------
# PUG view.
# ---------------------------------------------------------------------------

class PugView:
    """The sketch's decoder read as the edge relation of a universal graph
    on node set {0,1}^c, with phi(seed) the sampled vertex embedding."""

    MAX_WIDTH = 24

    def __init__(self, sch: SketchScheme):
        if sch.width > self.MAX_WIDTH:
            raise ValueError(f"width {sch.width} exceeds {self.MAX_WIDTH}")
        self.sketch = sch
        self.width = sch.width
        self.num_nodes = 1 << sch.width

    def adjacent(self, a: int, b: int) -> int:
        return self.sketch.decode(a, b)

    def phi(self, seed: int) -> list[int]:
        return self.sketch.encode(seed)

    def edge_table(self) -> list[list[int]]:
        """adjacent(a, b) for every pair of nodes, the diagonal included:
        every node as one label set, and each node against itself as a set
        of two, in two `decode_bits` calls."""
        if self.width > 12:
            raise ValueError("table materialization capped at width 12")
        nodes = to_bits(range(self.num_nodes), self.width)
        table = self.sketch.decode_bits(nodes[None])[0]
        table[np.diag_indices(self.num_nodes)] = \
            self.sketch.decode_bits(np.stack([nodes, nodes], axis=1))[:, 0, 1]
        return table.tolist()


def export_pug(sch: SketchScheme) -> PugView:
    return PugView(sch)

