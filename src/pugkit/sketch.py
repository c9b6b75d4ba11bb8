"""Randomized sketches: compression of equality schemes, boosting,
derandomization, Monte-Carlo error evaluation, and PUG export.

Encoders derive all their randomness from `counter_hash` as pure functions
of (seed, tag, id): a hashed code value, a vertex's Bloom bucket, a boost
copy's seed.  So encoding a single pair equals restricting a full
encoding, and `decode_trials` can decode the pairs of many fresh
encodings at once: it hashes the per-trial seeds and the pairs' ids as
arrays.  `evaluate_error` draws each trial's pair and encoding seed the same
way and decodes its trials in blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graphs import Graph
from .labels import (
    CompiledDecoder,
    EqualityScheme,
    LabelNode,
    bits_for,
    narrow_values,
    register_walker,
)
from .rng import counter_hash, derive_seed
from .structure import forest_partition

# `counter_hash` tags: one per purpose, so the streams stay apart
_TAG_CODE, _TAG_BUCKET, _TAG_COPY, _TAG_PAIR, _TAG_ENC = range(1, 6)


def join_copies(copies: Sequence[int], width: int) -> int:
    """One label from independent copies: copy i of a `width`-bit label
    sits at bits [i*width, (i+1)*width)."""
    out = 0
    for i, bits in enumerate(copies):
        out |= bits << (i * width)
    return out


def split_copies(bits: int, width: int, copies: int) -> list[int]:
    """The `copies` labels that `join_copies` joined into `bits`."""
    mask = (1 << width) - 1
    return [bits >> (i * width) & mask for i in range(copies)]


class SketchScheme:
    """Seeded randomized encoder + pure decoder with an error budget."""

    width: int
    delta: float
    n: int

    def encode(self, seed: int) -> list[int]:
        raise NotImplementedError

    def encode_pair(self, u: int, v: int, seed: int) -> tuple[int, int]:
        labels = self.encode(seed)
        return labels[u], labels[v]

    def decode(self, bx: int, by: int) -> int:
        raise NotImplementedError

    def decode_matrix(self, labels: list[int]) -> np.ndarray:
        """The n x n 0/1 matrix of decode(labels[u], labels[v]) for u < v,
        mirrored below the diagonal.  This is the per-pair reference; bulk
        decoders override it."""
        n = len(labels)
        out = np.zeros((n, n), dtype=np.int8)
        for u in range(n):
            for v in range(u + 1, n):
                out[u, v] = out[v, u] = self.decode(labels[u], labels[v])
        return out

    def decode_stack(self, label_sets: list[list[int]]) -> np.ndarray:
        """`decode_matrix` of several label sets, stacked."""
        return np.stack([self.decode_matrix(labels) for labels in label_sets])

    def decode_trials(self, us: np.ndarray, vs: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """The int8 bit decoded for the pair (us[t], vs[t]) under a fresh
        encoding seeded by seeds[t], for every t.  This is the per-trial
        reference; vectorised sketches override it."""
        return np.array([self.decode(*self.encode_pair(u, v, s)) for u, v, s in
                         zip(np.asarray(us).tolist(), np.asarray(vs).tolist(),
                             np.asarray(seeds).tolist())], dtype=np.int8)


class CompressedEqualityScheme(SketchScheme):
    """Equality scheme compressed by hashing codes into [3k^2] (one-sided).

    Sketch layout: [shape index][one hashed value per code slot], padded to
    a fixed width.  Equal codes always hash equal, so true-equality
    comparisons never flip; each false equality flips with probability
    1/(3k^2), giving per-pair error at most k^2/(3k^2) = 1/3.
    """

    def __init__(self, scheme: EqualityScheme):
        self.scheme = scheme
        self.n = scheme.n
        k = max(scheme.k, 1)
        self.alphabet = 3 * k * k
        self.codec = scheme.codec.widened(bits_for(self.alphabet))
        self._decoder = CompiledDecoder(self.codec, scheme.walker)
        self.width = self.codec.width
        self.delta = 1 / 3
        # per vertex: shape id, and canonical code values padded with -1 to k
        self._sids = np.array(self.codec.ids, dtype=np.int64)
        self._vals = np.full((self.n, self.codec.k), -1, dtype=np.int64)
        for v, vals in enumerate(scheme.values):
            self._vals[v, :len(vals)] = vals
        self._dtype = narrow_values(self.alphabet - 1)

    def _hashed(self, seed, values) -> np.ndarray:
        """The hashed code of each canonical code value under `seed`."""
        return counter_hash(seed, _TAG_CODE, values) % np.uint64(self.alphabet)

    def _hash(self, seed: int, value: int) -> int:
        return int(self._hashed(seed, self.scheme.canon[value]))

    def encode(self, seed: int) -> list[int]:
        h = self._hashed(seed, np.arange(len(self.scheme.canon))).tolist()
        return [self.codec.pack(shape, [h[c] for c in vals])
                for shape, vals in zip(self.scheme.shapes, self.scheme.values)]

    def encode_pair(self, u: int, v: int, seed: int) -> tuple[int, int]:
        vu, vv = self.scheme.values[u], self.scheme.values[v]
        h = self._hashed(seed, np.array(vu + vv, dtype=np.int64)).tolist()
        return (self.codec.pack(self.scheme.shapes[u], h[:len(vu)]),
                self.codec.pack(self.scheme.shapes[v], h[len(vu):]))

    def decode_trials(self, us: np.ndarray, vs: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        # blocks of at most BLOCK_CELLS Q cells, as decode_pairs asks
        k = self.codec.k
        step = max(1, self._decoder.BLOCK_CELLS // max(k * k, 1))
        out = [np.zeros(0, dtype=np.int8)]
        for lo in range(0, len(us), step):
            u, v = us[lo:lo + step], vs[lo:lo + step]
            s = np.asarray(seeds[lo:lo + step], dtype=np.uint64)[:, None]
            hx, hy = (np.where(self._vals[w] < 0, pad,
                               self._hashed(s, self._vals[w]).astype(self._dtype))
                      for w, pad in ((u, -1), (v, -2)))
            out.append(self._decoder.decode_pairs(self._sids[u], hx, self._sids[v], hy))
        return np.concatenate(out)

    def decode(self, bx: int, by: int) -> int:
        return self._decoder.decode(bx, by)

    def decode_matrix(self, labels: list[int]):
        return self._decoder.decode_matrix(labels)

    def decode_stack(self, label_sets: list[list[int]]):
        return self._decoder.decode_stack(label_sets)


def compress_equality_scheme(scheme: EqualityScheme) -> CompressedEqualityScheme:
    return CompressedEqualityScheme(scheme)


def boost_copies(delta_target: float, base_delta: float = 1 / 3) -> int:
    """Number of independent copies for majority voting (1 = no-op).

    This is the textbook 3*ln(1/delta) count.  It is slightly optimistic
    for base error exactly 1/3; use `exact_majority_copies` where the
    target must truly hold (derandomization does).
    """
    if not (0 < delta_target < 1 / 2):
        raise ValueError("delta target must be in (0, 1/2)")
    if delta_target >= base_delta:
        return 1
    return math.ceil(3 * math.log(1 / delta_target))


def majority_failure(copies: int, p: float) -> float:
    """P[Binomial(copies, p) >= copies/2]: majority-vote failure rate."""
    need = (copies + 1) // 2 if copies % 2 else copies // 2
    total = 0.0
    term = (1 - p) ** copies
    # iterate binomial pmf upward
    for i in range(copies + 1):
        if i >= need:
            total += term
        term *= (copies - i) / (i + 1) * (p / (1 - p))
    return min(total, 1.0)


def exact_majority_copies(delta_target: float, base_delta: float = 1 / 3) -> int:
    """Minimal odd copy count whose exact majority tail meets the target."""
    if delta_target >= base_delta:
        return 1
    k = 1
    while majority_failure(k, base_delta) > delta_target:
        k += 2
        if k > 100_000:
            raise ValueError("unreachable boost target")
    return k


class BoostedScheme(SketchScheme):
    def __init__(self, base: SketchScheme, delta_target: float, copies: int | None = None):
        self.base = base
        self.copies = boost_copies(delta_target, base.delta) if copies is None else copies
        self.n = base.n
        self.width = self.copies * base.width
        self.delta = delta_target if self.copies > 1 else base.delta

    def _copy_seeds(self, seed):
        """The seed of each copy; for an array of seeds, one row per seed."""
        return counter_hash(seed, _TAG_COPY, np.arange(self.copies))

    def encode(self, seed: int) -> list[int]:
        parts = [self.base.encode(s) for s in self._copy_seeds(seed).tolist()]
        return [join_copies(copies, self.base.width) for copies in zip(*parts)]

    def encode_pair(self, u: int, v: int, seed: int) -> tuple[int, int]:
        fu, fv = zip(*(self.base.encode_pair(u, v, s) for s in self._copy_seeds(seed).tolist()))
        return join_copies(fu, self.base.width), join_copies(fv, self.base.width)

    def decode_trials(self, us: np.ndarray, vs: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        # copies x trials go to the base in one call, trial-major
        c = self.copies
        copy_seeds = self._copy_seeds(np.asarray(seeds, dtype=np.uint64)[:, None])
        votes = self.base.decode_trials(np.repeat(us, c), np.repeat(vs, c), copy_seeds.ravel())
        return (2 * votes.reshape(-1, c).sum(axis=1, dtype=np.int32) > c).astype(np.int8)

    def decode(self, bx: int, by: int) -> int:
        w, c = self.base.width, self.copies
        votes = sum(map(self.base.decode, split_copies(bx, w, c), split_copies(by, w, c)))
        return int(2 * votes > c)

    def decode_matrix(self, labels: list[int]) -> np.ndarray:
        # all copies go to the base decoder in one stacked call
        split = [split_copies(l, self.base.width, self.copies) for l in labels]
        votes = self.base.decode_stack([[s[i] for s in split] for i in range(self.copies)])
        return (2 * votes.sum(axis=0, dtype=np.int32) > self.copies).astype(np.int8)


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


def arboricity_scheme(g: Graph) -> EqualityScheme:
    """Equality labels (self id, then one parent id per forest)."""
    fp = forest_partition(g)
    labels = []
    for v in range(g.n):
        parents = tuple(f[v] for f in fp.parents if f[v] is not None)
        labels.append(LabelNode(codes=(v,) + parents))
    return EqualityScheme(labels, _arboricity_walker,
                          decoder_spec={"name": "arboricity"}, name="arboricity")


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
        fp = forest_partition(g)
        self.alpha = max(fp.num_forests, 1)
        self._parents = [
            [f[v] for f in fp.parents if f[v] is not None] for v in range(g.n)
        ]
        self.buckets = 6 * self.alpha
        self.r_bits = bits_for(self.buckets)
        self.width = self.r_bits + self.buckets
        self.delta = 1 / 3
        # parents padded with -1 to alpha columns: the trial decoder's input
        self._parent_ids = np.full((self.n, self.alpha), -1, dtype=np.int64)
        for v, ps in enumerate(self._parents):
            self._parent_ids[v, :len(ps)] = ps

    def _bucket(self, seed, vs) -> np.ndarray:
        """r(v) in [buckets] of each vertex id in `vs` under `seed`."""
        return counter_hash(seed, _TAG_BUCKET, vs) % np.uint64(self.buckets)

    def _label(self, r_v: int, r_parents: Sequence[int]) -> int:
        bloom = 0
        for r in r_parents:
            bloom |= 1 << r
        return r_v | bloom << self.r_bits

    def encode(self, seed: int) -> list[int]:
        r = self._bucket(seed, np.arange(self.n)).tolist()
        return [self._label(r[v], [r[p] for p in ps]) for v, ps in enumerate(self._parents)]

    def encode_pair(self, u: int, v: int, seed: int) -> tuple[int, int]:
        pu, pv = self._parents[u], self._parents[v]
        r = self._bucket(seed, np.array([u, v, *pu, *pv], dtype=np.int64)).tolist()
        return self._label(r[0], r[2:2 + len(pu)]), self._label(r[1], r[2 + len(pu):])

    def decode_trials(self, us: np.ndarray, vs: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        # columns: u, v, then u's parents and v's parents (-1 padding)
        us, vs, a = np.asarray(us), np.asarray(vs), self.alpha
        ids = np.concatenate([us[:, None], vs[:, None], self._parent_ids[us],
                              self._parent_ids[vs]], axis=1)
        r = self._bucket(np.asarray(seeds, dtype=np.uint64)[:, None], ids)
        marked = (r[:, 2:] == np.repeat(r[:, 1::-1], a, axis=1)) & (ids[:, 2:] >= 0)
        return marked.any(axis=1).astype(np.int8)

    def decode(self, bx: int, by: int) -> int:
        rx = bx & ((1 << self.r_bits) - 1)
        ry = by & ((1 << self.r_bits) - 1)
        bloom_x = bx >> self.r_bits
        bloom_y = by >> self.r_bits
        return int(bool(bloom_x >> ry & 1 or bloom_y >> rx & 1))

    def decode_matrix(self, labels: list[int]):
        # one row of 0/1 bucket bits per label, so any alpha fits; the rows
        # are 2**r_bits >= buckets wide, so every r indexes a column
        r = np.array([l & ((1 << self.r_bits) - 1) for l in labels], dtype=np.intp)
        size = ((1 << self.r_bits) + 7) // 8
        raw = b"".join((l >> self.r_bits).to_bytes(size, "little") for l in labels)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(labels), size),
                             axis=1, bitorder="little")
        hit = bits[:, r]
        return (hit | hit.T).astype(np.int8)


def arboricity_sketch(g: Graph) -> ArboricitySketch:
    return ArboricitySketch(g)


# ---------------------------------------------------------------------------
# Derandomization.
# ---------------------------------------------------------------------------

@dataclass
class DeterministicLabeling:
    """Zero-error labels and the one decoder that reads them."""

    labels: tuple[int, ...]
    width: int
    decoder: "SketchScheme | CompiledDecoder"
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


def count_errors(sch: "SketchScheme | CompiledDecoder", labels: list[int], g: Graph) -> int:
    """Pairs u < v whose bit in `sch.decode_matrix(labels)` differs from g."""
    adj = np.zeros((g.n, g.n), dtype=np.int8)
    for u, v in g.edges():
        adj[u, v] = 1
    return int(np.count_nonzero(np.triu(sch.decode_matrix(labels) != adj + adj.T, 1)))


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

    Label width is s + k*ceil(log2(#distinct codes)); when codes are vertex
    ids this is the s + k*ceil(log n) of the naive bound.
    """
    codec = scheme.codec.widened(bits_for(max(len(scheme.canon), 2)))
    labels = tuple(codec.pack(shape, vals) for shape, vals in zip(scheme.shapes, scheme.values))
    return DeterministicLabeling(labels, codec.width, CompiledDecoder(codec, scheme.walker))


def naive_label_width(scheme: EqualityScheme) -> tuple[int, int, int]:
    """(s, k, per-code bits) of the naive derandomization."""
    return scheme.s, scheme.k, bits_for(max(len(scheme.canon), 2))


# ---------------------------------------------------------------------------
# Monte-Carlo error evaluation.
# ---------------------------------------------------------------------------

def wilson_interval(errors: int, trials: int, z: float = 1.96) -> tuple[float, float]:
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

    def wilson(self, z: float = 1.96) -> tuple[float, float]:
        return wilson_interval(self.errors, self.trials, z)


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
    edges = np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2)
    if pairs == "adjacent" and not len(edges):
        raise ValueError("graph has no edges")
    # rejection sampling below would never stop without a pair to draw
    n = g.n
    if n < 2:
        raise ValueError("graph has fewer than two vertices")
    if pairs == "nonadjacent" and len(edges) == n * (n - 1) // 2:
        raise ValueError("graph has no non-adjacent pairs")
    # sorted edge keys min*n + max, then n*n, above every pair's key, so a
    # search never runs off the end
    edge_keys = np.append(np.sort(edges.min(axis=1) * n + edges.max(axis=1)), n * n)

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
        if self.width > 12:
            raise ValueError("table materialization capped at width 12")
        return [[self.adjacent(a, b) for b in range(self.num_nodes)]
                for a in range(self.num_nodes)]


def export_pug(sch: SketchScheme) -> PugView:
    return PugView(sch)
