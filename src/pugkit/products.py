"""Distance-k sketches: table-based base schemes for finite families and
the XOR-bucket composition for Cartesian products.

Labels are bit rows, as in `sketch`: a product label is m*t cells, each a
parity bit followed by a base label.  Buckets, slots and factor seeds are
`counter_hash` draws, so `grid_bits` builds only the rows asked for, under
any array of seeds, and `decode_raw_pairs` decodes any stack of pairs.

Distance decoders return a value in {0..k} or BOTTOM; the raw product
decoder surfaces whatever sum it computes, and the contract-level decode
maps anything outside {0..k} to BOTTOM.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .graphs import CELL_CAP, Graph, product_size
from .labels import bits_for
from .rng import counter_hash, derive_seed
from .sketch import (_TAG_FACTOR, _TAG_GRID_ROW, _TAG_GRID_SLOT, SketchScheme, _read_fields,
                     _seed_words, boost_bits, exact_majority_copies, majority_failure, to_bits)

#: Distinguished "distance exceeds k" sentinel (outside {0..k}).
BOTTOM = -1

#: pairs decoded together; bounds decode_raw_pairs' temporaries
PAIR_BLOCK = 1024


class FiniteFamilyDistanceSketch:
    """Zero-error distance-k labels for a finite family: the label is the
    field pair (graph id, vertex id); the decoder gathers from one distance
    table, padded with a BOTTOM row and column onto which every id past the
    family, or past its graph's vertices, is clipped."""

    def __init__(self, family: Sequence[Graph], k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.family = list(family)
        self.k = k
        self.delta = 0.0
        size = max(g.n for g in self.family)
        self.gid_bits, self.vid_bits = bits_for(len(self.family)), bits_for(size)
        self.width = self.gid_bits + self.vid_bits
        self._dist = np.full((len(self.family) + 1, size + 1, size + 1), BOTTOM, dtype=np.int32)
        for gid, g in enumerate(self.family):
            d = np.array([g.bfs_distances(s) for s in range(g.n)], dtype=np.int64).reshape(g.n, g.n)
            self._dist[gid, :g.n, :g.n] = np.where(d <= k, d, BOTTOM)

    def encode_factor_bits(self, gid: int, seeds) -> np.ndarray:
        """The (len(seeds), n, width) bits of the labels of family[gid]'s
        vertices: the same under every seed."""
        n = self.family[gid].n
        labels = to_bits([gid | v << self.gid_bits for v in range(n)], self.width)
        return np.broadcast_to(labels, (len(seeds), n, self.width))

    def decode_values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The distance in {0..k}, else BOTTOM, of each pair of labels
        x[..], y[..], given as (..., width) bits."""
        g, top, size = self.gid_bits, len(self.family), self._dist.shape[1] - 1
        gx, gy = (np.minimum(_read_fields(b[..., :g], 1, g)[..., 0], top) for b in (x, y))
        u, v = (np.minimum(_read_fields(b[..., g:], 1, self.vid_bits)[..., 0], size)
                for b in (x, y))
        return np.where(gx == gy, self._dist[gx, u, v], BOTTOM)


def majority_vote(votes: np.ndarray) -> np.ndarray:
    """The value that more than half the votes along the last axis hold,
    else BOTTOM.  Such a value fills the middle of the sorted votes."""
    c = votes.shape[-1]
    middle = np.sort(votes, axis=-1)[..., c // 2]
    agree = (votes == middle[..., None]).sum(axis=-1)
    return np.where(2 * agree > c, middle, BOTTOM)


class BoostedDistanceSketch:
    """Majority vote over independent copies of a distance sketch: a strict
    majority of the copies' outputs, else BOTTOM.  The copy count is sized
    by, and `delta` reports, the exact majority tail; the copies are laid
    out and seeded as `sketch.boost_bits` lays out and seeds them."""

    def __init__(self, base, delta_target: float):
        self.base = base
        self.k = base.k
        self.copies = exact_majority_copies(delta_target, base.delta)
        self.width = self.copies * base.width
        self.delta = majority_failure(self.copies, base.delta) if self.copies > 1 else base.delta

    def encode_factor_bits(self, gid: int, seeds) -> np.ndarray:
        return boost_bits(lambda s: self.base.encode_factor_bits(gid, s), seeds, self.copies)

    def decode_values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        shape = (*x.shape[:-1], self.copies, self.base.width)
        return majority_vote(self.base.decode_values(x.reshape(shape), y.reshape(shape)))


def default_product_params(k: int) -> tuple[int, int]:
    """Minimal (m, t) with m >= 9k^2, t >= 9k and mt >= 27(k+1)^2."""
    t = 9 * k
    m = max(9 * k * k, math.ceil(27 * (k + 1) ** 2 / t))
    return m, t


class ProductDistanceSketch:
    """Distance-k sketch for a Cartesian product via random XOR buckets.

    Per encoding: each factor draws a bucket b(i) ~ [m] and per-vertex
    slots c(i,v) ~ [t]; a product vertex XOR-accumulates its factor labels
    into grid cells (a parity bit and a base label).  The decoder XORs two
    grids, insists every bucket row holds 0 or 2 odd-parity cells and at
    most 2k overall, then sums the base decoder's outputs over the paired
    cells.  `base` is a `FiniteFamilyDistanceSketch` whose family holds
    every factor; it is boosted here if its error exceeds 1/(10k).
    """

    def __init__(self, factors: Sequence[Graph], base, k: int,
                 m: int | None = None, t: int | None = None):
        md, td = default_product_params(k)
        self.m = md if m is None else m
        self.t = td if t is None else t
        if self.m < 9 * k * k or self.t < 9 * k or self.m * self.t < 27 * (k + 1) ** 2:
            raise ValueError("product parameters violate m>=9k^2, t>=9k, mt>=27(k+1)^2")
        self.k = k
        self.factors = list(factors)
        self.n = product_size(self.factors)
        #: the factor orders: vertex i has coordinates np.unravel_index(i, dims)
        self.dims = tuple(g.n for g in self.factors)
        self.base = BoostedDistanceSketch(base, 1 / (10 * k)) if base.delta > 1 / (10 * k) \
            else base
        self.delta = 1 / 3
        family = getattr(self.base, "base", self.base).family
        self.gids = [family.index(g) for g in self.factors]

    @property
    def width(self) -> int:
        """Bits per product label: m*t cells, each a parity bit and a base label."""
        return self.m * self.t * (self.base.width + 1)

    def grid_bits(self, seeds, ids) -> np.ndarray:
        """The (len(seeds), r, width) uint8 labels of the product vertices
        `ids` under each seed: r ids shared by all seeds, or an (len(seeds),
        r) array of each seed's own.  ValueError past `CELL_CAP` cells."""
        seeds = _seed_words(seeds)
        s, r, t, axis = len(seeds), np.shape(ids)[-1], self.t, np.arange(len(self.factors))
        if s * r * self.width > CELL_CAP:
            raise ValueError(f"{s * r} labels of {self.width} cells exceed the cell cap {CELL_CAP}")
        ids = np.broadcast_to(np.asarray(ids, dtype=np.int64), (s, r))
        coords = np.stack(np.unravel_index(ids, self.dims), axis=-1)
        buckets = counter_hash(seeds[:, None], _TAG_GRID_ROW, axis) % np.uint64(self.m)
        slots = counter_hash(seeds[:, None, None], _TAG_GRID_SLOT, axis, coords) % np.uint64(t)
        cells = (buckets[:, None, :] * np.uint64(t) + slots).astype(np.intp)
        factor_seeds = counter_hash(seeds[:, None], _TAG_FACTOR, axis)
        grid = np.zeros((s, r, self.m * t, self.base.width + 1), dtype=np.uint8)
        si, ri = np.ogrid[:s, :r]
        for i, gid in enumerate(self.gids):
            labels = self.base.encode_factor_bits(gid, factor_seeds[:, i])[si, coords[..., i]]
            grid[si, ri, cells[..., i], 0] ^= 1
            grid[si, ri, cells[..., i], 1:] ^= labels
        return grid.reshape(s, r, self.width)

    def encode(self, seed: int) -> np.ndarray:
        """The (n, width) uint8 labels of every product vertex under `seed`."""
        return self.grid_bits([seed], np.arange(self.n))[0]

    def decode_raw_pairs(self, rows: np.ndarray, us, vs) -> np.ndarray:
        """The raw grid decoder of the pairs (rows[us[p]], rows[vs[p]]) of
        labels: a sum that may exceed k, or BOTTOM, per pair.  The pairs go
        in blocks of PAIR_BLOCK."""
        us, vs = np.asarray(us), np.asarray(vs)
        out = np.empty(len(us), dtype=np.int64)
        for lo in range(0, len(us), PAIR_BLOCK):
            z = rows[us[lo:lo + PAIR_BLOCK]] ^ rows[vs[lo:lo + PAIR_BLOCK]]
            z = z.reshape(len(z), self.m, self.t, self.base.width + 1)
            per_row = z[..., 0].sum(axis=2, dtype=np.int64)
            # the base labels in the first and the last odd cell of each
            # bucket row with two, decoded and summed per pair
            pair, row = np.nonzero(per_row == 2)
            cells, at = z[pair, row], np.arange(len(pair))
            first = cells[..., 0].argmax(axis=1)
            last = self.t - 1 - cells[:, ::-1, 0].argmax(axis=1)
            d = self.base.decode_values(cells[at, first, 1:], cells[at, last, 1:])
            bad = ((per_row != 0) & (per_row != 2)).any(axis=1) | (per_row.sum(axis=1) > 2 * self.k)
            bad |= np.bincount(pair[d == BOTTOM], minlength=len(z)) > 0
            total = np.bincount(pair, weights=d, minlength=len(z)).astype(np.int64)
            out[lo:lo + PAIR_BLOCK] = np.where(bad, BOTTOM, total)
        return out

    def decode_pairs(self, rows: np.ndarray, us, vs) -> np.ndarray:
        """Contract-level `decode_raw_pairs`: {0..k} or BOTTOM per pair."""
        raw = self.decode_raw_pairs(rows, us, vs)
        return np.where(raw <= self.k, raw, BOTTOM)

    def decode_raw(self, wx: np.ndarray, wy: np.ndarray) -> int:
        """The raw grid decoder of one pair of labels."""
        return int(self.decode_raw_pairs(np.stack([wx, wy]), [0], [1])[0])

    def decode(self, wx: np.ndarray, wy: np.ndarray) -> int:
        """Contract-level decode of one pair of labels: {0..k} or BOTTOM."""
        return int(self.decode_pairs(np.stack([wx, wy]), [0], [1])[0])


def product_distance_encoder(factors: Sequence[Graph], base, k: int, seed: int,
                             m: int | None = None, t: int | None = None):
    """Build the product sketch and one sampled encoding.

    Returns (sketch, labels); labels[i] is the label of the product vertex
    with coordinates np.unravel_index(i, sketch.dims).
    """
    sk = ProductDistanceSketch(factors, base, k, m=m, t=t)
    return sk, sk.encode(seed)


class ProductAdjacencySketch(SketchScheme):
    """Adjacency = distance-1 view of the product sketch, decode 1 iff the
    distance decoder outputs exactly 1."""

    def __init__(self, factors: Sequence[Graph]):
        base = FiniteFamilyDistanceSketch(list(dict.fromkeys(factors)), k=1)
        self.product = ProductDistanceSketch(factors, base, k=1)
        self.n, self.width, self.delta = self.product.n, self.product.width, 1 / 3

    def _adjacent(self, rows: np.ndarray, us, vs) -> np.ndarray:
        return (self.product.decode_raw_pairs(rows, us, vs) == 1).astype(np.int8)

    def encode_bits(self, seeds) -> np.ndarray:
        return self.product.grid_bits(seeds, np.arange(self.n))

    def decode_bits(self, bits: np.ndarray) -> np.ndarray:
        # every pair u < v of every set in one call, mirrored; the rows of
        # set i at i*n..
        s, n, w = bits.shape
        u, v = np.triu_indices(n, 1)
        at = np.arange(s)[:, None] * n
        out = np.zeros((s, n, n), dtype=np.int8)
        out[:, u, v] = self._adjacent(bits.reshape(s * n, w), (at + u).ravel(),
                                      (at + v).ravel()).reshape(s, len(u))
        return out | out.transpose(0, 2, 1)

    def decode_trials(self, us: np.ndarray, vs: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        rows = self.product.grid_bits(seeds, np.stack([us, vs], axis=1)).reshape(-1, self.width)
        return self._adjacent(rows, np.arange(0, len(rows), 2), np.arange(1, len(rows), 2))


def adjacency_from_distance1(factors: Sequence[Graph]) -> ProductAdjacencySketch:
    """Adjacency sketch for a Cartesian product: the k=1 distance sketch
    with output 1 mapped to adjacent and {0, BOTTOM} to non-adjacent."""
    return ProductAdjacencySketch(factors)


def hamming_spread_check(u: int, n: int, k: int, delta: float, trials: int,
                         seed: int) -> float:
    """Monte-Carlo estimate of P[|e_{R_1} + ... + e_{R_n}| <= k] for
    uniform R_i ~ [u] with XOR addition; the bound promises < delta when
    u >= 9(k+1)^2/delta and n > k."""
    if u < 9 * (k + 1) ** 2 / delta:
        raise ValueError("u below the 9(k+1)^2/delta threshold")
    if n <= k:
        raise ValueError("need n > k")
    rng = np.random.default_rng(derive_seed(seed, "spread", u, n, k))
    hits = 0
    for block in range(0, trials, 4096):
        cnt = min(4096, trials - block)
        draws = rng.integers(0, u, size=(cnt, n))
        # one bincount for the block: trial i counts in [i*u, (i+1)*u)
        counts = np.bincount((draws + u * np.arange(cnt)[:, None]).ravel(), minlength=cnt * u)
        hits += int(np.count_nonzero((counts.reshape(cnt, u) & 1).sum(axis=1) <= k))
    return hits / trials
