"""Distance-k sketches: table-based base schemes for finite families and
the XOR-bucket composition for Cartesian products.

Distance decoders return a value in {0..k} or BOTTOM; the raw product
decoder surfaces whatever sum it computes, and the contract-level decode
maps anything outside {0..k} to BOTTOM.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .graphs import Graph
from .labels import bits_for
from .rng import derive_seed
from .sketch import SketchScheme, exact_majority_copies, join_copies, majority_failure, split_copies

#: Distinguished "distance exceeds k" sentinel (outside {0..k}).
BOTTOM = -1


class FiniteFamilyDistanceSketch:
    """Zero-error distance-k labels for a finite family: the label is the
    pair (graph id, vertex id); the decoder holds precomputed BFS tables."""

    def __init__(self, family: Sequence[Graph], k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.family = list(family)
        self.k = k
        self.delta = 0.0
        self.gid_bits = bits_for(len(self.family))
        self.vid_bits = bits_for(max(g.n for g in self.family))
        self.width = self.gid_bits + self.vid_bits
        if self.width > 62:
            raise ValueError("vertex/graph id overflow of the width budget")
        self._dist = []
        for g in self.family:
            self._dist.append([g.bfs_distances(s) for s in range(g.n)])

    def encode_factor(self, graph_index: int, seed: int) -> list[int]:
        g = self.family[graph_index]
        return [graph_index | v << self.gid_bits for v in range(g.n)]

    def decode(self, bx: int, by: int) -> int:
        gx = bx & ((1 << self.gid_bits) - 1)
        gy = by & ((1 << self.gid_bits) - 1)
        if gx != gy:
            return BOTTOM
        u = bx >> self.gid_bits
        v = by >> self.gid_bits
        d = self._dist[gx][u][v]
        return d if 0 <= d <= self.k else BOTTOM


class BoostedDistanceSketch:
    """Plurality vote over independent copies of a distance sketch; the copy
    count is sized by, and `delta` reports, the exact majority tail."""

    def __init__(self, base, delta_target: float):
        self.base = base
        self.k = base.k
        self.copies = exact_majority_copies(delta_target, base.delta)
        self.width = self.copies * base.width
        self.delta = majority_failure(self.copies, base.delta) if self.copies > 1 else base.delta

    def encode_factor(self, graph_index: int, seed: int) -> list[int]:
        parts = [
            self.base.encode_factor(graph_index, derive_seed(seed, "dcopy", i))
            for i in range(self.copies)
        ]
        return [join_copies(copies, self.base.width) for copies in zip(*parts)]

    def decode(self, bx: int, by: int) -> int:
        w, c = self.base.width, self.copies
        votes: dict[int, int] = {}
        for out in map(self.base.decode, split_copies(bx, w, c), split_copies(by, w, c)):
            votes[out] = votes.get(out, 0) + 1
        best = max(votes.items(), key=lambda kv: (kv[1], kv[0] == BOTTOM))
        if 2 * best[1] <= self.copies and len(votes) > 1:
            return BOTTOM  # no majority
        return best[0]


def default_product_params(k: int) -> tuple[int, int]:
    """Minimal (m, t) with m >= 9k^2, t >= 9k and mt >= 27(k+1)^2."""
    t = 9 * k
    m = max(9 * k * k, math.ceil(27 * (k + 1) ** 2 / t))
    return m, t


class ProductDistanceSketch:
    """Distance-k sketch for a Cartesian product via random XOR buckets.

    Per encoding: each factor draws a bucket b(i) ~ [m] and per-vertex
    slots c(i,v) ~ [t]; a product vertex XOR-accumulates its factor labels
    into grid cells (value and a parity bit).  The decoder XORs two grids,
    insists every bucket row holds 0 or 2 odd-parity cells and at most 2k
    overall, then sums the base decoder's outputs over the paired cells.
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
        self.base = BoostedDistanceSketch(base, 1 / (10 * k)) if base.delta > 1 / (10 * k) \
            else base
        self.coords = [tuple(c) for c in
                       itertools.product(*[range(g.n) for g in self.factors])]
        self.index = {c: i for i, c in enumerate(self.coords)}
        self.n = len(self.coords)
        self.delta = 1 / 3
        inner = self.base.base if isinstance(self.base, BoostedDistanceSketch) else self.base
        family = getattr(inner, "family", None)
        if family is not None:
            self.default_gids = [family.index(g) for g in self.factors]
        else:
            self.default_gids = list(range(len(self.factors)))

    @property
    def width(self) -> int:
        """Bits per product label: m*t cells, each a base value and a parity bit."""
        return self.m * self.t * (self.base.width + 1)

    def _draws(self, seed: int, factor_graph_ids: Sequence[int]):
        d = len(self.factors)
        b = [derive_seed(seed, "bucket", i) % self.m for i in range(d)]
        c = [
            [derive_seed(seed, "slot", i, v) % self.t for v in range(g.n)]
            for i, g in enumerate(self.factors)
        ]
        ell = [
            self.base.encode_factor(factor_graph_ids[i], derive_seed(seed, "ell", i))
            for i in range(d)
        ]
        return b, c, ell

    def encode(self, seed: int, factor_graph_ids: Sequence[int] | None = None) -> np.ndarray:
        """Grid labels for every product vertex: array (n, m*t) of cell
        words (value << 1 | parity)."""
        gids = list(factor_graph_ids) if factor_graph_ids is not None \
            else self.default_gids
        b, c, ell = self._draws(seed, gids)
        labels = np.zeros((self.n, self.m * self.t), dtype=np.int64)
        for i in range(len(self.factors)):
            cell_of = [b[i] * self.t + c[i][v] for v in range(self.factors[i].n)]
            word_of = [ell[i][v] << 1 | 1 for v in range(self.factors[i].n)]
            col = np.array([cell_of[x[i]] for x in self.coords])
            words = np.array([word_of[x[i]] for x in self.coords], dtype=np.int64)
            labels[np.arange(self.n), col] ^= words
        return labels

    def decode_raw(self, wx: np.ndarray, wy: np.ndarray) -> int:
        """The raw grid decoder: a sum that may exceed k, or BOTTOM."""
        z = (wx ^ wy).reshape(self.m, self.t)
        parity = (z & 1).astype(bool)
        per_row = parity.sum(axis=1)
        if np.any((per_row != 0) & (per_row != 2)):
            return BOTTOM
        if int(per_row.sum()) > 2 * self.k:
            return BOTTOM
        total = 0
        for row in np.nonzero(per_row == 2)[0]:
            cols = np.nonzero(parity[row])[0]
            v1 = int(z[row, cols[0]]) >> 1
            v2 = int(z[row, cols[1]]) >> 1
            d = self.base.decode(v1, v2)
            if d == BOTTOM:
                return BOTTOM
            total += d
        return total

    def decode(self, wx: np.ndarray, wy: np.ndarray) -> int:
        """Contract-level decode: {0..k} or BOTTOM."""
        out = self.decode_raw(wx, wy)
        return out if 0 <= out <= self.k else BOTTOM


def product_distance_encoder(factors: Sequence[Graph], base, k: int, seed: int,
                             m: int | None = None, t: int | None = None):
    """Build the product sketch and one sampled encoding.

    Returns (sketch, labels); labels[i] is the grid label of the product
    vertex with coordinate tuple sketch.coords[i].
    """
    sk = ProductDistanceSketch(factors, base, k, m=m, t=t)
    return sk, sk.encode(seed)


class ProductAdjacencySketch(SketchScheme):
    """Adjacency = distance-1 view of the product sketch, decode 1 iff the
    distance decoder outputs exactly 1."""

    def __init__(self, factors: Sequence[Graph]):
        base = FiniteFamilyDistanceSketch(list(dict.fromkeys(factors)), k=1)
        self._gid = [base.family.index(g) for g in factors]
        self.product = ProductDistanceSketch(factors, base, k=1)
        self.n = self.product.n
        self.width = self.product.width
        self.delta = 1 / 3

    def encode(self, seed: int) -> list[np.ndarray]:
        grid = self.product.encode(seed, factor_graph_ids=self._gid)
        return [grid[i] for i in range(self.n)]

    def decode(self, bx, by) -> int:
        return int(self.product.decode(bx, by) == 1)


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
        for row in draws:
            weight = int((np.bincount(row, minlength=u) & 1).sum())
            hits += weight <= k
    return hits / trials
