"""Deterministic randomness derivation.

Every randomized component takes a single master seed and derives
independent streams from (seed, purpose-tag, ...ids), so experiments are
reproducible and no generator state is shared.  There are two derivations:

* `derive_seed` / `rng_for` hash the sequence with blake2b; tags may be
  strings or tuples.  Graph generators, derandomization attempts, the
  Hamming spread check and the tests use them.
* `counter_hash` is splitmix64 over 64-bit words and evaluates whole numpy
  arrays of ids at once.  Every sketch encoder (hashed codes, Bloom
  buckets, boost copies, a product sketch's buckets, slots and factor
  seeds) and `evaluate_error`'s per-trial pair and encoding draws use it,
  which is what lets a block of trials be sampled, encoded and decoded as
  arrays.
"""

import hashlib
import random

import numpy as np

_MASK64 = (1 << 64) - 1

# splitmix64 (Steele, Lea & Flood, OOPSLA 2014): the golden-ratio increment
# and the two multipliers of its output mix
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def derive_seed(master: int, *tags) -> int:
    """Derive a 64-bit sub-seed from a master seed and a tag sequence.

    Tags may be ints, strings or tuples thereof; the encoding is
    injective so distinct tag sequences give independent streams.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master) & _MASK64).encode())
    for t in tags:
        h.update(b"\x1f")
        h.update(repr(t).encode())
    return int.from_bytes(h.digest(), "big")


def rng_for(master: int, *tags) -> random.Random:
    """A `random.Random` seeded from the derived stream (seed, *tags)."""
    return random.Random(derive_seed(master, *tags))


def _word(x) -> np.ndarray:
    """x as uint64: a Python int masked to 64 bits, an integer array wrapped."""
    if isinstance(x, int):
        return np.uint64(x & _MASK64)
    return np.asarray(x).astype(np.uint64, copy=False)


def _mix(z):
    # explicit ufuncs: they wrap silently where scalar operators warn
    z = np.multiply(z ^ (z >> np.uint64(30)), _M1)
    z = np.multiply(z ^ (z >> np.uint64(27)), _M2)
    return z ^ (z >> np.uint64(31))


def counter_hash(seed, tag: int, *ids):
    """splitmix64 of the words (seed, tag, *ids), as numpy uint64.

    The state starts at the seed masked to 64 bits and absorbs each word w
    as state <- mix((state + gamma) xor w); each step is a bijection of w, so
    distinct last words give distinct outputs.  `seed` and `ids` may be ints
    or integer arrays, which broadcast together; `tag` is a constant that
    keeps the purposes apart.
    """
    h = _word(seed)
    for w in (tag, *ids):
        h = _mix(np.add(h, _GAMMA) ^ _word(w))
    return h
