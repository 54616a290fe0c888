"""Counter-based deterministic random stream for benchmark generators.

The generators have to be reproducible bit-for-bit from a single integer
seed, independent of library versions and platform, so the stream is spelled
out completely here instead of delegating to a library generator:

* raw 64-bit words are SplitMix64 of ``seed + (i+1) * GOLDEN``, with the seed
  in [0, 2**64), draw counter ``i`` and ``GOLDEN = 0x9E3779B97F4A7C15``;
* a uniform in [0, 1) is ``(raw >> 11) * 2**-53``;
* standard normals come from the Box-Muller transform applied to consecutive
  uniform pairs (the cosine variate first, then the sine; 0 counts as 2**-53);
* an index in ``range(k)`` is ``raw % k`` (the modulo bias of at most
  ``k / 2**64`` is accepted and part of the stream definition);
* sampling ``k`` distinct indices from ``range(n)`` is a partial
  Fisher-Yates shuffle consuming one index draw per selected element.

Any word follows from its position, so generators draw in bulk with one
:meth:`RngStream.words` call.  The transforms below keep the word-by-word bits:
numpy does only exact steps and ``log``, ``cos``, ``sin`` stay ``math``'s.
"""

from __future__ import annotations

import math

import numpy as np

from .linmetric import _count

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def splitmix64(seed: int, counter: int) -> int:
    """The word at position ``counter``, or elementwise at uint64 ones."""
    z = (seed + (counter + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class RngStream:
    """Seedable counter-based stream; ``_i`` counts the words consumed."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        _count(seed, "seed", 0)
        self.seed = int(seed)
        self._i = 0

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` raw words, as one uint64 array."""
        start, self._i = self._i, self._i + count
        return splitmix64(self.seed, np.arange(start, self._i,
                                               dtype=np.uint64))


def uniforms(words: np.ndarray) -> np.ndarray:
    """One uniform in [0, 1) per word."""
    return (words >> 11) * 2.0**-53


def normals(words: np.ndarray) -> np.ndarray:
    """Box-Muller on consecutive word pairs: cos then sin variate per pair."""
    u1 = np.maximum(uniforms(words[0::2]), 2.0**-53)  # 0 counts as 2**-53
    radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), float))
    angle = (2.0 * math.pi * uniforms(words[1::2])).tolist()
    out = np.empty(2 * len(u1))
    out[0::2] = radius * np.fromiter(map(math.cos, angle), float)
    out[1::2] = radius * np.fromiter(map(math.sin, angle), float)
    return out


def samples(words: np.ndarray, n: int) -> np.ndarray:
    """Per row, its k words pick k distinct indices of range(n), k <= n."""
    rows, k = words.shape
    picks = (words % np.arange(n, n - k, -1, dtype=np.uint64)).astype(np.intp)
    pool = np.tile(np.arange(n), (rows, 1))
    r = np.arange(rows)
    for j in range(k):
        pick = j + picks[:, j]
        pool[:, j], pool[r, pick] = pool[r, pick], pool[:, j].copy()
    return pool[:, :k].copy()  # not a view that keeps the whole pool
