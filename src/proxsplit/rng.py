"""Counter-based deterministic random stream for benchmark generators.

The generators have to be reproducible bit-for-bit from a single integer
seed, independent of library versions and platform, so the stream is spelled
out completely here instead of delegating to a library generator:

* raw 64-bit words are SplitMix64 of ``seed + (i+1) * GOLDEN``, with the seed
  in [0, 2**64), draw counter ``i`` and ``GOLDEN = 0x9E3779B97F4A7C15``;
* a uniform in [0, 1) is ``(raw >> 11) * 2**-53``;
* standard normals come from the Box-Muller transform applied to consecutive
  uniform pairs (the cosine variate is emitted first, then the sine one);
* an index in ``range(k)`` is ``raw % k`` (the modulo bias of at most
  ``k / 2**64`` is accepted and part of the stream definition);
* sampling ``k`` distinct indices from ``range(n)`` is a partial
  Fisher-Yates shuffle consuming one index draw per selected element.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_BLOCK = 1024


def splitmix64(seed: int, counter: int) -> int:
    """The word at position ``counter``, or elementwise at uint64 ones."""
    z = (seed + (counter + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class RngStream:
    """Seedable counter-based stream; every draw advances the counter by one."""

    def __init__(self, seed: int):
        if not 0 <= int(seed) <= _MASK:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        self.seed = int(seed)
        self._i = 0
        self._block: list[int] = []  # words _i - _i % _BLOCK onward
        self._spare_normal: float | None = None

    def u64(self) -> int:
        j = self._i % _BLOCK
        if j == 0:  # the next _BLOCK words in one numpy call
            self._block = splitmix64(self.seed, np.arange(
                self._i, self._i + _BLOCK, dtype=np.uint64)).tolist()
        self._i += 1
        return self._block[j]

    def uniform(self) -> float:
        """Uniform draw in [0, 1)."""
        return (self.u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller on consecutive uniform pairs."""
        if self._spare_normal is not None:
            value = self._spare_normal
            self._spare_normal = None
            return value
        u1 = self.uniform()
        u2 = self.uniform()
        if u1 == 0.0:
            u1 = 2.0**-53
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)

    def index(self, k: int) -> int:
        """Index in range(k) via modulo reduction of one raw word."""
        if k <= 0:
            raise ValueError("k must be positive")
        return self.u64() % k

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), partial Fisher-Yates order."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        pool = list(range(n))
        out = []
        for j in range(k):
            pick = j + self.index(n - j)
            pool[j], pool[pick] = pool[pick], pool[j]
            out.append(pool[j])
        return out
