"""The stream definition is the contract; re-derive it independently here."""

import math

import numpy as np
import pytest

from proxsplit import rng
from proxsplit.bench import LassoSpec, gen_lasso
from proxsplit.rng import RngStream, splitmix64

MASK = (1 << 64) - 1


def reference_word(seed: int, counter: int) -> int:
    # independent transcription of the documented mixing constants
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_words_match_reference():
    for seed in (0, 1, 42, 2**63):
        for i in range(8):
            assert splitmix64(seed, i) == reference_word(seed, i)


def test_uniform_is_53_bit_fraction():
    stream = RngStream(7)
    words = [splitmix64(7, i) for i in range(4)]
    redo = RngStream(7)
    for w in words:
        assert redo.uniform() == (w >> 11) * 2.0**-53
    for _ in range(1000):
        assert 0.0 <= stream.uniform() < 1.0


def test_normal_is_box_muller_pair():
    stream = RngStream(3)
    u1 = (splitmix64(3, 0) >> 11) * 2.0**-53
    u2 = (splitmix64(3, 1) >> 11) * 2.0**-53
    r = math.sqrt(-2.0 * math.log(u1))
    assert stream.normal() == r * math.cos(2.0 * math.pi * u2)
    assert stream.normal() == r * math.sin(2.0 * math.pi * u2)


def test_sample_distinct_and_deterministic():
    a = RngStream(11).sample(50, 10)
    b = RngStream(11).sample(50, 10)
    assert a == b
    assert len(set(a)) == 10
    assert all(0 <= idx < 50 for idx in a)


def test_counter_based_no_global_state():
    s1 = RngStream(5)
    s2 = RngStream(5)
    seq1 = [s1.uniform() for _ in range(10)]
    _ = [s2.u64() for _ in range(3)]  # interleaved consumer
    s3 = RngStream(5)
    assert [s3.uniform() for _ in range(10)] == seq1


class ReferenceStream:
    """The documented stream drawn word by word from ``reference_word``."""

    def __init__(self, seed: int):
        self.seed, self.i, self.spare = seed, 0, None

    def word(self) -> int:
        self.i += 1
        return reference_word(self.seed, self.i - 1)

    def uniform(self) -> float:
        return (self.word() >> 11) * 2.0**-53

    def normal(self) -> float:
        if self.spare is not None:
            value, self.spare = self.spare, None
            return value
        u1, u2 = self.uniform(), self.uniform()
        r = math.sqrt(-2.0 * math.log(u1 if u1 != 0.0 else 2.0**-53))
        self.spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def sample(self, n: int, k: int) -> list[int]:
        pool = list(range(n))
        for j in range(k):
            pick = j + self.word() % (n - j)
            pool[j], pool[pick] = pool[pick], pool[j]
        return pool[:k]


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_block_words_are_the_scalar_stream(seed):
    # 3,000 mixed draws take ~3,900 words, crossing three blocks; an odd
    # number of normals leaves the spare pending across draws of other kinds
    stream, ref = RngStream(seed), ReferenceStream(seed)
    for t in range(3000):
        kind = t % 7
        if kind in (0, 1, 2):
            assert stream.normal() == ref.normal()
        elif kind == 3:
            assert stream.index(1000 + t) == ref.word() % (1000 + t)
        elif kind == 4:
            assert stream.sample(9, 3) == ref.sample(9, 3)
        else:
            assert stream.uniform() == ref.uniform()
        assert stream._i == ref.i
    assert ref.i > 3 * rng._BLOCK
    assert stream.u64() == splitmix64(seed, ref.i)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_out_of_range_seed_is_refused(seed):
    with pytest.raises(ValueError, match="seed must lie in"):
        RngStream(seed)
    with pytest.raises(ValueError, match="seed must lie in"):
        LassoSpec(seed=seed)


def test_gen_lasso_with_odd_row_count_matches_reference():
    # 3 normals per row: every other row starts on the previous row's spare
    spec = LassoSpec(n=40, m=200, nnz_per_row=3, seed=2**64 - 5)
    ref = ReferenceStream(spec.seed)
    a = np.zeros((spec.m, spec.n))
    for i in range(spec.m):
        for j in ref.sample(spec.n, spec.nnz_per_row):
            a[i, j] = ref.normal()
    b = np.array([ref.normal() for _ in range(spec.m)])
    w = np.array([ref.uniform() for _ in range(spec.n)])
    assert ref.i > rng._BLOCK
    problem = gen_lasso(spec)
    assert np.array_equal(problem.f.Q, a.T @ a)
    assert np.array_equal(problem.f.q, -(a.T @ b))
    assert np.array_equal(problem.g.w, w)
