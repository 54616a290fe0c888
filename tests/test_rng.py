"""The stream definition is the contract; re-derive it independently here."""

import math
import warnings

import numpy as np
import pytest

from conftest import ReferenceStream, reference_lasso, reference_word
from proxsplit import rng
from proxsplit.bench import LassoSpec, gen_lasso
from proxsplit.rng import RngStream, splitmix64


def test_words_match_reference():
    for seed in (0, 1, 42, 2**63):
        for i in range(8):
            assert splitmix64(seed, i) == reference_word(seed, i)


def test_uniform_is_53_bit_fraction():
    words = RngStream(7).words(1000)
    assert words.dtype == np.uint64
    assert words[:4].tolist() == [reference_word(7, i) for i in range(4)]
    u = rng.uniforms(words)
    assert u[:4].tolist() == [(reference_word(7, i) >> 11) * 2.0**-53
                              for i in range(4)]
    assert np.all((0.0 <= u) & (u < 1.0))


def test_normal_is_box_muller_pair():
    u1 = (splitmix64(3, 0) >> 11) * 2.0**-53
    u2 = (splitmix64(3, 1) >> 11) * 2.0**-53
    r = math.sqrt(-2.0 * math.log(u1))
    assert rng.normals(RngStream(3).words(2)).tolist() == [
        r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    # a first word below 2**11 is a zero uniform, which counts as 2**-53
    r = math.sqrt(-2.0 * math.log(2.0**-53))
    zero_first = np.array([2**11 - 1, splitmix64(3, 1)], dtype=np.uint64)
    assert rng.normals(zero_first).tolist() == [
        r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]


def test_sample_distinct_and_deterministic():
    a = rng.samples(RngStream(11).words(10).reshape(1, 10), 50)
    b = rng.samples(RngStream(11).words(10).reshape(1, 10), 50)
    assert a.tolist() == b.tolist() == [ReferenceStream(11).sample(50, 10)]
    assert len(set(a[0])) == 10
    assert np.all((0 <= a) & (a < 50))


def test_counter_based_no_global_state():
    s1 = RngStream(5)
    s2 = RngStream(5)
    seq1 = rng.uniforms(s1.words(10)).tolist()
    _ = s2.words(3)  # interleaved consumer
    s3 = RngStream(5)
    head = s3.words(4)  # a split draw continues where the last one ended
    assert rng.uniforms(np.r_[head, s3.words(6)]).tolist() == seq1
    assert s1._i == s3._i == 10 and s2._i == 3


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_block_words_are_the_scalar_stream(seed):
    # 3,000 mixed draws from the reference take ~3,900 words; three normals
    # in each run of seven draws leave the spare pending across the other
    # kinds.  One block of words, read at the positions the reference used,
    # gives every draw again.
    ref = ReferenceStream(seed)
    pair_at, sample_at, index_at, uniform_at = [], [], [], []
    normals, samples, indices, uniforms = [], [], [], []
    for t in range(3000):
        kind = t % 7
        if kind in (0, 1, 2):
            if ref.spare is None:
                pair_at.append(ref.i)
            normals.append(ref.normal())
        elif kind == 3:
            index_at.append(ref.i)
            indices.append(ref.word() % (1000 + t))
        elif kind == 4:
            sample_at.append(ref.i)
            samples.append(ref.sample(9, 3))
        else:
            uniform_at.append(ref.i)
            uniforms.append(ref.uniform())
    stream = RngStream(seed)
    words = stream.words(ref.i)
    assert stream._i == ref.i
    assert words.tolist() == [reference_word(seed, i) for i in range(ref.i)]
    pairs = words[(np.array(pair_at)[:, None] + [0, 1]).ravel()]
    assert rng.normals(pairs)[:len(normals)].tolist() == normals
    assert len(normals) % 2 == 1  # the last pair's spare stays unused
    moduli = 1000 + 7 * np.arange(len(index_at), dtype=np.uint64) + 3
    assert (words[index_at] % moduli).tolist() == indices
    at = np.array(sample_at)[:, None] + np.arange(3)
    assert rng.samples(words[at], 9).tolist() == samples
    assert rng.uniforms(words[uniform_at]).tolist() == uniforms
    assert stream.words(1)[0] == splitmix64(seed, ref.i)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.5, "3", None])
def test_out_of_range_seed_is_refused(seed):
    # a fractional seed is refused, not truncated to another seed's stream;
    # a str or None is refused by name, not by the range test's TypeError
    message = (f"seed must lie in [0, 2**64), got {seed}"
               if isinstance(seed, int)
               else f"seed must be an integer >= 0, got {seed!r}")
    for make in (RngStream, lambda s: LassoSpec(seed=s)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                make(seed)
        assert str(err.value) == message


@pytest.mark.parametrize("n, m, k, seed", [
    (40, 200, 3, 2**64 - 5), (13, 11, 7, 1), (9, 4, 9, 2**63), (5, 1, 1, 0),
    (200, 300, 10, 0)])
def test_gen_lasso_with_odd_row_count_matches_reference(n, m, k, seed,
                                                        monkeypatch):
    # with k odd, every other row starts on the previous row's spare, and an
    # odd count of normals ends on a spare that is drawn and discarded
    spec = LassoSpec(n=n, m=m, nnz_per_row=k, seed=seed)
    a, b, w, ref = reference_lasso(spec)
    streams = []
    words = RngStream.words
    monkeypatch.setattr(RngStream, "words",
                        lambda self, count: streams.append(self)
                        or words(self, count))
    problem = gen_lasso(spec)
    assert [stream._i for stream in streams] == [ref.i]
    assert np.array_equal(problem.f.Q, a.T @ a)
    assert np.array_equal(problem.f.q, -(a.T @ b))
    assert np.array_equal(problem.g.w, w)
