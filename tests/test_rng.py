import numpy as np
import pytest

from stvsim.rng import (
    MASK64,
    RandomStream,
    below,
    derive_seed,
    draw_matrix,
    locate,
    mix64,
    rate_bound,
    raw_words,
    seed_vector,
)

from oracles import sample_stream


def test_same_seed_same_sequence():
    a = RandomStream(123)
    b = RandomStream(123)
    assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]


def test_matches_independent_rederivation():
    seed = derive_seed(42, 7, 0)
    s = RandomStream(seed)
    assert [s.uniform() for _ in range(20)] == sample_stream(seed, 20)


def test_counter_structure_allows_skipping():
    # reading fewer draws never changes the values at a given position
    s1 = RandomStream(99)
    first_then_fifth = [s1.uniform() for _ in range(5)]
    s2 = RandomStream(99)
    assert s2.uniform() == first_then_fifth[0]


def test_seed_vector_matches_scalar_derivation():
    parts = (987654321, 4, 18)
    vec = seed_vector(parts, 100, 32)
    assert [int(x) for x in vec] == [derive_seed(*parts, i) for i in range(100, 132)]


def test_draw_matrix_matches_streams():
    seeds = seed_vector((5, 6, 7), 0, 10)
    mat = draw_matrix(seeds[:, None], np.arange(17))
    for row in range(10):
        s = RandomStream(int(seeds[row]))
        assert mat[row].tolist() == [s.uniform() for _ in range(17)]
    # the flat form: one (seed, draw index) pair per element
    flat = draw_matrix(np.repeat(seeds, 17), np.tile(np.arange(17), 10))
    assert flat.tolist() == mat.ravel().tolist()


def test_distinct_parts_give_distinct_seeds():
    seen = {derive_seed(1, p, r, i) for p in range(4) for r in range(4) for i in range(40)}
    assert len(seen) == 4 * 4 * 40


def test_uniformity_rough():
    draws = draw_matrix(seed_vector((12,), 0, 200)[:, None], np.arange(500)).ravel()
    assert abs(draws.mean() - 0.5) < 0.005
    assert (draws >= 0).all() and (draws < 1).all()


def test_randint_range_and_determinism():
    s = RandomStream(3)
    values = [s.randint(10) for _ in range(1000)]
    assert set(values) <= set(range(10))
    assert len(set(values)) == 10


def test_mix64_avalanche():
    base = mix64(0x1234_5678_9ABC_DEF0)
    flipped = mix64(0x1234_5678_9ABC_DEF1)
    assert bin(base ^ flipped).count("1") > 16


@pytest.mark.parametrize("first, stride", [(0, 1), (0, 2), (1, 2), (3, 1)])
def test_raw_words_match_streams(first, stride):
    sizes = np.array([3, 0, 5, 1, 0, 4])
    seeds = seed_vector((21, 2), 0, len(sizes))
    words = raw_words(seeds, sizes, first, stride)
    expected = []
    for seed, size in zip(seeds.tolist(), sizes.tolist()):
        stream = RandomStream(seed)
        draws = [stream.next_raw() for _ in range(first + stride * size)]
        expected += draws[first::stride][:size]
    assert words.dtype == np.uint64
    assert words.tolist() == expected
    # the raw word is the integer that mix64 returns at the draw's counter
    assert words[0] == mix64(int(seeds[0]) + (first + 1) * 0x9E3779B97F4A7C15)


def test_raw_words_of_no_streams():
    for sizes in ([], [0, 0]):
        assert raw_words(seed_vector((1,), 0, len(sizes)), np.array(sizes, dtype=np.int64), 0, 2).tolist() == []


def test_locate_reads_the_flat_layout():
    sizes = np.array([2, 0, 3, 1])
    owner, index = locate(sizes, np.arange(6))
    assert owner.tolist() == [0, 0, 2, 2, 2, 3]
    assert index.tolist() == [0, 1, 0, 1, 2, 0]
    # any subset of flat indices, read alone
    assert [a.tolist() for a in locate(sizes, np.array([0, 2, 3, 5]))] == [[0, 2, 2, 3], [0, 0, 1, 0]]


@pytest.mark.parametrize("rate", [0.0, 2.0**-53, 1e-12, 0.0025, 0.5, 1 - 2.0**-53, 1.0])
def test_rate_bound_decides_as_the_float_draw_does(rate):
    bound = rate_bound(rate)
    assert bound % (1 << 11) == 0 and 0 <= bound <= 1 << 64
    words = [w for w in (bound - 1, bound, bound + (1 << 11) - 1) if 0 <= w <= MASK64]
    assert words
    fired = below(np.array(words, dtype=np.uint64), bound)
    assert fired.tolist() == [(w >> 11) * 2.0**-53 < rate for w in words]


def test_a_rate_of_one_fires_on_every_word():
    # The bound is 2^64, one past the largest word; clipped to 2^64 - 1, it
    # would miss the word 2^64 - 1.
    assert rate_bound(1.0) == 1 << 64
    words = np.array([0, MASK64 - 1, MASK64], dtype=np.uint64)
    assert below(words, rate_bound(1.0)).all()
    assert not below(words, rate_bound(0.0)).any()
