import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stvsim.rng import (
    MASK64,
    DrawPlan,
    RandomStream,
    below,
    derive_seed,
    draw_matrix,
    mix64,
    rate_bound,
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


def every(words):
    return np.ones(len(words), dtype=bool)


@pytest.mark.parametrize("stride", [1, 2])
def test_plan_words_match_streams(stride):
    sizes = np.array([3, 0, 5, 1, 0, 4])
    seeds = seed_vector((21, 2), 0, len(sizes))
    owner, position, words = DrawPlan(sizes, stride).select(seeds, every)
    expected = []
    for seed, size in zip(seeds.tolist(), sizes.tolist()):
        stream = RandomStream(seed)
        draws = [stream.next_raw() for _ in range(stride * size)]
        expected += draws[::stride][:size]
    assert words.dtype == np.uint64 and position.dtype == np.int32
    assert words.tolist() == expected
    assert owner.tolist() == np.repeat(np.arange(len(sizes)), sizes).tolist()
    assert position.tolist() == [k for size in sizes.tolist() for k in range(size)]
    # the raw word is the integer that mix64 returns at the draw's counter
    assert words[0] == mix64(int(seeds[0]) + 0x9E3779B97F4A7C15)


def test_plan_of_no_streams():
    for sizes, bounds in (([], None), ([], [0]), ([0, 0], None), ([0, 0], [0, 1, 2])):
        plan = DrawPlan(np.array(sizes, dtype=np.int64), 2, bounds)
        assert len(plan.steps) == 0
        assert all(len(a) == 0 for a in plan.select(seed_vector((1,), 0, len(sizes)), every))


def test_plan_locates_the_flat_layout():
    plan = DrawPlan(np.array([2, 0, 3, 1]))
    owner, index = plan.locate(np.arange(6))
    assert owner.tolist() == [0, 0, 2, 2, 2, 3]
    assert index.tolist() == [0, 1, 0, 1, 2, 0]
    # any subset of flat indices, read alone
    assert [a.tolist() for a in plan.locate(np.array([0, 2, 3, 5]))] == [[0, 2, 2, 3], [0, 0, 1, 0]]


def test_a_plans_step_table_is_as_long_as_its_largest_block():
    sizes = np.array([4, 1, 2, 0, 7, 3])
    plan = DrawPlan(sizes, 2, [0, 2, 5, 5, 6])  # blocks of 5, 9, 0 and 3 words
    assert len(plan.steps) == 9
    assert plan.sizes.dtype == plan.ends.dtype == plan.bounds.dtype == np.int32
    seeds = seed_vector((8,), 0, len(sizes))
    assert [a.tolist() for a in plan.select(seeds, every)] == [a.tolist() for a in DrawPlan(sizes, 2).select(seeds, every)]


def greedy_blocks(sizes: list[int], budget: int) -> list[int]:
    """Block bounds of consecutive streams with at most ``budget`` words, or one stream."""
    bounds, used = [0], 0
    for i, size in enumerate(sizes):
        if used and used + size > budget:
            bounds.append(i)
            used = 0
        used += size
    return bounds + [len(sizes)]


@st.composite
def ragged_streams(draw):
    """Word counts with zeros among them, a stride, one random seed per stream and a block budget."""
    sizes = draw(st.lists(st.integers(0, 30), max_size=10))
    seeds = draw(st.lists(st.integers(0, MASK64), min_size=len(sizes), max_size=len(sizes)))
    stride, budget = draw(st.sampled_from([1, 2])), draw(st.integers(16, 80))
    return np.array(sizes, dtype=np.int64), stride, np.array(seeds, dtype=np.uint64), budget


WORD_BOUNDS = st.integers(0, 1 << 64)


@settings(max_examples=200, deadline=None)
@given(ragged_streams(), WORD_BOUNDS, WORD_BOUNDS)
def test_a_plan_keeps_what_a_scalar_scan_of_the_streams_keeps(streams, low, high):
    # Kept words: below a bound, below 0 (none), below 2^64 (rate 1: all),
    # and outside a two-sided window [low, high), which keeps all when empty.
    sizes, stride, seeds, budget = streams
    scalar = []  # (stream, position, word), from RandomStream alone
    for i, (seed, size) in enumerate(zip(seeds.tolist(), sizes.tolist())):
        stream = RandomStream(seed)
        for k, word in enumerate([stream.next_raw() for _ in range(stride * size)][::stride]):
            scalar.append((i, k, word))
    bounds = greedy_blocks(sizes.tolist(), budget)
    plan, whole = DrawPlan(sizes, stride, bounds), DrawPlan(sizes, stride)
    assert len(plan.steps) <= max(budget, *sizes.tolist(), 0)
    keeps = {
        "below low": (lambda w: w < low, lambda words: below(words, low)),
        "none": (lambda w: w < 0, lambda words: below(words, 0)),
        "all": (lambda w: w < 1 << 64, lambda words: below(words, 1 << 64)),
        "outside window": (lambda w: w < low or w >= high, lambda words: below(words, low) | ~below(words, high)),
    }
    for name, (keep, mask) in keeps.items():
        expected = [(i, k, word) for i, k, word in scalar if keep(word)]
        for one in (plan, whole):
            kept = list(zip(*(a.tolist() for a in one.select(seeds, mask))))
            assert kept == expected, (name, one is plan)
    if low >= high:
        assert len(plan.select(seeds, keeps["outside window"][1])[2]) == len(scalar)


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
