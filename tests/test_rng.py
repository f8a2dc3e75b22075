import numpy as np

from stvsim.rng import RandomStream, derive_seed, draw_matrix, flat_layout, mix64, seed_vector

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


def test_flat_layout():
    owner, index = flat_layout(np.array([2, 0, 3, 1]))
    assert owner.tolist() == [0, 0, 2, 2, 2, 3]
    assert index.tolist() == [0, 1, 0, 1, 2, 0]


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
