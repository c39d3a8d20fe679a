"""Unit and property tests for deterministic RNG streams."""

from hypothesis import given, strategies as st

from repro.sim.rng import RngStreams, derive_seed, exponential, lognormal_from_median_sigma


def test_same_name_same_stream():
    streams = RngStreams(7)
    a = streams.py("arrivals")
    b = streams.py("arrivals")
    assert a is b


def test_streams_reproducible_across_instances():
    first = [RngStreams(3).py("x").random() for _ in range(5)]
    second = [RngStreams(3).py("x").random() for _ in range(5)]
    assert first == second


def test_different_names_give_different_sequences():
    streams = RngStreams(0)
    xs = [streams.py("a").random() for _ in range(8)]
    ys = [streams.py("b").random() for _ in range(8)]
    assert xs != ys


def test_different_master_seeds_differ():
    xs = [RngStreams(1).py("s").random() for _ in range(8)]
    ys = [RngStreams(2).py("s").random() for _ in range(8)]
    assert xs != ys


def test_spawn_is_independent_of_parent_use():
    parent = RngStreams(5)
    child_a = parent.spawn("leaf")
    parent.py("noise").random()  # consuming parent streams must not matter
    child_b = RngStreams(5).spawn("leaf")
    assert child_a.py("q").random() == child_b.py("q").random()


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=40))
def test_derive_seed_stable_and_in_range(seed, name):
    value = derive_seed(seed, name)
    assert value == derive_seed(seed, name)
    assert 0 <= value < 2**64


@given(st.floats(min_value=0.001, max_value=1e6))
def test_exponential_nonnegative(mean):
    rng = RngStreams(0).py("exp")
    assert exponential(rng, mean) >= 0.0


def test_exponential_zero_mean_returns_zero():
    rng = RngStreams(0).py("exp")
    assert exponential(rng, 0.0) == 0.0


def test_exponential_mean_roughly_matches():
    rng = RngStreams(42).py("exp")
    samples = [exponential(rng, 100.0) for _ in range(20000)]
    mean = sum(samples) / len(samples)
    assert 95.0 < mean < 105.0


def test_lognormal_median_roughly_matches():
    rng = RngStreams(42).py("ln")
    samples = sorted(lognormal_from_median_sigma(rng, 10.0, 0.5) for _ in range(20001))
    median = samples[len(samples) // 2]
    assert 9.0 < median < 11.0


def test_lognormal_zero_median_returns_zero():
    rng = RngStreams(0).py("ln")
    assert lognormal_from_median_sigma(rng, 0.0, 1.0) == 0.0
