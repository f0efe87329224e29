import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppath.rng import Rng, derive_seed, splitmix64, stream_word


def test_stream_word_matches_sequential_stream():
    rng = Rng(12345)
    seq = [rng.next_u64() for _ in range(20)]
    assert seq == [stream_word(12345, w) for w in range(20)]


def test_derive_seed_distinguishes_labels():
    s = derive_seed(7, "alpha")
    assert s != derive_seed(7, "beta")
    assert s != derive_seed(8, "alpha")
    assert s == derive_seed(7, "alpha")


def test_splitmix_is_pure():
    assert splitmix64(0) == splitmix64(0)
    assert splitmix64(1) != splitmix64(2)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_randrange_in_bounds(seed, bound):
    rng = Rng(seed)
    for _ in range(10):
        assert 0 <= rng.randrange(bound) < bound


def test_randrange_takes_two_to_the_64():
    # Every word is accepted, so the draw is the word itself.
    assert Rng(1).randrange(2**64) == Rng(1).next_u64()


@pytest.mark.parametrize("bound", [2**64 + 1, 2**65, 3 * 2**64])
def test_randrange_refuses_bounds_above_two_to_the_64(bound):
    # A draw that accepts no word never returns, so it runs on a thread
    # joined with a timeout: a hang fails the test rather than the suite.
    raised = []

    def draw():
        try:
            Rng(1).randrange(bound)
        except ValueError as exc:
            raised.append(str(exc))

    worker = threading.Thread(target=draw, daemon=True)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    assert raised == ["randrange bound must be at most 2^64"]


def test_state_roundtrip():
    rng = Rng(11)
    rng.next_u64()
    saved = rng.getstate()
    a = [rng.next_u64() for _ in range(5)]
    # The state is the seed of a stream that goes on from that position.
    rng = Rng(saved)
    assert a == [rng.next_u64() for _ in range(5)]
