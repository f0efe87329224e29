"""Bounds on the memory the n x n layers allocate, traced by tracemalloc.

At n = 1024 the traced peak of one call, its result included, is about
1.3 n^2 bytes for ``random_tournament``, 1.6 n^2 for ``read_trn`` (not
counting its input) and 2.1 n^2 for ``write_trn``, whose result alone is
n^2. The byte-matrix codec they replaced peaked at 3.6, 3.0 and 3.0 n^2: a
new full-size temporary fails the bound. The manifest's input hash reads its
file in 256 KiB chunks, about 0.25 n^2 here; reading the whole file was 1.0
n^2.
"""

import hashlib
import tracemalloc

import pytest

from ppath.cli import _sha256
from ppath.tournament import random_tournament
from ppath.trn import read_trn, write_trn

N = 1024
BOUND = 2.5 * N * N
T = random_tournament(N, 5)
DATA = bytes(write_trn(T))
LAYERS = {
    "random_tournament": (lambda: random_tournament(N, 5), T),
    "read_trn": (lambda: read_trn(DATA), T),
    "write_trn": (lambda: write_trn(T), DATA),
}


def traced_peak(call):
    """``call()``'s result and the traced peak of a second call."""
    call()  # first-call allocations, such as caches, are not counted
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("layer", list(LAYERS))
def test_peak_is_a_small_multiple_of_n_squared(layer):
    call, expected = LAYERS[layer]
    result, peak = traced_peak(call)
    assert result == expected
    assert peak <= BOUND, f"{layer}: traced peak {peak / N**2:.2f} n^2 bytes"


def test_input_hash_streams_its_file(tmp_path):
    path = tmp_path / "t.trn"
    path.write_bytes(DATA)
    digest, peak = traced_peak(lambda: _sha256(str(path)))
    assert digest == hashlib.sha256(DATA).hexdigest()
    assert peak <= 0.5 * N * N, f"traced peak {peak / N**2:.2f} n^2 bytes"
