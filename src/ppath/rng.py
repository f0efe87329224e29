"""Deterministic pseudo-randomness built on SplitMix64.

Every stochastic component in the package takes an explicit 64-bit seed and
derives independent sub-streams by label, so adding a consumer never perturbs
existing streams. Indexed draws are counter-based: `stream_word(base, w)` is
the w-th output of the stream seeded at `base`, computable in any order.
"""

from __future__ import annotations

from typing import Sequence

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def splitmix64(x: int) -> int:
    """One SplitMix64 step: advance x by the golden gamma and mix."""
    z = (x + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_word(base: int, index: int) -> int:
    """w-th output of Rng(base), without materializing the stream."""
    return splitmix64((base + index * _GAMMA) & _MASK)


def _label_value(label: int | str) -> int:
    if isinstance(label, str):
        h = _FNV_OFFSET
        for byte in label.encode("utf-8"):
            h = ((h ^ byte) * _FNV_PRIME) & _MASK
        return h
    return label & _MASK


def derive_seed(seed: int, *labels: int | str) -> int:
    """Derive an independent sub-stream seed from a base seed and labels."""
    s = splitmix64(seed & _MASK)
    for label in labels:
        s = splitmix64(s ^ _label_value(label))
    return s


class Rng:
    """Sequential SplitMix64 stream with the draw helpers the package needs.

    State is a single 64-bit integer, exposed via getstate so a stream's
    position can be read and compared exactly; ``Rng(getstate())`` is a
    stream that goes on from that position.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def getstate(self) -> int:
        return self._state

    def next_u64(self) -> int:
        z = splitmix64(self._state)
        self._state = (self._state + _GAMMA) & _MASK
        return z

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        # Above 2^64 the span below is 0 and no word would ever be accepted.
        if n > 1 << 64:
            raise ValueError("randrange bound must be at most 2^64")
        span = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < span:
                return u % n

    def random(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def choice(self, xs: Sequence):
        return xs[self.randrange(len(xs))]
