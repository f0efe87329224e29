"""Tournament representation and generators.

A tournament on n vertices is stored as n row bitsets: bit j of ``rows[i]``
is 1 exactly when the edge i->j is present. Vertex labels are 0-based.
Tournaments are immutable; every operation here is a pure function of its
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .rng import derive_seed


def _rows_to_packed(rows: tuple[int, ...]) -> np.ndarray:
    """Packed rows: an n x ceil(n/8) uint8 array whose row i is
    ``rows[i].to_bytes(ceil(n/8), "little")``, so bit j of ``rows[i]``
    (< 2**n) is bit j % 8 of byte j // 8."""
    n = len(rows)
    nbytes = (n + 7) // 8
    return np.frombuffer(
        b"".join(r.to_bytes(nbytes, "little") for r in rows), dtype=np.uint8
    ).reshape(n, nbytes)


def _packed_to_rows(packed: np.ndarray) -> tuple[int, ...]:
    """Row bitsets of packed rows; inverse of ``_rows_to_packed``."""
    nbytes = packed.shape[1]
    buf = packed.tobytes()
    from_bytes = int.from_bytes
    return tuple([from_bytes(buf[i : i + nbytes], "little") for i in range(0, len(buf), nbytes)])


# (shift, mask, 1 + 2**shift) of the three rounds that transpose an 8 x 8 bit
# block held in a uint64 whose byte r is row r (Hacker's Delight, 7-3). A
# round swaps each masked bit with the bit ``shift`` above it: the 1 x 1, then
# 2 x 2, then 4 x 4 corners off the diagonal. The masked bits and the bits
# ``shift`` above them never overlap, so one product puts the swap's
# difference in both places. Constants here are 0-d arrays: a ufunc converts
# a Python int operand anew on every call.
_ROUNDS = tuple(
    (np.array(s, np.uint64), np.array(m, np.uint64), np.array(1 + (1 << s), np.uint64))
    for s, m in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
)


def _bit_transpose(packed: np.ndarray) -> np.ndarray:
    """Packed rows of the transpose of the n x n bit matrix ``packed``:
    block (R, C) of it is block (C, R) of ``packed``, transposed."""
    n, nbytes = packed.shape
    # The 8 x 8 bit blocks, each one uint64: x[R, C, 0] holds byte C of rows
    # 8R..8R+7, row 8R + r in byte r, the rows padded with zero rows to whole
    # 8-row slabs.
    slabs = np.zeros((nbytes, 8, nbytes), np.uint8)
    slabs.reshape(-1, nbytes)[:n] = packed
    x = slabs.transpose(0, 2, 1).copy().view("<u8")
    for shift, mask, spread in _ROUNDS:
        x = x ^ ((x >> shift ^ x) & mask) * spread
    # The bytes of x[C, R] are bytes C of the transpose's rows 8R..8R+7.
    x = x.astype("<u8", copy=False).view(np.uint8)
    return np.ascontiguousarray(x.transpose(1, 2, 0)).reshape(-1, nbytes)[:n]


def _first_misoriented(packed: np.ndarray) -> Optional[tuple[int, int]]:
    """Lex-first pair (i, j), i < j, not oriented exactly once, or None.

    ``packed`` holds the rows as ``_rows_to_packed`` does, with no bit at
    column n or past it. A pair is oriented exactly once when its bit is set
    in just one of the matrix and its transpose, so their XOR, always 0 on
    the diagonal, must have its n (n - 1) other bits set; only when the count
    falls short are the pairs unpacked to find the first bad one.
    """
    n = len(packed)
    once = _bit_transpose(packed) ^ packed
    if int.from_bytes(once.tobytes(), "little").bit_count() == n * (n - 1):
        return None
    bad = np.unpackbits(once, axis=1, count=n, bitorder="little") == 0
    np.fill_diagonal(bad, False)
    # bad is symmetric, so its first flagged cell lies above the diagonal.
    return divmod(int(np.argmax(bad)), n)


def _validate_rows(rows: tuple[int, ...]) -> None:
    n = len(rows)
    if n < 1:
        raise ValueError("tournament needs at least one vertex")
    for i, r in enumerate(rows):
        if r < 0 or r >> n:
            raise ValueError(f"row {i} has bits outside 0..{n - 1}")
        if (r >> i) & 1:
            raise ValueError(f"self-loop at vertex {i}")
    bad = _first_misoriented(_rows_to_packed(rows))
    if bad is not None:
        raise ValueError(f"pair ({bad[0]},{bad[1]}) is not oriented exactly once")


@dataclass(frozen=True)
class Tournament:
    """Complete oriented graph; ``rows[i]`` holds the out-neighborhood of i.

    ``Tournament(rows)`` takes any iterable of row bitsets, stores them as a
    tuple and validates them; n is their number.
    """

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        _validate_rows(rows)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def out_degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def reverse(self) -> "Tournament":
        full = self.full_mask
        return _unchecked(tuple(full & ~r & ~(1 << i) for i, r in enumerate(self.rows)))


def _unchecked(rows: tuple[int, ...]) -> Tournament:
    """Construct without invariant validation; callers guarantee correctness."""
    t = object.__new__(Tournament)
    object.__setattr__(t, "rows", rows)
    return t


def transitive(n: int) -> Tournament:
    """Acyclic tournament with i -> j exactly when i < j."""
    if n < 1:
        raise ValueError("n must be >= 1")
    full = (1 << n) - 1
    return _unchecked(tuple(full ^ ((1 << (i + 1)) - 1) for i in range(n)))


def rotational(n: int, residues: Iterable[int]) -> Tournament:
    """Vertex-transitive tournament with i -> j iff (j - i) mod n in residues."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    res = {r % n for r in residues}
    if 0 in res:
        raise ValueError("residues must be nonzero mod n")
    if len(res) != (n - 1) // 2:
        raise ValueError(f"need exactly {(n - 1) // 2} distinct residues")
    for d in res:
        if (n - d) in res:
            raise ValueError(f"residues contain both {d} and {n - d}")
    # Row i is row 0 rotated left by i within n bits.
    row = sum(1 << d for d in res)
    full = (1 << n) - 1
    return _unchecked(tuple((row << i | row >> (n - i)) & full for i in range(n)))


# SplitMix64 in numpy: the golden gamma, then (shift, multiplier) of the mix
# rounds, the last one unmultiplied (see ``rng.splitmix64``).
_GAMMA = np.array(0x9E3779B97F4A7C15, np.uint64)
_MIX = tuple(
    (np.array(s, np.uint64), np.array(m, np.uint64))
    for s, m in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
)
_LAST = np.array(31, np.uint64)
_ALL = np.array(2**64 - 1, np.uint64)
_ONE = np.array(1, np.uint64)
_63 = np.array(63, np.uint64)


def _reads(n: int, ones: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(at, low, high) for the 2n rows ``random_tournament`` reads at n
    vertices, with its all-ones run from word ``ones`` on: row r is the
    words from byte ``at[r]`` on, shifted down ``low[r]`` bits, and
    ``high[r]`` is 63 - low[r]. Row i < n is the upper triangle's, from bit
    i (2n - 3 - i) / 2 + 63 on; row n + i is its mask, from 1 + i bits
    before the all-ones run."""
    i = np.arange(n, dtype=np.uint64)
    # max(.., 0) keeps the factor unsigned at n = 1, where i is only 0.
    start = np.concatenate(((max(2 * n - 3, 0) - i) * i // 2 + 63, 64 * ones - 1 - i))
    low = (start & 7)[:, None]
    return start >> 3, low, _63 - low


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniform random tournament; bit for pair p is independent of draw order.

    The orientation of the p-th unordered pair (pairs (i,j), i<j, in
    lexicographic order) is bit p%64 of the stream word floor(p/64) of the
    stream derived from (seed, n), i -> j when the bit is set; numpy computes
    all the ``rng.stream_word`` words at once. Same (n, seed) always yields
    the identical matrix.

    Everything is built in packed rows. Row i of the upper triangle U is the
    stream from its bit i (2n - 3 - i) / 2 - 1 on, kept where i < j < n. The
    mask S of the bits j > i is read the same way, across the edge of a run
    of zero words into a run of all-ones words (``_reads``). Each row is
    gathered a whole word at a time and shifted into place. The lower
    triangle is (S ^ U) transposed, so the rows are U ^ transpose(S ^ U).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base = derive_seed(seed, "tournament", n)
    nwords = (n * (n - 1) // 2 + 63) // 64
    z = np.arange(1, nwords + 1, dtype=np.uint64) * _GAMMA + base
    for shift, mult in _MIX:
        z = (z ^ z >> shift) * mult
    nbytes = (n + 7) // 8
    # A row's window: the words that cover its nbytes bytes, plus the word
    # that a shift of up to 7 bits reads from.
    wide = (nbytes + 15) // 8
    # One zero word, so row 0 may start a bit early; the stream; `wide` zero
    # words; then `wide` all-ones words from word `ones` on.
    ones = 1 + nwords + wide
    src = np.zeros(ones + wide, "<u8")
    src[1 : 1 + nwords] = z ^ z >> _LAST
    src[ones:] = _ALL
    at, low, high = _reads(n, ones)
    windows = np.ndarray((8 * ones + 1, wide), "<u8", src, 0, (1, 8))
    words = windows[at]
    # Two shifts, as a uint64 shift by 64 bits is not defined.
    bits = (words[:, 1:] << _ONE << high) | (words[:, :-1] >> low)
    bits = bits.astype("<u8", copy=False).view(np.uint8)[:, :nbytes]
    mask = bits[n:]
    upper = bits[:n] & mask
    # Clear the columns j >= n, which hold the next rows' stream bits.
    upper[:, -1] &= 0xFF >> (-n % 8)
    rows = _bit_transpose(upper ^ mask)
    rows ^= upper
    return _unchecked(_packed_to_rows(rows))

