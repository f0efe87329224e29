"""Tournament representation, generators and induced subtournaments.

A tournament on n vertices is stored as n row bitsets: bit j of ``rows[i]``
is 1 exactly when the edge i->j is present. Vertex labels are 0-based.
Tournaments and vertex sets are immutable; every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .rng import derive_seed


class InvalidSizeError(ValueError):
    """Vertex count outside the operation's domain."""


class InvalidResiduesError(ValueError):
    """Residue set is not an antisymmetric complete system mod n."""


class EmptySetError(ValueError):
    """Operation requires a nonempty vertex set."""


@dataclass(frozen=True)
class VertexSet:
    """Subset of {0..host_n-1} stored as a bitmask."""

    mask: int
    host_n: int

    def __post_init__(self) -> None:
        if self.host_n < 0 or self.mask < 0 or self.mask >> self.host_n:
            raise ValueError("vertex set not contained in host range")

    @classmethod
    def from_iterable(cls, members: Iterable[int], host_n: int) -> "VertexSet":
        mask = 0
        for v in members:
            if not 0 <= v < host_n:
                raise ValueError(f"vertex {v} outside host range 0..{host_n - 1}")
            mask |= 1 << v
        return cls(mask, host_n)

    @classmethod
    def full(cls, host_n: int) -> "VertexSet":
        return cls((1 << host_n) - 1, host_n)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            b = m & -m
            yield b.bit_length() - 1
            m ^= b

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.host_n and bool((self.mask >> v) & 1)

    def members(self) -> tuple[int, ...]:
        return tuple(self)


def _rows_to_matrix(rows: tuple[int, ...]) -> np.ndarray:
    """n x n uint8 matrix whose cell (i, j) is bit j of ``rows[i]`` (< 2**n)."""
    n = len(rows)
    nbytes = (n + 7) // 8
    buf = np.frombuffer(
        b"".join(r.to_bytes(nbytes, "little") for r in rows), dtype=np.uint8
    ).reshape(n, nbytes)
    return np.unpackbits(buf, axis=1, count=n, bitorder="little")


def _matrix_to_rows(mat: np.ndarray) -> tuple[int, ...]:
    """Row bitsets of a 0/1 n x n matrix; inverse of ``_rows_to_matrix``."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


# Rows per slab in ``_transposed``. Slabs of 32 to 128 rows all copy a
# 2048 x 2048 uint8 matrix in 4-7 ms, against 22-24 ms for a strided mat.T.
_SLAB = 64


def _transposed(mat: np.ndarray) -> np.ndarray:
    """C-ordered copy of ``mat.T``, filled ``_SLAB`` source rows at a time.

    A plain ``mat.T`` operand walks the matrix with a stride of one row per
    element; at n = 2048 that costs about 4x the slab copy.
    """
    # np.empty_like(mat.T) would keep the view's Fortran order.
    out = np.empty(mat.shape[::-1], mat.dtype)
    for i in range(0, len(mat), _SLAB):
        out[:, i : i + _SLAB] = mat[i : i + _SLAB].T
    return out


def _first_misoriented(mat: np.ndarray) -> Optional[tuple[int, int]]:
    """Lex-first pair (i, j), i < j, not oriented exactly once, or None.

    ``mat`` is a 0/1 matrix. Its blocked transpose (``_transposed``) takes
    the pair sums in place, so, as with ``mat + mat.T``, the check holds two
    n x n buffers: the sums and the flags.
    """
    sums = _transposed(mat)
    sums += mat
    bad = sums != 1
    np.fill_diagonal(bad, False)
    # bad is symmetric, so its first flagged cell lies above the diagonal.
    return divmod(int(np.argmax(bad)), len(mat)) if bad.any() else None


def _validate_rows(rows: tuple[int, ...]) -> None:
    n = len(rows)
    if n < 1:
        raise InvalidSizeError("tournament needs at least one vertex")
    for i, r in enumerate(rows):
        if r < 0 or r >> n:
            raise ValueError(f"row {i} has bits outside 0..{n - 1}")
        if (r >> i) & 1:
            raise ValueError(f"self-loop at vertex {i}")
    bad = _first_misoriented(_rows_to_matrix(rows))
    if bad is not None:
        raise ValueError(f"pair ({bad[0]},{bad[1]}) is not oriented exactly once")


@dataclass(frozen=True)
class Tournament:
    """Complete oriented graph; ``rows[i]`` holds the out-neighborhood of i."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n != len(self.rows):
            raise ValueError("row count disagrees with n")
        _validate_rows(self.rows)

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "Tournament":
        rows = tuple(rows)
        return cls(len(rows), rows)

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
    object.__setattr__(t, "n", len(rows))
    object.__setattr__(t, "rows", rows)
    return t


def transitive(n: int) -> Tournament:
    """Acyclic tournament with i -> j exactly when i < j."""
    if n < 1:
        raise InvalidSizeError("n must be >= 1")
    full = (1 << n) - 1
    return _unchecked(tuple(full ^ ((1 << (i + 1)) - 1) for i in range(n)))


def rotational(n: int, residues: Iterable[int]) -> Tournament:
    """Vertex-transitive tournament with i -> j iff (j - i) mod n in residues."""
    if n < 1 or n % 2 == 0:
        raise InvalidSizeError("n must be odd and positive")
    res = {r % n for r in residues}
    if 0 in res:
        raise InvalidResiduesError("residues must be nonzero mod n")
    if len(res) != (n - 1) // 2:
        raise InvalidResiduesError(f"need exactly {(n - 1) // 2} distinct residues")
    for d in res:
        if (n - d) in res:
            raise InvalidResiduesError(f"residues contain both {d} and {n - d}")
    rows = [0] * n
    for i in range(n):
        for d in res:
            rows[i] |= 1 << ((i + d) % n)
    return _unchecked(tuple(rows))


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniform random tournament; bit for pair p is independent of draw order.

    The orientation of the p-th unordered pair (pairs (i,j), i<j, in
    lexicographic order) is bit p%64 of the stream word floor(p/64) of the
    stream derived from (seed, n), i -> j when the bit is set; numpy computes
    all the ``rng.stream_word`` words at once. Same (n, seed) always yields
    the identical matrix. The lower triangle is the complement of the upper
    one, read through the blocked transpose ``_transposed``.
    """
    if n < 1:
        raise InvalidSizeError("n must be >= 1")
    base = derive_seed(seed, "tournament", n)
    npairs = n * (n - 1) // 2
    nwords = (npairs + 63) // 64
    gamma = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        z = np.uint64(base) + (np.arange(1, nwords + 1, dtype=np.uint64)) * gamma
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    bits = np.unpackbits(z.astype("<u8").view(np.uint8), bitorder="little")[:npairs]
    mat = np.zeros((n, n), dtype=np.uint8)
    # Row i of the upper triangle takes the next n - 1 - i pair bits.
    off = 0
    for i in range(n - 1):
        mat[i, i + 1:] = bits[off:off + n - 1 - i]
        off += n - 1 - i
    # Below the diagonal, cell (i, j) is 1 - mat[j, i]; on and above it, both
    # terms are 0. (A bool tri viewed as uint8 skips np.tri's dtype cast.)
    lower = np.tri(n, k=-1, dtype=bool).view(np.uint8)
    lower -= _transposed(mat)
    mat += lower
    return _unchecked(_matrix_to_rows(mat))


def induced(t: Tournament, s: VertexSet) -> tuple[Tournament, tuple[int, ...]]:
    """Subtournament on s with labels compressed to 0..|s|-1.

    Returns (sub, labels) where labels[new] = old; relative label order is
    preserved, so lifting a witness is ``tuple(labels[v] for v in vertices)``.
    """
    if len(s) == 0:
        raise EmptySetError("cannot induce on the empty set")
    labels = s.members()
    m = len(labels)
    rows = []
    for u in labels:
        row_u = t.rows[u]
        r = 0
        for j, v in enumerate(labels):
            r |= ((row_u >> v) & 1) << j
        rows.append(r)
    return _unchecked(tuple(rows)), labels
