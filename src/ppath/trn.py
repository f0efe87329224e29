"""Bit-exact .trn on-disk format for tournaments.

Layout: line 1 ``TRN 1``; line 2 the decimal vertex count, with no sign,
spaces or leading zeros; then n lines of exactly n characters over
{'0','1','-'} with '-' only on the diagonal and char j of line i equal to
'1' iff i->j. Lines end with '\n'; no trailing whitespace anywhere.

The codec is vectorised: it maps the n x (n+1) byte grid of the body to and
from packed rows (``tournament._rows_to_packed``) in numpy. ``write_trn``
fills the header and the grid into one buffer and returns it. ``read_trn``
first checks the body's length, its newline column and its diagonal by
strided slices, subtracts '0' from every cell, and checks that each
off-diagonal cell is then 0 or 1; the cells pack straight into rows, and
orientation is checked once, on the packed rows and their bit transpose
(``tournament._first_misoriented``). A body that fails the fast checks goes
to the checks that name its first defect: the newline count, the row
lengths, then a per-cell classifier.

A defect raises ValueError, whose message names it: the first or count
line, the row count, a row's length or the final newline, '-' off the
diagonal or a digit on it, any other character, or a pair oriented both ways
or neither way; of several defects, any may be reported.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path

import numpy as np

from .tournament import (
    Tournament,
    _first_misoriented,
    _packed_to_rows,
    _rows_to_packed,
    _unchecked,
)

_HEADER = b"TRN 1"

# Cell byte -> code: '0' -> 0, '1' -> 1, '-' -> 2, anything else -> 3.
_CELL = np.full(256, 3, dtype=np.uint8)
_CELL[[ord("0"), ord("1"), ord("-")]] = [0, 1, 2]
# Diagonal cell code -> fault code: '-' is fine (0), a digit is 4.
_DIAGONAL = np.array([4, 4, 0, 3], dtype=np.uint8)


def write_trn(t: Tournament) -> bytearray:
    """The .trn bytes of ``t``, in the one buffer they are written into."""
    n = t.n
    head = b"%s\n%d\n" % (_HEADER, n)
    out = bytearray(len(head) + n * (n + 1))
    out[: len(head)] = head
    grid = np.frombuffer(out, np.uint8, offset=len(head)).reshape(n, n + 1)
    bits = np.unpackbits(_rows_to_packed(t.rows), axis=1, count=n, bitorder="little")
    np.add(bits, ord("0"), out=grid[:, :n])
    grid[:, n] = ord("\n")
    grid.reshape(-1)[:: n + 2] = ord("-")
    return out


def read_trn(data: bytes) -> Tournament:
    second = data.find(b"\n", len(_HEADER) + 1)
    if not data.startswith(_HEADER + b"\n") or second < 0:
        raise ValueError("first line must be 'TRN 1'")
    count = data[len(_HEADER) + 1 : second]
    try:
        n = int(count)
        # Only what write_trn writes: int() also takes '+', spaces,
        # underscores and leading zeros.
        if count != b"%d" % n:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad vertex count line: {count!r}") from None
    if n < 1:
        raise ValueError("vertex count must be >= 1")
    body = second + 1
    if (
        len(data) - body == n * (n + 1)
        and data[body + n :: n + 1] == b"\n" * n
        and data[body :: n + 2] == b"-" * n
    ):
        grid = np.frombuffer(data, np.uint8, offset=body).reshape(n, n + 1)
        mat = grid[:, :n] - ord("0")
        mat.reshape(-1)[:: n + 1] = 0
        if mat.max() <= 1:
            packed = np.packbits(mat, axis=1, bitorder="little")
            bad = _first_misoriented(packed)
            if bad is None:
                return _unchecked(_packed_to_rows(packed))
            way = "both ways" if mat[bad] else "neither way"
            raise ValueError(f"pair ({bad[0]},{bad[1]}) oriented {way}")
    raise _body_defect(data, body, n)


def _body_defect(data: bytes, body: int, n: int) -> ValueError:
    """The first defect of a body that failed the fast checks of ``read_trn``."""
    if data.count(b"\n", body) != n or not data.endswith(b"\n"):
        return ValueError(f"expected exactly {n} matrix rows plus final newline")
    if len(data) - body != n * (n + 1) or data[body + n :: n + 1] != b"\n" * n:
        lines = data[body:].split(b"\n")
        i = next(i for i, line in enumerate(lines) if len(line) != n)
        return ValueError(f"row {i} has {len(lines[i])} chars, expected {n}")
    # Some cell is invalid: classify them all to name the first.
    grid = np.frombuffer(data, np.uint8, offset=body).reshape(n, n + 1)
    codes = _CELL[grid[:, :n]]
    np.fill_diagonal(codes, _DIAGONAL[codes.diagonal()])
    i, j = divmod(int(np.argmax(codes > 1)), n)
    if codes[i, j] == 2:
        return ValueError(f"'-' off the diagonal at ({i},{j})")
    if codes[i, j] == 4:
        return ValueError(f"diagonal ({i},{i}) must be '-'")
    return ValueError(f"invalid character {chr(grid[i, j])!r} at ({i},{j})")


def load_trn(path: str | Path) -> Tournament:
    return read_trn(Path(path).read_bytes())


def save_trn(t: Tournament, path: str | Path) -> None:
    write_file(path, write_trn(t))


def write_file(path: str | Path, data: bytes) -> None:
    """Write ``data`` over the old bytes of any file at ``path``, then cut a
    regular file (not a FIFO or ``/dev/null``) to ``len(data)``. On ext4 with
    ``auto_da_alloc``, the close of a file truncated to zero starts writeback."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
