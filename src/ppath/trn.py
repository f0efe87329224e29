"""Bit-exact .trn on-disk format for tournaments.

Layout: line 1 ``TRN 1``; line 2 the decimal vertex count; then n lines of
exactly n characters over {'0','1','-'} with '-' only on the diagonal and
char j of line i equal to '1' iff i->j. Lines end with '\n'; no trailing
whitespace anywhere.

The codec is vectorised: it maps the n x (n+1) byte grid of the body to and
from the 0/1 adjacency matrix in numpy, and checks orientation once per load.
Neither step takes a strided transpose of the n x n matrix. The decode
subtracts '0' from every cell, then checks only that each off-diagonal cell
is 0 or 1 and each diagonal byte is '-'; a body that fails goes to a per-cell
classifier, which names the first bad cell. The orientation check adds the
matrix to its transpose copied in slabs of rows
(``tournament._first_misoriented``).

Defects raise MalformedHeader (first or count line), NonSquareMatrix (row
count, row length, final newline), BadDiagonal ('-' off the diagonal or a
digit on it), TrnError (any other character) or OrientationViolation (a pair
oriented both ways or neither way); of several defects, any may be reported.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .tournament import (
    Tournament,
    _first_misoriented,
    _matrix_to_rows,
    _rows_to_matrix,
    _unchecked,
)

_HEADER = b"TRN 1"

# Cell byte -> code: '0' -> 0, '1' -> 1, '-' -> 2, anything else -> 3.
_CELL = np.full(256, 3, dtype=np.uint8)
_CELL[[ord("0"), ord("1"), ord("-")]] = [0, 1, 2]
# Diagonal cell code -> fault code: '-' is fine (0), a digit is 4.
_DIAGONAL = np.array([4, 4, 0, 3], dtype=np.uint8)


class TrnError(ValueError):
    """Base class for .trn parse failures."""


class MalformedHeader(TrnError):
    pass


class NonSquareMatrix(TrnError):
    pass


class OrientationViolation(TrnError):
    pass


class BadDiagonal(TrnError):
    pass


def write_trn(t: Tournament) -> bytes:
    grid = np.full((t.n, t.n + 1), ord("\n"), dtype=np.uint8)
    grid[:, : t.n] = _rows_to_matrix(t.rows) + ord("0")
    np.fill_diagonal(grid, ord("-"))
    return b"%s\n%d\n" % (_HEADER, t.n) + grid.tobytes()


def read_trn(data: bytes) -> Tournament:
    second = data.find(b"\n", len(_HEADER) + 1)
    if not data.startswith(_HEADER + b"\n") or second < 0:
        raise MalformedHeader("first line must be 'TRN 1'")
    count = data[len(_HEADER) + 1 : second]
    try:
        n = int(count)
    except ValueError:
        raise MalformedHeader(f"bad vertex count line: {count!r}") from None
    if n < 1:
        raise MalformedHeader("vertex count must be >= 1")
    body = second + 1
    if data.count(b"\n", body) != n or not data.endswith(b"\n"):
        raise NonSquareMatrix(f"expected exactly {n} matrix rows plus final newline")
    if len(data) - body != n * (n + 1) or data[body + n :: n + 1] != b"\n" * n:
        lines = data[body:].split(b"\n")
        i = next(i for i, line in enumerate(lines) if len(line) != n)
        raise NonSquareMatrix(f"row {i} has {len(lines[i])} chars, expected {n}")
    grid = np.frombuffer(data, np.uint8, offset=body).reshape(n, n + 1)
    mat = grid[:, :n] - ord("0")
    np.fill_diagonal(mat, 0)
    if mat.max() > 1 or not (grid.diagonal() == ord("-")).all():
        # Some cell is invalid: classify them all to name the first.
        mat = _CELL[grid[:, :n]]
        np.fill_diagonal(mat, _DIAGONAL[mat.diagonal()])
        i, j = divmod(int(np.argmax(mat > 1)), n)
        if mat[i, j] == 2:
            raise BadDiagonal(f"'-' off the diagonal at ({i},{j})")
        if mat[i, j] == 4:
            raise BadDiagonal(f"diagonal ({i},{i}) must be '-'")
        raise TrnError(f"invalid character {chr(grid[i, j])!r} at ({i},{j})")
    bad = _first_misoriented(mat)
    if bad is not None:
        way = "both ways" if mat[bad] else "neither way"
        raise OrientationViolation(f"pair ({bad[0]},{bad[1]}) oriented {way}")
    return _unchecked(_matrix_to_rows(mat))


def load_trn(path: str | Path) -> Tournament:
    return read_trn(Path(path).read_bytes())


def save_trn(t: Tournament, path: str | Path) -> None:
    Path(path).write_bytes(write_trn(t))
