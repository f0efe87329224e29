import hashlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppath.tournament import random_tournament, transitive
from ppath.trn import read_trn, write_file, write_trn


def test_exact_bytes_for_two_vertices():
    assert write_trn(transitive(2)) == b"TRN 1\n2\n-1\n0-\n"


def test_exact_bytes_for_transitive_70():
    n = 70
    rows = ["0" * i + "-" + "1" * (n - 1 - i) + "\n" for i in range(n)]
    assert write_trn(transitive(n)) == f"TRN 1\n{n}\n{''.join(rows)}".encode()


@pytest.mark.parametrize("n, digest", [
    (2047, "0afb5b6db9187d33fbab5ec1b3037b995b03e2753c12b69a8d1bc0392b135686"),
    (3000, "ba2dc4ae93c948a1d1dca84210dc2feb08e4974d898520c7ae6c45246795a185"),
])
def test_bytes_match_pinned_digest(n, digest):
    # Pinned from the codec that wrote a 0/1 byte matrix.
    data = write_trn(random_tournament(n, 5))
    assert hashlib.sha256(data).hexdigest() == digest
    assert read_trn(data).rows == random_tournament(n, 5).rows


def test_round_trip_random_50():
    for n in (50, 64, 65, 129, 1000):
        t = random_tournament(n, 7)
        assert read_trn(write_trn(t)).rows == t.rows
        assert write_trn(read_trn(write_trn(t))) == write_trn(t)


@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_round_trip_property(n, seed):
    t = random_tournament(n, seed)
    assert read_trn(write_trn(t)).rows == t.rows


def test_orientation_violation_both_ways():
    with pytest.raises(ValueError, match=r"^pair \(0,1\) oriented both ways$"):
        read_trn(b"TRN 1\n2\n-1\n1-\n")
    with pytest.raises(ValueError, match=r"^pair \(0,1\) oriented neither way$"):
        read_trn(b"TRN 1\n2\n-0\n0-\n")
    data = bytearray(write_trn(random_tournament(100, 3)))
    cell = len(b"TRN 1\n100\n") + 41 * 101 + 73
    data[cell] ^= ord("0") ^ ord("1")  # flip 41->73 only; 73->41 is untouched
    with pytest.raises(ValueError, match=r"^pair \(41,73\) oriented"):
        read_trn(bytes(data))


def test_malformed_header():
    with pytest.raises(ValueError, match="^first line must be 'TRN 1'$"):
        read_trn(b"TRN 2\n2\n-1\n0-\n")
    with pytest.raises(ValueError, match="^bad vertex count line: b'xx'$"):
        read_trn(b"TRN 1\nxx\n-1\n0-\n")
    with pytest.raises(ValueError, match="^vertex count must be >= 1$"):
        read_trn(b"TRN 1\n0\n")
    with pytest.raises(ValueError, match="^vertex count must be >= 1$"):
        read_trn(b"TRN 1\n-3\n")
    with pytest.raises(ValueError, match="^first line must be 'TRN 1'$"):
        read_trn(b"")
    # The count line is what write_trn writes, str(n), and nothing int() would
    # also take.
    for count in (b" 3", b"3 ", b"+3", b"03", b"3\r"):
        with pytest.raises(ValueError) as info:
            read_trn(b"TRN 1\n" + count + b"\n-11\n0-1\n00-\n")
        assert str(info.value) == f"bad vertex count line: {count!r}"


def test_non_square():
    row_count = "^expected exactly 2 matrix rows plus final newline$"
    with pytest.raises(ValueError, match=row_count):
        read_trn(b"TRN 1\n2\n-1\n")
    with pytest.raises(ValueError, match="^row 0 has 3 chars, expected 2$"):
        read_trn(b"TRN 1\n2\n-11\n0-\n")
    with pytest.raises(ValueError, match=row_count):
        read_trn(b"TRN 1\n2\n-1\n0-\nextra\n")
    with pytest.raises(ValueError, match="^row 0 has 3 chars, expected 2$"):
        read_trn(b"TRN 1\n2\n-1\r\n0-\r\n")  # CRLF line endings
    with pytest.raises(ValueError, match="^row 0 has 2 chars, expected 3$"):
        read_trn(b"TRN 1\n3\n-1\n10-1\n00-\n")  # a newline moved inside a row
    with pytest.raises(ValueError, match=row_count):
        read_trn(b"TRN 1\n2\n-1\n0-")  # no final newline
    with pytest.raises(ValueError, match=row_count):
        read_trn(b"TRN 1\n2\n-\n\n0-\n")  # a cell is a newline; rows keep their length


def test_bad_diagonal():
    with pytest.raises(ValueError, match=r"^diagonal \(0,0\) must be '-'$"):
        read_trn(b"TRN 1\n2\n01\n0-\n")
    with pytest.raises(ValueError, match=r"^'-' off the diagonal at \(0,1\)$"):
        read_trn(b"TRN 1\n2\n--\n0-\n")


def test_stray_character():
    with pytest.raises(ValueError, match=r"^invalid character 'x' at \(0,1\)$"):
        read_trn(b"TRN 1\n2\n-x\n0-\n")


def _with_cells(data, n, cells):
    """``data`` with cell (i, j) of its n x n body set to byte ``b``."""
    out = bytearray(data)
    body = len(data) - n * (n + 1)
    for (i, j), b in cells.items():
        out[body + i * (n + 1) + j] = b
    return bytes(out)


@pytest.mark.parametrize("cells, message", [
    ({(2040, 2046): ord("-")}, "'-' off the diagonal at (2040,2046)"),
    ({(2047, 2047): ord("1")}, "diagonal (2047,2047) must be '-'"),
    ({(2046, 1990): ord("x")}, "invalid character 'x' at (2046,1990)"),
    ({(1990, 2046): ord("1"), (2046, 1990): ord("1")}, "pair (1990,2046) oriented both ways"),
    ({(3, 2045): ord("0"), (2045, 3): ord("0")}, "pair (3,2045) oriented neither way"),
], ids=["dash-off-diagonal", "digit-on-diagonal", "stray-byte", "both-ways", "neither-way"])
def test_defect_in_last_slab_at_2048(cells, message):
    # In the last 8-row slab and byte column of the bit transpose, a defect
    # is still found and named exactly.
    n = 2048
    data = _with_cells(write_trn(random_tournament(n, 7)), n, cells)
    with pytest.raises(ValueError) as info:
        read_trn(data)
    assert str(info.value) == message


def test_write_file_cuts_a_longer_file_without_truncating_it_to_zero(tmp_path, monkeypatch):
    # The file is opened without O_TRUNC and cut once, to the length written.
    path = tmp_path / "out"
    path.write_bytes(b"x" * 100)
    opened, cuts = [], []
    real_open, real_ftruncate = os.open, os.ftruncate
    monkeypatch.setattr(os, "open", lambda p, flags, *a: opened.append(flags)
                        or real_open(p, flags, *a))
    monkeypatch.setattr(os, "ftruncate", lambda fd, size: cuts.append(size)
                        or real_ftruncate(fd, size))
    write_file(path, bytearray(b"TRN 1\n"))
    assert path.read_bytes() == b"TRN 1\n"
    assert [flags & os.O_TRUNC for flags in opened] == [0] and cuts == [6]
    write_file(tmp_path / "new", b"abc")
    assert (tmp_path / "new").read_bytes() == b"abc"


def test_write_file_to_devnull_and_fifo(tmp_path):
    # Neither is a regular file, so neither is cut to length.
    write_file(os.devnull, b"TRN 1\n")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # A reader opened first, without blocking, lets the writer open at once;
    # the bytes fit in the pipe's buffer.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_file(fifo, b"TRN 1\n")
        assert os.read(reader, 64) == b"TRN 1\n"
    finally:
        os.close(reader)
