import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_random_rows
from ppath.rng import derive_seed
from ppath.tournament import (
    Tournament,
    _bit_transpose,
    _first_misoriented,
    _packed_to_rows,
    _rows_to_packed,
    random_tournament,
    rotational,
    transitive,
)

# Every n up to 70 (one to nine bytes a row, whole and partial 8-row slabs),
# and three large ones: 2048 is the benchmark's n.
TRANSPOSE_SIZES = (*range(1, 71), 2047, 2048, 3000)
# Sizes on both sides of a byte edge and of a 64-bit word edge.
DEFECT_SIZES = (7, 8, 9, 63, 64, 65, 129, 2047, 2048)


def packed(mat):
    return np.packbits(mat, axis=1, bitorder="little")


def rows_digest(t):
    nbytes = (t.n + 7) // 8
    return hashlib.sha256(b"".join(r.to_bytes(nbytes, "little") for r in t.rows)).hexdigest()

tournaments = st.builds(
    random_tournament,
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=2**32),
)


class TestTransitive:
    def test_single_vertex(self):
        t = transitive(1)
        assert t.n == 1 and t.rows == (0,)

    def test_three_vertices_forced(self):
        t = transitive(3)
        assert t.has_edge(0, 1) and t.has_edge(0, 2) and t.has_edge(1, 2)

    def test_out_degree_sequence(self):
        assert [transitive(4).out_degree(v) for v in range(4)] == [3, 2, 1, 0]

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            transitive(0)


class TestRotational:
    def test_directed_triangle(self):
        t = rotational(3, {1})
        assert t.has_edge(0, 1) and t.has_edge(1, 2) and t.has_edge(2, 0)

    def test_regular_out_degrees(self):
        t = rotational(5, {1, 2})
        assert all(t.out_degree(v) == 2 for v in range(5))

    def test_quadratic_residue_doubly_regular(self):
        # Every ordered pair has exactly one common out-neighbor (42 pairs).
        t = rotational(7, {1, 2, 4})
        for x in range(7):
            for y in range(7):
                if x == y:
                    continue
                assert (t.rows[x] & t.rows[y]).bit_count() == 1

    def test_bad_residues(self):
        with pytest.raises(ValueError, match="^residues contain both 1 and 4$"):
            rotational(5, {1, 4})  # 4 = -1 mod 5
        with pytest.raises(ValueError, match="^need exactly 2 distinct residues$"):
            rotational(5, {1})
        with pytest.raises(ValueError, match="^residues must be nonzero mod n$"):
            rotational(5, {0, 1})
        with pytest.raises(ValueError, match="^n must be odd and positive$"):
            rotational(4, {1})


class TestRandomTournament:
    def test_single_vertex_any_seed(self):
        for seed in (0, 1, 99):
            assert random_tournament(1, seed).rows == (0,)

    def test_determinism(self):
        assert random_tournament(8, 42).rows == random_tournament(8, 42).rows
        assert random_tournament(8, 42).rows != random_tournament(8, 43).rows

    def test_assembly_paths_agree(self):
        for n in (1, 2, 5, 10, 17, 63, 64, 65, 129, 2048):
            base = derive_seed(5, "tournament", n)
            assert random_tournament(n, 5).rows == reference_random_rows(n, base)

    @pytest.mark.parametrize("n, digest", [
        (2047, "bfbd4e3cd834f3ef8a6db00df2904e982f9911b68c3feeee3081f0a8ffdc6230"),
        (3000, "06bdd970b55c7893e9fd6f3d572e27ff7e52a117701964582c1551256bbdd2fb"),
    ])
    def test_rows_match_pinned_digest(self, n, digest):
        # sha256 of the rows' little-endian bytes, pinned from the byte-matrix
        # assembly; the pure-Python reference is too slow at these sizes.
        assert rows_digest(random_tournament(n, 5)) == digest

    def test_rows_round_trip_through_packed_bytes(self):
        for n in (1, 7, 8, 9, 64, 65):
            t = random_tournament(n, 2)
            assert _packed_to_rows(_rows_to_packed(t.rows)) == t.rows
            assert _rows_to_packed(t.rows).shape == (n, (n + 7) // 8)

    def test_mean_out_degree_monte_carlo(self):
        # Degree-sum forces the per-instance mean; the Monte-Carlo mean over
        # 1000 seeded samples at n=64 must sit within 1% of 31.5.
        total = 0
        for seed in range(1000):
            t = random_tournament(64, seed)
            total += sum(r.bit_count() for r in t.rows)
        mean = total / (1000 * 64)
        assert abs(mean - 31.5) <= 0.315

    def test_forward_edge_fraction_is_balanced(self):
        forward = 0
        pairs = 0
        for seed in range(50):
            t = random_tournament(40, seed)
            for i in range(40):
                for j in range(i + 1, 40):
                    forward += t.has_edge(i, j)
                    pairs += 1
        assert abs(forward / pairs - 0.5) < 0.02


class TestInvariants:
    @given(tournaments)
    @settings(max_examples=40, deadline=None)
    def test_orientation_completeness(self, t):
        for i in range(t.n):
            for j in range(t.n):
                if i == j:
                    assert not t.has_edge(i, j)
                else:
                    assert t.has_edge(i, j) != t.has_edge(j, i)

    @given(tournaments)
    @settings(max_examples=40, deadline=None)
    def test_degree_sum(self, t):
        assert sum(t.out_degree(v) for v in range(t.n)) == t.n * (t.n - 1) // 2

    @given(tournaments)
    @settings(max_examples=40, deadline=None)
    def test_reversal_involution(self, t):
        assert t.reverse().reverse().rows == t.rows

    def test_constructor_rejects_violations(self):
        with pytest.raises(ValueError):
            Tournament([0b10, 0b01])  # 2-cycle
        with pytest.raises(ValueError):
            Tournament([0b01, 0b00])  # self-loop
        with pytest.raises(ValueError):
            Tournament([0b000, 0b001, 0b000])  # missing orientation
        rows = list(random_tournament(100, 5).rows)
        rows[30] |= 1 << 60
        rows[60] |= 1 << 30
        with pytest.raises(ValueError, match=r"pair \(30,60\) is not oriented exactly once"):
            Tournament(rows)  # both ways, n > 64

    def test_rows_are_the_one_field(self):
        # n is the row count, not a second stored value that could disagree.
        t = Tournament(iter([0b110, 0b100, 0b000]))
        assert type(t.rows) is tuple and t.rows == transitive(3).rows
        assert t.n == 3 and t == transitive(3)
        assert [f.name for f in dataclasses.fields(Tournament)] == ["rows"]


def naive_first_misoriented(mat):
    bad = (mat + mat.T) != 1
    hits = [(i, j) for i, j in np.argwhere(bad) if i < j]
    return (int(hits[0][0]), int(hits[0][1])) if hits else None


class TestSlabTranspose:
    """The bit transpose of packed rows, done in 8-row slabs of 8 x 8
    blocks, and the orientation check built on it."""

    @pytest.mark.parametrize("shape", [(n, n) for n in TRANSPOSE_SIZES])
    def test_transposed_equals_transpose(self, shape):
        mat = np.random.default_rng(shape[0]).integers(0, 2, shape, dtype=np.uint8)
        rows = packed(mat)
        before = rows.copy()
        rows.setflags(write=False)
        out = _bit_transpose(rows)
        assert out.flags.c_contiguous and np.array_equal(out, packed(mat.T))
        # At n <= 8 a row is one byte, and a reshape of the input is a view
        # of it: the input must still be as it was.
        assert np.array_equal(rows, before)

    @pytest.mark.parametrize("n", DEFECT_SIZES)
    def test_first_misoriented_matches_naive_reference(self, n):
        nbytes = (n + 7) // 8
        clean = np.unpackbits(
            _rows_to_packed(random_tournament(n, 3).rows), axis=1, count=n, bitorder="little"
        )
        assert _first_misoriented(packed(clean)) is None
        last = n - 1
        planted = [
            [(last - 1, last)],  # the last pair, in the last slab
            [(0, last)],  # a first-slab row against a last-slab column
            [(6, 7), (7, 8)],  # on both sides of the first byte edge
            [(8, 9), (last - 1, last)],
            [(7, 63), (62, 63)],
            [(63, 64), (0, 65)],  # across the first word edge
            [(64, 65), (9, 64)],
        ]
        rng = np.random.default_rng(n)
        for count in (1, 2, 3, 1, 2, 3):
            planted.append([tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(count)])
        for trial, pairs in enumerate(planted):
            mat = clean.copy()
            pairs = [(i, j) for i, j in pairs if j < n]
            if not pairs:
                continue
            for k, (i, j) in enumerate(pairs):
                mat[i, j] = mat[j, i] = (trial + k) % 2  # both ways or neither way
            rows = packed(mat)
            before = rows.copy()
            assert rows.shape == (n, nbytes)
            assert _first_misoriented(rows) == naive_first_misoriented(mat) == min(pairs)
            assert np.array_equal(rows, before)


def test_rotational_single_vertex_empty_residues():
    t = rotational(1, set())
    assert t.n == 1 and t.rows == (0,)
