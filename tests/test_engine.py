from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppath.engine import (
    DEFAULT_PARAMS,
    InvalidVertexError,
    RegularityParams,
    chain_power_path,
    find_good_pair,
    is_good_pair,
)
from ppath.exact import verify_power_path
from ppath.tournament import (
    VertexSet,
    bipartite_pair,
    random_split,
    random_tournament,
    rotational,
    transitive,
)


def _complete_pair(n_side):
    t = transitive(2 * n_side)
    a = VertexSet.from_iterable(range(n_side), 2 * n_side)
    b = VertexSet.from_iterable(range(n_side, 2 * n_side), 2 * n_side)
    return t, bipartite_pair(t, a, b)


def _parity_pair(half):
    t = transitive(2 * half)
    a = VertexSet.from_iterable(range(0, 2 * half, 2), 2 * half)
    b = VertexSet.from_iterable(range(1, 2 * half, 2), 2 * half)
    return t, bipartite_pair(t, a, b)


class TestGoodPairs:
    def test_complete_pair_every_pair_good(self):
        t, pair = _complete_pair(8)
        assert pair.d_ab == 1
        for x in range(8):
            for y in range(x + 1, 8):
                assert is_good_pair(t, pair, x, y, DEFAULT_PARAMS)

    def test_zero_density_threshold_degenerates(self):
        t, fwd = _complete_pair(8)
        rev = bipartite_pair(t, fwd.b, fwd.a)
        assert rev.d_ab == 0
        assert is_good_pair(t, rev, 8, 9, DEFAULT_PARAMS)

    def test_agrees_with_naive_recount(self):
        for seed in range(10):
            t = random_tournament(40, seed)
            a, b = random_split(t, seed)
            pair = bipartite_pair(t, a, b)
            members = a.members()
            need = (pair.d_ab**2 - 10 * Fraction(DEFAULT_PARAMS.eps)) * len(b)
            for x in members[:6]:
                for y in members[6:12]:
                    naive = sum(
                        1 for z in b if t.has_edge(x, z) and t.has_edge(y, z)
                    )
                    assert is_good_pair(t, pair, x, y, DEFAULT_PARAMS) == (
                        naive >= need
                    )

    def test_invalid_vertices_rejected(self):
        t, pair = _complete_pair(4)
        with pytest.raises(InvalidVertexError):
            is_good_pair(t, pair, 0, 0, DEFAULT_PARAMS)
        with pytest.raises(InvalidVertexError):
            is_good_pair(t, pair, 0, 6, DEFAULT_PARAMS)


class TestFindGoodPair:
    def test_singleton_has_no_pairs(self):
        t, pair = _complete_pair(6)
        assert find_good_pair(t, pair, VertexSet.from_iterable({2}, 12), DEFAULT_PARAMS) is None

    def test_complete_pair_returns_first_labels(self):
        t, pair = _complete_pair(6)
        gp = find_good_pair(t, pair, pair.a, DEFAULT_PARAMS)
        assert (gp.x, gp.y) == (0, 1)
        assert gp.witness_size == 6

    def test_orientation_follows_tournament_edge(self):
        t = rotational(5, {1, 2})
        a = VertexSet.from_iterable({0, 3}, 5)  # 3 -> 0 in this tournament
        b = VertexSet.from_iterable({1, 4}, 5)
        pair = bipartite_pair(t, a, b)
        gp = find_good_pair(t, pair, a, RegularityParams(eps=0.2, delta=0.5))
        if gp is not None:
            assert t.has_edge(gp.x, gp.y)

    def test_requires_subset_of_a(self):
        t, pair = _complete_pair(6)
        with pytest.raises(InvalidVertexError):
            find_good_pair(t, pair, VertexSet.from_iterable({7}, 12), DEFAULT_PARAMS)

    def test_balanced_random_pairs_almost_always_contain_one(self):
        # |A| = |B| = 200, |F| = 50: the finder should succeed in >= 99% of
        # 200 seeded trials (it failed in none during calibration).
        from ppath.rng import Rng

        found = 0
        for seed in range(200):
            t = random_tournament(400, seed)
            a, b = random_split(t, seed)
            pair = bipartite_pair(t, a, b)
            f = VertexSet.from_iterable(Rng(seed).sample(a.members(), 50), 400)
            gp = find_good_pair(t, pair, f, DEFAULT_PARAMS)
            if gp is not None:
                found += 1
                assert t.has_edge(gp.x, gp.y)
                assert gp.x in f and gp.y in f
        assert found >= 198, found


class TestChains:
    def test_complete_pair_stalls_at_two(self):
        t, pair = _complete_pair(10)
        ch = chain_power_path(t, pair, 2, DEFAULT_PARAMS)
        assert len(ch) == 2

    def test_parity_split_reaches_half(self):
        t, pair = _parity_pair(10)
        ch = chain_power_path(t, pair, 2, DEFAULT_PARAMS)
        assert verify_power_path(t, ch)[0]
        assert len(ch) >= 10

    def test_random_pair_chain_verifies_and_alternates(self):
        t = random_tournament(200, 8)
        a, b = random_split(t, 8)
        pair = bipartite_pair(t, a, b)
        ch = chain_power_path(t, pair, 2, DEFAULT_PARAMS)
        assert verify_power_path(t, ch)[0]
        assert len(ch) >= 20
        sides = [v in pair.a for v in ch.vertices]
        # flattened x1 y1 x2 y2 ... alternates in blocks of the tuple size 2
        assert all(sides[2 * i] == sides[2 * i + 1] for i in range(len(ch) // 2))

    def test_start_side_b(self):
        t = random_tournament(100, 3)
        a, b = random_split(t, 3)
        pair = bipartite_pair(t, a, b)
        ch = chain_power_path(t, pair, 2, DEFAULT_PARAMS, start_side="b")
        assert verify_power_path(t, ch)[0]
        assert ch.vertices[0] in pair.b

    def test_cubed_chain_on_random_pair(self):
        t = random_tournament(240, 4)
        a, b = random_split(t, 4)
        pair = bipartite_pair(t, a, b)
        ch = chain_power_path(t, pair, 3, DEFAULT_PARAMS)
        assert verify_power_path(t, ch)[0]
        assert len(ch) >= 6

    def test_invalid_start_side(self):
        t, pair = _complete_pair(4)
        with pytest.raises(ValueError):
            chain_power_path(t, pair, 2, DEFAULT_PARAMS, start_side="c")


class TestChainTotality:
    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=2, max_value=4),
        st.sampled_from(["a", "b"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_chain_is_total_and_verified_on_any_pair(self, n, seed, k, side):
        t = random_tournament(n, seed)
        a, b = random_split(t, seed)
        if len(a) == 0 or len(b) == 0:
            return
        pair = bipartite_pair(t, a, b)
        ch = chain_power_path(t, pair, k, DEFAULT_PARAMS, start_side=side)
        assert verify_power_path(t, ch)[0]
