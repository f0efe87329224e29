import gc
import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN,
    blowup,
    brute_first_longest,
    brute_longest_power,
    reference_greedy_mask,
    triangle_chain,
)
from ppath.exact import (
    BudgetExceededError,
    InvalidLabelError,
    PowerPath,
    SolveBudget,
    _greedy_mask,
    greedy_power_path,
    hamiltonian_path_insertion,
    longest_power_path_exact,
    pp_value,
    verify_power_path,
)
from ppath.rng import Rng
from ppath.trn import load_trn
from ppath.tournament import (
    VertexSet,
    induced,
    random_tournament,
    rotational,
    transitive,
)


class TestVerify:
    def test_transitive_full_sequence(self):
        ok, v = verify_power_path(transitive(5), PowerPath(2, (0, 1, 2, 3, 4)))
        assert ok and v is None

    def test_triangle_violation_position(self):
        ok, v = verify_power_path(rotational(3, {1}), PowerPath(2, (0, 1, 2)))
        assert not ok and v == (0, 2)

    def test_single_vertex_vacuous(self):
        for k in (1, 5):
            ok, _ = verify_power_path(random_tournament(6, 1), PowerPath(k, (3,)))
            assert ok

    def test_empty_vacuous(self):
        assert verify_power_path(transitive(3), PowerPath(2, ()))[0]

    def test_duplicate_reported_first(self):
        ok, v = verify_power_path(transitive(5), PowerPath(2, (0, 1, 0)))
        assert not ok and v == (0, 2)

    def test_label_out_of_range(self):
        with pytest.raises(InvalidLabelError):
            verify_power_path(transitive(3), PowerPath(2, (0, 7)))


class TestExactSolver:
    def test_transitive_is_full_for_every_k(self):
        for n in (1, 4, 9, 12):
            for k in (1, 2, 3):
                res = longest_power_path_exact(transitive(n), k)
                assert res.optimal and len(res.path) == n

    def test_triangle_square_is_two(self):
        t = rotational(3, {1})
        res = longest_power_path_exact(t, 2)
        assert res.optimal and len(res.path) == 2
        assert brute_longest_power(t, 2) == 2

    def test_agrees_with_brute_enumeration(self):
        # Random tournaments mostly have pp = n; triangle chains and blow-ups
        # of the n = 6 minimizer's induced subtournaments have pp < n, where
        # the reachability prune fires.
        minimizer = load_trn(GOLDEN / "min_pp_n6.trn")
        cases = [(f"random{seed}", random_tournament(4 + seed % 4, seed))
                 for seed in range(12)]
        cases += [(f"triangle_chain{n}", triangle_chain(n)) for n in range(1, 13)]
        for size in (1, 2, 3):
            for members in combinations(range(6), size):
                sub, _ = induced(minimizer, VertexSet.from_iterable(members, 6))
                cases.append((f"blowup{members}", blowup(sub.rows)))
        for name, t in cases:
            for k in (1, 2, 3):
                res = longest_power_path_exact(t, k)
                assert res.optimal
                assert res.path.vertices == brute_first_longest(t, k), (name, k)
                assert verify_power_path(t, res.path)[0]

    def test_blowup_of_minimizer_is_pruned(self):
        # Without the early exit and the prune the walk took 304,407 states.
        t = blowup(load_trn(GOLDEN / "min_pp_n6.trn").rows)
        res = longest_power_path_exact(t, 2)
        assert res.optimal and res.states < 10**5
        assert res.path.vertices == (0, 15, 16, 12, 13, 1, 2, 17, 3, 9, 10, 6, 7, 4, 5, 11)
        assert verify_power_path(t, res.path)[0]

    def test_lexicographic_witness_is_stable(self):
        t = rotational(3, {1})
        res = longest_power_path_exact(t, 2)
        assert res.path.vertices == (0, 1)

    def test_budget_exhaustion_returns_flagged_lower_bound(self):
        t = blowup(load_trn(GOLDEN / "min_pp_n6.trn").rows)
        full = longest_power_path_exact(t, 2)
        capped = longest_power_path_exact(t, 2, SolveBudget(max_states=200))
        assert not capped.optimal
        assert verify_power_path(t, capped.path)[0]
        assert len(capped.path) <= len(full.path)

    def test_deep_walk_budget_trip_keeps_witness(self):
        # A 1000-vertex prefix is 1000 levels deep; the walk keeps no call
        # stack, and the trip returns the deepest prefix it already visited.
        t = triangle_chain(1500)
        res = longest_power_path_exact(t, 2, SolveBudget(max_states=1000))
        assert not res.optimal and res.states == 1000
        assert res.path.vertices == tuple(v for v in range(1500) if v % 3 != 2)
        assert verify_power_path(t, res.path)[0]

    def test_deep_walk_stops_at_spanning_prefix(self):
        t = transitive(1500)
        res = longest_power_path_exact(t, 2, SolveBudget(max_states=1000))
        assert res.optimal and res.states == 0
        assert res.path.vertices == tuple(range(1500))

    def test_solve_leaves_no_cyclic_garbage(self):
        t = random_tournament(9, 4)
        gc.collect()
        gc.disable()
        try:
            longest_power_path_exact(t, 2)
            longest_power_path_exact(t, 2, SolveBudget(max_states=5))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_wall_clock_budget_accepted(self):
        res = longest_power_path_exact(
            random_tournament(10, 1), 2, SolveBudget(max_states=10**6, max_millis=60_000)
        )
        assert res.optimal


class TestGreedy:
    def test_transitive_never_stalls(self):
        assert len(greedy_power_path(transitive(10), 2, seed=0)) == 10

    def test_single_vertex(self):
        assert len(greedy_power_path(transitive(1), 2, seed=0)) == 1

    def test_never_beats_exact_500_random(self):
        for seed in range(500):
            t = random_tournament(12, seed)
            g = greedy_power_path(t, 2, seed=seed)
            assert verify_power_path(t, g)[0]
            res = longest_power_path_exact(t, 2)
            assert len(g) <= len(res.path), seed

    def test_deterministic_per_seed(self):
        t = random_tournament(20, 9)
        assert greedy_power_path(t, 2, seed=4) == greedy_power_path(t, 2, seed=4)

    def test_matches_reference_picks_and_draws(self):
        # Rotational tournaments exist at odd order only (an even n builds
        # n + 1); every degree starts tied, so rng.choice runs from the first
        # pick. The triangle chain ties inside each triangle.
        families = {
            "random": lambda n: random_tournament(n, 7 * n + 1),
            "transitive": transitive,
            "rotational": lambda n: rotational(n | 1, range(1, (n | 1) // 2 + 1)),
            "triangle_chain": triangle_chain,
        }
        sizes = [*range(1, 40), 63, 64, 65, 100, 257, 1024]
        draws = 0
        for name, make in families.items():
            for n in sizes:
                t = make(n)
                pick = Rng(n)
                members = [v for v in range(t.n) if pick.randrange(2)]
                sparse = [v for v in range(t.n) if pick.randrange(8) == 0]
                masks = {
                    "full": t.full_mask,
                    "random": sum(1 << v for v in members),
                    "sparse": sum(1 << v for v in sparse),
                }
                for mask_name, mask in masks.items():
                    for k in (1, 2, 3):
                        seed = (n << 4) | k
                        ours, ref = Rng(seed), Rng(seed)
                        got = _greedy_mask(t, mask, k, ours)
                        want = reference_greedy_mask(t, mask, k, ref)
                        case = (name, n, mask_name, k)
                        assert got == want, case
                        assert ours.getstate() == ref.getstate(), case
                        draws += ours.getstate() != Rng(seed).getstate()
        assert draws > 0

    @pytest.mark.parametrize("n", [3072, 3073, 3074])
    def test_triangle_chain_floor_at_scale(self, n):
        t = triangle_chain(n)
        p = greedy_power_path(t, 2, seed=0)
        assert verify_power_path(t, p)[0]
        assert len(p) == -(-2 * n // 3)

    def test_triangle_chain_is_extremal(self):
        for n in range(1, 8):
            assert pp_value(triangle_chain(n)) == -(-2 * n // 3), n


class TestPpValue:
    def test_transitive(self):
        assert pp_value(transitive(7)) == 7

    def test_triangle(self):
        assert pp_value(rotational(3, {1})) == 2

    def test_quadratic_residue_regression(self):
        golden = json.loads((GOLDEN / "regression_constants.json").read_text())
        assert pp_value(rotational(7, {1, 2, 4})) == golden["pp_rotational7_qr"]

    def test_budget_propagates_with_work(self):
        t = blowup(load_trn(GOLDEN / "min_pp_n6.trn").rows)
        with pytest.raises(BudgetExceededError) as info:
            pp_value(t, SolveBudget(max_states=100))
        assert verify_power_path(t, info.value.result.path)[0]


class TestStructuralInvariants:
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_monotone_under_induced(self, n, seed):
        t = random_tournament(n, seed)
        full = len(longest_power_path_exact(t, 2).path)
        members = [v for v in range(n) if (seed >> v) & 1] or [0]
        sub, _ = induced(t, VertexSet.from_iterable(members, n))
        assert len(longest_power_path_exact(sub, 2).path) <= full

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_reversal_preserves_length(self, n, seed):
        t = random_tournament(n, seed)
        assert (
            len(longest_power_path_exact(t, 2).path)
            == len(longest_power_path_exact(t.reverse(), 2).path)
        )

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_k_monotonicity(self, n, seed):
        t = random_tournament(n, seed)
        lens = [len(longest_power_path_exact(t, k).path) for k in (1, 2, 3)]
        assert lens[0] >= lens[1] >= lens[2]

    def test_hamiltonian_law_exhaustive_n4(self):
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        from ppath.tournament import Tournament

        for code in range(1 << 6):
            rows = [0] * 4
            for p, (i, j) in enumerate(pairs):
                if (code >> p) & 1:
                    rows[i] |= 1 << j
                else:
                    rows[j] |= 1 << i
            t = Tournament.from_rows(rows)
            assert len(longest_power_path_exact(t, 1).path) == 4

    def test_hamiltonian_law_sampled_n16(self):
        for seed in range(25):
            t = random_tournament(16, seed)
            h = hamiltonian_path_insertion(t)
            assert len(h) == 16 and verify_power_path(t, h)[0]


class TestInsertion:
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_always_spans_all_vertices(self, n, seed):
        t = random_tournament(n, seed)
        h = hamiltonian_path_insertion(t)
        assert len(h) == n
        assert verify_power_path(t, h)[0]


class TestHigherOrders:
    def test_agrees_with_brute_for_k4_and_beyond(self):
        for seed in range(8):
            n = 5 + seed % 2
            t = random_tournament(n, seed)
            for k in (4, n, n + 2):
                res = longest_power_path_exact(t, k)
                assert res.optimal
                assert len(res.path) == brute_longest_power(t, k), (n, seed, k)

    def test_k_at_least_n_finds_largest_transitive_subset(self):
        # With k >= n-1 a valid sequence is exactly a transitively ordered
        # subset, so the answer matches a direct subset scan.
        t = random_tournament(7, 3)
        best = 1
        for size in range(2, 8):
            for subset in combinations(range(7), size):
                order = sorted(subset, key=lambda v: -(t.rows[v] & sum(1 << u for u in subset)).bit_count())
                ok = all(t.has_edge(order[i], order[j])
                         for i in range(len(order)) for j in range(i + 1, len(order)))
                if ok:
                    best = max(best, size)
        res = longest_power_path_exact(t, 7)
        assert res.optimal and len(res.path) == best
