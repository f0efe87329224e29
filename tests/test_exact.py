import gc
import hashlib
import json
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppath.exact

from conftest import (
    GOLDEN,
    blowup,
    brute_first_longest,
    brute_longest_power,
    induced_rows,
    reference_greedy_mask,
    reference_strong_components,
    reference_verify_power_path,
    relabel,
    triangle_chain,
)
from ppath.exact import (
    PowerPath,
    SolveBudget,
    _greedy_mask,
    _strong_components,
    greedy_power_path,
    hamiltonian_path_insertion,
    longest_power_path_exact,
    verify_power_path,
    walk_states,
)
from ppath.rng import Rng
from ppath.search import flip_edge
from ppath.trn import load_trn
from ppath.tournament import (
    Tournament,
    random_tournament,
    rotational,
    transitive,
)


def _verify_outcome(verify, t, p):
    """What a witness check returns, or the message of the ValueError it
    raises."""
    try:
        return verify(t, p)
    except ValueError as exc:
        return "ValueError", str(exc)


def _verify_cases():
    """(tournament, k, vertices) cases for the witness check, by name: valid
    witnesses and each kind of first fault it reports or raises."""
    t6 = transitive(6)
    line = tuple(range(6))
    cases = [
        ("empty", t6, 2, ()),
        ("one_vertex", t6, 3, (4,)),
        ("k_above_length", t6, 10, (0, 2, 3, 5)),
        ("k_above_length_missing", flip_edge(t6, 0, 5), 10, (0, 2, 3, 5)),
        ("duplicate", t6, 2, (0, 1, 2, 1)),
        ("out_of_range", t6, 2, (0, 6)),
        ("negative_label", t6, 2, (0, -1)),
        ("duplicate_before_out_of_range", t6, 2, (0, 1, 0, 9)),
        ("out_of_range_before_duplicate", t6, 2, (9, 0, 0)),
        ("missing_at_distance_1", flip_edge(t6, 2, 3), 2, line),
        ("missing_at_distance_k", flip_edge(t6, 1, 4), 3, line),
        ("missing_past_k", flip_edge(t6, 1, 5), 3, line),
        ("missing_at_1_and_k", flip_edge(flip_edge(t6, 1, 4), 3, 4), 3, line),
    ]
    r = random_tournament(40, 3)
    for k in (1, 2, 3):
        cases.append((f"greedy_k{k}", r, k, greedy_power_path(r, k, seed=k).vertices))
        t = random_tournament(9, k)
        cases.append((f"exact_k{k}", t, k, longest_power_path_exact(t, k).path.vertices))
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


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
        with pytest.raises(ValueError, match=r"^vertex 7 outside 0\.\.2$"):
            verify_power_path(transitive(3), PowerPath(2, (0, 7)))

    @pytest.mark.parametrize("t, k, verts", _verify_cases())
    def test_matches_reference(self, t, k, verts):
        p = PowerPath(k, verts)
        assert _verify_outcome(verify_power_path, t, p) == _verify_outcome(
            reference_verify_power_path, t, p
        )

    def test_matches_reference_on_random_sequences(self):
        # Random label sequences, some with a duplicate or a label outside
        # 0..n-1 spliced in; each outcome occurs, a valid witness included.
        rng = random.Random(11)
        outcomes = set()
        for seed in range(400):
            n = 3 + seed % 7
            t = random_tournament(n, seed)
            verts = rng.sample(range(n), rng.randrange(n + 1))
            if rng.randrange(3) == 0 and verts:
                verts.insert(rng.randrange(len(verts) + 1), rng.choice(verts))
            if rng.randrange(4) == 0:
                verts.insert(rng.randrange(len(verts) + 1), rng.choice([-1, n, n + 5]))
            p = PowerPath(1 + rng.randrange(5), tuple(verts))
            want = _verify_outcome(reference_verify_power_path, t, p)
            assert _verify_outcome(verify_power_path, t, p) == want, (seed, p)
            if want[0] is False:
                i, j = want[1]
                outcomes.add("duplicate" if verts[i] == verts[j] else "missing arc")
            else:
                outcomes.add(want[0])
        assert outcomes == {True, "duplicate", "missing arc", "ValueError"}


def _pruned_cases():
    """Triangle chains and blow-ups of the n = 6 minimizer's induced
    subtournaments: pp < n, where the reachability prune fires."""
    minimizer = load_trn(GOLDEN / "min_pp_n6.trn")
    cases = [(f"triangle_chain{n}", triangle_chain(n)) for n in range(1, 13)]
    for size in (1, 2, 3):
        for members in combinations(range(6), size):
            cases.append((f"blowup{members}", blowup(induced_rows(minimizer, members))))
    return cases


def _solve_digest(max_states, with_states, deep=True):
    """Case count and sha256 of the solves of random tournaments with
    n = 1..17 (seeds 0..2), k = 1..4, budgets ``max_states`` (None for no
    budget) and targets None/n - 2/n + 1, then, when ``deep``, two
    1000-state walks 1500 levels deep; each solve adds (path, optimal), and
    its states when ``with_states``. No budgeted solve may count more states
    than its budget."""
    digest = hashlib.sha256()
    cases = [
        (random_tournament(n, seed), k, cap and SolveBudget(max_states=cap), target)
        for seed in range(3)
        for n in range(1, 18)
        for k in range(1, 5)
        for cap in max_states
        for target in (None, n - 2, n + 1)
        if target is None or target >= 1
    ]
    if deep:
        cases += [(t, 2, SolveBudget(max_states=1000), None)
                  for t in (triangle_chain(1500), transitive(1500))]
    for t, k, budget, target in cases:
        res = longest_power_path_exact(t, k, budget, target=target)
        assert budget is None or res.states <= budget.max_states, (t.n, k, budget, target)
        fields = (res.path.vertices, res.optimal)
        digest.update(repr(fields + (res.states,) if with_states else fields).encode())
    return len(cases), digest.hexdigest()


def _join(first, second, perm):
    """``first`` followed by ``second``, every vertex of ``first`` beating
    every vertex of ``second``, relabeled by ``perm``."""
    rows = [r | ((1 << second.n) - 1) << first.n for r in first.rows]
    rows += [r << first.n for r in second.rows]
    return relabel(Tournament(rows), perm)


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
        cases = [(f"random{seed}", random_tournament(4 + seed % 4, seed))
                 for seed in range(12)]
        for name, t in cases + _pruned_cases():
            for k in (1, 2, 3):
                res = longest_power_path_exact(t, k)
                assert res.optimal
                assert res.path.vertices == brute_first_longest(t, k), (name, k)
                assert verify_power_path(t, res.path)[0]

    def test_pair_closure_agrees_with_brute_enumeration(self):
        # Random tournaments with pp < n, keyed (n, seed, k), with the states
        # the walk took when it pruned by out-arcs alone. Almost every unused
        # vertex is reachable by out-arcs here, so the proofs that pp < n
        # come from the pair closure; it must keep the witness and do less.
        cases = {
            (8, 22, 2): 150, (8, 30, 2): 144, (9, 106, 2): 284,
            (9, 145, 2): 292, (10, 231, 2): 800, (10, 252, 2): 537,
            (8, 0, 3): 121, (8, 2, 3): 112, (9, 0, 3): 176,
            (9, 2, 3): 180, (10, 1, 3): 320, (10, 7, 3): 301,
        }
        for (n, seed, k), before in cases.items():
            t = random_tournament(n, seed)
            res = longest_power_path_exact(t, k)
            assert res.optimal and len(res.path) < n, (n, seed, k)
            assert res.path.vertices == brute_first_longest(t, k), (n, seed, k)
            assert res.states < before, (n, seed, k, res.states)

    def test_target_decides_pp_at_least_target(self):
        cases = [(f"random{seed}", random_tournament(1 + seed % 9, seed))
                 for seed in range(18)]
        for name, t in cases + _pruned_cases():
            for k in (1, 2, 3):
                pp = brute_longest_power(t, k)
                full = longest_power_path_exact(t, k)
                for target in range(1, t.n + 2):
                    res = longest_power_path_exact(t, k, target=target)
                    assert res.optimal
                    assert verify_power_path(t, res.path)[0]
                    reached = len(res.path) >= min(target, t.n)
                    assert reached == (pp >= min(target, t.n)), (name, k, target)
                    if not reached:
                        assert (res.path, res.optimal) == (full.path, full.optimal)
                    if target >= t.n:
                        assert res == full, (name, k, target)
                with pytest.raises(ValueError, match="target"):
                    longest_power_path_exact(t, k, target=0)

    def test_blowup_of_minimizer_is_pruned(self):
        # Without the early exit and the prunes the walk took 304,407 states,
        # with the out-arc prune alone 24,498; the pair closure cuts that to
        # 8,962.
        t = blowup(load_trn(GOLDEN / "min_pp_n6.trn").rows)
        res = longest_power_path_exact(t, 2)
        assert res.optimal and res.states < 10**4
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
        # The flipped arc 1499 -> 0 makes the chain strong, so one walk runs.
        t = flip_edge(triangle_chain(1500), 0, 1499)
        res = longest_power_path_exact(t, 2, SolveBudget(max_states=1000))
        assert not res.optimal and res.states == 1000
        assert res.path.vertices == tuple(v for v in range(1500) if v % 3 != 2)
        assert verify_power_path(t, res.path)[0]

    def test_triangle_chain_is_solved_a_component_at_a_time(self):
        # 500 triangles, 4 states each. Under 1000 states the first 250 are
        # solved and the 251st trips at its first vertex, with no states
        # left. Its one-vertex prefix and greedy over the rest would give
        # 500 + 1 + ceil(2 * 747 / 3) = 999 vertices; greedy over the 251st
        # triangle and the rest together takes two of each: 500 + 500.
        t = triangle_chain(1500)
        res = longest_power_path_exact(t, 2)
        assert res.optimal and res.states == 2000
        assert res.path.vertices == tuple(v for v in range(1500) if v % 3 != 2)
        res = longest_power_path_exact(t, 2, SolveBudget(max_states=1000))
        assert not res.optimal and res.states == 1000 and len(res.path) == 1000
        assert res.path.vertices[:500] == tuple(v for v in range(750) if v % 3 != 2)
        assert [v // 3 for v in res.path.vertices[500:]] == [i // 2 for i in range(500, 1000)]
        assert verify_power_path(t, res.path)[0]

    def test_trip_with_no_states_left_keeps_a_greedy_tail(self):
        # The blow-up is two strong components. At 199 states the first one's
        # walk used them all, so the second tripped at its first vertex and
        # the witness had 9 vertices; at 100 it had 16. Greedy over the
        # tripped component and the rest is kept when it is longer.
        t = blowup(load_trn(GOLDEN / "min_pp_n6.trn").rows)
        for cap in range(100, 301):
            res = longest_power_path_exact(t, 2, SolveBudget(max_states=cap))
            assert not res.optimal and res.states <= cap
            assert len(res.path) == 16 and verify_power_path(t, res.path)[0], cap

    @pytest.mark.parametrize("target", [None, 12])
    def test_tripped_strong_solve_keeps_a_greedy_tail(self, target):
        # random_tournament(17, 59) is strong (``solve --exact
        # --budget-states 1`` on ``gen --type random --n 17 --seed 59``). Its
        # walk trips after one state at a prefix of 8 vertices, and greedy
        # over the whole takes 15. A strong or decision solve trips by the
        # rule of a split one, so the 15 are kept, past a target of 12 too.
        t = random_tournament(17, 59)
        res = longest_power_path_exact(t, 2, SolveBudget(max_states=1), target=target)
        assert not res.optimal and res.states == 1
        assert res.path.vertices == _greedy_mask(t, t.full_mask, 2, Rng(0))
        assert len(res.path) == 15 and verify_power_path(t, res.path)[0]

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=2**32), st.data())
    @settings(max_examples=40, deadline=None)
    def test_joins_agree_with_brute_enumeration(self, n1, n2, seed, data):
        # Random T1 => T2 under a random relabeling: the components are
        # solved apart and their witnesses concatenated in condensation order.
        perm = data.draw(st.permutations(range(n1 + n2)))
        t = _join(random_tournament(n1, seed), random_tournament(n2, seed + 1), perm)
        for k in (1, 2, 3):
            res = longest_power_path_exact(t, k)
            assert res.optimal
            assert res.path.vertices == brute_first_longest(t, k), k

    def test_deep_walk_stops_at_spanning_prefix(self):
        t = transitive(1500)
        res = longest_power_path_exact(t, 2, SolveBudget(max_states=1000))
        assert res.optimal and res.states == 0
        assert res.path.vertices == tuple(range(1500))

    @pytest.mark.parametrize("build, k, expected", [
        pytest.param(lambda t: t, 2, (16, 398), id="blowup18"),
        pytest.param(lambda t: relabel(t, list(range(17, -1, -1))), 2, (16, 398),
                     id="blowup18_reversed"),
        pytest.param(lambda t: flip_edge(triangle_chain(21), 0, 20), 2, (14, 37_579),
                     id="strong_chain21"),
        pytest.param(lambda t: random_tournament(40, 1), 3, (40, 9_676), id="random40_k3"),
    ])
    def test_walk_matches_pinned_counts_at_benchmark_sizes(self, build, k, expected):
        # (len(path), states) past the digest's n <= 17: the 18-vertex
        # blow-ups solve_exact runs, a strong chain and a k = 3 walk.
        t = build(blowup(load_trn(GOLDEN / "min_pp_n6.trn").rows))
        res = longest_power_path_exact(t, k)
        assert res.optimal and (len(res.path), res.states) == expected
        assert verify_power_path(t, res.path)[0]

    def test_results_match_pinned_digest(self):
        # (path, optimal, states) of every solve of the grid. Re-pinned when
        # strong tournaments and decision solves came to trip by the same
        # rule as split ones: 187 of the 1,764 grid solves gained 1-5
        # vertices, with the same states and optimal flags (42c89619...
        # before). Earlier re-pins: when a tripped component came to keep
        # greedy over itself and the rest when that is longer (8d0a1f76...
        # before that), and when the walk came to solve each strong
        # component apart and to trip before a finished state would pass the
        # budget (25d0cc20... before that, be969fcf... before the pair
        # closure).
        assert _solve_digest((None, 7, 100), with_states=True) == (
            1766, "53421922bf0e37cc123c24d06174306c21ea99b23f3fe913e1a37c08aec6c73d")

    def test_witnesses_match_pinned_digest(self):
        # (path, optimal) of the grid's unbudgeted solves, hashed from the
        # walk before the split into strong components; their 590-case digest
        # with the two budgeted 1500-level walks, which now have tests of
        # their own, was pinned from the walk that pruned by out-arcs alone.
        # A prune or the split may change state counts and budget trips,
        # never a witness or an optimal flag.
        assert _solve_digest((None,), with_states=False, deep=False) == (
            588, "4288daf0dc1da7500a1fe190860eba69a26ec6e2957e3ab995a11f465a63bf19")

    @pytest.mark.parametrize("build, max_states, expected", [
        pytest.param(lambda: flip_edge(triangle_chain(301), 0, 300), 20_000,
                     (201, False, 20_000, "f033c4e46ebcfaebd3fb7d74b10b7056"
                      "27b91725ebc14f752cfaccc660255b10"), id="strong_chain301"),
        pytest.param(lambda: flip_edge(triangle_chain(2049), 0, 2048), 20_000,
                     (1366, False, 20_000, "1ba15a83261905c509b10c141cd9a839"
                      "1f421bf2bc084c526d38d7452bfb92d8"), id="strong_chain2049"),
        pytest.param(lambda: random_tournament(2048, 1), 150_000,
                     (2048, True, 23, "1bcfec0ccf1e36c2bb0e6046be43ce91"
                      "1da65ead14f812a912c6946a9f3adb08"), id="random2048"),
    ])
    def test_deep_solves_match_pinned(self, build, max_states, expected):
        # (length, optimal, states, sha256 of the comma-joined witness) of
        # walks thousands of levels deep, pinned before the walk stopped
        # copying its prefix at every new best.
        t = build()
        res = longest_power_path_exact(t, 2, SolveBudget(max_states))
        digest = hashlib.sha256(",".join(map(str, res.path.vertices)).encode()).hexdigest()
        assert (len(res.path), res.optimal, res.states, digest) == expected
        assert verify_power_path(t, res.path)[0]

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


class TestWalkStates:
    def test_counts_used_sets_and_ordered_tails(self):
        for n in range(6):
            for k in range(1, 5):
                count = sum(
                    math.perm(len(used), min(k, len(used)))
                    for m in range(1, n + 1) for used in combinations(range(n), m))
                assert walk_states(n, k) == count, (n, k)
        assert (walk_states(10, 2), walk_states(13, 4)) == (23_050, 8_787_805)

    def test_budget_of_the_bound_never_trips(self):
        # An unbudgeted walk counts at most the bound, so under a budget of
        # exactly the bound every solve, decision ones included, finishes
        # with the unbudgeted result.
        unbudgeted = SolveBudget(10**12)
        for seed in range(3):
            for n in range(1, 10):
                for k in range(1, 7):
                    t = random_tournament(n, seed)
                    bound = SolveBudget(walk_states(n, k))
                    full = longest_power_path_exact(t, k, unbudgeted)
                    assert full.optimal and full.states <= bound.max_states
                    pp = len(full.path)
                    for target in (None, pp, pp + 1):
                        res = longest_power_path_exact(t, k, bound, target=target)
                        assert res.optimal, (seed, n, k, target)
                        assert res == longest_power_path_exact(
                            t, k, unbudgeted, target=target), (seed, n, k, target)


class TestStrongComponents:
    def test_matches_reachability(self):
        cases = [random_tournament(n, seed) for n in (1, 2, 3, 5, 10, 18) for seed in range(20)]
        cases += [transitive(n) for n in (1, 2, 7, 40)]
        cases += [triangle_chain(n) for n in (3, 7, 20)]
        cases += [flip_edge(triangle_chain(n), 0, n - 1) for n in (6, 20)]
        cases += [_join(random_tournament(5, seed), triangle_chain(7),
                        random.Random(seed).sample(range(12), 12)) for seed in range(20)]
        for t in cases:
            assert _strong_components(t) == reference_strong_components(t), t.rows


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

    @pytest.mark.parametrize(
        "family, n, digest",
        [
            ("random", 2047, "51c3979c8af05303847558b7985f40494b8290ce1a2ffcbad04a4933a90e04f4"),
            ("random", 2048, "b95655ad5da46f49adf4ee5c58a85d794b8ded92be1ad47798b250510f10a376"),
            ("random", 3000, "cc6d3a711679e2120204c727211622a9877e677e8aee732eca5bf4d9570fec07"),
            ("rotational", 2047, "f2cd47340cd52f1986685eaf99228b09908f639d330954d968a8858485eb8ebe"),
            ("rotational", 2048, "ee6e095cb2083763e89e365961cac7109ef0b4ae03a97b402d59e60018c4391f"),
            ("rotational", 3000, "9cdd4df4d76143c5bff5d4ec1a8a9dfebe7630f7eb7a1f31fc30f8b4c9ced204"),
        ],
    )
    def test_matches_pinned_digest_at_scale(self, family, n, digest):
        # sha256 of each pick sequence and final rng state, for k = 1, 2, 3 on
        # the full mask and a random one, pinned from the greedy that built
        # its planes vertex by vertex and broke ties with ``rng.choice``;
        # the popcount reference is too slow at these sizes. A rotational
        # tournament has odd order (n | 1) and starts with every degree tied.
        if family == "random":
            t = random_tournament(n, 7 * n + 1)
        else:
            t = rotational(n | 1, range(1, (n | 1) // 2 + 1))
        pick = Rng(n)
        members = [v for v in range(t.n) if pick.randrange(2)]
        masks = {"full": t.full_mask, "random": sum(1 << v for v in members)}
        h = hashlib.sha256()
        for name, mask in masks.items():
            for k in (1, 2, 3):
                rng = Rng((n << 4) | k)
                seq = _greedy_mask(t, mask, k, rng)
                h.update(repr((name, k, seq, rng.getstate())).encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize(
        "build", [lambda t: greedy_power_path(t, 2), hamiltonian_path_insertion],
        ids=["greedy", "insertion"],
    )
    def test_unverified_witness_raises_runtime_error(self, monkeypatch, build):
        # Not an assert, which python -O would drop.
        monkeypatch.setattr(ppath.exact, "verify_power_path", lambda t, p: (False, (0, 1)))
        with pytest.raises(RuntimeError, match="unverified"):
            build(random_tournament(8, 1))

    @pytest.mark.parametrize("n", [3072, 3073, 3074])
    def test_triangle_chain_floor_at_scale(self, n):
        t = triangle_chain(n)
        p = greedy_power_path(t, 2, seed=0)
        assert verify_power_path(t, p)[0]
        assert len(p) == -(-2 * n // 3)

    def test_triangle_chain_is_extremal(self):
        for n in range(1, 8):
            res = longest_power_path_exact(triangle_chain(n), 2)
            assert res.optimal and len(res.path) == -(-2 * n // 3), n


class TestPpValue:
    """pp(T), the vertex count of T's longest square of a path, as the exact
    oracle finds it within its default budget."""

    def test_transitive(self):
        res = longest_power_path_exact(transitive(7), 2)
        assert res.optimal and len(res.path) == 7

    def test_triangle(self):
        res = longest_power_path_exact(rotational(3, {1}), 2)
        assert res.optimal and len(res.path) == 2

    def test_quadratic_residue_regression(self):
        golden = json.loads((GOLDEN / "regression_constants.json").read_text())
        res = longest_power_path_exact(rotational(7, {1, 2, 4}), 2)
        assert res.optimal and len(res.path) == golden["pp_rotational7_qr"]


class TestStructuralInvariants:
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_monotone_under_induced(self, n, seed):
        t = random_tournament(n, seed)
        full = len(longest_power_path_exact(t, 2).path)
        members = [v for v in range(n) if (seed >> v) & 1] or [0]
        sub = Tournament(induced_rows(t, members))
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
            t = Tournament(rows)
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
