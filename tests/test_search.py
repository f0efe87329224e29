import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN,
    ReferenceChain,
    blowup,
    reference_refinement_classes,
    relabel,
    triangle_chain,
)
from ppath import search
from ppath.exact import SolveBudget, longest_power_path_exact, verify_power_path
from ppath.rng import Rng, derive_seed
from ppath.search import (
    AnnealChain,
    AnnealConfig,
    anneal_min_pp,
    canonical_fingerprint,
    enumerate_min_pp,
    flip_edge,
)
from ppath.tournament import Tournament, random_tournament, rotational, transitive
from ppath.trn import load_trn, write_trn


class TestFingerprint:
    def test_relabeling_invariance_transitive(self):
        t = transitive(5)
        rng = random.Random(11)
        fps = set()
        for _ in range(20):
            perm = list(range(5))
            rng.shuffle(perm)
            fps.add(canonical_fingerprint(relabel(t, perm)))
        assert len(fps) == 1

    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_relabeling_invariance_random(self, n, seed, perm_seed):
        t = random_tournament(n, seed)
        perm = list(range(n))
        random.Random(perm_seed).shuffle(perm)
        assert canonical_fingerprint(t) == canonical_fingerprint(relabel(t, perm))

    def test_matches_reference_refinement(self, monkeypatch):
        cases = [random_tournament(n, seed) for n in range(1, 11) for seed in range(8)]
        cases += [triangle_chain(n) for n in range(1, 11)]
        cases += [transitive(n) for n in range(1, 11)]
        cases += [rotational(9, {1, 2, 3, 4}), rotational(7, {1, 2, 4})]
        classes = [search._refinement_classes(t) for t in cases]
        fps = [canonical_fingerprint(t) for t in cases]
        monkeypatch.setattr(search, "_refinement_classes", reference_refinement_classes)
        assert classes == [reference_refinement_classes(t) for t in cases]
        assert fps == [canonical_fingerprint(t) for t in cases]

    def test_canonical_bits_match_pinned_digest(self):
        # The labelling itself, which certify's classes and the "c"
        # fingerprints are named by: random n = 1-11, two circulants, and the
        # levels of certify(5, 2, 8).
        cases = [random_tournament(n, seed) for n in range(1, 12) for seed in range(6)]
        cases += [rotational(7, {1, 2, 4}), rotational(11, {1, 3, 4, 5, 9})]
        cases += [t for level in search.certify(5, 2, 8) for t in level]
        payload = "\n".join(f"{t.n}:{search._canonical_bits(t):x}" for t in cases)
        assert (len(cases), hashlib.sha256(payload.encode()).hexdigest()) == (
            113, "2d3c4aa3f0b49eae3afd421e1bf16cd8685ce2b47092fa5e1dfbd7d08ae938b5")

    def test_non_isomorphic_differ(self):
        assert canonical_fingerprint(rotational(3, {1})) != canonical_fingerprint(
            transitive(3)
        )

    def test_exactly_two_classes_on_three_vertices(self):
        pairs = [(0, 1), (0, 2), (1, 2)]
        fps = set()
        for code in range(8):
            rows = [0, 0, 0]
            for p, (i, j) in enumerate(pairs):
                if (code >> p) & 1:
                    rows[i] |= 1 << j
                else:
                    rows[j] |= 1 << i
            fps.add(canonical_fingerprint(Tournament(rows)))
        assert len(fps) == 2

    def test_same_matrix_same_hash(self):
        t = random_tournament(9, 4)
        assert canonical_fingerprint(t) == canonical_fingerprint(t)

    def test_prefix_flags_regime(self):
        assert canonical_fingerprint(transitive(8)).startswith("c")
        assert canonical_fingerprint(transitive(12)).startswith("r")


class TestEnumerate:
    def test_two_vertices(self):
        mn, wit, cnt = enumerate_min_pp(2, 2)
        assert mn == 2 and cnt == 2

    def test_three_vertices_triangle_is_minimum(self):
        mn, wit, cnt = enumerate_min_pp(3, 2)
        assert mn == 2 and cnt == 2
        assert canonical_fingerprint(wit) == canonical_fingerprint(rotational(3, {1}))

    def test_matches_unpruned_enumeration_n4(self):
        # Independent route: the exact solver on every labeled orientation.
        for n in (4, 5):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            tournaments = []
            for code in range(1 << len(pairs)):
                rows = [0] * n
                for p, (i, j) in enumerate(pairs):
                    if (code >> p) & 1:
                        rows[i] |= 1 << j
                    else:
                        rows[j] |= 1 << i
                tournaments.append(Tournament(rows))
            for k in (1, 2, 3):
                best, count, first = n + 1, 0, None
                for t in tournaments:
                    got = len(longest_power_path_exact(t, k).path)
                    if got < best:
                        best, count, first = got, 1, t
                    elif got == best:
                        count += 1
                mn, wit, cnt = enumerate_min_pp(n, k)
                assert (mn, cnt) == (best, count)
                assert wit.rows == first.rows

    def test_golden_n6(self):
        golden = json.loads((GOLDEN / "min_pp_n6.json").read_text())
        mn, wit, cnt = enumerate_min_pp(6, 2)
        assert mn == golden["min_pp"] and cnt == golden["count"]
        assert write_trn(wit) == (GOLDEN / golden["witness_file"]).read_bytes()
        assert len(longest_power_path_exact(load_trn(GOLDEN / golden["witness_file"]), 2).path) == mn
        # n = 7 as the labeled loop over all 2^21 orientations found it.
        for k, pinned in [(1, (7, 2**21, (0, 1, 3, 7, 15, 31, 63))),
                          (2, (5, 5600, (46, 8, 2, 4, 15, 30, 63))),
                          (3, (3, 240, (100, 81, 74, 35, 13, 22, 56)))]:
            mn, wit, cnt = enumerate_min_pp(7, k)
            assert (mn, cnt, wit.rows) == pinned

    def test_large_n_rejected(self):
        with pytest.raises(ValueError, match="^enumeration beyond n = 7 is infeasible$"):
            enumerate_min_pp(8, 2)


class TestCertify:
    @pytest.mark.parametrize("x, k, n_max, sizes", [
        (3, 2, 8, [1, 1, 2, 2, 0]),
        (4, 2, 7, [1, 1, 2, 4, 5, 1, 0]),
        (5, 2, 8, [1, 1, 2, 4, 12, 19, 6, 0]),
        # Every class (A000568): the dedup keeps exactly one per class.
        (7, 2, 7, [1, 1, 2, 4, 12, 56, 456]),
        # Every tournament has a Hamiltonian path, so none on 7 vertices has
        # pp_1 <= 6; a k = 1 walk run with the k >= 2 closure keeps 25.
        (6, 1, 7, [1, 1, 2, 4, 12, 56, 0]),
        (4, 3, 12, [1, 1, 2, 4, 10, 20, 19, 8, 2, 1, 1, 0]),
    ])
    def test_level_sizes(self, x, k, n_max, sizes):
        levels = search.certify(x, k, n_max)
        assert [len(level) for level in levels] == sizes
        for m, level in enumerate(levels, 1):
            for t in level:
                assert t.n == m and len(longest_power_path_exact(t, k).path) <= x

    def test_tripped_solve_raises(self, monkeypatch):
        monkeypatch.setattr(search, "_ENUMERATION_BUDGET", SolveBudget(max_states=1))
        with pytest.raises(RuntimeError, match="budget too small"):
            search.certify(5, 2, 6)


def _chains_digest(max_states):
    """sha256 over the records of the chains with n = 3..13, k = 2 and 3,
    seeds 0..3 and each state cap of ``max_states`` (None for no budget);
    440 chains for five caps."""
    digest = hashlib.sha256()
    for n in range(3, 14):
        for k in (2, 3):
            for seed in range(4):
                for cap in max_states:
                    budget = cap and SolveBudget(max_states=cap)
                    cfg = AnnealConfig(iterations=10, initial_temperature=0.8,
                                       cooling_rate=0.95, moves_per_step=6, seed=seed)
                    for r in AnnealChain(n, k, cfg, budget).run():
                        digest.update(repr((
                            r.n, r.k, r.fingerprint, r.pp, r.bound_flag, r.witness,
                            r.seed, r.method, r.iteration, r.tournament.rows)).encode())
    return digest.hexdigest()


class TestAnneal:
    def test_zero_iterations_yields_initial_record(self):
        recs = list(anneal_min_pp(6, 2, AnnealConfig(iterations=0, seed=5)))
        assert len(recs) == 1
        assert recs[0].method == "anneal" and recs[0].iteration == 0

    def test_budget_is_the_one_given(self):
        # Each solve runs within the cap the chain is given, and within
        # 800,000 states when it is given none.
        assert AnnealChain(10, 2, AnnealConfig()).budget == SolveBudget(max_states=800_000)
        for cap in (1, 60, 400_000):
            chain = AnnealChain(10, 2, AnnealConfig(), SolveBudget(max_states=cap))
            assert chain.budget.max_states == cap

    def test_stream_determinism(self):
        cfg = AnnealConfig(iterations=80, moves_per_step=4, seed=9)
        assert list(anneal_min_pp(6, 2, cfg)) == list(anneal_min_pp(6, 2, cfg))

    def test_records_verify_and_improve(self):
        cfg = AnnealConfig(iterations=120, moves_per_step=6, seed=3)
        recs = list(anneal_min_pp(6, 2, cfg))
        values = [r.pp for r in recs]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)
        for r in recs:
            assert r.tournament is not None
            assert verify_power_path(r.tournament, r.witness)[0]
            assert len(r.witness) == r.pp and not r.bound_flag

    def test_triangle_found_fast_any_seed(self):
        for seed in range(8):
            cfg = AnnealConfig(iterations=100, moves_per_step=1, seed=seed)
            assert min(r.pp for r in anneal_min_pp(3, 2, cfg)) == 2

    def test_never_below_enumeration_minimum(self):
        floor, _, _ = enumerate_min_pp(5, 2)
        for seed in range(6):
            cfg = AnnealConfig(iterations=150, moves_per_step=4, seed=seed)
            assert min(r.pp for r in anneal_min_pp(5, 2, cfg)) >= floor

    def test_budget_bound_flag(self):
        # The chain starts on the 18-vertex blow-up of the n = 6 minimizer
        # (pp = 16 < n), so every proposal is a pp < n instance that the
        # 100-state proposal solves cannot settle. A lower bound is no
        # record and leaves the chain's minimum where it was.
        cfg = AnnealConfig(iterations=2, moves_per_step=2, seed=1)
        chain = AnnealChain(18, 2, cfg, SolveBudget(max_states=100))
        chain.t = blowup(load_trn(GOLDEN / "min_pp_n6.trn").rows)
        chain.cur_pp, chain.best_pp = 16, 19
        assert list(chain.run()) == []
        assert chain.best_pp == 19
        assert chain._cache and not any(res.optimal for res in chain._cache.values())

    def test_records_are_exact_under_tripping_budgets(self):
        # Every solve of this chain trips its cap, so none of its lower
        # bounds (7 among them, on a tournament whose pp is 10) is a record.
        chain = AnnealChain(10, 2, AnnealConfig(iterations=2, moves_per_step=2, seed=2),
                            SolveBudget(max_states=20))
        assert list(chain.run()) == [] and chain.best_pp == 11
        assert not any(res.optimal for res in chain._cache.values())
        # Pinned with the oracle's pair-closure prune, which trips later:
        # seeds 1 and 3 at 200 states now also reach pp 9.
        got = {}
        for seed in range(4):
            for states in (20, 60, 200):
                cfg = AnnealConfig(iterations=20, moves_per_step=4, seed=seed)
                recs = list(anneal_min_pp(10, 2, cfg, SolveBudget(max_states=states)))
                for r in recs:
                    assert not r.bound_flag and len(r.witness) == r.pp
                    assert r.pp == len(longest_power_path_exact(r.tournament, 2).path)
                    assert verify_power_path(r.tournament, r.witness)[0]
                got[seed, states] = [(r.iteration, r.pp) for r in recs]
        assert got == {
            (0, 20): [(3, 10)], (0, 60): [(0, 10)], (0, 200): [(0, 10)],
            (1, 20): [(0, 10)], (1, 60): [(0, 10)], (1, 200): [(0, 10), (5, 9)],
            (2, 20): [(3, 10)], (2, 60): [(0, 10)], (2, 200): [(0, 10)],
            (3, 20): [(1, 10)], (3, 60): [(0, 10)], (3, 200): [(0, 10), (15, 9)],
        }

    def test_tripped_moves_are_rejected(self):
        # A move whose solve trips its cap is rejected, so a chain walks only
        # onto tournaments it solved; a tripped start counts as pp n + 1, so
        # the chain leaves it by its first solved flip. Seeds 2 and 3 start
        # on tripped solves at 20 states, and no chain ends on one (20
        # iterations do not reach a reheat).
        ended_tripped = []
        for states in (20, 60):
            for seed in range(4):
                cfg = AnnealConfig(iterations=20, moves_per_step=4, seed=seed)
                chain = AnnealChain(10, 2, cfg, SolveBudget(max_states=states))
                start = random_tournament(10, derive_seed(seed, "anneal-init"))
                list(chain.run())
                if (states, seed) in [(20, 2), (20, 3)]:
                    assert not chain._cache[start.rows].optimal
                if not chain._cache[chain.t.rows].optimal:
                    ended_tripped.append((states, seed))
        assert ended_tripped == []

    def test_one_solve_per_distinct_rows(self, monkeypatch):
        calls = []

        def counting(t, k, budget=None, **kwargs):
            calls.append(t.rows)
            return longest_power_path_exact(t, k, budget, **kwargs)

        monkeypatch.setattr(search, "longest_power_path_exact", counting)

        class WatchedChain(AnnealChain):
            def _move_to(self, t, res):
                before = len(calls)
                out = super()._move_to(t, res)
                assert len(calls) == before
                return out

        # Cooling 0.5 reheats every 20 iterations, so starts and reheats
        # are covered as well as accepted flips.
        cfg = AnnealConfig(iterations=60, initial_temperature=0.8,
                           cooling_rate=0.5, moves_per_step=6, seed=40)
        chain = WatchedChain(7, 2, cfg)
        recs = list(chain.run())
        assert recs and len(calls) == len(set(calls)) == len(chain._cache)
        assert set(calls) == set(chain._cache)
        assert len(calls) < 1 + cfg.iterations * cfg.moves_per_step

    def test_spanning_flips_skip_the_solve(self):
        # A move that asked no solve of its tournament took the current
        # spanning witness; the flip kept it valid and pp is n. The chain
        # with the skip turned off makes the same records and ends in the
        # same state, rng word included.
        def state(chain):
            return (chain.rng.getstate(), chain.t.rows, chain.temperature,
                    chain.iteration, chain.cur_pp, chain.best_pp)

        class WatchedChain(AnnealChain):
            asked = None
            skipped = 0

            def _objective(self, t):
                self.asked = t.rows
                return super()._objective(t)

            def _move_to(self, t, res):
                if self.asked != t.rows:
                    self.skipped += 1
                    check = longest_power_path_exact(t, self.k, self.budget)
                    assert check.optimal and len(check.path) == self.n
                    assert verify_power_path(t, res.path)[0]
                self.asked = None
                return super()._move_to(t, res)

        skipped = {}
        for n in range(6, 11):
            for k in (2, 3):
                for seed in range(2):
                    cfg = AnnealConfig(iterations=30, initial_temperature=0.8,
                                       cooling_rate=0.95, moves_per_step=6, seed=seed)
                    chain = WatchedChain(n, k, cfg)
                    plain = AnnealChain(n, k, cfg)
                    plain._never_trips = False
                    assert list(chain.run()) == list(plain.run()), (n, k, seed)
                    assert state(chain) == state(plain)
                    skipped[n, k] = skipped.get((n, k), 0) + chain.skipped
        # pp = n is rare at k = 3, so the skip fires there only now and then.
        assert all(skipped[n, 2] for n in range(6, 11))
        assert sum(skipped[n, 3] for n in range(6, 11))

    def test_records_and_states_match_pinned_digest(self):
        # Re-pinned when the oracle came to solve each strong component apart
        # and to trip before a finished state would pass the budget: budgeted
        # solves trip elsewhere, so budgeted chains move (digest 39f4a8b8...
        # before, 3383345a... before the pair-closure prune). Re-pinned on
        # records alone when the chain state went with checkpointing, from
        # the code that still passed the digest of records and states
        # (3294077d...).
        assert _chains_digest([None, 20, 60, 400, 10_000]) == (
            "ea2f22f1350c0ee05d936e7ccd433c15af4afd8f76f7881a151abd97b4cb0815")

    def test_unbudgeted_records_and_states_match_pinned_digest(self):
        # Pinned from the oracle that pruned by out-arcs alone and re-solved
        # records without a target: neither may move what an unbudgeted
        # chain decides or records. Re-pinned on records alone as above
        # (cbff3c44... with states).
        assert _chains_digest([None]) == (
            "d78db3c60810144b538e390be60f318db74e32e66681d9c3471459a30780adfb")

    def test_score_ordered_solve_matches_label_order(self):
        # The relabeled solve finds a maximum too, on rows whose out-degrees
        # do not rise with the label, and its witness maps back to t.
        for n in range(1, 13):
            for k in (1, 2, 3):
                for seed in range(3):
                    t = random_tournament(n, seed)
                    chain = AnnealChain(n, k, AnnealConfig())
                    res = chain._in_score_order(t)
                    want = longest_power_path_exact(t, k)
                    assert res.optimal and len(res.path) == len(want.path), (n, k, seed)
                    assert verify_power_path(t, res.path)[0]
                    (rows,) = chain._cache
                    degrees = [r.bit_count() for r in rows]
                    assert degrees == sorted(t.out_degree(v) for v in range(n))[::-1]

    @pytest.mark.parametrize("budget, solves", [(None, 123), (SolveBudget(max_states=60), 177)])
    def test_solver_calls_pinned(self, monkeypatch, budget, solves):
        # The chain that solves every flip makes 175 and 177 solver calls.
        # Without a budget the chain skips flips that keep a spanning
        # witness, solves the rest relabeled by descending out-degree, and
        # solves each record's tournament again in its own labels; the
        # witnesses of the relabeled solves decide which flips are skipped.
        # Under 60 states (against the walk's 23,050) a solve can trip, so
        # every proposal is solved as before.
        calls, proposals = [], []

        def counting(t, k, budget=None, **kwargs):
            calls.append(t.rows)
            return longest_power_path_exact(t, k, budget, **kwargs)

        def flipping(t, i, j):
            proposals.append(flip_edge(t, i, j))
            return proposals[-1]

        monkeypatch.setattr(search, "longest_power_path_exact", counting)
        monkeypatch.setattr(search, "flip_edge", flipping)
        cfg = AnnealConfig(iterations=30, initial_temperature=0.8,
                           cooling_rate=0.95, moves_per_step=6, seed=0)
        chain = AnnealChain(10, 2, cfg, budget)
        list(chain.run())
        assert len(calls) == solves
        assert chain._never_trips is (budget is None)
        assert all(t.rows in chain._cache for t in proposals) is (budget is not None)

    def test_reheat_records_new_minimum(self):
        # The freeze after iteration 120 reheats onto a pp-4 tournament while
        # the best so far is 5; that tournament is the record.
        cfg = AnnealConfig(iterations=200, initial_temperature=0.8,
                           cooling_rate=0.5, moves_per_step=6, seed=40)
        recs = list(anneal_min_pp(6, 2, cfg))
        assert [(r.iteration, r.pp) for r in recs] == [(0, 6), (1, 5), (120, 4)]
        for r in recs:
            assert verify_power_path(r.tournament, r.witness)[0]

    def test_reheating_chains_record_verified_drops(self):
        # Cooling 0.5 freezes and reheats every 20 iterations.
        for seed in range(20):
            cfg = AnnealConfig(iterations=100, initial_temperature=0.8,
                               cooling_rate=0.5, moves_per_step=6, seed=seed)
            recs = list(anneal_min_pp(4 + seed % 4, 2, cfg))
            values = [r.pp for r in recs]
            assert all(a > b for a, b in zip(values, values[1:])), (seed, values)
            for r in recs:
                assert verify_power_path(r.tournament, r.witness)[0], (seed, r.iteration)

    def test_matches_reference_chain(self):
        # Unbudgeted solves are exact, so caching the whole result gives the
        # records of the chain that cached (pp, bound) and solved each record
        # twice; cooling 0.5 reheats at iteration 20.
        def fields(r):
            return (r.iteration, r.pp, r.bound_flag, r.fingerprint, r.witness,
                    r.tournament.rows)

        for n in range(4, 11):
            for cooling, temperature in ((0.95, 1.0), (0.5, 0.8)):
                for seed in range(3):
                    cfg = AnnealConfig(iterations=30, initial_temperature=temperature,
                                       cooling_rate=cooling, moves_per_step=6, seed=seed)
                    got = [fields(r) for r in AnnealChain(n, 2, cfg).run()]
                    want = [fields(r) for r in ReferenceChain(n, 2, cfg).run()]
                    assert got == want, (n, cooling, seed)

    def test_fingerprint_computed_once_per_record(self, monkeypatch):
        calls = []

        def counting(t):
            calls.append(t.rows)
            return canonical_fingerprint(t)

        monkeypatch.setattr(search, "canonical_fingerprint", counting)
        cfg = AnnealConfig(iterations=40, initial_temperature=0.8,
                           cooling_rate=0.5, moves_per_step=6, seed=40)
        recs = list(anneal_min_pp(8, 2, cfg))
        assert calls == [r.tournament.rows for r in recs]


class TestFlip:
    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_involution(self, n, seed):
        t = random_tournament(n, seed)
        rng = Rng(seed)
        i = rng.randrange(n)
        j = (i + 1 + rng.randrange(n - 1)) % n
        assert flip_edge(flip_edge(t, i, j), i, j).rows == t.rows

    def test_flip_changes_exactly_one_pair(self):
        t = transitive(5)
        f = flip_edge(t, 1, 3)
        assert f.has_edge(3, 1) and not f.has_edge(1, 3)
        diffs = sum(
            t.has_edge(i, j) != f.has_edge(i, j)
            for i in range(5)
            for j in range(5)
        )
        assert diffs == 2

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            flip_edge(transitive(3), 1, 1)
