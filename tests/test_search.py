import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN,
    blowup,
    reference_refinement_classes,
    relabel,
    triangle_chain,
)
from ppath import search
from ppath.exact import SolveBudget, longest_power_path_exact, verify_power_path
from ppath.rng import Rng
from ppath.search import (
    AnnealChain,
    AnnealConfig,
    UseAnnealInsteadError,
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
        rng = Rng(11)
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
        Rng(perm_seed).shuffle(perm)
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
            fps.add(canonical_fingerprint(Tournament.from_rows(rows)))
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
        # Independent route: exact solver on every orientation, no greedy skip.
        for n in (4, 5):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            best, count, first = n + 1, 0, None
            for code in range(1 << len(pairs)):
                rows = [0] * n
                for p, (i, j) in enumerate(pairs):
                    if (code >> p) & 1:
                        rows[i] |= 1 << j
                    else:
                        rows[j] |= 1 << i
                t = Tournament.from_rows(rows)
                got = len(longest_power_path_exact(t, 2).path)
                if got < best:
                    best, count, first = got, 1, t
                elif got == best:
                    count += 1
            mn, wit, cnt = enumerate_min_pp(n, 2)
            assert (mn, cnt) == (best, count)
            assert wit.rows == first.rows

    def test_golden_n6(self):
        golden = json.loads((GOLDEN / "min_pp_n6.json").read_text())
        mn, wit, cnt = enumerate_min_pp(6, 2)
        assert mn == golden["min_pp"] and cnt == golden["count"]
        assert write_trn(wit) == (GOLDEN / golden["witness_file"]).read_bytes()
        assert len(longest_power_path_exact(load_trn(GOLDEN / golden["witness_file"]), 2).path) == mn

    def test_large_n_rejected(self):
        with pytest.raises(UseAnnealInsteadError):
            enumerate_min_pp(8, 2)


class TestAnneal:
    def test_zero_iterations_yields_initial_record(self):
        recs = list(anneal_min_pp(6, 2, AnnealConfig(iterations=0, seed=5)))
        assert len(recs) == 1
        assert recs[0].method == "anneal" and recs[0].iteration == 0

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
            assert len(r.witness) == r.pp or r.bound_flag

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
        # The chain resumes on the 18-vertex blow-up of the n = 6 minimizer
        # (pp = 16 < n), so every proposal is a pp < n instance that the
        # 100-state proposal solves cannot settle.
        cfg = AnnealConfig(iterations=2, moves_per_step=2, seed=1)
        budget = SolveBudget(max_states=50)
        chain = AnnealChain(18, 2, cfg, budget)
        list(chain.run(0))
        start = blowup(load_trn(GOLDEN / "min_pp_n6.trn").rows)
        state = {**chain.state_dict(), "rows": [f"{r:x}" for r in start.rows],
                 "cur_pp": 16, "cur_bound": False, "best_pp": 19}
        recs = list(AnnealChain.from_state(18, 2, cfg, budget, state).run())
        assert recs and all(r.bound_flag for r in recs)
        for r in recs:
            assert verify_power_path(r.tournament, r.witness)[0]

    def test_chain_state_roundtrip(self):
        cfg = AnnealConfig(iterations=60, moves_per_step=4, seed=13)
        a = AnnealChain(6, 2, cfg)
        head = list(a.run(30))
        snapshot = a.state_dict()
        tail_a = list(a.run(30))
        b = AnnealChain.from_state(6, 2, cfg, None, json.loads(json.dumps(snapshot)))
        tail_b = list(b.run(30))
        assert tail_a == tail_b
        assert head + tail_b == list(anneal_min_pp(6, 2, cfg))
        with pytest.raises(ValueError, match="does not match"):
            AnnealChain.from_state(7, 2, cfg, None, snapshot)
        with pytest.raises(ValueError):
            AnnealChain.from_state(6, 2, cfg, None, {**snapshot, "rows": ["0"] * 6})

    def test_from_state_names_first_mismatch(self):
        cfg = AnnealConfig(iterations=20, moves_per_step=4, seed=13)
        chain = AnnealChain(6, 2, cfg, SolveBudget(max_states=500))
        list(chain.run(5))
        snapshot = json.loads(json.dumps(chain.state_dict()))
        for other, budget, field in [
            (cfg, SolveBudget(max_states=500), None),
            (AnnealConfig(iterations=20, moves_per_step=4, seed=14),
             SolveBudget(max_states=500), "seed"),
            (AnnealConfig(iterations=30, moves_per_step=4, seed=14),
             SolveBudget(max_states=500), "iterations"),
            (AnnealConfig(iterations=20, cooling_rate=0.9, moves_per_step=4, seed=13),
             SolveBudget(max_states=500), "cooling_rate"),
            (cfg, SolveBudget(max_states=600), "max_states"),
            (cfg, SolveBudget(max_states=500, max_millis=10), "max_millis"),
        ]:
            if field is None:
                resumed = AnnealChain.from_state(6, 2, other, budget, snapshot)
                assert resumed.state_dict() == snapshot
                continue
            with pytest.raises(ValueError, match=f"does not match this chain: {field} "):
                AnnealChain.from_state(6, 2, other, budget, snapshot)
        # A checkpoint that predates the stored config cannot be checked.
        legacy = {key: snapshot[key] for key in ("n", "k", "rng", "rows", "temperature",
                                                 "iteration", "cur_pp", "cur_bound",
                                                 "best_pp")}
        with pytest.raises(ValueError, match="iterations"):
            AnnealChain.from_state(6, 2, cfg, SolveBudget(max_states=500), legacy)

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
