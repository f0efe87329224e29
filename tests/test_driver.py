import hashlib

import pytest

import ppath.driver
from ppath.driver import find_kth_power_path
from ppath.exact import (
    greedy_power_path,
    hamiltonian_path_insertion,
    longest_power_path_exact,
    verify_power_path,
)
from ppath.tournament import Tournament, random_tournament, transitive


def blowup_triangle(m):
    """Directed triangle with each vertex replaced by a transitive block."""
    n = 3 * m
    rows = [0] * n
    for c in range(3):
        base = c * m
        nxt = ((c + 1) % 3) * m
        for i in range(m):
            v = base + i
            for j in range(i + 1, m):
                rows[v] |= 1 << (base + j)
            for j in range(m):
                rows[v] |= 1 << (nxt + j)
    return Tournament(rows)


class TestGreedyRoute:
    """Inputs above the exact threshold, which the finder gives to the
    greedy: its witnesses must verify, and on transitive hosts span every
    vertex."""

    def test_transitive_full_length(self):
        out = find_kth_power_path(transitive(64), 2, seed=0)
        assert len(out) == 64

    def test_many_random_instances_verify(self):
        for seed in range(500):
            t = random_tournament(256, seed)
            out = find_kth_power_path(t, 2, seed=seed)
            assert verify_power_path(t, out)[0], seed

    def test_small_instance_depth_zero_falls_back(self):
        # n = 40 is above the exact threshold, so the trace's one record is
        # the greedy's.
        t = random_tournament(40, 2)
        trace = []
        out = find_kth_power_path(t, 2, seed=2, trace=trace)
        assert verify_power_path(t, out)[0]
        assert len(out) >= 2
        assert [rec["route"] for rec in trace] == ["greedy"]


class TestFindSquarePath:
    def test_transitive_200(self):
        assert len(find_kth_power_path(transitive(200), 2)) == 200

    def test_single_vertex(self):
        assert len(find_kth_power_path(transitive(1), 2)) == 1

    def test_base_case_matches_exact(self):
        for seed in range(30):
            t = random_tournament(12 + seed % 5, seed)
            exact = len(longest_power_path_exact(t, 2).path)
            trace = []
            got = find_kth_power_path(t, 2, seed=seed, trace=trace)
            assert len(got) == exact
            assert trace[-1]["route"] == "base"

    def test_route_determinism(self):
        t = random_tournament(300, 5)
        tr1, tr2 = [], []
        p1 = find_kth_power_path(t, 2, seed=7, trace=tr1)
        p2 = find_kth_power_path(t, 2, seed=7, trace=tr2)
        assert p1 == p2 and tr1 == tr2

    def test_trace_record_shape(self):
        t = random_tournament(300, 5)
        for k, route in ((1, "insertion"), (2, "greedy")):
            trace = []
            path = find_kth_power_path(t, k, seed=7, trace=trace)
            (rec,) = trace
            assert set(rec) == {"route", "len"}
            assert rec["route"] == route and rec["len"] == len(path)

    def test_output_never_beats_oracle_lowered_base(self, monkeypatch):
        # Lowering the exact threshold sends n = 14 to the greedy.
        monkeypatch.setattr(ppath.driver, "DEFAULT_EXACT_THRESHOLD", 6)
        for seed in range(20):
            t = random_tournament(14, seed)
            got = find_kth_power_path(t, 2, seed=seed)
            exact = len(longest_power_path_exact(t, 2).path)
            assert verify_power_path(t, got)[0]
            assert len(got) <= exact


class TestFindKthPowerPath:
    def test_transitive_high_power(self):
        assert len(find_kth_power_path(transitive(100), 5)) == 100

    def test_k1_equals_vertex_count(self):
        for seed in range(10):
            n = 6 + seed
            t = random_tournament(n, seed)
            got = find_kth_power_path(t, 1, seed=seed)
            assert len(got) == n
            exact = longest_power_path_exact(t, 1)
            assert len(exact.path) == len(got)
            assert got == hamiltonian_path_insertion(t)

    def test_k3_beats_or_matches_greedy_baseline(self):
        wins = 0
        for seed in range(10):
            t = random_tournament(216, seed)
            got = find_kth_power_path(t, 3, seed=seed)
            assert verify_power_path(t, got)[0]
            base = greedy_power_path(t, 3, seed=seed)
            wins += len(got) >= len(base)
        assert wins >= 5

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            find_kth_power_path(transitive(4), 0)


def test_blowup_driver_deterministic_and_long():
    bt = blowup_triangle(20)
    p1 = find_kth_power_path(bt, 2, seed=0)
    p2 = find_kth_power_path(bt, 2, seed=0)
    assert p1 == p2
    assert len(p1) >= 40
    assert verify_power_path(bt, p1)[0]


def test_driver_tracks_oracle_at_base_boundary():
    # n = 15, 16 sit at the exact-base threshold where the state budget can
    # truncate; the driver must stay sound and, in practice, optimal.
    from ppath.exact import SolveBudget

    equal = 0
    for seed in range(6):
        n = 15 + seed % 2
        t = random_tournament(n, seed)
        got = find_kth_power_path(t, 2, seed=seed)
        exact = longest_power_path_exact(t, 2, SolveBudget(max_states=3_000_000))
        assert exact.optimal
        assert verify_power_path(t, got)[0]
        assert len(got) <= len(exact.path)
        equal += len(got) == len(exact.path)
    assert equal >= 4


def test_find_high_power_beyond_base_threshold_is_total():
    t = transitive(20)
    got = find_kth_power_path(t, 7, seed=0)
    assert len(got) == 20
    assert verify_power_path(t, got)[0]
    r = random_tournament(40, 6)
    got = find_kth_power_path(r, 7, seed=6)
    assert verify_power_path(r, got)[0]
    assert len(got) >= 1


def test_find_witnesses_are_pinned():
    # Every witness below, vertex for vertex, hashed in order. A change to
    # the finder that moves any of them must re-pin this digest on purpose.
    inputs = [random_tournament(n, n) for n in (17, 100, 256, 600)]
    inputs += [transitive(200), blowup_triangle(40)]
    h = hashlib.sha256()
    for k in (2, 3):
        for t in inputs:
            p = find_kth_power_path(t, k, seed=0)
            h.update(",".join(map(str, p.vertices)).encode() + b";")
    assert h.hexdigest() == (
        "debc86a33ab474e303c97922d465c01f5755319d5fdfd281b5a7a85216d3a698"
    )
