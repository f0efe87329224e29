import hashlib

import pytest

import ppath.driver
from ppath.driver import (
    ClusterDigraph,
    build_cluster_digraph,
    concatenate_along_cluster_path,
    find_kth_power_path,
)
from ppath.engine import DEFAULT_PARAMS, RegularityParams
from ppath.exact import (
    PowerPath,
    greedy_power_path,
    hamiltonian_path_insertion,
    longest_power_path_exact,
    verify_power_path,
)
from ppath.tournament import (
    Tournament,
    VertexSet,
    induced,
    random_tournament,
    transitive,
)


def exact_subfinder(t, vs):
    sub, labels = induced(t, vs)
    res = longest_power_path_exact(sub, 2)
    return PowerPath(2, tuple(labels[v] for v in res.path.vertices))


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
    return Tournament.from_rows(rows)


def consecutive_parts(n, count):
    size = n // count
    return [
        VertexSet.from_iterable(range(i * size, (i + 1) * size), n)
        for i in range(count)
    ]


class TestClusterDigraph:
    def test_transitive_three_parts(self):
        params = RegularityParams(eps=0.2, delta=0.3, parts=3, samples=4)
        cd = build_cluster_digraph(transitive(9), consecutive_parts(9, 3), params)
        assert set(cd.arcs) == {(0, 1), (1, 2), (0, 2)}
        assert cd.mid_pairs == ()

    def test_blowup_is_directed_triangle(self):
        params = RegularityParams(eps=0.05, delta=0.2, parts=3, samples=6)
        bt = blowup_triangle(20)
        cd = build_cluster_digraph(bt, consecutive_parts(60, 3), params)
        assert set(cd.arcs) == {(0, 1), (1, 2), (2, 0)}

    def test_balanced_densities_give_mid_pairs_only(self):
        params = RegularityParams(eps=0.2, delta=0.45, parts=4, samples=8)
        t = random_tournament(400, 17)
        cd = build_cluster_digraph(t, consecutive_parts(400, 4), params)
        assert cd.arcs == frozenset()
        assert len(cd.mid_pairs) == 6

    def test_rejects_overlapping_parts(self):
        t = transitive(6)
        a = VertexSet.from_iterable({0, 1}, 6)
        with pytest.raises(ValueError):
            build_cluster_digraph(t, [a, a], DEFAULT_PARAMS)

    def test_one_arc_per_pair_invariant(self):
        with pytest.raises(ValueError):
            ClusterDigraph(
                tuple(consecutive_parts(4, 2)), frozenset({(0, 1), (1, 0)}), ()
            )


class TestConcatenate:
    def test_transitive_thirty_full_join(self):
        params = RegularityParams(eps=0.05, delta=0.2, parts=3, samples=6)
        t = transitive(30)
        cd = build_cluster_digraph(t, consecutive_parts(30, 3), params)
        out = concatenate_along_cluster_path(t, cd, [0, 1, 2], params, exact_subfinder)
        assert len(out) == 30 and verify_power_path(t, out)[0]

    def test_single_part_reduces_to_subfinder(self):
        params = RegularityParams(eps=0.05, delta=0.2, parts=3, samples=6)
        t = transitive(30)
        cd = build_cluster_digraph(t, consecutive_parts(30, 3), params)
        direct = exact_subfinder(t, cd.parts[1])
        out = concatenate_along_cluster_path(t, cd, [1], params, exact_subfinder)
        assert out == direct

    def test_blowup_reaches_forty(self):
        params = RegularityParams(eps=0.05, delta=0.2, parts=3, samples=6)
        bt = blowup_triangle(20)
        cd = build_cluster_digraph(bt, consecutive_parts(60, 3), params)
        out = concatenate_along_cluster_path(bt, cd, [0, 1, 2], params, exact_subfinder)
        assert len(out) >= 40 and verify_power_path(bt, out)[0]

    def test_empty_trimmed_part_is_skipped_with_trace(self):
        # A -> B, A -> C, C -> B complete; declared arcs force the path
        # A,B,C although B sends nothing into C, so B trims to nothing.
        m = 5
        n = 3 * m
        rows = [0] * n
        for c in range(3):
            for i in range(m):
                v = c * m + i
                for j in range(i + 1, m):
                    rows[v] |= 1 << (c * m + j)
        for a in range(m):
            for x in range(m, 3 * m):
                rows[a] |= 1 << x  # A beats B and C
        for cc in range(2 * m, 3 * m):
            for bb in range(m, 2 * m):
                rows[cc] |= 1 << bb  # C beats B
        t = Tournament.from_rows(rows)
        parts = consecutive_parts(n, 3)
        cd = ClusterDigraph(tuple(parts), frozenset({(0, 1), (1, 2)}), ())
        params = RegularityParams(eps=0.05, delta=0.2, parts=3, samples=4)
        trace = []
        out = concatenate_along_cluster_path(t, cd, [0, 1, 2], params,
                                             exact_subfinder, trace=trace)
        assert any(ev.get("event") == "empty_trimmed_part" for ev in trace)
        assert verify_power_path(t, out)[0]
        assert len(out) == 2 * m  # A block then C block

    def test_invalid_part_path_rejected(self):
        params = RegularityParams(eps=0.05, delta=0.2, parts=3, samples=6)
        t = transitive(30)
        cd = build_cluster_digraph(t, consecutive_parts(30, 3), params)
        with pytest.raises(ValueError):
            concatenate_along_cluster_path(t, cd, [2, 0], params, exact_subfinder)
        with pytest.raises(ValueError):
            concatenate_along_cluster_path(t, cd, [0, 1, 0], params, exact_subfinder)


class TestSplitAndJoin:
    """Inputs the finder once sent down its split-and-join route; it must
    still return verified, full-length witnesses on them."""

    def test_transitive_full_length(self):
        out = find_kth_power_path(transitive(64), 2, seed=0)
        assert len(out) == 64

    def test_many_random_instances_verify(self):
        for seed in range(500):
            t = random_tournament(256, seed)
            out = find_kth_power_path(t, 2, seed=seed)
            assert verify_power_path(t, out)[0], seed

    def test_small_instance_depth_zero_falls_back(self):
        # Above the exact threshold the finder's one node is the greedy.
        t = random_tournament(40, 2)
        trace = []
        out = find_kth_power_path(t, 2, seed=2, trace=trace)
        assert verify_power_path(t, out)[0]
        assert len(out) >= 2
        assert [rec["route"] for rec in trace] == ["greedy"]

    def test_total_even_when_cluster_digraph_has_long_path(self):
        # A 3-part blow-up probes to a directed triangle; the finder must
        # still return a verified witness on it.
        bt = blowup_triangle(20)
        out = find_kth_power_path(bt, 2, seed=1)
        assert verify_power_path(bt, out)[0]
        assert len(out) >= 2


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
        trace = []
        find_kth_power_path(t, 2, seed=7, trace=trace)
        (rec,) = trace
        assert set(rec) == {"node", "route", "len"}
        assert rec["route"] in {"base", "greedy"}

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
