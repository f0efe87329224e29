"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite is also part of the default ``pytest`` run. Thresholds are
pinned here from the statement of each criterion; the committed files under
calibration/ document the pilot runs that fixed the empirical ones.

Criteria 03 (ordering dichotomy), 04 (good-pair counting), 05 (chain
construction) and 07 (concatenation route) are retired, not renumbered: they
checked pieces of the regularity construction that no command ran and that
left the package with them. The remaining numbers keep their meaning.
"""

import json
import statistics
import time

from conftest import CALIBRATION, GOLDEN
from ppath.cli import main as cli_main
from ppath.driver import find_kth_power_path
from ppath.exact import (
    hamiltonian_path_insertion,
    longest_power_path_exact,
    verify_power_path,
)
from ppath.search import AnnealConfig, anneal_min_pp, enumerate_min_pp
from ppath.tournament import Tournament, random_tournament, rotational, transitive
from ppath.trn import write_trn


def _report(num: int, ok: bool, title: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {title}"
    if detail:
        line += f" [{detail}]"
    print(line)


def test_criterion_01_oracle_forced_instances():
    """Exact oracle on forced instances: transitive and the directed triangle."""
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 13):
        for k in (1, 2, 3):
            res = longest_power_path_exact(transitive(n), k)
            ok = ok and res.optimal and len(res.path) == n
    res = longest_power_path_exact(rotational(3, {1}), 2)
    ok = ok and res.optimal and len(res.path) == 2
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, "oracle correctness on forced instances", f"{elapsed:.2f}s")
    assert ok


def test_criterion_02_hamiltonian_path_law():
    """Longest 1-power spans every vertex: all 2^21 tournaments on 7 vertices,
    plus 1000 seeded randoms at n in {10, 12, 14}.

    For each instance an n-vertex witness is built by insertion and verified
    edge by edge; a verified witness of length n together with the trivial
    upper bound n certifies that the exact value is n. The full DP oracle is
    additionally cross-checked on every 65536th orientation code and on the
    first five random seeds per n.
    """
    t0 = time.perf_counter()
    n = 7
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    beat_idx = [[0] * n for _ in range(n)]
    beat_val = [[0] * n for _ in range(n)]
    for p, (i, j) in enumerate(pairs):
        beat_idx[i][j] = beat_idx[j][i] = p
        beat_val[i][j] = 1
    bad = 0
    bi, bv = beat_idx, beat_val
    for code in range(1 << 21):
        order = [0]
        for v in range(1, 7):
            row_i = bi[v]
            row_v = bv[v]
            for pos in range(len(order)):
                u = order[pos]
                if ((code >> row_i[u]) & 1) == row_v[u]:
                    order.insert(pos, v)
                    break
            else:
                order.append(v)
        for a, b in zip(order, order[1:]):
            if ((code >> bi[a][b]) & 1) != bv[a][b]:
                bad += 1
                break
        if code % 65536 == 0:
            rows = [0] * n
            for p, (i, j) in enumerate(pairs):
                if (code >> p) & 1:
                    rows[i] |= 1 << j
                else:
                    rows[j] |= 1 << i
            t = Tournament(rows)
            res = longest_power_path_exact(t, 1)
            if not (res.optimal and len(res.path) == 7 == len(order)):
                bad += 1
    for nn in (10, 12, 14):
        for seed in range(1000):
            t = random_tournament(nn, seed)
            h = hamiltonian_path_insertion(t)
            if len(h) != nn or not verify_power_path(t, h)[0]:
                bad += 1
            if seed < 5:
                res = longest_power_path_exact(t, 1)
                if not (res.optimal and len(res.path) == nn):
                    bad += 1
    ok = bad == 0
    _report(2, ok, "Hamiltonian-path law (exhaustive n=7 + sampled)",
            f"violations={bad}, {time.perf_counter() - t0:.0f}s")
    assert ok


def test_criterion_06_driver_soundness_near_optimality():
    """200 seeded tournaments with n <= 14: driver output verified, never
    above the exact value, equal to it in at least 80% of cases."""
    t0 = time.perf_counter()
    equal = 0
    sound = True
    for seed in range(200):
        n = 8 + seed % 7  # 8..14
        t = random_tournament(n, seed)
        got = find_kth_power_path(t, 2, seed=seed)
        exact = len(longest_power_path_exact(t, 2).path)
        if not verify_power_path(t, got)[0] or len(got) > exact:
            sound = False
        if len(got) == exact:
            equal += 1
    elapsed = time.perf_counter() - t0
    ok = sound and equal >= 160 and elapsed < 300.0
    _report(6, ok, "driver soundness and near-optimality",
            f"equal {equal}/200, {elapsed:.0f}s")
    assert ok


def test_criterion_08_extremal_baseline():
    """Enumeration minima at n=3 and n=6 (golden), anneal agreement at n=6."""
    t0 = time.perf_counter()
    mn3, _, cnt3 = enumerate_min_pp(3, 2)
    golden = json.loads((GOLDEN / "min_pp_n6.json").read_text())
    mn6, wit6, cnt6 = enumerate_min_pp(6, 2)
    golden_ok = (
        mn3 == 2
        and mn6 == golden["min_pp"]
        and cnt6 == golden["count"]
        and write_trn(wit6) == (GOLDEN / golden["witness_file"]).read_bytes()
    )
    hits = 0
    for seed in range(50):
        cfg = AnnealConfig(
            iterations=200, moves_per_step=6, initial_temperature=0.8,
            cooling_rate=0.95, seed=seed,
        )
        best = min(rec.pp for rec in anneal_min_pp(6, 2, cfg))
        hits += best == mn6
    ok = golden_ok and hits >= 45
    _report(8, ok, "extremal baseline (enumeration + anneal)",
            f"min6={mn6}, anneal {hits}/50, {time.perf_counter() - t0:.0f}s")
    assert ok


def test_criterion_09_empirical_growth():
    """Median driver length over 50 seeds is non-decreasing across
    n in {64,128,256,512} and exceeds 23 at n=512."""
    t0 = time.perf_counter()
    medians = []
    for n in (64, 128, 256, 512):
        lengths = []
        for seed in range(50):
            t = random_tournament(n, seed)
            p = find_kth_power_path(t, 2, seed=seed)
            assert verify_power_path(t, p)[0]
            lengths.append(len(p))
        medians.append(statistics.median(lengths))
    elapsed = time.perf_counter() - t0
    pilot = json.loads((CALIBRATION / "growth_pilot.json").read_text())
    ok = (
        all(medians[i] <= medians[i + 1] for i in range(3))
        and medians[-1] > 23
        and elapsed < 600.0
        and [pilot["medians"][str(n)] for n in (64, 128, 256, 512)] == medians
    )
    _report(9, ok, "empirical growth trend", f"medians={medians}, {elapsed:.0f}s")
    assert ok


def test_criterion_10_manifest_replay(tmp_path):
    """Re-executing recorded manifests reproduces artifacts byte-for-byte,
    the table CSV included."""

    def snapshot(paths):
        return {p: p.read_bytes() for p in paths}

    ok = True
    details = []

    trn = tmp_path / "r.trn"
    assert cli_main(["gen", "--type", "random", "--n", "12", "--seed", "3",
                     "--out", str(trn)]) == 0
    # solve and find share the default witness path, so solve gets its own.
    assert cli_main(["solve", "--exact", "-k", "2", "--out", str(tmp_path / "s.json"),
                     str(trn)]) == 0
    assert cli_main(["find", "-k", "2", "--seed", "1", "--trace",
                     str(tmp_path / "tr.jsonl"), str(trn)]) == 0
    assert cli_main(["search", "--mode", "enumerate", "--n", "3", "-k", "2",
                     "--out-dir", str(tmp_path / "enum")]) == 0
    assert cli_main(["search", "--mode", "anneal", "--n", "6", "--seed", "5",
                     "--iters", "40", "--out-dir", str(tmp_path / "ann")]) == 0
    assert cli_main(["table", "--n-list", "4,6", "--trials", "2", "--method",
                     "exact", "--out", str(tmp_path / "tab.csv")]) == 0

    replays = [
        (tmp_path / "r.trn.manifest.json", [trn]),
        (tmp_path / "s.json.manifest.json", [tmp_path / "s.json"]),
        (tmp_path / "r.trn.witness.json.manifest.json",
         [tmp_path / "r.trn.witness.json", tmp_path / "tr.jsonl"]),
        (tmp_path / "enum" / "manifest.json",
         sorted((tmp_path / "enum").glob("w_*")) + [tmp_path / "enum" / "results.csv"]),
        (tmp_path / "ann" / "manifest.json",
         sorted((tmp_path / "ann").glob("w_*")) + [tmp_path / "ann" / "results.csv"]),
        (tmp_path / "tab.csv.manifest.json", [tmp_path / "tab.csv"]),
    ]
    for manifest, outputs in replays:
        before = snapshot(outputs)
        assert cli_main(["replay", str(manifest)]) == 0
        for p, prev in before.items():
            if p.read_bytes() != prev:
                ok = False
                details.append(p.name)
    _report(10, ok, "manifest replay reproducibility",
            "byte-identical" if ok else f"diffs: {details}")
    assert ok
