#!/usr/bin/env python3
"""Pilot runs that fix the empirical acceptance thresholds.

Each pilot writes a JSON manifest under calibration/ behind a criterion of
tests/test_acceptance.py: ``goodpair_pilot`` the non-good pair fractions
(criterion 04), ``chain_pilot`` the chain lengths (05), ``growth_pilot``
the finder's median lengths (09) and ``anneal_pilot`` the anneal's hit
rate (08).
Re-running reproduces the files byte-for-byte (all seeds fixed):

    python3 scripts/run_calibration.py
"""

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ppath.driver import find_kth_power_path
from ppath.engine import DEFAULT_PARAMS, chain_power_path, good_pair_threshold
from ppath.exact import verify_power_path
from ppath.search import AnnealConfig, anneal_min_pp
from ppath.tournament import (
    VertexSet,
    bipartite_pair,
    random_split,
    random_tournament,
    transitive,
)

OUT = Path(__file__).resolve().parents[1] / "calibration"


def _write(name: str, payload: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / name).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote calibration/{name}")


def goodpair_pilot() -> None:
    """Fraction of non-good pairs inside A for random 300+300 orientations."""
    fractions = []
    for seed in range(20):
        t = random_tournament(600, seed)
        a = VertexSet.from_iterable(range(300), 600)
        b = VertexSet.from_iterable(range(300, 600), 600)
        pair = bipartite_pair(t, a, b)
        need = good_pair_threshold(pair, DEFAULT_PARAMS)
        bad = 0
        members = a.members()
        for i, x in enumerate(members):
            rx = t.rows[x]
            for y in members[i + 1 :]:
                if (rx & t.rows[y] & b.mask).bit_count() < need:
                    bad += 1
        fractions.append(bad / (300 * 299 / 2))
    _write(
        "goodpair_pilot.json",
        {
            "sides": 300,
            "eps": DEFAULT_PARAMS.eps,
            "bound_asserted": 10 * DEFAULT_PARAMS.eps,
            "seeds": list(range(20)),
            "non_good_fractions": fractions,
            "max_fraction": max(fractions),
        },
    )


def chain_pilot() -> None:
    """Chain lengths on parity-split transitive hosts and random 1000-vertex
    hosts with random balanced splits; fixes the 50-vertex / 95% bar."""
    parity = {}
    for half in (10, 50, 100):
        t = transitive(2 * half)
        a = VertexSet.from_iterable(range(0, 2 * half, 2), 2 * half)
        b = VertexSet.from_iterable(range(1, 2 * half, 2), 2 * half)
        ch = chain_power_path(t, bipartite_pair(t, a, b), 2, DEFAULT_PARAMS)
        assert verify_power_path(t, ch)[0]
        parity[str(half)] = len(ch)
    lengths = []
    for seed in range(100):
        t = random_tournament(1000, seed)
        a, b = random_split(t, seed)
        ch = chain_power_path(t, bipartite_pair(t, a, b), 2, DEFAULT_PARAMS)
        assert verify_power_path(t, ch)[0]
        lengths.append(len(ch))
    successes = sum(1 for x in lengths if x >= 50)
    _write(
        "chain_calibration.json",
        {
            "parity_transitive_lengths": parity,
            "random_n": 1000,
            "seeds": "0..99",
            "lengths": lengths,
            "min_length": min(lengths),
            "threshold_vertices": 50,
            "successes_at_threshold": successes,
            "success_bar_asserted": 95,
        },
    )


def growth_pilot() -> None:
    """Median driver lengths over 50 seeds at n in {64,128,256,512}; fixes
    the conservative n=512 floor of 23 = ceil(512^0.5)."""
    medians = {}
    for n in (64, 128, 256, 512):
        lengths = []
        for seed in range(50):
            t = random_tournament(n, seed)
            p = find_kth_power_path(t, 2, seed=seed)
            lengths.append(len(p))
        medians[str(n)] = statistics.median(lengths)
    _write(
        "growth_pilot.json",
        {
            "trials_per_n": 50,
            "seeds": "0..49",
            "medians": medians,
            "floor_at_512_asserted": 23,
        },
    )


def anneal_pilot() -> None:
    """Convergence rate of the acceptance anneal config at n=6."""
    cfg_base = dict(
        iterations=200, moves_per_step=6, initial_temperature=0.8, cooling_rate=0.95
    )
    hits = 0
    for seed in range(50):
        cfg = AnnealConfig(seed=seed, **cfg_base)
        best = min(rec.pp for rec in anneal_min_pp(6, 2, cfg))
        hits += best == 4
    _write(
        "anneal_pilot.json",
        {
            "n": 6,
            "k": 2,
            "config": cfg_base,
            "seeds": "0..49",
            "hits_at_enumerated_min": hits,
            "bar_asserted": 45,
        },
    )


if __name__ == "__main__":
    goodpair_pilot()
    chain_pilot()
    growth_pilot()
    anneal_pilot()
