#!/usr/bin/env python3
"""Pilot runs that fix the empirical acceptance thresholds.

Each pilot writes a JSON manifest under calibration/ behind a criterion of
tests/test_acceptance.py: ``growth_pilot`` the finder's median lengths (09)
and ``anneal_pilot`` the anneal's hit rate (08).
Re-running reproduces the files byte-for-byte (all seeds fixed):

    python3 scripts/run_calibration.py
"""

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ppath.driver import find_kth_power_path
from ppath.search import AnnealConfig, anneal_min_pp
from ppath.tournament import random_tournament

OUT = Path(__file__).resolve().parents[1] / "calibration"


def _write(name: str, payload: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / name).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote calibration/{name}")


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
    growth_pilot()
    anneal_pilot()
