#!/usr/bin/env python3
"""Census of which driver routes fire across instance sizes.

Runs the finder at k = 2 (squares of paths) over seeded random
tournaments, tallies the route taken at every recursion node from the trace,
and prints one row per size. Useful when retuning RegularityParams: it shows where the probe
thresholds push the recursion (chain vs concatenation vs split vs greedy).

Usage: python scripts/route_census.py [--sizes 64,128,256,512] [--trials 20]
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ppath.driver import find_kth_power_path
from ppath.engine import RegularityParams
from ppath.tournament import random_tournament


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="64,128,256,512")
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--eps", type=float, default=0.01)
    ap.add_argument("--delta", type=float, default=0.1)
    ap.add_argument("--parts", type=int, default=8)
    ap.add_argument("--samples", type=int, default=8)
    ns = ap.parse_args()
    params = RegularityParams(ns.eps, ns.delta, ns.parts, ns.samples)
    print("n,trials,mean_len,route_counts")
    for n in (int(x) for x in ns.sizes.split(",")):
        routes: Counter = Counter()
        total_len = 0
        for seed in range(ns.trials):
            trace: list = []
            t = random_tournament(n, seed)
            path = find_kth_power_path(t, 2, params, seed=seed, trace=trace)
            total_len += len(path)
            routes.update(rec["route"] for rec in trace)
        counts = " ".join(f"{r}={c}" for r, c in sorted(routes.items()))
        print(f"{n},{ns.trials},{total_len / ns.trials:.1f},{counts}")


if __name__ == "__main__":
    main()
