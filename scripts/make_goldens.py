#!/usr/bin/env python3
"""Produce the golden regression artifacts under tests/golden/.

Run once; outputs are committed and the test suite pins them:
  - min_pp_n6.trn / min_pp_n6.json : exhaustive minimum of pp at n=6, k=2,
    with the first minimizing tournament in orientation-code order.
  - regression_constants.json      : small exact values frozen after their
    first computation (rotational quadratic-residue instance, n=3 baseline).
  - cli_outputs.json               : sha256 of every file CLI_COMMANDS write,
    keyed by path relative to the directory they run in.
"""

import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ppath.cli import main as cli_main
from ppath.exact import longest_power_path_exact
from ppath.search import enumerate_min_pp
from ppath.tournament import rotational
from ppath.trn import save_trn

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"

# One run of each output-writing command shape, on relative paths and with no
# solve budget that trips, so every output byte is pinned.
CLI_COMMANDS = [
    ["gen", "--type", "random", "--n", "12", "--seed", "3", "--out", "r.trn"],
    ["gen", "--type", "rotational", "--n", "7", "--residues", "1,2,4", "--out", "q.trn"],
    ["solve", "--exact", "-k", "2", "--out", "exact.json", "r.trn"],
    ["solve", "--greedy", "-k", "2", "--out", "greedy.json", "q.trn"],
    ["find", "-k", "2", "--seed", "1", "--trace", "tr.jsonl", "r.trn"],
    ["table", "--n-list", "6,40", "--trials", "2", "--method", "find", "--out", "find.csv"],
    ["table", "--n-list", "4,6", "--trials", "2", "--method", "exact", "--out", "exact.csv"],
    ["search", "--mode", "enumerate", "--n", "5", "--out-dir", "enum"],
    ["search", "--mode", "enumerate", "--n", "7", "--out-dir", "enum7"],
    ["search", "--mode", "anneal", "--n", "6", "--seed", "4", "--iters", "40",
     "--out-dir", "one"],
    ["search", "--mode", "anneal", "--n", "10", "--iters", "30", "--seed", "3",
     "--out-dir", "anneal10"],
]


def cli_output_hashes() -> dict:
    """Run CLI_COMMANDS in the current directory; the sha256 of every file
    there afterwards, by relative path."""
    for argv in CLI_COMMANDS:
        code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"ppath {' '.join(argv)} exited {code}")
    return {
        p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(".").rglob("*"))
        if p.is_file()
    }


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    mn3, _, cnt3 = enumerate_min_pp(3, 2)
    mn6, wit6, cnt6 = enumerate_min_pp(6, 2)
    save_trn(wit6, GOLDEN / "min_pp_n6.trn")
    (GOLDEN / "min_pp_n6.json").write_text(
        json.dumps(
            {"n": 6, "k": 2, "min_pp": mn6, "count": cnt6,
             "witness_file": "min_pp_n6.trn"},
            indent=1, sort_keys=True,
        )
        + "\n"
    )
    qr7 = rotational(7, {1, 2, 4})
    res = longest_power_path_exact(qr7, 2)
    assert res.optimal
    (GOLDEN / "regression_constants.json").write_text(
        json.dumps(
            {
                "min_pp_n3_k2": mn3,
                "min_pp_n3_count": cnt3,
                "pp_rotational7_qr": len(res.path),
                "pp_rotational7_qr_witness": list(res.path.vertices),
            },
            indent=1, sort_keys=True,
        )
        + "\n"
    )
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            hashes = cli_output_hashes()
        finally:
            os.chdir(cwd)
    (GOLDEN / "cli_outputs.json").write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"n=3 min {mn3} (count {cnt3}); n=6 min {mn6} (count {cnt6}); "
          f"qr7 pp {len(res.path)}; {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
