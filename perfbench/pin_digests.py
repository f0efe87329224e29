"""Record the output digests that ``run.py`` compares a run with.

Run from the repository root, on the code whose output bytes are the
reference:

    python3 perfbench/pin_digests.py

For each workload and seed 1 to 11 it runs the op list once, untimed and
untraced, and writes the sha256 of its outputs (the digest ``run.py``
prints) to ``perfbench/pinned_digests.json``. It stops without writing if
an op fails.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 12)


def main() -> int:
    cli_main = worker.load_cli()
    pinned = {}
    for name, make_ops in WORKLOADS.items():
        pinned[name] = {}
        for seed in SEEDS:
            work = HERE / "out" / f"pin-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                done = worker.run_pass(cli_main, make_ops(work, seed), work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if done["failures"]:
                print(f"error: {name} seed {seed}: {done['failures'][0]}", file=sys.stderr)
                return 1
            pinned[name][str(seed)] = done["digest"]
            print(name, seed, done["digest"], flush=True)
    (HERE / "pinned_digests.json").write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
