#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised as BENCH_*.json.

Each side is a checkout of the repository; each run is that checkout's own
``perfbench/run.py``, unedited, for the ``run_seconds`` its ``BENCHMARK.json``
sets. Pair p of a seed runs the parent first when p is even and the change
first when it is odd. For example, from the change's checkout:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload find_large --seeds 1 7 --pairs 10 --traced-runs 2 \\
        --claim find_large/run_s --out BENCH_x.json

The output keeps the layout of ``BENCH_pr16.json``. ``parent`` and
``change`` name each side's commit (``git describe --always --dirty``). A
checkout with uncommitted edits reads ``<commit>-dirty tree <id>``, where
``<id>`` is the first 12 hex digits of the git tree of every file in it that
git does not ignore, untracked ones included: a commit of exactly those
files has that tree (``git rev-parse HEAD^{tree}``). ``src_lines`` holds
each side's ``wc -l src/ppath/*.py`` total. ``claimed`` holds the workload
and metric of ``--claim``. Per workload and seed,
for each end-to-end metric, each side's inclusive quartiles and runs,
``change_wins`` (pairs the change is better in the metric's direction) and
``ties``, and a verdict: ``within_bound`` (the change's median is no worse
than the parent's by more than the metric's ``BENCHMARK.json`` bound, a
fraction of the parent's median) and ``claim_met`` (the change is better in
at least 9 of every 10 pairs, and its median beats the parent's by more
than the parent's q3 - q1). Per workload and seed also
``all_same_as_pinned``, ``failed`` (failed ops over all runs) and
``max_failed_frac``. ``--traced-runs N`` adds N ``--trace 1`` runs per
side on the first seed, under ``traced.<workload>``, with ``counts_equal``:
for each metric whose unit is ``count``, whether every traced run of both
sides reads the same value. A workload already in the output file is
replaced; the others are kept, so one file can gather several invocations
on the same two trees. When a run exits nonzero, the
pairs finished before it are summarised and written as above, with a
``failed_run`` record (workload, side, seed, 1-based pair, exit code,
command and checkout), and the script exits 1. ``machine`` also holds, per
side, the file system of the checkout (``filesystem``: the ``/proc/mounts``
entry whose mount point is the longest prefix of the checkout's path, with
its type and options), since the cost of writing outputs depends on it, and
its bytecode cache (``bytecode``: the ``PYTHONDONTWRITEBYTECODE`` value the
runs inherit, None when unset, and whether ``src/ppath/__pycache__`` holds a
``.pyc`` for this interpreter), since a run that finds none compiles
``src/ppath`` inside its ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path, PurePosixPath

RUN_TIMEOUT_S = 600
SIDES = ("parent", "change")
METHOD = (
    "Alternating pairs per workload and seed, parent and change each run from "
    "its own checkout; the parent runs first in even pairs (0-based), the "
    "change first in odd ones. Times are the benchmark's scaled seconds. q1/q3 "
    "are inclusive quartiles. change_wins counts pairs in which the change is "
    "better in the metric's direction; ties count for neither. within_bound: "
    "the change's median is worse than the parent's by at most the metric's "
    "bound, a fraction of the parent's median. claim_met: the change wins at "
    "least 9 of every 10 pairs and beats the parent's median by more than the "
    "parent's q3 - q1."
)
_MACHINE = re.compile(r"^machine: nproc=(\S+) cpu=(.*) python=(\S+) numpy=(\S+)$")
_PINNED = re.compile(r" same as pinned: (.*)$")
_FAILED_FRAC = re.compile(r"^failed_frac=([0-9.]+)")


def parse_run(stdout: str) -> dict:
    """One run's record from the text ``perfbench/run.py`` prints."""
    lines = stdout.strip().splitlines()
    last = json.loads(lines[-1])
    run = {
        "metrics": {k: v["value"] for k, v in last["metrics"].items()},
        "units": {k: v["unit"] for k, v in last["metrics"].items()},
        "failed": last["failed"],
        "same_as_pinned": None,
        "failed_frac": None,
        "machine": None,
    }
    for line in lines[:-1]:
        if m := _MACHINE.match(line):
            run["machine"] = {"cpu": m[2], "vcpus": int(m[1]), "python": m[3], "numpy": m[4]}
        elif m := _PINNED.search(line):
            run["same_as_pinned"] = {"yes": True, "NO": False}.get(m[1])
        elif m := _FAILED_FRAC.match(line):
            run["failed_frac"] = float(m[1])
    return run


def _rounded(x):
    return round(x, 6) if isinstance(x, float) else x


def _side(values: list) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"q1": _rounded(q1), "median": _rounded(median), "q3": _rounded(q3),
            "runs": [_rounded(v) for v in values]}


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Summary of (parent run, change run) pairs of one workload and seed.

    ``better`` maps each metric to "lower" or "higher"; runs are records as
    ``parse_run`` returns them.
    """
    runs = [r for pair in pairs for r in pair]
    metrics = {}
    for name, unit in pairs[0][0]["units"].items():
        parent = [p["metrics"][name] for p, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        sign = 1 if better[name] == "higher" else -1
        metrics[name] = {
            "unit": unit,
            "better": better[name],
            "parent": _side(parent),
            "change": _side(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "ties": sum(c == p for p, c in zip(parent, change)),
        }
    return {
        "pairs": len(pairs),
        "all_same_as_pinned": all(r["same_as_pinned"] is True for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "max_failed_frac": max((r["failed_frac"] or 0.0) for r in runs),
        "metrics": metrics,
    }


def counts_equal(pairs: list[tuple[dict, dict]]) -> dict[str, bool]:
    """For each metric of unit ``count`` in (parent run, change run) pairs,
    whether every run of both sides reads the same value."""
    runs = [r for pair in pairs for r in pair]
    return {name: len({r["metrics"][name] for r in runs}) == 1
            for name, unit in runs[0]["units"].items() if unit == "count"}


def verdict(metric: dict, bound: float) -> dict:
    """``within_bound`` and ``claim_met`` of one metric as ``summarize``
    returns it, under its ``BENCHMARK.json`` bound."""
    parent, change = metric["parent"], metric["change"]
    sign = 1 if metric["better"] == "higher" else -1
    gain = sign * (change["median"] - parent["median"])
    return {
        "within_bound": -gain <= bound * abs(parent["median"]),
        "claim_met": (10 * metric["change_wins"] >= 9 * len(parent["runs"])
                      and gain > parent["q3"] - parent["q1"]),
    }


class RunFailed(Exception):
    """A benchmark run exited nonzero; ``record`` holds its exit code, command
    and checkout."""

    def __init__(self, record: dict) -> None:
        super().__init__(f"error: {record['command']} in {record['checkout']} "
                         f"exited {record['exit_code']}")
        self.record = record


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RunFailed({"exit_code": proc.returncode, "command": " ".join(cmd),
                         "checkout": str(checkout)})
    return parse_run(proc.stdout)


def run_pairs(checkouts: dict, workload: str, seed: int, seconds: float, trace: int,
              count: int) -> tuple[list[tuple[dict, dict]], dict | None]:
    """``count`` alternating pairs; the parent runs first in even pairs.

    Returns the pairs finished and, when a run fails, its ``failed_run``
    record; no run follows a failed one.
    """
    key = "trace.run_s" if trace else "run_s"
    pairs = []
    for p in range(count):
        order = SIDES if p % 2 == 0 else SIDES[::-1]
        done = {}
        for side in order:
            try:
                done[side] = run_bench(checkouts[side], workload, seed, seconds, trace)
            except RunFailed as exc:
                print(exc, file=sys.stderr)
                return pairs, {"workload": workload, "side": side, "seed": seed,
                               "pair": p + 1, **exc.record}
        times = " ".join(f"{side} {key}={done[side]['metrics'][key]:.4f}" for side in SIDES)
        print(f"{workload} seed {seed} pair {p + 1}/{count}: {times}", file=sys.stderr)
        pairs.append((done["parent"], done["change"]))
    return pairs, None


def _git_out(checkout: Path, *args: str, env=None):
    proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _git_rev(checkout: Path):
    """The checkout's ``git describe``, with the id of its working tree when
    it is dirty. The tree is built in a temporary index, so the checkout's own
    index and files are left as they are; git stores the files' blobs."""
    rev = _git_out(checkout, "describe", "--always", "--dirty", "--abbrev=7")
    if rev is None or not rev.endswith("-dirty"):
        return rev
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        if _git_out(checkout, "add", "-A", env=env) is None:
            return None
        tree = _git_out(checkout, "write-tree", env=env)
    return None if tree is None else f"{rev} tree {tree[:12]}"


def _src_lines(checkout: Path) -> int:
    """The total ``wc -l`` of the checkout's ``src/ppath/*.py``."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "ppath").glob("*.py"))


def filesystem(path: Path, mounts: str) -> dict | None:
    """The mount point, type and options of the file system that holds the
    absolute ``path``, from ``mounts`` in the format of ``/proc/mounts``: the
    entry whose mount point is the longest prefix of ``path``, the last one
    listed of several at that point (it is mounted over the others)."""
    found = None
    for line in mounts.splitlines():
        fields = line.split()
        if len(fields) < 4:
            continue
        # A space, tab, newline or backslash in a mount point is an octal escape.
        point = re.sub(r"\\([0-7]{3})", lambda m: chr(int(m[1], 8)), fields[1])
        if PurePosixPath(path).is_relative_to(point) and (
                found is None or len(point) >= len(found["mount_point"])):
            found = {"mount_point": point, "type": fields[2], "options": fields[3]}
    return found


def bytecode(checkout: Path) -> dict:
    """The ``PYTHONDONTWRITEBYTECODE`` value the runs inherit (None when
    unset), and whether the checkout's ``src/ppath/__pycache__`` holds a
    ``.pyc`` for this interpreter."""
    cache = checkout / "src" / "ppath" / "__pycache__"
    return {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "cached_pyc": any(cache.glob(f"*.{sys.implementation.cache_tag}.pyc"))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--traced-runs", type=int, default=0)
    ap.add_argument("--claim", metavar="WORKLOAD/METRIC",
                    help="the end-to-end metric the change claims to improve, and where")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.traced_runs < 0:
        ap.error("--pairs must be >= 1 and --traced-runs >= 0")
    checkouts = {"parent": args.parent, "change": args.change}
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.claim is not None:
        workload, _, metric = args.claim.partition("/")
        if workload not in [w["name"] for w in bench["workloads"]] or metric not in better:
            ap.error(f"--claim {args.claim} names no workload/end-to-end metric of BENCHMARK.json")

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    for side, checkout in checkouts.items():
        rev = _git_rev(checkout)
        if out.get(side, rev) != rev:
            ap.error(f"{args.out} holds runs of {side} {out[side]}, not of {rev}")
        out[side] = rev
    out["src_lines"] = {side: _src_lines(checkout) for side, checkout in checkouts.items()}
    if args.claim is not None:
        out["claimed"] = {"workload": workload, "metric": metric}
    out["command"] = (f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                      f"--seconds {seconds:g} --trace 0")
    out["method"] = METHOD
    if out.get("failed_run", {}).get("workload") == args.workload:
        del out["failed_run"]
    try:
        mounts = Path("/proc/mounts").read_text()
    except OSError:
        mounts = ""
    seeds = {}
    failed = None
    for seed in args.seeds:
        pairs, failed = run_pairs(checkouts, args.workload, seed, seconds, 0, args.pairs)
        if pairs:
            out["machine"] = {
                **(pairs[0][0]["machine"] or {}),
                "filesystem": {side: filesystem(checkout.resolve(), mounts)
                               for side, checkout in checkouts.items()},
                "bytecode": {side: bytecode(checkout) for side, checkout in checkouts.items()}}
            seeds[f"seed{seed}"] = summary = summarize(pairs, better)
            for name, metric in summary["metrics"].items():
                metric.update(verdict(metric, bounds[name]))
        if failed:
            break
    out.setdefault("workloads", {})[args.workload] = seeds
    if args.traced_runs and not failed:
        seed = args.seeds[0]
        pairs, failed = run_pairs(checkouts, args.workload, seed, seconds, 1,
                                  args.traced_runs)
        out.setdefault("traced", {})[args.workload] = {
            "command": f"python3 perfbench/run.py --workload {args.workload} --seed {seed} "
                       f"--seconds {seconds:g} --trace 1",
            "note": "Per-layer values of the fastest traced pass of each run, "
                    "runs in the order made.",
            **{side: [pair[i]["metrics"] for pair in pairs] for i, side in enumerate(SIDES)},
        }
        if pairs:
            out["traced"][args.workload]["counts_equal"] = counts_equal(pairs)
    if failed:
        out["failed_run"] = failed
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
