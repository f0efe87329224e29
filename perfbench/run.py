"""Benchmark of the ``ppath`` command line on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload find_large --seed 1 --seconds 30 --trace 0

Workloads, and why each is here:

- ``find_large``: ``gen --type random --n 2048`` then ``find -k 2`` on the
  file, one op per pass. Stresses generation, ``.trn`` I/O, the greedy and
  the regularity probe; bypasses the exact oracle and the search.
- ``solve_exact``: ``solve --exact -k 2`` on four seeded relabelings of an
  18-vertex tournament with pp = 16 < n, so the oracle walks its whole state
  space. Isolates the memo walk and its memory.
- ``extremal_search``: 36 seeded n = 10 anneals of 30 iterations,
  each the chain ``search --mode anneal --seed s`` runs, called through
  ``ppath.search.anneal_min_pp``; then ``search --mode enumerate --n 6``.
  Thousands of small exact solves with pp near n, canonical fingerprints
  and the objective cache; no large ``.trn`` or greedy work.

Two workloads also run, untimed, a probe of a known defect (``workloads.py``,
``PROBES``): on ``solve_exact``, ``solve --exact`` on ``transitive(1500)``
with a small ``--budget-states`` (raises ``RecursionError``); on
``extremal_search``, a one-step ``search --mode anneal`` whose two records
are stored under one file name.

Each workload is one closed-loop client: an op starts when the previous one
has been checked. Ops run in fresh worker processes (``worker.py``) with
``PPATH_THREADS`` unset, so ``ppath`` runs serially. With ``--trace 0`` three
workers run one after another; each sets up (import, input generation, one
warm-up op) and then runs ops from its third of the op list for about a
third of ``--seconds``, so that every op is run at least once and set-up is
timed three times. With ``--trace 1`` one worker alternates untraced and
traced passes over the whole list and the per-layer metrics are printed
(see ``tracer.py``).

End-to-end metrics: ``setup_s`` is the median set-up time, ``run_s`` the
time of one pass over the op list (the sum over ops of each op's median
time) and ``op_p50_s`` the median of the ops' median times.
``peak_rss_mb`` is the workers' median peak resident set after measuring,
and ``witness_vertices`` the vertices in the witnesses that one pass's
``find``, ``solve`` and enumeration commands write (on ``find_large`` it
stops a speed-up that shortens witnesses from passing).

Times are scaled to a reference speed. The workers time a fixed pure-Python
loop right after set-up and after every op. Each set-up time, and each op
time, is multiplied by ``REF_NOMINAL_S`` over the median of the loop times
taken within ``REF_WINDOW`` ops of it, which makes it the time on a machine
that runs the loop in ``REF_NOMINAL_S`` seconds. On a shared host whose
speed drifts in phases of seconds, this keeps a run's times comparable with
another run's; the unscaled times are printed and kept in the run's record.

Every op's exit code and outputs are checked (``workloads.py``). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
count the workload's ops. ``failed_frac`` also counts the probe, which
fails for as long as its defect is there; it is printed, and is a per-layer
metric. The lines before the JSON report the machine, the sample counts,
the probe, and whether the output bytes equal the digests in
``pinned_digests.json`` (recorded, by workload and seed, from the code this
benchmark was first run on). ``perfbench/out/<workload>-seed<seed>-trace<t>.json`` keeps every
sample; ``...-trace1.w0.spans.jsonl`` the spans of one traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import pass_digest  # noqa: E402

WORKLOADS = ("find_large", "solve_exact", "extremal_search")
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "witness_vertices": "count",
}
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 170
REF_NOMINAL_S = 0.02
# A single loop timing jitters by about 10%; the speed drifts more slowly.
REF_WINDOW = 2


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def scale_worker(w: dict) -> None:
    """Adds ``setup_scaled_s`` to a worker's result and ``scaled_s`` to each
    of its samples: the time multiplied by ``REF_NOMINAL_S`` over the median
    reference loop time within ``REF_WINDOW`` ops."""
    # groups[i] was timed just before the worker's i-th op.
    groups = [w["ref_start"]] + [sample["ref"] for sample in w["samples"]]

    def speed(lo, hi):
        near = [r for g in groups[max(0, lo):hi] for r in g]
        return REF_NOMINAL_S / statistics.median(near)

    w["setup_scaled_s"] = w["setup_s"] * speed(0, REF_WINDOW + 1)
    for i, sample in enumerate(w["samples"]):
        sample["scaled_s"] = sample["seconds"] * speed(i - REF_WINDOW, i + 2 + REF_WINDOW)


def run_workers(args, stem: Path) -> list[dict]:
    """Start the workers one after another; returns their results.

    With ``--trace 0`` the op list and the measuring time are split over
    several workers, so set-up is timed several times.
    """
    count = 1 if args.trace else SETUP_REPEATS
    env = {k: v for k, v in os.environ.items() if k != "PPATH_THREADS"}
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for i in range(count):
        out = Path(f"{stem}.w{i}.json")
        out.unlink(missing_ok=True)
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds / count), "--trace", str(args.trace),
            "--part", str(i), "--parts", str(count), "--out", str(out),
        ]
        if i == 0:
            cmd.append("--self-check")
        if i == count - 1:
            cmd.append("--probe")
        # subprocess.run kills and reaps the worker if it times out.
        proc = subprocess.run(
            cmd, env=env, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic())
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker {i} exited {proc.returncode}")
        results.append(json.loads(out.read_text()))
        out.unlink()
    return results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ppath" / "cli.py").is_file():
        print(f"error: no ppath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workers = run_workers(args, stem)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    measured = workers[-1]
    failures = [w["warmup_failure"] for w in workers if w["warmup_failure"]]
    problems = list(workers[0]["self_check"])
    ops_per_pass = measured["ops_per_pass"]
    if args.trace:
        passes = [p for w in workers for p in w["passes"]]
        failures += [f for p in passes for f in p["failures"]]
        attempted = len(workers) + sum(len(p["command_seconds"]) for p in passes)
        digests = sorted({p["digest"] for p in passes if p["digest"]})
    else:
        for i, w in enumerate(workers):
            for sample in w["samples"]:
                sample["worker"] = i
        samples = [s for w in workers for s in w["samples"]]
        failures += [f"op {s['op']}: {s['failure']}" for s in samples if s["failure"]]
        attempted = len(workers) + len(samples)
        by_op = [[s for s in samples if s["op"] == i] for i in range(ops_per_pass)]
        if not all(by_op):
            raise RuntimeError("an op of the list was never run")
        ok = [[s for s in op if not s["failure"]] for op in by_op]
        digests = []
        if all(ok):
            for op in ok:
                if {s["digest"] for s in op} != {op[0]["digest"]}:
                    problems.append(f"op {op[0]['op']}: output bytes differ between repeats")
                if {s["witness_vertices"] for s in op} != {op[0]["witness_vertices"]}:
                    problems.append(f"op {op[0]['op']}: witness sizes differ between repeats")
            digests = [pass_digest([op[0]["digest"] for op in ok])]
    if len(digests) > 1:
        problems.append("output bytes differ between passes of the same ops")
    probe = measured.get("probe")
    has_probe = probe is not None
    probe_failed = has_probe and probe["failure"] is not None
    failed_frac = (len(failures) + probe_failed) / (attempted + has_probe)

    if args.trace:
        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        fastest = min(traced, key=lambda p: p["seconds"])
        metrics = dict(fastest["layers"])
        metrics["trace.run_s"] = fastest["seconds"]
        metrics["trace.overhead_s"] = fastest["seconds"] - min(p["seconds"] for p in plain)
        metrics["failed_frac"] = failed_frac
        units = PER_LAYER
        raw = {}
    else:
        # Each op at its median over its repeats, each repeat scaled by the
        # reference loop times near it. On a shared 2-core VM the speed
        # drifted by up to 1.7x in phases of seconds, which moved unscaled
        # medians from run to run.
        for w in workers:
            scale_worker(w)
        ref = [r for w in workers for r in w["ref_start"]]
        ref += [r for sample in samples for r in sample["ref"]]
        per_op = {
            key: [statistics.median(s[key] for s in op) for op in by_op]
            for key in ("seconds", "scaled_s")
        }
        first_ok = [op[0] for op in ok if op]
        raw = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "run_s": sum(per_op["seconds"]),
            "op_p50_s": statistics.median(per_op["seconds"]),
            "reference_loop_s": statistics.fmean(ref),
        }
        metrics = {
            "setup_s": statistics.median(w["setup_scaled_s"] for w in workers),
            "run_s": sum(per_op["scaled_s"]),
            "op_p50_s": statistics.median(per_op["scaled_s"]),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
            "witness_vertices": sum(s["witness_vertices"] for s in first_ok),
        }
        units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names differ: {sorted(set(metrics) ^ set(units))}")

    pinned = json.loads((HERE / "pinned_digests.json").read_text())
    pinned_digest = pinned.get(args.workload, {}).get(str(args.seed))
    digest = digests[0] if len(digests) == 1 else None
    same_as_pinned = (
        None if pinned_digest is None or digest is None else digest == pinned_digest
    )
    machine = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": measured["python"],
        "numpy": measured["numpy"],
    }
    absent = sorted({a for p in traced for a in p["absent"]}) if args.trace else []
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "metrics": metrics,
        "unscaled": raw,
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "probe": probe,
        "failed_frac": failed_frac,
        "output_sha256": digest,
        "output_same_as_pinned": same_as_pinned,
        "absent_wrap_targets": absent,
        "setup_s_samples": [w["setup_s"] for w in workers],
    }
    if args.trace:
        record["passes"] = [{k: v for k, v in p.items() if k != "layers"} for p in passes]
    else:
        record["samples"] = samples
        record["ref_start"] = [w["ref_start"] for w in workers]
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    if args.trace:
        print(f"samples: {len(plain)} untraced and {len(traced)} traced passes of "
              f"{measured['ops_per_pass']} ops; per-layer metrics from the fastest "
              "traced pass")
    else:
        counts = sorted(len(op) for op in by_op)
        print(f"samples: setup_s is the median of {len(workers)} set-ups; {len(samples)} "
              f"runs of {ops_per_pass} ops ({counts[0]} to {counts[-1]} per op); run_s "
              f"and op_p50_s take each op's median")
        print(f"unscaled: setup_s={raw['setup_s']:.4f} run_s={raw['run_s']:.4f} "
              f"op_p50_s={raw['op_p50_s']:.4f}; reference loop mean "
              f"{raw['reference_loop_s']:.5f} s over {len(ref)} timings")
    print(f"output sha256={digest} same as pinned: "
          + {None: "no pinned digest", True: "yes", False: "NO"}[same_as_pinned])
    if has_probe:
        print(f"probe {probe['label']} (known defect, untimed): "
              + (f"FAILED ({probe['failure']})" if probe_failed else "ok"))
    print(f"failed_frac={failed_frac:.4f} ({len(failures) + probe_failed} of "
          f"{attempted + has_probe} ops{', probe included' if has_probe else ''})")
    if absent:
        print("absent wrap targets: " + ", ".join(absent))
    for line in failures + problems:
        print(f"problem: {line}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
