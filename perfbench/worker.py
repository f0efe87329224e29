"""One benchmark client: a fresh process that imports ``ppath`` from the
checkout's ``src``, sets up, and runs its workload's ops in a closed loop.

Started by ``run.py``; writes its raw measurements as JSON to ``--out``.

Set-up time runs from the top of this file to the end of the first op (the
warm-up): the ``ppath`` import, input generation and one op. Untraced, the
worker then runs ops in cyclic order from its share of the op list
(``--part``/``--parts``): at least that share, then more until about
``--seconds`` have passed. Before the first op and after each one it times
a fixed pure-Python loop, for a small share of the op's time: the reference
that ``run.py`` scales times by.
Traced (``--trace 1``), it alternates untraced and traced passes over the
whole list.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    PROBES,
    WORKLOADS,
    Call,
    CheckFailed,
    check_witness,
    digest,
    parse_trn,
    pass_digest,
    self_check_ops,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_cli():
    """``ppath.cli.main`` from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ppath.cli

    if Path(ppath.cli.__file__).resolve().parent != (src / "ppath").resolve():
        raise SystemExit(f"error: imported ppath from {ppath.cli.__file__}, not {src}")
    return ppath.cli.main


def run_op(main, op, tracer=None):
    """Run an op's commands, each timed, then its check; returns
    (seconds per command, facts or None, failure message or None)."""
    stdout, times = [], []
    failure = None
    if tracer is not None:
        tracer.op = op.label
        main = tracer.wrap("cli", main)
    for command in op.commands:
        if isinstance(command, Call):
            name = command.span
            fn = tracer.wrap(name, command.fn) if tracer is not None else command.fn
        else:
            name = command[0]
            fn = functools.partial(main, command)
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = fn()
        except Exception as exc:  # a command that raises is a failed op
            failure = f"{name} raised {type(exc).__name__}: {exc}"[:300]
        times.append(time.perf_counter() - start)
        stdout.append(buf.getvalue())
        if failure is None and code not in op.exit_codes:
            failure = f"{name} exited {code}: {buf.getvalue().strip()[-200:]}"
        if failure is not None:
            return times, None, failure
    try:
        return times, op.check(stdout), None
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        return times, None, f"check: {type(exc).__name__}: {exc}"[:300]


def run_pass(main, ops, work, tracer=None):
    commands, failures, op_digests = [], [], []
    witness_vertices = 0
    routes: Counter = Counter()
    for op in ops:
        times, facts, failure = run_op(main, op, tracer)
        commands.append(times)
        if failure is not None:
            failures.append(f"{op.label}: {failure}")
            continue
        witness_vertices += facts.witness_vertices
        routes.update(facts.routes)
        op_digests.append(digest(work, facts.outputs))
    result = {
        "traced": tracer is not None,
        "seconds": sum(map(sum, commands)),
        "command_seconds": commands,
        "failures": failures,
        "witness_vertices": witness_vertices,
        "digest": pass_digest(op_digests) if not failures else None,
    }
    if tracer is not None:
        layers = tracer.metrics(routes)
        layers["trace.unattributed_s"] = result["seconds"] - sum(
            layers[f"{layer}.self_s"] for layer in LAYERS
        )
        result["layers"] = layers
    return result


REF_LOOPS = 200_000
REF_SHARE = 0.04


def reference_seconds(budget: float) -> list[float]:
    """Times of a fixed pure-Python loop, run until ``budget`` seconds have
    passed (at least once): how fast this machine runs interpreted code at
    the moment."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOPS):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return times


def measure_share(main, ops, work, seconds, part, parts, warm_seconds):
    """Ops in cyclic order from this part's offset: at least ``ceil(len(ops)
    / parts)`` of them, so that the parts together cover the list, then more
    until the next would likely end after ``seconds``.

    Returns the reference loop times taken before the first op, and one
    sample per op run with the loop times taken right after it, for
    ``REF_SHARE`` of the op's time.
    """
    offset = part * len(ops) // parts
    share = -(-len(ops) // parts)
    ref_start = reference_seconds(REF_SHARE * warm_seconds)
    samples = []
    start = time.perf_counter()
    while True:
        index = (offset + len(samples)) % len(ops)
        times, facts, failure = run_op(main, ops[index])
        sample = {"op": index, "seconds": sum(times), "command_seconds": times,
                  "failure": failure, "ref": reference_seconds(REF_SHARE * sum(times))}
        if facts is not None:
            sample["witness_vertices"] = facts.witness_vertices
            sample["digest"] = digest(work, facts.outputs)
        samples.append(sample)
        spent = time.perf_counter() - start
        if len(samples) >= share and spent * (1 + 1 / len(samples)) > seconds:
            return ref_start, samples


def measure_traced(main, ops, work, seconds, spans_out):
    """Untraced and traced passes over the whole op list, alternating, until
    the next would likely end after ``seconds``; at least one of each."""
    tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        traced = len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            passes.append(run_pass(main, ops, work, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            passes[-1]["absent"] = list(tracer.absent)
            if len(passes) == 2:
                with open(spans_out, "w") as fh:
                    for i, (name, t0, t1, parent, op) in enumerate(tracer.spans):
                        fh.write(json.dumps([i, parent, op, name, t0, t1]) + "\n")
        spent = time.perf_counter() - start
        if len(passes) >= 2 and spent * (1 + 1 / len(passes)) > seconds:
            return passes


def self_check(main, work):
    """Tiny run of every op kind, traced; returns a list of problems."""
    work.mkdir()
    ops = self_check_ops(work)
    tracer = Tracer()
    tracer.install()
    try:
        done = run_pass(main, ops, work, tracer)
    finally:
        tracer.uninstall()
    problems = list(done["failures"])
    layers = done["layers"]
    if not 0 <= layers["trace.unattributed_s"] < 0.05 * done["seconds"]:
        problems.append(
            f"layer self times leave {layers['trace.unattributed_s']:.4f} s "
            f"of {done['seconds']:.4f} s unattributed"
        )
    if not (layers["exact.longest_power_path_exact.calls"] and layers["search.anneal_step.s"]
            and layers["exact.greedy.calls"] and layers["trn.bytes_written"]):
        problems.append("traced tiny run recorded no spans for some layer")
    # The checker must reject a reversed witness and a doubly oriented pair.
    trn = work / "min6.trn"
    witness = Path(f"{trn}.witness.json")
    data = json.loads(witness.read_text())
    data["vertices"].reverse()
    witness.write_text(json.dumps(data))
    try:
        check_witness(parse_trn(trn), witness, 2)
        problems.append("checker accepted a reversed witness")
    except CheckFailed:
        pass
    raw = bytearray(trn.read_bytes())
    row0 = raw.index(b"\n", raw.index(b"\n") + 1) + 1
    raw[row0 + 1] = raw[row0 + 7] = ord("1")  # cells (0,1) and (1,0) of n = 6
    trn.write_bytes(bytes(raw))
    try:
        parse_trn(trn)
        problems.append("checker accepted a doubly oriented pair")
    except CheckFailed:
        pass
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    cli_main = load_cli()
    out = Path(args.out)
    work = out.parent / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops = WORKLOADS[args.workload](work, args.seed)
        op_start = time.perf_counter()
        warm_times, _, warm_failure = run_op(cli_main, ops[0])
        result = {
            "setup_s": op_start - T0 + sum(warm_times),
            "ops_per_pass": len(ops),
            "warmup_failure": warm_failure,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        }
        if args.trace:
            result["passes"] = measure_traced(
                cli_main, ops, work, args.seconds, out.with_suffix(".spans.jsonl")
            )
        else:
            result["ref_start"], result["samples"] = measure_share(
                cli_main, ops, work, args.seconds, args.part, args.parts, sum(warm_times)
            )
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.self_check:
            result["self_check"] = self_check(cli_main, work / "self_check")
        if args.probe and args.workload in PROBES:
            probe = PROBES[args.workload](work)
            _, _, failure = run_op(cli_main, probe)
            result["probe"] = {"label": probe.label, "failure": failure}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
