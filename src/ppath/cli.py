"""Command-line harness: gen / solve / find / verify / search / table / replay.

Every subcommand that writes files also writes a RunManifest JSON next to
them (resolved flags, seed, tool version, input hashes, output list);
``ppath replay manifest.json`` re-executes the recorded run, reproducing the
outputs byte-for-byte (the table command's wall-clock millis column is the
documented exception). Exit codes: 0 ok, 1 verification failure, 2
usage/format error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .driver import find_kth_power_path
from .engine import RegularityParams
from .exact import (
    InvalidLabelError,
    PowerPath,
    SolveBudget,
    greedy_power_path,
    longest_power_path_exact,
    verify_power_path,
)
from .rng import derive_seed
from .search import (
    AnnealChain,
    AnnealConfig,
    SearchRecord,
    UseAnnealInsteadError,
    canonical_fingerprint,
    enumerate_min_pp,
)
from .tournament import (
    InvalidResiduesError,
    InvalidSizeError,
    random_tournament,
    rotational,
    transitive,
)
from .trn import TrnError, load_trn, save_trn

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
MAX_EXACT_N = 18

_SEARCH_CSV_HEADER = "n,k,fingerprint,pp,bound_flag,method,seed,witness_file"
_TABLE_CSV_HEADER = "n,seed,method,length,millis"


class UsageError(Exception):
    pass


def workers_from_env() -> int:
    """Worker cap from PPATH_THREADS (0 = auto)."""
    raw = os.environ.get("PPATH_THREADS", "1")
    try:
        w = int(raw)
    except ValueError:
        return 1
    if w == 0:
        return os.cpu_count() or 1
    return max(1, w)


def _map(fn, jobs: list) -> list:
    """[fn(j) for j in jobs], fanned out over a fork pool of up to
    PPATH_THREADS workers; serial when one worker suffices or no pool starts."""
    workers = workers_from_env()
    if workers > 1 and len(jobs) > 1:
        import multiprocessing

        try:
            with multiprocessing.get_context("fork").Pool(
                min(workers, len(jobs))
            ) as pool:
                return pool.map(fn, jobs)
        except OSError:
            pass
    return [fn(j) for j in jobs]


@dataclass
class RunManifest:
    subcommand: str
    args: dict
    seed: int
    tool: str = "ppath"
    version: str = __version__
    input_hashes: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n").encode()


def _write_manifest(path: Path, manifest: RunManifest) -> None:
    path.write_bytes(_json_bytes(asdict(manifest)))


def _witness_json_bytes(p: PowerPath) -> bytes:
    return _json_bytes({"k": p.k, "vertices": list(p.vertices)})


def _read_witness(path: Path) -> PowerPath:
    data = json.loads(path.read_text())
    return PowerPath(int(data["k"]), tuple(int(v) for v in data["vertices"]))


def _manifest_args(ns: argparse.Namespace) -> dict:
    """The parsed flags of a run, as recorded for replay."""
    return {key: value for key, value in vars(ns).items() if key != "subcommand"}


# ---------------------------------------------------------------------------
# gen


def cmd_gen(ns: argparse.Namespace) -> int:
    out = Path(ns.out)
    if ns.n < 1:
        raise UsageError("--n must be >= 1")
    if ns.type == "transitive":
        t = transitive(ns.n)
    elif ns.type == "random":
        t = random_tournament(ns.n, ns.seed)
    elif ns.type == "rotational":
        if not ns.residues:
            raise UsageError("rotational requires --residues")
        residues = {int(x) for x in ns.residues.split(",")}
        t = rotational(ns.n, residues)
    else:  # pragma: no cover - argparse choices guard this
        raise UsageError(f"unknown type {ns.type}")
    save_trn(t, out)
    manifest = RunManifest(
        subcommand="gen",
        args=_manifest_args(ns),
        seed=ns.seed,
        outputs=[str(out)],
    )
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), manifest)
    print(f"{out} n={t.n}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def cmd_solve(ns: argparse.Namespace) -> int:
    t = load_trn(ns.input)
    out = Path(ns.out) if ns.out else Path(ns.input + ".witness.json")
    exceeded = False
    if ns.exact:
        budget = SolveBudget(
            max_states=ns.budget_states,
            max_millis=ns.budget_ms,
        )
        res = longest_power_path_exact(t, ns.k, budget)
        path = res.path
        exceeded = not res.optimal
        method = "exact"
    else:
        path = greedy_power_path(t, ns.k, seed=ns.seed)
        method = "greedy"
    ok, _ = verify_power_path(t, path)
    if not ok:
        print("internal error: emitted witness failed self-verification", file=sys.stderr)
        return 70
    out.write_bytes(_witness_json_bytes(path))
    manifest = RunManifest(
        subcommand="solve",
        args=_manifest_args(ns),
        seed=ns.seed,
        input_hashes={ns.input: _sha256_file(Path(ns.input))},
        outputs=[str(out)],
    )
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), manifest)
    print(f"pp={len(path)} method={method} verified=true")
    return EXIT_BUDGET if exceeded else EXIT_OK


# ---------------------------------------------------------------------------
# find


def cmd_find(ns: argparse.Namespace) -> int:
    t = load_trn(ns.input)
    out = Path(ns.out) if ns.out else Path(ns.input + ".witness.json")
    params = RegularityParams(
        eps=ns.eps, delta=ns.delta, parts=ns.parts, samples=ns.samples
    )
    trace: Optional[list] = [] if ns.trace else None
    path = find_kth_power_path(t, ns.k, params, seed=ns.seed, trace=trace)
    ok, _ = verify_power_path(t, path)
    if not ok:
        print("internal error: emitted witness failed self-verification", file=sys.stderr)
        return 70
    out.write_bytes(_witness_json_bytes(path))
    outputs = [str(out)]
    if ns.trace:
        lines = "".join(
            json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
            for rec in trace
        )
        Path(ns.trace).write_text(lines)
        outputs.append(ns.trace)
    manifest = RunManifest(
        subcommand="find",
        args=_manifest_args(ns),
        seed=ns.seed,
        input_hashes={ns.input: _sha256_file(Path(ns.input))},
        outputs=outputs,
    )
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), manifest)
    print(f"len={len(path)} k={ns.k} verified=true")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(ns: argparse.Namespace) -> int:
    t = load_trn(ns.input)
    witness = _read_witness(Path(ns.witness))
    ok, violation = verify_power_path(t, witness)
    if ok:
        print(f"OK k={witness.k} len={len(witness)}")
        return EXIT_OK
    i, j = violation
    vi, vj = witness.vertices[i], witness.vertices[j]
    kind = "duplicate vertex" if vi == vj else "missing edge"
    print(f"INVALID {kind} at positions ({i},{j}) vertices ({vi},{vj})")
    return EXIT_VERIFY


# ---------------------------------------------------------------------------
# search


def _record_to_row(rec: SearchRecord, witness_file: str) -> str:
    return (
        f"{rec.n},{rec.k},{rec.fingerprint},{rec.pp},"
        f"{int(rec.bound_flag)},{rec.method},{rec.seed},{witness_file}"
    )


def _emit_record_files(out_dir: Path, tag: str, rec: SearchRecord) -> str:
    if rec.tournament is not None:
        ok, _ = verify_power_path(rec.tournament, rec.witness)
        if not ok:
            print("internal error: search record failed self-verification",
                  file=sys.stderr)
            raise SystemExit(70)
        save_trn(rec.tournament, out_dir / f"w_{tag}.trn")
    wit_json = out_dir / f"w_{tag}.json"
    wit_json.write_bytes(_witness_json_bytes(rec.witness))
    return wit_json.name


def _record_tag(chain_id: int, rec: SearchRecord) -> str:
    # A chain emits a record only when its best pp strictly drops, so the pp
    # makes the tag unique even for several records of one iteration.
    return f"c{chain_id:02d}_i{rec.iteration:06d}_p{rec.pp}"


def _run_anneal_chain(args: tuple) -> tuple[int, list]:
    """Worker: one fresh chain run to its last iteration; returns
    (chain_id, (tag, record) specs)."""
    chain_id, n, k, cfg, budget = args
    chain = AnnealChain(n, k, cfg, budget)
    return chain_id, [(_record_tag(chain_id, rec), rec) for rec in chain.run()]


def _write_search_csv(csv_path: Path, rows: list[str]) -> None:
    csv_path.write_text(_SEARCH_CSV_HEADER + "\n" + ("\n".join(rows) + "\n" if rows else ""))


def cmd_search(ns: argparse.Namespace) -> int:
    if ns.mode == "enumerate":
        if ns.n < 1:
            raise UsageError("--n must be >= 1")
        if ns.n > 7:
            raise UsageError("enumeration is limited to n <= 7; use --mode anneal")
    elif ns.n < 2:
        raise UsageError("--n must be >= 2 for --mode anneal")
    elif ns.resume and ns.chains != 1:
        raise UsageError("--resume requires --chains 1")
    elif ns.checkpoint_every and ns.chains != 1:
        raise UsageError("--checkpoint-every requires --chains 1")
    elif ns.stop_after is not None and ns.chains != 1:
        raise UsageError("--stop-after requires --chains 1")
    elif ns.checkpoint_every < 0:
        raise UsageError("--checkpoint-every must be >= 0")
    elif ns.stop_after is not None and ns.stop_after < 0:
        raise UsageError("--stop-after must be >= 0")
    if ns.mode == "anneal":
        budget = SolveBudget(max_states=ns.budget_states)
        cfgs = [
            AnnealConfig(
                iterations=ns.iters,
                initial_temperature=ns.temp,
                cooling_rate=ns.cool,
                moves_per_step=ns.moves,
                seed=derive_seed(ns.seed, "chain", c),
            )
            for c in range(ns.chains)
        ]
        chain, prior_rows = None, []
        if ns.resume:
            # A checkpoint of another n, k, config or budget raises
            # ValueError, a usage error, before any output exists.
            ck = json.loads(Path(ns.resume).read_text())
            chain = AnnealChain.from_state(ns.n, ns.k, cfgs[0], budget, ck["state"])
            prior_rows = ck["rows"]
        elif ns.chains == 1:
            chain = AnnealChain(ns.n, ns.k, cfgs[0], budget)
    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    manifest = RunManifest(
        subcommand="search",
        args=_manifest_args(ns),
        seed=ns.seed,
        outputs=[str(csv_path)],
    )
    if ns.mode == "enumerate":
        mn, witness_t, count = enumerate_min_pp(ns.n, ns.k)
        res = longest_power_path_exact(witness_t, ns.k)
        rec = SearchRecord(
            n=ns.n,
            k=ns.k,
            fingerprint=canonical_fingerprint(witness_t),
            pp=mn,
            bound_flag=False,
            witness=res.path,
            seed=ns.seed,
            method="enumeration",
            tournament=witness_t,
        )
        name = _emit_record_files(out_dir, "enum", rec)
        _write_search_csv(csv_path, [_record_to_row(rec, name)])
        _write_manifest(out_dir / "manifest.json", manifest)
        print(f"min_pp={mn} count={count}")
        return EXIT_OK

    if chain is None:
        results = _map(_run_anneal_chain,
                       [(c, ns.n, ns.k, cfg, budget) for c, cfg in enumerate(cfgs)])
        rows = [
            _record_to_row(rec, _emit_record_files(out_dir, tag, rec))
            for _, specs in sorted(results)
            for tag, rec in specs
        ]
        _write_search_csv(csv_path, rows)
        _write_manifest(out_dir / "manifest.json", manifest)
        return _report_search(rows, stopped=False)

    # One chain: it runs here, in segments that end at every multiple of
    # --checkpoint-every and at the --stop-after point; each segment's
    # records, the CSV so far and a checkpoint go to disk before the next.
    rows = list(prior_rows)
    end = ns.iters if ns.stop_after is None else min(ns.iters, chain.iteration + ns.stop_after)
    every = ns.checkpoint_every
    while True:
        steps = end - chain.iteration
        if every:
            steps = min(steps, every - chain.iteration % every)
        for rec in chain.run(steps):
            rows.append(_record_to_row(rec, _emit_record_files(out_dir, _record_tag(0, rec), rec)))
        _write_search_csv(csv_path, rows)
        stopped = chain.iteration < ns.iters
        if every or stopped:
            ck = {"state": chain.state_dict(), "rows": rows}
            (out_dir / "checkpoint.json").write_bytes(_json_bytes(ck))
        if chain.iteration >= end:
            break
    _write_manifest(out_dir / "manifest.json", manifest)
    return _report_search(rows, stopped)


def _report_search(rows: list[str], stopped: bool) -> int:
    best = min((int(r.split(",")[3]) for r in rows), default=-1)
    print(f"records={len(rows)} best_pp={best}")
    return EXIT_BUDGET if stopped else EXIT_OK


# ---------------------------------------------------------------------------
# table


def _table_cell(args: tuple) -> str:
    n, trial, method, k, base_seed = args
    cell_seed = derive_seed(base_seed, "table", n, trial)
    t = random_tournament(n, cell_seed)
    t0 = time.perf_counter()
    if method == "exact":
        res = longest_power_path_exact(t, k)
        length = len(res.path)
    elif method == "greedy":
        length = len(greedy_power_path(t, k, seed=cell_seed))
    else:
        length = len(find_kth_power_path(t, k, seed=cell_seed))
    millis = int(round((time.perf_counter() - t0) * 1000))
    return f"{n},{cell_seed},{method},{length},{millis}"


def cmd_table(ns: argparse.Namespace) -> int:
    sizes = [int(x) for x in ns.n_list.split(",") if x]
    if not sizes or ns.trials < 0:
        raise UsageError("need a nonempty --n-list and --trials >= 0")
    if ns.method == "exact" and max(sizes) > MAX_EXACT_N:
        raise UsageError(
            f"--method exact is limited to n <= {MAX_EXACT_N} (got {max(sizes)})"
        )
    cells = [
        (n, trial, ns.method, ns.k, ns.seed)
        for n in sizes
        for trial in range(ns.trials)
    ]
    rows = _map(_table_cell, cells)
    out = Path(ns.out)
    out.write_text(_TABLE_CSV_HEADER + "\n" + ("\n".join(rows) + "\n" if rows else ""))
    manifest = RunManifest(
        subcommand="table",
        args=_manifest_args(ns),
        seed=ns.seed,
        outputs=[str(out)],
    )
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), manifest)
    print(f"rows={len(rows)} out={out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# replay


def cmd_replay(ns: argparse.Namespace) -> int:
    manifest = json.loads(Path(ns.manifest).read_text())
    sub = manifest["subcommand"]
    if sub not in _DISPATCH or sub == "replay":
        raise UsageError(f"cannot replay subcommand {sub!r}")
    replay_ns = argparse.Namespace(**manifest["args"])
    return _DISPATCH[sub](replay_ns)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ppath",
        description="Construct, verify and bound k-th powers of paths in tournaments.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen", help="generate a tournament .trn file")
    g.add_argument("--type", required=True, choices=["random", "transitive", "rotational"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--residues", default=None, help="comma list, rotational only")
    g.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="exact or greedy longest k-power")
    mx = s.add_mutually_exclusive_group(required=True)
    mx.add_argument("--exact", action="store_true")
    mx.add_argument("--greedy", action="store_true")
    s.add_argument("-k", type=int, default=2)
    s.add_argument("--budget-ms", type=int, default=None, dest="budget_ms")
    s.add_argument("--budget-states", type=int, default=1_000_000, dest="budget_states")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.add_argument("input")

    f = sub.add_parser("find", help="route-machinery k-power finder")
    f.add_argument("-k", type=int, default=2)
    f.add_argument("--eps", type=float, default=0.01)
    f.add_argument("--delta", type=float, default=0.1)
    f.add_argument("--parts", type=int, default=8)
    f.add_argument("--samples", type=int, default=8)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--trace", default=None)
    f.add_argument("--out", default=None)
    f.add_argument("input")

    v = sub.add_parser("verify", help="check a witness JSON against a .trn")
    v.add_argument("input")
    v.add_argument("witness")

    se = sub.add_parser("search", help="extremal search for minimum pp")
    se.add_argument("--mode", required=True, choices=["enumerate", "anneal"])
    se.add_argument("--n", type=int, required=True)
    se.add_argument("-k", type=int, default=2)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--iters", type=int, default=200)
    se.add_argument("--temp", type=float, default=0.8)
    se.add_argument("--cool", type=float, default=0.95)
    se.add_argument("--moves", type=int, default=6)
    se.add_argument("--chains", type=int, default=1)
    se.add_argument("--checkpoint-every", type=int, default=0, dest="checkpoint_every")
    se.add_argument("--resume", default=None)
    se.add_argument("--stop-after", type=int, default=None, dest="stop_after",
                    help="stop cleanly after this many iterations (exit 3 if iterations remain)")
    se.add_argument("--budget-states", type=int, default=400_000, dest="budget_states")
    se.add_argument("--out-dir", required=True, dest="out_dir")

    tb = sub.add_parser("table", help="experiment CSV: length statistics vs n")
    tb.add_argument("--n-list", required=True, dest="n_list")
    tb.add_argument("--trials", type=int, required=True)
    tb.add_argument("--seed", type=int, default=0)
    tb.add_argument("--method", required=True, choices=["exact", "find", "greedy"])
    tb.add_argument("-k", type=int, default=2)
    tb.add_argument("--out", required=True)

    rp = sub.add_parser("replay", help="re-run a recorded manifest")
    rp.add_argument("manifest")

    return ap


_DISPATCH = {
    "gen": cmd_gen,
    "solve": cmd_solve,
    "find": cmd_find,
    "verify": cmd_verify,
    "search": cmd_search,
    "table": cmd_table,
    "replay": cmd_replay,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _DISPATCH[ns.subcommand](ns)
    except (
        UsageError,
        TrnError,
        InvalidSizeError,
        InvalidResiduesError,
        InvalidLabelError,
        UseAnnealInsteadError,
        json.JSONDecodeError,
        FileNotFoundError,
        KeyError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
