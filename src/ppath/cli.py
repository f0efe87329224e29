"""Command-line harness: gen / solve / find / verify / search / table / replay.

Every subcommand that writes files also writes a run manifest
(resolved flags, seed, tool version, input hashes, output list), as
``<output>.manifest.json`` or, for search, ``<out-dir>/manifest.json``;
``ppath replay manifest.json`` re-executes the recorded run on its recorded
input bytes, reproducing the outputs byte-for-byte: no output depends on the
clock. Exit codes: 0 ok, 1 verification failure, 2 usage/format error, any
``ValueError``, ``KeyError`` or ``OSError`` (a malformed replay manifest, one
that records a flag this version no longer has at other than its old default
or a changed or unhashed replay input too, and any file that cannot be read
or written: missing, a directory, no permission; every destination, manifest
included, is checked before the first write, and one that is the input or
another destination is refused, links followed, dangling ones too; and a
too deeply nested JSON input's ``RecursionError``), 3 a budget of
``solve --exact`` or ``table --method exact`` exhausted, outputs written,
70 an internal fault, any other ``RuntimeError``: a witness failed
self-verification, or another self-check of the library failed.

Every file is written over the old bytes of any file at its path, then cut
to length (``trn.write_file``), with no ``fsync`` or rename: an interrupted
write can leave new bytes followed by stale ones, until a rerun or replay.

``solve`` and ``find`` hash an input of at least ``_THREADED_HASH_BYTES`` on
a second thread, begun when the command starts, so the hash overlaps reading
and solving; a smaller input is hashed when the manifest is written. Either
way the manifest bytes are the same, and the thread is joined before the
command returns or raises.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import threading
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .driver import DEFAULT_EXACT_THRESHOLD, find_kth_power_path
from .exact import (
    DEFAULT_BUDGET,
    PowerPath,
    SolveBudget,
    greedy_power_path,
    longest_power_path_exact,
    verify_power_path,
)
from .rng import derive_seed
from .search import (
    AnnealConfig,
    SearchRecord,
    anneal_min_pp,
    canonical_fingerprint,
    enumerate_min_pp,
)
from .tournament import Tournament, random_tournament, rotational, transitive
from .trn import load_trn, save_trn, write_file, write_trn

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 70
# An input of at least this many bytes (a .trn of n >= 1024) is hashed on a
# second thread. On a 2-vCPU Xeon VM, starting and joining a thread takes
# 90-130 us, against 8-16 us to hash a 342-byte input and 0.9-1.0 ms to hash
# 1 MiB.
_THREADED_HASH_BYTES = 1 << 20

# The schedule of ``search --mode anneal``, by the names of the retired flags
# --temp, --cool and --moves that once set it.
_ANNEAL_SCHEDULE = {"temp": 0.8, "cool": 0.95, "moves": 6}

_SEARCH_CSV_HEADER = "n,k,fingerprint,pp,bound_flag,method,seed,witness_file"
_TABLE_CSV_HEADER = "n,seed,method,length"


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n").encode()


def _write_manifest(path: Path, ns: argparse.Namespace, outputs: list,
                    input_hashes: Optional[dict] = None) -> None:
    """Record the run of ``ns`` (its parsed flags, for replay) at ``path``."""
    write_file(path, _json_bytes({
        "subcommand": ns.subcommand,
        "args": {key: value for key, value in vars(ns).items() if key != "subcommand"},
        "seed": ns.seed,
        "tool": "ppath",
        "version": __version__,
        "input_hashes": input_hashes or {},
        "outputs": [str(out) for out in outputs],
    }))


def _manifest_path(out: Path) -> Path:
    return out.with_suffix(out.suffix + ".manifest.json")


def _file_identity(path) -> tuple:
    """What every name of one file shares, links included: the file's device
    and inode, or, for a file not made yet, its directory's and its name once
    links are followed, dangling ones too. Two ``os.stat`` calls at most for
    a file that exists, where ``Path.resolve`` makes one per path component."""
    path = os.fspath(path)
    try:
        st = os.stat(path)
        return st.st_dev, st.st_ino
    except FileNotFoundError:
        path = os.path.realpath(path)
        st = os.stat(os.path.dirname(path))
        return st.st_dev, st.st_ino, os.path.basename(path)


def _check_destinations(*paths, source: Optional[str] = None) -> None:
    """Refuse, before anything is written, a destination that is a directory,
    whose parent directory is missing, or that is the input ``source`` or
    another destination under any name; a None or empty path is skipped."""
    taken = {_file_identity(source): "the input"} if source else {}
    for path in filter(None, paths):
        if Path(path).is_dir():
            raise ValueError(f"{path} is a directory")
        if not Path(path).parent.is_dir():
            raise ValueError(f"no directory {Path(path).parent} for {path}")
        where = _file_identity(path)
        if where in taken:
            raise ValueError(f"{path} would overwrite {taken[where]}")
        taken[where] = "another output"


def _sha256(name: str) -> str:
    """The file's sha256, read into one buffer of at most 256 KiB at a time,
    as Python 3.11's ``hashlib.file_digest`` does: the file is never held
    whole."""
    digest = hashlib.sha256()
    with open(name, "rb") as fh:
        # Sized to the file, so a small input allocates little; a buffer of
        # any size reads to the end.
        buf = bytearray(min(os.fstat(fh.fileno()).st_size + 1, 1 << 18))
        view = memoryview(buf)
        while size := fh.readinto(buf):
            digest.update(view[:size])
    return digest.hexdigest()


@contextlib.contextmanager
def _hashing(name: str):
    """Yield a function that returns ``{name: sha256 of the file}``.

    A file of at least ``_THREADED_HASH_BYTES`` is hashed on a second thread
    from entry on (``hashlib`` and file reads release the GIL); the function
    raises any error the hash raised, and the thread is joined when the block
    exits, on every path. A smaller file is hashed when the function is
    called. ``threading`` rather than ``concurrent.futures``, whose import
    (about 13 ms, most of it ``logging``) costs more than the overlap saves."""
    if Path(name).stat().st_size < _THREADED_HASH_BYTES:
        yield lambda: {name: _sha256(name)}
        return
    outcome = []

    def hash_file():
        try:
            outcome.append(_sha256(name))
        except Exception as exc:  # raised again on the command's thread
            outcome.append(exc)

    def digest():
        worker.join()
        if isinstance(outcome[0], Exception):
            raise outcome[0]
        return {name: outcome[0]}

    worker = threading.Thread(target=hash_file, name="ppath-input-hash")
    worker.start()
    try:
        yield digest
    finally:
        worker.join()


def _witness_json(t: Tournament, witness: PowerPath) -> bytes:
    """The witness JSON, once it verifies against ``t``: the bytes
    ``_json_bytes`` gives ``{"k", "vertices"}``, formatted directly."""
    if not verify_power_path(t, witness)[0]:
        raise RuntimeError("emitted witness failed self-verification")
    body = ",\n  ".join(map(str, witness.vertices))
    vertices = f"[\n  {body}\n ]" if body else "[]"
    return f'{{\n "k": {witness.k},\n "vertices": {vertices}\n}}\n'.encode()


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    write_file(path, "".join(line + "\n" for line in [header, *rows]).encode())


def _read_witness(path: Path) -> PowerPath:
    data = json.loads(path.read_text())
    # type() rather than isinstance(): JSON true/false load as bool, an int.
    if not (isinstance(data, dict) and type(data.get("k")) is int
            and isinstance(data.get("vertices"), list)
            and all(type(v) is int for v in data["vertices"])):
        raise ValueError("witness is not a JSON object with an integer k and "
                         "a list of integer vertices")
    return PowerPath(data["k"], tuple(data["vertices"]))


# ---------------------------------------------------------------------------
# gen


def cmd_gen(ns: argparse.Namespace) -> int:
    # Each type reads at most one of these flags; the others would ignore it.
    if ns.residues is not None and ns.type != "rotational":
        raise ValueError("--residues requires --type rotational")
    if ns.seed != _subparser("gen").get_default("seed") and ns.type != "random":
        raise ValueError("--seed requires --type random")
    out = Path(ns.out)
    if ns.n < 1:
        raise ValueError("--n must be >= 1")
    if ns.type == "transitive":
        t = transitive(ns.n)
    elif ns.type == "random":
        t = random_tournament(ns.n, ns.seed)
    elif ns.type == "rotational":
        if not ns.residues:
            raise ValueError("rotational requires --residues")
        residues = {int(x) for x in ns.residues.split(",")}
        t = rotational(ns.n, residues)
    _check_destinations(out, _manifest_path(out))
    save_trn(t, out)
    _write_manifest(_manifest_path(out), ns, [out])
    print(f"{out} n={t.n}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def cmd_solve(ns: argparse.Namespace) -> int:
    # Each mode would ignore the flag only the other one reads.
    if ns.greedy and ns.budget_states != _subparser("solve").get_default("budget_states"):
        raise ValueError("--budget-states requires --exact")
    if ns.exact and ns.seed != _subparser("solve").get_default("seed"):
        raise ValueError("--seed requires --greedy")
    with _hashing(ns.input) as input_hashes:
        t = load_trn(ns.input)
        out = Path(ns.out) if ns.out else Path(ns.input + ".witness.json")
        _check_destinations(out, _manifest_path(out), source=ns.input)
        exceeded = False
        if ns.exact:
            res = longest_power_path_exact(t, ns.k, SolveBudget(ns.budget_states))
            path = res.path
            exceeded = not res.optimal
            method = "exact"
        else:
            path = greedy_power_path(t, ns.k, seed=ns.seed)
            method = "greedy"
        write_file(out, _witness_json(t, path))
        _write_manifest(_manifest_path(out), ns, [out], input_hashes())
    print(f"pp={len(path)} method={method} verified=true")
    return EXIT_BUDGET if exceeded else EXIT_OK


# ---------------------------------------------------------------------------
# find


def cmd_find(ns: argparse.Namespace) -> int:
    with _hashing(ns.input) as input_hashes:
        t = load_trn(ns.input)
        out = Path(ns.out) if ns.out else Path(ns.input + ".witness.json")
        _check_destinations(out, ns.trace, _manifest_path(out), source=ns.input)
        trace: Optional[list] = [] if ns.trace else None
        path = find_kth_power_path(t, ns.k, seed=ns.seed, trace=trace)
        write_file(out, _witness_json(t, path))
        outputs = [out]
        if ns.trace:
            lines = "".join(
                json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
                for rec in trace
            )
            write_file(ns.trace, lines.encode())
            outputs.append(ns.trace)
        _write_manifest(_manifest_path(out), ns, outputs, input_hashes())
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


def cmd_search(ns: argparse.Namespace) -> int:
    if ns.k < 1:
        raise ValueError("-k must be >= 1")
    if ns.mode == "enumerate":
        if ns.n < 1:
            raise ValueError("--n must be >= 1")
        # Enumeration would ignore --seed and --iters, which only the anneal reads.
        for flag in ("seed", "iters"):
            if getattr(ns, flag) != _subparser("search").get_default(flag):
                raise ValueError(f"--{flag} requires --mode anneal")
        mn, witness_t, count = enumerate_min_pp(ns.n, ns.k)
        rec = SearchRecord(
            n=ns.n,
            k=ns.k,
            fingerprint=canonical_fingerprint(witness_t),
            pp=mn,
            bound_flag=False,
            witness=longest_power_path_exact(witness_t, ns.k).path,
            seed=ns.seed,
            method="enumeration",
            tournament=witness_t,
        )
        specs = [("enum", rec)]
    elif ns.n < 2:
        raise ValueError("--n must be >= 2 for --mode anneal")
    else:
        cfg = AnnealConfig(
            iterations=ns.iters,
            initial_temperature=_ANNEAL_SCHEDULE["temp"],
            cooling_rate=_ANNEAL_SCHEDULE["cool"],
            moves_per_step=_ANNEAL_SCHEDULE["moves"],
            seed=derive_seed(ns.seed, "chain", 0),
        )
        records = anneal_min_pp(ns.n, ns.k, cfg)
        # The chain records only a strict drop of its best pp, so the pp makes
        # the tag unique even for several records of one iteration.
        specs = [(f"c00_i{rec.iteration:06d}_p{rec.pp}", rec) for rec in records]
    # Every witness is checked before the first write.
    files = {}
    rows = []
    for tag, rec in specs:
        files[f"w_{tag}.json"] = _witness_json(rec.tournament, rec.witness)
        files[f"w_{tag}.trn"] = write_trn(rec.tournament)
        rows.append(f"{rec.n},{rec.k},{rec.fingerprint},{rec.pp},{int(rec.bound_flag)},"
                    f"{rec.method},{rec.seed},w_{tag}.json")
    # --out-dir is made only once the records exist.
    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _check_destinations(*(out_dir / name for name in [*files, "results.csv", "manifest.json"]))
    for name, data in files.items():
        write_file(out_dir / name, data)
    csv_path = out_dir / "results.csv"
    _write_csv(csv_path, _SEARCH_CSV_HEADER, rows)
    _write_manifest(out_dir / "manifest.json", ns, [csv_path])
    print(f"min_pp={mn} count={count}" if ns.mode == "enumerate"
          else f"records={len(rows)} best_pp={min((rec.pp for _, rec in specs), default=-1)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# table


def cmd_table(ns: argparse.Namespace) -> int:
    sizes = [int(x) for x in ns.n_list.split(",") if x]
    if not sizes or ns.trials < 0:
        raise ValueError("need a nonempty --n-list and --trials >= 0")
    out = Path(ns.out)
    _check_destinations(out, _manifest_path(out))
    rows = []
    exceeded = False
    for n in sizes:
        for trial in range(ns.trials):
            cell_seed = derive_seed(ns.seed, "table", n, trial)
            t = random_tournament(n, cell_seed)
            if ns.method == "exact":
                res = longest_power_path_exact(t, ns.k)
                path = res.path
                exceeded |= not res.optimal
            elif ns.method == "greedy":
                path = greedy_power_path(t, ns.k, seed=cell_seed)
            else:
                path = find_kth_power_path(t, ns.k, seed=cell_seed)
            rows.append(f"{n},{cell_seed},{ns.method},{len(path)}")
    _write_csv(out, _TABLE_CSV_HEADER, rows)
    _write_manifest(_manifest_path(out), ns, [out])
    print(f"rows={len(rows)} out={out}")
    return EXIT_BUDGET if exceeded else EXIT_OK


# ---------------------------------------------------------------------------
# replay


# Flags a subcommand no longer has, each with the old default, at which the
# run a manifest records is the run of this version.
_REMOVED_FLAGS = {
    "find": {"eps": 0.01, "delta": 0.1, "parts": 8, "samples": 8},
    "solve": {"budget_ms": None},
    "search": {"chains": 1, "checkpoint_every": 0, "resume": None, "stop_after": None,
               **_ANNEAL_SCHEDULE,
               # The chain ran at twice this flag's value: the 800,000
               # states its solves are capped at today.
               "budget_states": 400_000},
}


def cmd_replay(ns: argparse.Namespace) -> int:
    manifest = json.loads(Path(ns.manifest).read_text())
    if not isinstance(manifest, dict):
        raise ValueError("manifest is not a JSON object")
    sub = manifest["subcommand"]
    if not isinstance(sub, str) or sub not in _DISPATCH or sub == "replay":
        raise ValueError(f"cannot replay subcommand {sub!r}")
    args = manifest["args"]
    if not isinstance(args, dict):
        raise ValueError("manifest args is not a JSON object")
    # Every argument of the subcommand's parser must be recorded with a value
    # the parser could have produced, so a hand-edited manifest fails here,
    # before anything is written.
    for action in _subparser(sub)._actions:
        if action.dest == "help":
            continue
        flag = (action.option_strings or [action.dest])[0]
        if action.dest not in args:
            raise ValueError(f"manifest args lack {flag}")
        value = args[action.dest]
        kind = bool if action.nargs == 0 else action.type or str
        if value is None and action.default is None and not action.required:
            continue
        if type(value) is not kind or action.choices and value not in action.choices:
            raise ValueError(f"manifest gives {flag} the invalid value {value!r}")
    # Any other recorded flag must hold its old default, or the run recorded
    # is not the run this version would make.
    dests = {action.dest for action in _subparser(sub)._actions}
    removed = _REMOVED_FLAGS.get(sub, {})
    for key, value in args.items():
        if key not in dests and (
            key not in removed or (type(value), value) != (type(removed[key]), removed[key])
        ):
            raise ValueError(
                f"manifest records --{key.replace('_', '-')} {json.dumps(value)}, "
                "which this version no longer has")
    # A run replayed on other input bytes would overwrite its record.
    hashes = manifest.get("input_hashes")
    if not isinstance(hashes, dict) or any(type(h) is not str for h in hashes.values()):
        raise ValueError("manifest input_hashes is not a JSON object of strings")
    for name, digest in hashes.items():
        if not Path(name).is_file() or _sha256(name) != digest:
            raise ValueError(f"input {name} changed since the manifest was written")
    # Inputs no hash covers could be any bytes.
    inputs = [args["input"]] if "input" in dests else []
    if sorted(hashes) != inputs:
        raise ValueError(f"manifest input_hashes name {sorted(hashes)}, "
                         f"not the run's inputs {inputs}")
    return _DISPATCH[sub](argparse.Namespace(**{**args, "subcommand": sub}))


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ppath`` parser, built once per process: parsing leaves it
    unchanged, since every call fills a new namespace and no default is a
    mutable object."""
    ap = argparse.ArgumentParser(
        prog="ppath",
        description="Construct, verify and bound k-th powers of paths in tournaments.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen", help="generate a tournament .trn file")
    g.add_argument("--type", required=True, choices=["random", "transitive", "rotational"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0, help="random only")
    g.add_argument("--residues", default=None, help="comma list, rotational only")
    g.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="exact or greedy longest k-power")
    mx = s.add_mutually_exclusive_group(required=True)
    mx.add_argument("--exact", action="store_true")
    mx.add_argument("--greedy", action="store_true")
    s.add_argument("-k", type=int, default=2)
    s.add_argument("--budget-states", type=int, default=DEFAULT_BUDGET.max_states,
                   dest="budget_states")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.add_argument("input")

    f = sub.add_parser("find", help=(
        "k-power finder: the insertion path at k = 1, else exact up to "
        f"{DEFAULT_EXACT_THRESHOLD} vertices, greedy above"))
    f.add_argument("-k", type=int, default=2)
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
    se.add_argument("--iters", type=int, default=AnnealConfig.iterations)
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


def _subparser(name: str) -> argparse.ArgumentParser:
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "subcommand"]
    return subparsers.choices[name]


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
    # Ahead of RuntimeError, its base: ppath has no recursion, so a parse raised RecursionError.
    except (ValueError, KeyError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
