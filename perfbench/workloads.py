"""Workload definitions: inputs from a seed, op lists, and output checks.

An op is one or more ``ppath`` commands run in-process through
``ppath.cli.main``, or, for the anneal, a call of ``ppath.search``'s
``anneal_min_pp`` (see ``search_ops``). Every command's exit code is
checked, and every witness, record and ``.trn`` file it writes, and every
record an anneal call returns, is re-verified by the checker in this file,
which is independent of ``ppath``'s own verifier. A check that fails raises
``CheckFailed``; the op then counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# The n = 6 minimizer of tests/golden/min_pp_n6.trn as out-neighbour bitsets.
MIN_PP_N6_ROWS = (46, 8, 2, 4, 15, 30)
# (min pp, labeled minimizers) over all 6-vertex tournaments, as pinned in
# tests/golden/min_pp_n6.json, and over all 4-vertex ones (self-check).
ENUM_N6 = (4, 80)
ENUM_N4 = (3, 16)
# Each vertex of the n = 6 minimizer blown up into a directed 3-cycle.
BLOWUP_PP = 16


class CheckFailed(Exception):
    pass


@dataclass
class Call:
    """An op command that calls a ``ppath`` function instead of the CLI.

    ``fn`` returns an exit code like ``ppath.cli.main``; the traced run
    records it as a root span named ``span``.
    """

    span: str
    fn: Callable[[], int]


@dataclass
class Op:
    """One closed-loop request: commands run back to back, then a check.

    A command is an argument list for ``ppath.cli.main`` or a ``Call``.
    ``check`` reads what the commands wrote and returns the facts the
    benchmark reports (witness vertex count, route counts, outputs).
    """

    label: str
    commands: list
    check: Callable[[list[str]], "Facts"]
    exit_codes: tuple[int, ...] = (0,)


@dataclass
class Facts:
    """What an op's check found. An output is a file written under the work
    directory, or a ``(name, bytes)`` pair for output kept in memory."""

    witness_vertices: int = 0
    routes: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# independent checker


def parse_trn(path: Path) -> np.ndarray:
    """Adjacency matrix of a .trn file; raises CheckFailed unless the file is
    a well-formed tournament."""
    data = path.read_bytes()
    head, sep, rest = data.partition(b"\n")
    count, sep2, body = rest.partition(b"\n")
    if head != b"TRN 1" or not sep or not sep2 or not count.isdigit():
        raise CheckFailed(f"{path.name}: bad header")
    n = int(count)
    if n < 1 or len(body) != n * (n + 1):
        raise CheckFailed(f"{path.name}: body is not {n} rows of {n} chars")
    grid = np.frombuffer(body, dtype=np.uint8).reshape(n, n + 1)
    if not (grid[:, n] == ord("\n")).all():
        raise CheckFailed(f"{path.name}: bad row ending")
    cells = grid[:, :n]
    if not (cells.diagonal() == ord("-")).all():
        raise CheckFailed(f"{path.name}: bad diagonal")
    adj = cells == ord("1")
    if np.count_nonzero(adj) + np.count_nonzero(cells == ord("0")) != n * (n - 1):
        raise CheckFailed(f"{path.name}: bad character")
    _check_oriented_once(adj, path.name)
    return adj


def rows_adj(rows, name: str) -> np.ndarray:
    """Adjacency matrix of out-neighbour bitsets; raises CheckFailed unless
    they form a tournament."""
    n = len(rows)
    adj = np.array([[(r >> j) & 1 for j in range(n)] for r in rows], dtype=bool)
    if adj.diagonal().any():
        raise CheckFailed(f"{name}: a loop on the diagonal")
    _check_oriented_once(adj, name)
    return adj


def _check_oriented_once(adj: np.ndarray, name: str) -> None:
    once = adj ^ adj.T
    np.fill_diagonal(once, True)
    if not once.all():
        raise CheckFailed(f"{name}: a pair is not oriented exactly once")


def check_witness(adj: np.ndarray, path: Path, k: int) -> list[int]:
    """Vertices of a witness JSON; raises CheckFailed unless it is a k-th
    power of a path in the tournament ``adj``."""
    data = json.loads(path.read_text())
    if data["k"] != k:
        raise CheckFailed(f"{path.name}: k={data['k']}, expected {k}")
    check_power_path(adj, data["vertices"], k, path.name)
    return data["vertices"]


def check_power_path(adj: np.ndarray, verts: list[int], k: int, name: str) -> None:
    """Raises CheckFailed unless ``verts`` is a k-th power of a path in the
    tournament ``adj``."""
    n = adj.shape[0]
    if len(set(verts)) != len(verts) or not all(0 <= v < n for v in verts):
        raise CheckFailed(f"{name}: repeated or out-of-range vertex")
    seq = np.asarray(verts, dtype=np.int64)
    for d in range(1, k + 1):
        if len(seq) > d and not adj[seq[:-d], seq[d:]].all():
            raise CheckFailed(f"{name}: missing edge at distance {d}")


def digest(root: Path, outputs: list) -> str:
    """sha256 over the names and bytes of the given outputs: files under
    ``root``, or ``(name, bytes)`` pairs."""
    h = hashlib.sha256()
    for out in outputs:
        name, data = out if isinstance(out, tuple) else (
            str(Path(out).relative_to(root)), Path(out).read_bytes()
        )
        h.update(name.encode() + b"\0")
        h.update(data)
    return h.hexdigest()


def pass_digest(op_digests: list[str]) -> str:
    """sha256 over the ops' digests, in op-list order."""
    return hashlib.sha256("".join(op_digests).encode()).hexdigest()


def _expect_line(stdout: list[str], i: int, prefix: str) -> None:
    """The last line command ``i`` printed must start with ``prefix``."""
    line = stdout[i].strip().splitlines()[-1] if stdout[i].strip() else ""
    if not line.startswith(prefix):
        raise CheckFailed(f"unexpected output {line!r}")


def _write_trn(path: Path, rows: list[int]) -> None:
    """Write a .trn input without ``ppath``, so inputs do not depend on the
    code under test."""
    n = len(rows)
    lines = [b"TRN 1", str(n).encode()]
    for i, r in enumerate(rows):
        lines.append(
            bytes(
                ord("-") if j == i else ord("1") if (r >> j) & 1 else ord("0")
                for j in range(n)
            )
        )
    path.write_bytes(b"\n".join(lines) + b"\n")


def _blowup_rows(perm: list[int]) -> list[int]:
    """The n = 6 minimizer with each vertex blown up into a directed 3-cycle,
    relabeled by ``perm``."""
    n = 3 * len(MIN_PP_N6_ROWS)
    rows = [0] * n
    for a in range(n):
        va, ia = divmod(a, 3)
        for b in range(n):
            vb, ib = divmod(b, 3)
            if va == vb:
                edge = (ib - ia) % 3 == 1
            else:
                edge = (MIN_PP_N6_ROWS[va] >> vb) & 1
            if a != b and edge:
                rows[perm[a]] |= 1 << perm[b]
    return rows


# ---------------------------------------------------------------------------
# workloads


def _op_seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.getrandbits(32) for _ in range(count)]


def find_ops(work: Path, seed: int, n: int = 2048) -> list[Op]:
    """``gen --type random`` then ``find -k 2`` on the generated file."""
    (s,) = _op_seeds("find_large", seed, 1)
    trn = work / "r.trn"
    route = work / "r.route.jsonl"
    witness = Path(f"{trn}.witness.json")

    def check(stdout):
        _expect_line(stdout, 0, f"{trn} n={n}")
        _expect_line(stdout, 1, "len=")
        adj = parse_trn(trn)
        if adj.shape[0] != n:
            raise CheckFailed(f"{trn.name}: n={adj.shape[0]}, expected {n}")
        verts = check_witness(adj, witness, 2)
        routes: dict = {}
        for line in route.read_text().splitlines():
            rec = json.loads(line)
            if "route" in rec:
                routes[rec["route"]] = routes.get(rec["route"], 0) + 1
        return Facts(len(verts), routes, [trn, witness])

    return [Op("find", [
        ["gen", "--type", "random", "--n", str(n), "--seed", str(s), "--out", str(trn)],
        ["find", "-k", "2", "--seed", str(s), "--trace", str(route), str(trn)],
    ], check)]


def solve_ops(work: Path, seed: int, count: int = 4) -> list[Op]:
    """``solve --exact -k 2`` on seeded relabelings of the 18-vertex blow-up.

    Its pp (16) is below n, so the exact oracle walks its whole state space.
    """
    ops = []
    rng = random.Random(f"solve_exact:{seed}")
    for j in range(count):
        perm = list(range(3 * len(MIN_PP_N6_ROWS)))
        rng.shuffle(perm)
        trn = work / f"x{j}.trn"
        _write_trn(trn, _blowup_rows(perm))
        ops.append(exact_op(f"solve{j}", trn, BLOWUP_PP))
    return ops


def exact_op(label: str, trn: Path, pp: int, budget: int | None = None) -> Op:
    witness = Path(f"{trn}.witness.json")
    cmd = ["solve", "--exact", "-k", "2", str(trn)]
    if budget is not None:
        cmd[-1:-1] = ["--budget-states", str(budget)]

    def check(stdout):
        verts = check_witness(parse_trn(trn), witness, 2)
        _expect_line(stdout, -1, f"pp={len(verts)} method=exact")
        if pp and len(verts) != pp:
            raise CheckFailed(f"{label}: pp={len(verts)}, pinned {pp}")
        return Facts(len(verts), outputs=[witness])

    return Op(label, [cmd], check)


def _check_search_dir(out_dir: Path, k: int) -> tuple[Facts, list[int]]:
    """Verify every record of a search output directory; returns the facts
    and the records' pp values."""
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckFailed(f"{out_dir.name}: no records")
    shared = [n for n, c in Counter(r["witness_file"] for r in rows).items() if c > 1]
    if shared:
        # Each row must keep its own witness; a later record written under
        # the same name has replaced an earlier one's files.
        raise CheckFailed(f"{out_dir.name}: rows share witness file {shared[0]}")
    facts = Facts()
    pps: list[int] = []
    for row in rows:
        witness = out_dir / row["witness_file"]
        trn = witness.with_suffix(".trn")
        verts = check_witness(parse_trn(trn), witness, k)
        pp = int(row["pp"])
        if row["bound_flag"] == "0" and len(verts) != pp:
            raise CheckFailed(f"{witness.name}: {len(verts)} vertices, pp={pp}")
        if pps and pp >= pps[-1]:
            raise CheckFailed(f"{out_dir.name}: records do not improve")
        pps.append(pp)
        facts.witness_vertices += len(verts)
        facts.outputs += [trn, witness]
    facts.outputs.append(out_dir / "results.csv")
    return facts, pps


def enumerate_op(work: Path, n: int, pinned: tuple[int, int]) -> Op:
    out_dir = work / f"enum{n}"

    def check(stdout):
        _expect_line(stdout, 0, "min_pp={} count={}".format(*pinned))
        facts, pps = _check_search_dir(out_dir, 2)
        if pps != [pinned[0]]:
            raise CheckFailed(f"enum{n}: records {pps}, pinned min_pp={pinned[0]}")
        return facts

    return Op(f"enum{n}", [["search", "--mode", "enumerate", "--n", str(n),
                            "--out-dir", str(out_dir)]], check)


# Defaults of ``ppath search --mode anneal`` (temperature, cooling, moves per
# step, state budget), which the anneal calls of ``search_ops`` repeat.
ANNEAL_DEFAULTS = {"initial_temperature": 0.8, "cooling_rate": 0.95, "moves_per_step": 6}
ANNEAL_BUDGET_STATES = 400_000


def anneal_op(work: Path, label: str, s: int, n: int = 10, iters: int = 60) -> Op:
    """``search --mode anneal`` through the CLI, with its output directory
    checked row by row."""
    out_dir = work / label

    def check(stdout):
        facts, pps = _check_search_dir(out_dir, 2)
        _expect_line(stdout, 0, f"records={len(pps)} best_pp={pps[-1]}")
        # A better search finds smaller pp, so anneal records do not count
        # towards witness_vertices.
        facts.witness_vertices = 0
        return facts

    return Op(label, [["search", "--mode", "anneal", "--n", str(n), "--iters",
                       str(iters), "--seed", str(s), "--out-dir", str(out_dir)]], check)


def anneal_call_op(label: str, s: int, n: int = 10, iters: int = 30) -> Op:
    """The anneal chain that ``search --mode anneal --seed s`` runs, called
    as ``ppath.search.anneal_min_pp``; every record it returns is checked.

    The CLI is not used here because it stores two records of one anneal
    step under the same file name, the later one replacing the earlier
    one's files; ``anneal_probe_op`` shows that defect on every run.
    """
    records: list = []

    def run() -> int:
        import ppath.search as search
        from ppath.exact import SolveBudget
        from ppath.rng import derive_seed

        cfg = search.AnnealConfig(
            iterations=iters, seed=derive_seed(s, "chain", 0), **ANNEAL_DEFAULTS
        )
        budget = SolveBudget(max_states=ANNEAL_BUDGET_STATES)
        records[:] = search.anneal_min_pp(n, 2, cfg, budget)
        return 0

    def check(stdout):
        if not records or records[0].iteration != 0:
            raise CheckFailed(f"{label}: the initial record is missing")
        facts = Facts()
        last_pp = n + 1
        for i, rec in enumerate(records):
            name = f"{label} record {i}"
            if (rec.n, rec.k, rec.method) != (n, 2, "anneal"):
                raise CheckFailed(f"{name}: n={rec.n} k={rec.k} method={rec.method}")
            verts = list(rec.witness.vertices)
            check_power_path(rows_adj(rec.tournament.rows, name), verts, 2, name)
            if not rec.bound_flag and len(verts) != rec.pp:
                raise CheckFailed(f"{name}: {len(verts)} vertices, pp={rec.pp}")
            if rec.pp >= last_pp:
                raise CheckFailed(f"{label}: records do not improve")
            last_pp = rec.pp
            row = [rec.fingerprint, rec.pp, rec.bound_flag, rec.seed, rec.iteration,
                   verts, [f"{r:x}" for r in rec.tournament.rows]]
            facts.outputs.append((name, json.dumps(row).encode()))
        records.clear()
        return facts

    return Op(label, [Call("search.anneal_min_pp", run)], check)


def search_ops(work: Path, seed: int, count: int = 36) -> list[Op]:
    """Seeded n = 10 anneals, then one exhaustive n = 6 enumeration.

    An anneal's cost varies with its seed: the exact-solver states it visits
    vary by about 17% (standard deviation over seeds), at 20 iterations as
    at 60. So the list holds many short anneals rather than a few long ones,
    and their sum and median vary far less from one workload seed to the
    next. An anneal comes first because the first op is also the set-up's
    warm-up.
    """
    ops = [
        anneal_call_op(f"anneal{j}", s)
        for j, s in enumerate(_op_seeds("extremal_search", seed, count))
    ]
    ops.append(enumerate_op(work, 6, ENUM_N6))
    return ops


WORKLOADS = {
    "find_large": find_ops,
    "solve_exact": solve_ops,
    "extremal_search": search_ops,
}


def recursion_probe_op(work: Path) -> Op:
    """``solve --exact`` on transitive(1500) with a small state budget.

    Exit 0, or 3 (budget exhausted) with a verified witness, passes; an
    exception fails. Fails today: the exact solver raises RecursionError.
    """
    trn = work / "probe.trn"
    op = exact_op("probe_transitive1500", trn, 0, budget=1000)
    op.commands.insert(0, ["gen", "--type", "transitive", "--n", "1500", "--out", str(trn)])
    op.exit_codes = (0, 3)
    return op


def anneal_probe_op(work: Path) -> Op:
    """``search --mode anneal`` for one step on a seed whose first step
    improves on the initial tournament. Fails today: both records are stored
    as ``w_c00_i000000``, so the first row's witness and ``.trn`` are lost."""
    return anneal_op(work, "probe_anneal_files", 18, iters=1)


# Untimed probes of known defects, run once per run after measuring; they
# count in failed_frac but not in the result's failed ops.
PROBES = {
    "solve_exact": recursion_probe_op,
    "extremal_search": anneal_probe_op,
}


def self_check_ops(work: Path) -> list[Op]:
    """Tiny versions of every op kind, for the harness self-check."""
    trn = work / "min6.trn"
    _write_trn(trn, list(MIN_PP_N6_ROWS))
    return [
        *find_ops(work, 0, n=128),
        exact_op("solve_min6", trn, 4),
        enumerate_op(work, 4, ENUM_N4),
        anneal_call_op("anneal_tiny", 1, iters=20),
    ]
