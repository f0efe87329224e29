"""Empirical attack on the minimum of pp over all n-vertex tournaments.

Exhaustive enumeration is exact up to n = 7: it builds the isomorphism
classes of tournaments with pp <= x one vertex at a time and counts their
labeled copies. Larger n uses seeded simulated annealing over single-edge
flips with the exact solver as the objective. Results are SearchRecord rows;
every record's witness verifies, and enumeration records carry the exact
value.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .exact import (
    ExactResult,
    PowerPath,
    SolveBudget,
    longest_power_path_exact,
)
from .rng import Rng, derive_seed
from .tournament import Tournament, _unchecked, random_tournament

_CANONICAL_MAX_N = 10
_ENUMERATION_MAX_N = 7
_ENUMERATION_BUDGET = SolveBudget(max_states=5_000_000)


def flip_edge(t: Tournament, i: int, j: int) -> Tournament:
    """Tournament with the orientation of pair {i, j} reversed."""
    if i == j:
        raise ValueError("cannot flip a self-pair")
    rows = list(t.rows)
    # Exactly one of the two bits is set, so toggling both moves it.
    rows[i] ^= 1 << j
    rows[j] ^= 1 << i
    return _unchecked(tuple(rows))


def _refinement_classes(t: Tournament) -> list[list[int]]:
    """Iterated degree refinement; classes come out in a label-invariant order."""
    n = t.n
    rows = t.rows
    outs = [[u for u in range(n) if (rows[v] >> u) & 1] for v in range(n)]
    ins = [[u for u in range(n) if (rows[u] >> v) & 1] for v in range(n)]
    color = [len(out) for out in outs]
    while True:
        keys = [
            (color[v], tuple(sorted(color[u] for u in outs[v])),
             tuple(sorted(color[u] for u in ins[v])))
            for v in range(n)
        ]
        ranking = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        new_color = [ranking[keys[v]] for v in range(n)]
        if new_color == color:
            break
        color = new_color
    return [[v for v in range(n) if color[v] == c] for c in sorted(set(color))]


def _canonical_bits(t: Tournament) -> int:
    """Lexicographically least column-bit string over relabelings that list
    refinement classes in canonical class order.

    The vertex placed at position p contributes a p-bit column (edges from
    the already-placed vertices, earliest first). Positions are filled level
    by level: every partial relabeling still tied for the least columns so
    far is extended by each unplaced vertex of the position's class, and only
    the extensions with the least new column are kept. A prefix that is not
    least never leads to the least string, so isomorphic tournaments agree.
    """
    rows = t.rows
    # The partial relabelings tied for the least columns so far.
    ties: list[tuple[int, ...]] = [()]
    packed = 0
    for pos, cls in enumerate(cls for cls in _refinement_classes(t) for _ in cls):
        scored = []
        for placed in ties:
            for v in cls:
                if v not in placed:
                    col = 0
                    for u in placed:
                        col = col << 1 | rows[u] >> v & 1
                    scored.append((col, placed + (v,)))
        least = min(col for col, _ in scored)
        ties = [placed for col, placed in scored if col == least]
        packed = packed << pos | least
    return packed


def canonical_fingerprint(t: Tournament) -> str:
    """Isomorphism-invariant hash for n <= 10 (prefix "c"); above that a raw
    adjacency hash flagged with prefix "r" (relabelings may differ)."""
    if t.n <= _CANONICAL_MAX_N:
        bits = _canonical_bits(t)
        payload = f"{t.n}:{bits:x}"
        return "c" + hashlib.sha256(payload.encode()).hexdigest()[:16]
    payload = f"{t.n}:" + ",".join(f"{r:x}" for r in t.rows)
    return "r" + hashlib.sha256(payload.encode()).hexdigest()[:16]


def certify(x: int, k: int, n_max: int) -> list[list[Tournament]]:
    """Class representatives of the m-vertex tournaments with pp <= x, one
    level for each m = 1..n_max, stopping after the first empty level.

    Level m extends each representative of level m - 1 by a new vertex in
    all 2^(m-1) ways. An extension is kept when its solve with
    ``target = x + 1`` finds at most x vertices, and only the first
    representative of each ``_canonical_bits`` class is kept. pp <= x is
    hereditary (a path power of a subtournament is one of the whole), so
    deleting the last vertex of an m-vertex tournament with pp <= x leaves
    a copy of a level m - 1 representative, and the extensions reach every
    class.
    """
    levels: list[list[Tournament]] = []
    level = [_unchecked(())]
    for m in range(n_max):
        classes: dict[int, Tournament] = {}
        for t in level:
            for outs in range(1 << m):
                rows = tuple(r | (~outs >> i & 1) << m for i, r in enumerate(t.rows))
                ext = _unchecked(rows + (outs,))
                res = longest_power_path_exact(ext, k, _ENUMERATION_BUDGET, target=x + 1)
                if not res.optimal:
                    raise RuntimeError("enumeration budget too small for exactness")
                if len(res.path) <= x:
                    classes.setdefault(_canonical_bits(ext), ext)
        level = list(classes.values())
        levels.append(level)
        if not level:
            break
    return levels


def enumerate_min_pp(n: int, k: int) -> tuple[int, Tournament, int]:
    """Exact minimum of the longest k-power over ALL labeled tournaments on n
    vertices, with the first minimizing tournament (in orientation-code
    order) and the count of labeled minimizers.

    The minimum is the least x < n for which ``certify(x, k, n)`` reaches a
    nonempty level n, and n when there is none. Each class representative
    of that level is then relabeled by all n! permutations: the distinct
    orientation codes of a class are its n!/|Aut| labeled copies, and
    classes share no code, so the count is their number and the witness
    decodes the least code. Both are the same whichever representative a
    class keeps.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _ENUMERATION_MAX_N:
        raise ValueError(f"enumeration beyond n = {_ENUMERATION_MAX_N} is infeasible")
    for x in range(1, n):
        reps = certify(x, k, n)[-1]
        if reps:
            break
    else:
        # pp <= n always holds, so every labeled tournament is a minimizer
        # and code 0 is the least: no level n need be built or relabeled.
        x, reps = n, []
    # Code bit p, for the p-th pair (i, j) with i < j, is set when i -> j.
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bit = [[0] * n for _ in range(n)]
    for p, (i, j) in enumerate(pairs):
        bit[i][j] = 1 << p
    count, least = (0, 1 << len(pairs)) if reps else (1 << len(pairs), 0)
    for t in reps:
        arcs = [(a, b) for a in range(n) for b in range(n) if t.rows[a] >> b & 1]
        codes = {sum(bit[perm[a]][perm[b]] for a, b in arcs)
                 for perm in itertools.permutations(range(n))}
        count += len(codes)
        least = min(least, *codes)
    rows = [0] * n
    for p, (i, j) in enumerate(pairs):
        if least >> p & 1:
            rows[i] |= 1 << j
        else:
            rows[j] |= 1 << i
    return x, _unchecked(tuple(rows)), count


@dataclass(frozen=True)
class AnnealConfig:
    """Geometric-schedule annealing parameters; iterations may be 0."""

    iterations: int = 200
    initial_temperature: float = 1.0
    cooling_rate: float = 0.97
    moves_per_step: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.initial_temperature <= 0:
            raise ValueError("initial_temperature must be positive")
        if not 0 < self.cooling_rate < 1:
            raise ValueError("cooling_rate must be in (0, 1)")
        if self.moves_per_step < 1:
            raise ValueError("moves_per_step must be positive")


@dataclass(frozen=True)
class SearchRecord:
    """One extremal-search result row.

    ``tournament`` is the instance achieving the value, kept so sinks can
    store its .trn alongside the witness; it is not part of the CSV row.
    """

    n: int
    k: int
    fingerprint: str
    pp: int
    bound_flag: bool
    witness: PowerPath
    seed: int
    method: str
    iteration: int = 0
    tournament: Optional[Tournament] = None


class AnnealChain:
    """Single seeded annealing chain over edge flips, minimizing exact pp.

    ``run`` drives the chain to its last iteration and yields its records. A
    record is emitted whenever the current tournament changes (the start, an
    accepted move or a reheat) to one whose solve finished within the budget
    and whose pp is below every pp recorded so far, so recorded pp strictly
    drops and is always exact. Each exact solve runs within the given budget,
    800,000 states unless one is given; a move whose solve exhausts it is
    rejected.
    An unsolved start or reheat tournament never makes a record, and its pp
    counts as n + 1, so the chain takes the first solved flip away from it.
    The objective caches each solve's ``ExactResult`` by the rows it solved,
    so every distinct rows is solved once. Fingerprints are computed for
    records only.
    When the budget cannot trip (it is at least the walk's
    Σ_{m=1..n} C(n, m)·P(m, min(k, m)) states, 23,050 at n = 10, k = 2;
    a solve split into strong components walks each within that sum for the
    component's own size, and these sum to at most the whole one), solves
    take two shortcuts. A flip of two vertices more than k apart in
    the current tournament's spanning witness keeps that witness, so its pp
    is n and it is accepted without a solve. Any other tournament is solved
    relabeled by descending out-degree, ties by label, which reaches a
    spanning path in fewer states, and the witness is mapped back; such a
    result may carry any maximum witness. A tournament whose pp makes a
    record is solved again in its own labels, with its pp as the target, so
    a record's witness is always the lexicographically least maximum one.
    pp does not depend on the labels, so the chain's decisions, records and
    rng draws are those of the chain that solves every flip in its own
    labels.
    """

    def __init__(
        self,
        n: int,
        k: int,
        cfg: AnnealConfig,
        budget: Optional[SolveBudget] = None,
    ) -> None:
        self.n = n
        self.k = k
        self.cfg = cfg
        self.budget = budget or SolveBudget(max_states=800_000)
        self.rng = Rng(derive_seed(cfg.seed, "anneal"))
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        # run() draws the start unless one is set.
        self.t: Optional[Tournament] = None
        self.temperature = cfg.initial_temperature
        self.iteration = 0
        self.best_pp = n + 1
        self._cache: dict[tuple[int, ...], ExactResult] = {}
        # Every solve is exact when the budget covers all the walk's
        # (used set, tail) states.
        self._never_trips = self.budget.max_states >= sum(
            math.comb(n, m) * math.perm(m, min(k, m)) for m in range(1, n + 1))
        # The current tournament's solve while its witness spans and flips
        # that keep that witness may reuse it.
        self._span: Optional[ExactResult] = None

    def _objective(self, t: Tournament) -> ExactResult:
        if self._never_trips:
            res = self._in_score_order(t)
            if len(res.path) >= self.best_pp:
                return res
            # best_pp <= cur_pp, so t is moved to with no rng draw and makes
            # a record, whose witness is the least one in t's own labels: the
            # first prefix of pp vertices that the label-order walk reaches.
            return self._solve(t, len(res.path))
        return self._solve(t)

    def _solve(self, t: Tournament, target: Optional[int] = None) -> ExactResult:
        res = self._cache.get(t.rows)
        if res is None:
            res = self._cache[t.rows] = longest_power_path_exact(
                t, self.k, self.budget, target=target)
        return res

    def _in_score_order(self, t: Tournament) -> ExactResult:
        """t's solve, made on t relabeled by descending out-degree (ties by
        label), with the witness mapped back to t's labels."""
        rows = t.rows
        order = sorted(range(self.n), key=lambda v: -rows[v].bit_count())
        bit = [0] * self.n
        for i, v in enumerate(order):
            bit[v] = 1 << i
        relabeled = []
        for v in order:
            r, s = rows[v], 0
            while r:
                b = r & -r
                s |= bit[b.bit_length() - 1]
                r ^= b
            relabeled.append(s)
        res = self._solve(_unchecked(tuple(relabeled)))
        path = PowerPath(self.k, tuple(order[i] for i in res.path.vertices))
        return ExactResult(path, res.optimal, res.states)

    def _move_to(self, t: Tournament, res: ExactResult) -> list[SearchRecord]:
        """Make t current; a record when its solve is exact and its pp is a
        new minimum. An unsolved t's pp is unknown, so it counts as n + 1:
        never a record, and every solved flip away from it is accepted."""
        self.t, self.cur_pp = t, len(res.path) if res.optimal else self.n + 1
        self._span = res if self._never_trips and self.cur_pp == self.n else None
        if self.cur_pp >= self.best_pp:
            return []
        self.best_pp = self.cur_pp
        return [
            SearchRecord(
                n=self.n,
                k=self.k,
                fingerprint=canonical_fingerprint(t),
                pp=self.cur_pp,
                bound_flag=False,
                witness=res.path,
                seed=self.cfg.seed,
                method="anneal",
                iteration=self.iteration,
                tournament=t,
            )
        ]

    def step(self) -> list[SearchRecord]:
        """One temperature step of moves_per_step proposals; returns records
        for every new global minimum reached."""
        cfg = self.cfg
        out: list[SearchRecord] = []
        for _ in range(cfg.moves_per_step):
            i, j = self.pairs[self.rng.randrange(len(self.pairs))]
            cand = flip_edge(self.t, i, j)
            span = self._span
            if span is not None and abs(
                span.path.vertices.index(i) - span.path.vertices.index(j)
            ) > self.k:
                res = span  # its witness is a spanning one of cand too
            else:
                res = self._objective(cand)
            delta = len(res.path) - self.cur_pp
            if res.optimal and (
                delta <= 0 or self.rng.random() < math.exp(-delta / self.temperature)
            ):
                out += self._move_to(cand, res)
        self.iteration += 1
        self.temperature *= cfg.cooling_rate
        if self.temperature < cfg.initial_temperature * 1e-6:
            # Freeze point: reheat and restart from a fresh random tournament.
            self.temperature = cfg.initial_temperature
            t = random_tournament(self.n, self.rng.next_u64())
            out += self._move_to(t, self._objective(t))
        return out

    def run(self) -> Iterator[SearchRecord]:
        """Records of the remaining iterations, up to ``cfg.iterations``; a
        chain with no start first draws one, whose record comes first when
        its solve finishes within the budget."""
        if self.t is None:
            t = random_tournament(self.n, derive_seed(self.cfg.seed, "anneal-init"))
            yield from self._move_to(t, self._objective(t))
        while self.iteration < self.cfg.iterations:
            yield from self.step()


def anneal_min_pp(
    n: int,
    k: int,
    cfg: AnnealConfig,
    budget: Optional[SolveBudget] = None,
) -> Iterator[SearchRecord]:
    """Stream of new-minimum records from one seeded annealing chain.

    The initial tournament's record comes first when its solve finishes
    within the budget; zero iterations then yield exactly that record.
    """
    return AnnealChain(n, k, cfg, budget).run()
