"""Empirical attack on the minimum of pp over all n-vertex tournaments.

Exhaustive enumeration is exact up to n = 7 (2^21 orientation matrices);
larger n uses seeded simulated annealing over single-edge flips with the
exact solver as the objective. Results are SearchRecord rows; every record's
witness verifies, and enumeration records carry the exact value.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass
from typing import Iterator, Optional

from .exact import (
    PowerPath,
    SolveBudget,
    _greedy_mask,
    longest_power_path_exact,
)
from .rng import Rng, derive_seed
from .tournament import Tournament, _unchecked, random_tournament

_CANONICAL_MAX_N = 10


class UseAnnealInsteadError(ValueError):
    """Exhaustive enumeration is only feasible up to n = 7."""


def flip_edge(t: Tournament, i: int, j: int) -> Tournament:
    """Tournament with the orientation of pair {i, j} reversed."""
    if i == j:
        raise ValueError("cannot flip a self-pair")
    rows = list(t.rows)
    if (rows[i] >> j) & 1:
        rows[i] &= ~(1 << j)
        rows[j] |= 1 << i
    else:
        rows[i] |= 1 << j
        rows[j] &= ~(1 << i)
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
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(color[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def _canonical_bits(t: Tournament) -> int:
    """Lexicographically least column-bit string over relabelings that list
    refinement classes in canonical class order.

    The vertex placed at position p contributes a p-bit column (edges from
    the already-placed vertices, earliest first). Only minimum-column
    candidates are explored at each position, branching on ties, and the
    overall minimum string wins, so isomorphic tournaments agree.
    """
    n = t.n
    rows = t.rows
    classes = _refinement_classes(t)
    class_of_slot: list[int] = []
    for ci, cls in enumerate(classes):
        class_of_slot.extend([ci] * len(cls))

    best: Optional[tuple[int, ...]] = None

    def rec(placed: list[int], used_mask: int, cols: list[int]) -> None:
        nonlocal best
        pos = len(placed)
        if pos == n:
            key = tuple(cols)
            if best is None or key < best:
                best = key
            return
        scored = []
        for v in classes[class_of_slot[pos]]:
            if (used_mask >> v) & 1:
                continue
            col = 0
            for u in placed:
                col = (col << 1) | ((rows[u] >> v) & 1)
            scored.append((col, v))
        min_col = min(col for col, _ in scored)
        for col, v in sorted(scored):
            if col != min_col:
                break
            cols.append(col)
            placed.append(v)
            rec(placed, used_mask | (1 << v), cols)
            placed.pop()
            cols.pop()

    rec([], 0, [])
    assert best is not None
    packed = 0
    for pos, col in enumerate(best):
        packed = (packed << pos) | col
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


def enumerate_min_pp(
    n: int, k: int, budget: Optional[SolveBudget] = None
) -> tuple[int, Tournament, int]:
    """Exact minimum of the longest k-power over ALL labeled tournaments on n
    vertices, with the first minimizing tournament (in orientation-code
    order) and the count of labeled minimizers.

    Tournaments whose greedy witness already exceeds the running minimum are
    skipped without running the exact solver; greedy <= exact keeps the
    minimum, witness and count exact.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 7:
        raise UseAnnealInsteadError("enumeration beyond n = 7 is infeasible")
    budget = budget or SolveBudget(max_states=5_000_000)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    npairs = len(pairs)
    cur_min = n + 1
    witness: Optional[Tournament] = None
    count = 0
    for code in range(1 << npairs):
        rows = [0] * n
        for p, (i, j) in enumerate(pairs):
            if (code >> p) & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
        t = _unchecked(tuple(rows))
        if len(_greedy_mask(t, t.full_mask, k, Rng(0))) > cur_min:
            continue
        res = longest_power_path_exact(t, k, budget)
        if not res.optimal:
            raise RuntimeError("enumeration budget too small for exactness")
        got = len(res.path)
        if got < cur_min:
            cur_min, witness, count = got, t, 1
        elif got == cur_min:
            count += 1
    assert witness is not None
    return cur_min, witness, count


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

    Build a chain fresh with ``AnnealChain(n, k, cfg, budget)`` or from a
    checkpoint with ``AnnealChain.from_state``; ``run`` drives it and yields
    its records. A record is emitted whenever the current tournament changes
    (the start, an accepted move or a reheat) to one whose pp is below every
    pp recorded so far, so recorded pp strictly drops. Each exact solve runs
    at twice the given budget; a solve that still exhausts it is kept as a
    flagged lower bound. The objective caches ``(pp, bound)`` by fingerprint,
    and a record's witness comes from a solve of the record's own
    tournament. State (rng word, matrix, temperature, bookkeeping)
    round-trips through ``state_dict``/``from_state`` for bit-exact resume.
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
        budget = budget or SolveBudget(max_states=400_000)
        millis = budget.max_millis
        self.budget = SolveBudget(budget.max_states * 2, millis and millis * 2)
        self.rng = Rng(derive_seed(cfg.seed, "anneal"))
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        # run() draws the start; a chain built from a checkpoint has its own.
        self.t: Optional[Tournament] = None
        self.temperature = cfg.initial_temperature
        self.iteration = 0
        self.best_pp = n + 1
        self._cache: dict[str, tuple[int, bool]] = {}

    @classmethod
    def from_state(
        cls,
        n: int,
        k: int,
        cfg: AnnealConfig,
        budget: Optional[SolveBudget],
        state: dict,
    ) -> "AnnealChain":
        """Chain resumed from a ``state_dict``; raises ValueError naming the
        first of n, k, the config fields and the budget fields that differs
        from this chain's, or when the checkpoint's rows are not a
        tournament."""
        chain = cls(n, k, cfg, budget)
        for name, value in chain._identity().items():
            if state.get(name) != value:
                raise ValueError(
                    f"checkpoint does not match this chain: {name} is "
                    f"{state.get(name)!r} there, {value!r} here"
                )
        chain.rng.setstate(state["rng"])
        chain.t = Tournament.from_rows(int(r, 16) for r in state["rows"])
        chain.temperature = float.fromhex(state["temperature"])
        chain.iteration = state["iteration"]
        chain.cur_pp = state["cur_pp"]
        chain.cur_bound = state["cur_bound"]
        chain.best_pp = state["best_pp"]
        return chain

    def _objective(self, t: Tournament) -> tuple[int, bool]:
        fp = canonical_fingerprint(t)
        hit = self._cache.get(fp)
        if hit is None:
            res = longest_power_path_exact(t, self.k, self.budget)
            hit = self._cache[fp] = (len(res.path), not res.optimal)
        return hit

    def _move_to(self, t: Tournament, pp: int, bound: bool) -> list[SearchRecord]:
        """Make t current; a record when its pp is a new minimum."""
        self.t, self.cur_pp, self.cur_bound = t, pp, bound
        if pp >= self.best_pp:
            return []
        self.best_pp = pp
        res = longest_power_path_exact(t, self.k, self.budget)
        return [
            SearchRecord(
                n=self.n,
                k=self.k,
                fingerprint=canonical_fingerprint(t),
                pp=len(res.path),
                bound_flag=not res.optimal,
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
            new_pp, new_bound = self._objective(cand)
            delta = new_pp - self.cur_pp
            if delta <= 0 or self.rng.random() < math.exp(-delta / self.temperature):
                out += self._move_to(cand, new_pp, new_bound)
        self.iteration += 1
        self.temperature *= cfg.cooling_rate
        if self.temperature < cfg.initial_temperature * 1e-6:
            # Freeze point: reheat and restart from a fresh random tournament.
            self.temperature = cfg.initial_temperature
            t = random_tournament(self.n, self.rng.next_u64())
            out += self._move_to(t, *self._objective(t))
        return out

    def run(self, steps: Optional[int] = None) -> Iterator[SearchRecord]:
        """Records of the next ``steps`` iterations (all remaining ones when
        None), never past ``cfg.iterations``; a fresh chain first draws its
        start tournament, whose record therefore always comes first."""
        if self.t is None:
            t = random_tournament(self.n, derive_seed(self.cfg.seed, "anneal-init"))
            yield from self._move_to(t, *self._objective(t))
        end = self.cfg.iterations
        if steps is not None:
            end = min(end, self.iteration + steps)
        while self.iteration < end:
            yield from self.step()

    def _identity(self) -> dict:
        """The ``state_dict`` fields a checkpoint must match to resume this
        chain: n, k, every config field and the solve budget, in the order
        ``from_state`` checks them."""
        return {
            "n": self.n,
            "k": self.k,
            **asdict(self.cfg),
            "max_states": self.budget.max_states,
            "max_millis": self.budget.max_millis,
        }

    def state_dict(self) -> dict:
        return {
            **self._identity(),
            "rng": self.rng.getstate(),
            "rows": [f"{r:x}" for r in self.t.rows],
            "temperature": self.temperature.hex(),
            "iteration": self.iteration,
            "cur_pp": self.cur_pp,
            "cur_bound": self.cur_bound,
            "best_pp": self.best_pp,
        }


def anneal_min_pp(
    n: int,
    k: int,
    cfg: AnnealConfig,
    budget: Optional[SolveBudget] = None,
) -> Iterator[SearchRecord]:
    """Stream of new-minimum records from one seeded annealing chain.

    The initial tournament's record is always emitted first; zero iterations
    therefore yields exactly that record.
    """
    return AnnealChain(n, k, cfg, budget).run()
