"""Ground-truth operations on k-th powers of paths.

``verify_power_path`` is the package-wide soundness check: every witness any
module emits must pass it. ``longest_power_path_exact`` is a memoized DFS
over (used-vertex bitset, tuple of the last min(k, len) vertices) states, so
its answer is exact whenever the state budget is not exhausted; on exhaustion
it returns the best witness found so far, flagged as a lower bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .rng import Rng, derive_seed
from .tournament import Tournament


class InvalidLabelError(ValueError):
    """Witness references a vertex outside the host tournament."""


@dataclass(frozen=True)
class PowerPath:
    """A k-th power witness: vertex sequence plus its order k."""

    k: int
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("power order k must be >= 1")

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class SolveBudget:
    """Caps for the exact search. max_millis=None means no wall-clock cap."""

    max_states: int = 1_000_000
    max_millis: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_states < 1:
            raise ValueError("max_states must be positive")
        if self.max_millis is not None and self.max_millis < 1:
            raise ValueError("max_millis must be positive when set")


DEFAULT_BUDGET = SolveBudget()


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the exact search; optimal=False marks a lower-bound witness."""

    path: PowerPath
    optimal: bool
    states: int


class BudgetExceededError(RuntimeError):
    """Raised by pp_value when the search budget ran out; carries the work."""

    def __init__(self, result: ExactResult) -> None:
        super().__init__(
            f"budget exhausted after {result.states} states; "
            f"best witness so far has {len(result.path)} vertices"
        )
        self.result = result


def verify_power_path(
    t: Tournament, p: PowerPath
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check a witness; on failure return the first violating position pair.

    Positions are 0-based indices into the vertex sequence. Duplicates are
    reported before missing edges. Sequences of length 0 or 1 are valid.
    """
    seen: dict[int, int] = {}
    for pos, v in enumerate(p.vertices):
        if not 0 <= v < t.n:
            raise InvalidLabelError(f"vertex {v} outside 0..{t.n - 1}")
        if v in seen:
            return False, (seen[v], pos)
        seen[v] = pos
    verts = p.vertices
    k = p.k
    rows = t.rows
    for i in range(len(verts)):
        hi = min(i + k, len(verts) - 1)
        vi = verts[i]
        for j in range(i + 1, hi + 1):
            if not (rows[vi] >> verts[j]) & 1:
                return False, (i, j)
    return True, None


class _BudgetStop(Exception):
    pass


def longest_power_path_exact(
    t: Tournament, k: int, budget: Optional[SolveBudget] = None
) -> ExactResult:
    """Maximum-order k-th power of a path, with a deterministic witness.

    Among maximum-length witnesses the lexicographically least sequence is
    returned (reconstructed from the memo after the full state-space walk).
    The search is exact unless the budget trips; the state cap is checked on
    memo growth, so results are reproducible whenever max_millis is None.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    budget = budget or DEFAULT_BUDGET
    n = t.n
    rows = t.rows
    full = (1 << n) - 1
    shift = max(7, n.bit_length())
    memo: dict[int, int] = {}
    deadline = (
        time.monotonic() + budget.max_millis / 1000.0
        if budget.max_millis is not None
        else None
    )
    max_states = budget.max_states
    best_len = 0
    best_seq: tuple[int, ...] = ()
    prefix: list[int] = []

    def pack(tup: tuple[int, ...]) -> int:
        key = 1
        for v in tup:
            key = (key << shift) | v
        return key

    def dfs(used: int, tup: tuple[int, ...], key: int) -> int:
        nonlocal best_len, best_seq
        hit = memo.get(key)
        if hit is not None:
            return hit
        if len(memo) >= max_states:
            raise _BudgetStop
        if deadline is not None and len(memo) % 1024 == 0:
            if time.monotonic() > deadline:
                raise _BudgetStop
        cand = full & ~used
        for u in tup:
            cand &= rows[u]
        add = 0
        m = cand
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            prefix.append(v)
            if len(prefix) > best_len:
                best_len = len(prefix)
                best_seq = tuple(prefix)
            child = (tup + (v,))[-k:] if len(tup) >= k else tup + (v,)
            sub = dfs(used | b, child, pack(child) << n | (used | b))
            prefix.pop()
            if sub + 1 > add:
                add = sub + 1
        memo[key] = add
        return add

    if n == 0:
        return ExactResult(PowerPath(k, ()), True, 0)
    try:
        total = 0
        for v0 in range(n):
            prefix = [v0]
            if best_len == 0:
                best_len, best_seq = 1, (v0,)
            tup = (v0,)
            got = 1 + dfs(1 << v0, tup, pack(tup) << n | (1 << v0))
            if got > total:
                total = got
    except _BudgetStop:
        return ExactResult(PowerPath(k, best_seq), False, len(memo))

    # Lexicographically least maximum witness via memo-guided reconstruction.
    seq: list[int] = []
    used = 0
    tup: tuple[int, ...] = ()
    for v0 in range(n):
        if 1 + memo[pack((v0,)) << n | (1 << v0)] == total:
            seq = [v0]
            used = 1 << v0
            tup = (v0,)
            break
    remaining = total - len(seq)
    while remaining:
        cand = full & ~used
        for u in tup:
            cand &= rows[u]
        m = cand
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            child = (tup + (v,))[-k:] if len(tup) >= k else tup + (v,)
            if memo[pack(child) << n | (used | b)] == remaining - 1:
                seq.append(v)
                used |= b
                tup = child
                break
        remaining -= 1
    return ExactResult(PowerPath(k, tuple(seq)), True, len(memo))


def _greedy_mask(t: Tournament, mask: int, k: int, rng: Rng) -> tuple[int, ...]:
    """Greedy extension within a vertex subset given as a bitmask.

    Every pick, the first one included, is the candidate with the most
    out-neighbors among the unused vertices of the subset; ``rng`` breaks ties.
    """
    rows = t.rows
    seq: list[int] = []
    used = 0
    while True:
        unused = mask & ~used
        cand = unused
        for u in seq[-k:]:
            cand &= rows[u]
        if not cand:
            return tuple(seq)
        best = -1
        picks: list[int] = []
        m = cand
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            d = (rows[v] & unused).bit_count()
            if d > best:
                best, picks = d, [v]
            elif d == best:
                picks.append(v)
        v = picks[0] if len(picks) == 1 else rng.choice(picks)
        seq.append(v)
        used |= 1 << v


def greedy_power_path(t: Tournament, k: int, seed: int = 0) -> PowerPath:
    """Out-degree-greedy k-power heuristic; random tie-breaks from seed.

    Extends while the common out-neighborhood of the last min(k, len)
    vertices minus used vertices is nonempty; valid by construction.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = Rng(derive_seed(seed, "greedy"))
    path = PowerPath(k, _greedy_mask(t, t.full_mask, k, rng))
    assert verify_power_path(t, path)[0]
    return path


def hamiltonian_path_insertion(t: Tournament) -> PowerPath:
    """Hamiltonian directed path by in-order insertion; always n vertices."""
    rows = t.rows
    order = [0]
    for v in range(1, t.n):
        for pos, u in enumerate(order):
            if (rows[v] >> u) & 1:
                order.insert(pos, v)
                break
        else:
            order.append(v)
    path = PowerPath(1, tuple(order))
    assert verify_power_path(t, path)[0]
    return path


def pp_value(t: Tournament, budget: Optional[SolveBudget] = None) -> int:
    """Vertex count of the longest square of a path (k=2), exact."""
    result = longest_power_path_exact(t, 2, budget)
    if not result.optimal:
        raise BudgetExceededError(result)
    return len(result.path)
