"""Ground-truth operations on k-th powers of paths.

``verify_power_path`` is the package-wide soundness check: every witness any
module emits must pass it. ``longest_power_path_exact`` is one iterative
depth-first walk with an explicit stack (no recursion, so no depth limit)
over (used-vertex bitset, tuple of the last min(k, len) vertices) states,
memoized, so its answer is exact whenever the state budget is not exhausted;
on exhaustion it returns the best witness found so far, flagged as a lower
bound. The witness is the first maximum-length prefix the walk visits, which
is the lexicographically least maximum sequence. The walk stops at the first
spanning prefix, and skips a state whose unused reachable vertices cannot
make a prefix longer than the best one so far.
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


def longest_power_path_exact(
    t: Tournament, k: int, budget: Optional[SolveBudget] = None
) -> ExactResult:
    """Maximum-order k-th power of a path, with a deterministic witness.

    One loop walks the valid sequences depth-first with an explicit stack,
    trying extensions in ascending label order, and returns the first
    maximum-length prefix it visits. That prefix is the lexicographically
    least maximum witness: the walk visits prefixes in lexicographic order,
    and a memo hit skips only the completions of a state that a lex-smaller
    prefix with the same (used set, tail) already expanded. A state enters
    the memo when its subtree is finished; the state cap is checked after the
    memo lookup, before a new state is expanded, so results are reproducible
    whenever max_millis is None. When the budget trips the best prefix so far
    is returned with optimal=False.

    The first n-vertex prefix ends the walk. A state is pruned (it enters the
    memo unexpanded, and counts in ``states``) when its prefix length plus
    the vertices reachable from its candidates by out-arcs among the unused
    vertices is at most the best length so far: no completion of it can be
    longer, and the best length only grows, so the witness is unchanged.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    budget = budget or DEFAULT_BUDGET
    n = t.n
    rows = t.rows
    full = (1 << n) - 1
    shift = max(7, n.bit_length())
    deadline = (
        time.monotonic() + budget.max_millis / 1000.0
        if budget.max_millis is not None
        else None
    )
    max_states = budget.max_states
    memo: set[int] = set()
    best: tuple[int, ...] = ()
    prefix: list[int] = []
    used = 0
    # The empty prefix is the root: every vertex extends it, and it is no state.
    cand = full
    key = 0
    stack: list[tuple[int, int]] = []
    while True:
        if cand:
            b = cand & -cand
            cand ^= b
            prefix.append(b.bit_length() - 1)
            used |= b
            if len(prefix) > len(best):
                best = tuple(prefix)
                if len(best) == n:
                    return ExactResult(PowerPath(k, best), True, len(memo))
            tail = prefix[-k:]
            child = 1
            for u in tail:
                child = (child << shift) | u
            child = child << n | used
            if child in memo:
                prefix.pop()
                used ^= b
                continue
            if len(memo) >= max_states or (
                deadline is not None
                and len(memo) % 1024 == 0
                and time.monotonic() > deadline
            ):
                return ExactResult(PowerPath(k, best), False, len(memo))
            free = full & ~used
            nxt = free
            for u in tail:
                nxt &= rows[u]
            # Every later vertex is an out-neighbour of the one before it, so
            # all of them lie in the closure of nxt under out-arcs in free.
            room = len(best) - len(prefix)
            reach = frontier = nxt
            while frontier and reach.bit_count() <= room:
                c = frontier & -frontier
                grown = rows[c.bit_length() - 1] & free & ~reach
                reach |= grown
                frontier = (frontier ^ c) | grown
            if reach.bit_count() <= room:
                memo.add(child)
                prefix.pop()
                used ^= b
                continue
            stack.append((cand, key))
            key = child
            cand = nxt
        elif stack:
            memo.add(key)
            cand, key = stack.pop()
            used ^= 1 << prefix.pop()
        else:
            return ExactResult(PowerPath(k, best), True, len(memo))


def _greedy_mask(t: Tournament, mask: int, k: int, rng: Rng) -> tuple[int, ...]:
    """Greedy extension within a vertex subset given as a bitmask.

    Every pick, the first one included, is the candidate with the most
    out-neighbors among the unused vertices of the subset; ``rng`` breaks ties
    with one ``choice`` over the tied candidates in ascending label order.

    Each vertex's out-degree into the unused part of the subset is kept up to
    date across the walk, bit-sliced: ``planes[p]`` is the bitmask of vertices
    whose degree has bit p set. The most out-neighbors among the candidates
    is found by narrowing them plane by plane from the high bit down, and
    using a vertex subtracts 1 from each of its unused in-neighbors by a
    borrow rippled up the planes. A step costs O(log n) big-int operations
    instead of one popcount per candidate.
    """
    rows = t.rows
    planes = [0] * mask.bit_count().bit_length()
    m = mask
    while m:
        b = m & -m
        m ^= b
        d = (rows[b.bit_length() - 1] & mask).bit_count()
        p = 0
        while d:
            if d & 1:
                planes[p] |= b
            d >>= 1
            p += 1
    seq: list[int] = []
    unused = mask
    while True:
        cand = unused
        for u in seq[-k:]:
            cand &= rows[u]
        if not cand:
            return tuple(seq)
        for plane in reversed(planes):
            top = cand & plane
            if top:
                cand = top
        if cand & (cand - 1):
            picks: list[int] = []
            while cand:
                b = cand & -cand
                picks.append(b.bit_length() - 1)
                cand ^= b
            v = rng.choice(picks)
        else:
            v = cand.bit_length() - 1
        seq.append(v)
        unused ^= 1 << v
        borrow = unused & ~rows[v]
        p = 0
        while borrow:
            plane = planes[p]
            planes[p] = plane ^ borrow
            borrow &= ~plane
            p += 1


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
