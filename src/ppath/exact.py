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
make a prefix longer than the best one so far: those that a chain of
consecutive pairs can reach, each new vertex beaten by the one before it
and, for k >= 2, by the two before it. A ``target`` makes it a decision
procedure: the walk also stops at the first prefix of ``target`` vertices,
so ``target = X + 1`` answers "is pp > X?" without finding pp.
Each expanded prefix keeps on its stack frame the memo-key bits of its last
k - 1 labels and the AND of their rows, so trying a child costs a few
big-int operations whatever k is. Without a ``target`` below n the walk runs
once per strong component, found by Landau's test on the sorted out-degrees:
the condensation of a tournament is transitive, so pp is the sum of the
components' values and the witness is the concatenation of theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import eq
from typing import Optional

from .rng import Rng, derive_seed
from .tournament import Tournament


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
    """State cap for the exact search; it counts states, not time, so a
    search that trips it returns the same witness on every run."""

    max_states: int = 1_000_000

    def __post_init__(self) -> None:
        if self.max_states < 1:
            raise ValueError("max_states must be positive")


DEFAULT_BUDGET = SolveBudget()


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the exact search; optimal=False marks a lower-bound witness."""

    path: PowerPath
    optimal: bool
    states: int


def verify_power_path(
    t: Tournament, p: PowerPath
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check a witness; on failure return the first violating position pair.

    Positions are 0-based indices into the vertex sequence. Duplicates are
    reported before missing edges. Sequences of length 0 or 1 are valid.
    A witness is first checked in one pass over each distance 1..k; only when
    that fails are the same pairs scanned again for the least missing one.
    """
    verts = p.vertices
    k = p.k
    rows = t.rows
    if (
        (not verts or min(verts) >= 0 and max(verts) < t.n)
        and len(set(verts)) == len(verts)
        and all(
            rows[a] >> b & 1
            for d in range(1, min(k + 1, len(verts)))
            for a, b in zip(verts, verts[d:])
        )
    ):
        return True, None
    seen: dict[int, int] = {}
    for pos, v in enumerate(verts):
        if not 0 <= v < t.n:
            raise ValueError(f"vertex {v} outside 0..{t.n - 1}")
        if v in seen:
            return False, (seen[v], pos)
        seen[v] = pos
    return False, min(
        (i, i + d)
        for d in range(1, min(k + 1, len(verts)))
        for i, (a, b) in enumerate(zip(verts, verts[d:]))
        if not rows[a] >> b & 1
    )


def longest_power_path_exact(
    t: Tournament,
    k: int,
    budget: Optional[SolveBudget] = None,
    *,
    target: Optional[int] = None,
) -> ExactResult:
    """Maximum-order k-th power of a path, with a deterministic witness.

    One loop walks the valid sequences depth-first with an explicit stack,
    trying extensions in ascending label order, and returns the first
    maximum-length prefix it visits. That prefix is the lexicographically
    least maximum witness: the walk visits prefixes in lexicographic order,
    and a memo hit skips only the completions of a state that a lex-smaller
    prefix with the same (used set, tail) already expanded. A state enters
    the memo when its subtree is finished; the state cap is checked after the
    memo lookup, before a new state is expanded, and before a finished state
    would enter a full memo, so ``states`` never exceeds the cap, and the
    result, a tripped one included, depends only on t, k, the budget and
    ``target``. When the budget trips the best prefix so far is returned
    with optimal=False.

    The first n-vertex prefix ends the walk. A state is pruned (it enters the
    memo unexpanded, and counts in ``states``) when its prefix length plus
    the unused vertices its continuations can reach is at most the best
    length so far: no completion of it can be longer, and the best length
    only grows, so the witness is unchanged. Those vertices are the pair
    closure: it starts from the pairs (v, x), v the state's last vertex and
    x a candidate, and a pair (a, y) leads to (y, c) for every unused c that
    y beats and, for k >= 2, a beats too. Each later vertex of a k-th power
    of a path is an out-neighbour of the one before it and, for k >= 2, of
    the two before it, so every continuation uses only second vertices of
    reached pairs. For k = 1 the pair closure is the closure of the
    candidates under out-arcs among the unused vertices; only ``states``
    and budget trip points depend on the bound.

    ``target`` (None means n; a value above n acts as n; below 1 raises
    ValueError) ends the walk at the first prefix of ``target`` vertices.
    The best length grows one vertex at a time, so that prefix is reached
    exactly when pp >= target; when pp < target the walk and its result are
    those of the call without ``target``. ``optimal`` means the budget did
    not trip: the path is a maximum, or it has ``target`` vertices.

    Without a ``target`` below n, a tournament that is not strong is solved
    one strong component at a time, in condensation order; a one-vertex
    component's walk ends at its first child, in 0 states and before any
    budget check. Each component beats every later one, so a k-th power of
    a path visits them in that order, pp is the sum of theirs, and the
    least maximum witness is the concatenation of theirs. ``states``
    sums the components' walks, which share the budget. A decision solve
    walks the whole tournament as one component: split up, it would first
    have to solve every earlier component exactly.

    Every solve, strong or split, decision or not, trips by one rule. When a
    component's walk trips, the earlier components' witnesses are followed
    by the longer of two tails, the first on a tie: its best prefix, then
    greedy (seeded 0) over the later components, whose vertices that prefix
    all beats; or greedy (seeded 0) over the tripped and later components
    together. A walk left with few or no states thus still ends in a greedy
    path through its component, and a tripped decision solve may return
    more than ``target`` vertices while it reads optimal=False.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if target is not None and target < 1:
        raise ValueError("target must be >= 1")
    max_states = (budget or DEFAULT_BUDGET).max_states
    goal = t.n if target is None else min(target, t.n)
    blocks = [t.full_mask] if goal < t.n else _strong_components(t)
    path: list[int] = []
    states = 0
    for i, block in enumerate(blocks):
        best, optimal, spent = _walk(t, k, max_states - states, min(goal, block.bit_count()), block)
        states += spent
        if not optimal:
            rest = sum(blocks[i + 1:])
            walked = best + _greedy_mask(t, rest, k, Rng(0))
            greedy = _greedy_mask(t, block | rest, k, Rng(0))
            path += max(walked, greedy, key=len)
            return ExactResult(PowerPath(k, tuple(path)), False, states)
        path += best
    return ExactResult(PowerPath(k, tuple(path)), True, states)


def _strong_components(t: Tournament) -> list[int]:
    """Vertex masks of t's strong components, each beating all later ones.

    By Landau's theorem the j vertices of least out-degree are beaten by all
    the others exactly when their out-degrees sum to C(j, 2), which is the
    sum of 0, 1, ..., j - 1. A strong t, most of the anneal's solves, is
    recognised by that test on the sorted degrees alone, before any vertex is
    placed in a block.
    """
    degree = list(map(int.bit_count, t.rows))
    scores = sorted(degree)
    if not any(map(eq, accumulate(scores[:-1]), accumulate(range(t.n - 1)))):
        return [t.full_mask]
    blocks: list[int] = []
    block = total = 0
    for j, v in enumerate(sorted(range(t.n), key=degree.__getitem__), 1):
        block |= 1 << v
        total += degree[v]
        if total == j * (j - 1) // 2:
            blocks.append(block)
            block = 0
    return blocks[::-1]


def _walk(
    t: Tournament, k: int, max_states: int, goal: int, full: int
) -> tuple[tuple[int, ...], bool, int]:
    """(best prefix, finished within the budget, states) of the walk of
    ``longest_power_path_exact`` inside the vertex mask ``full``; it stops at
    the first prefix of ``goal`` vertices and trips at the first new state
    past ``max_states`` (which may be 0)."""
    n = t.n
    rows = t.rows
    shift = n.bit_length()
    # A state's key is its tail's labels in ``shift`` bits each above the
    # used set in the low n bits; the used set fixes the tail's length,
    # min(|used|, k). An expanded prefix keeps ``base``, the key bits of its
    # last k - 1 labels, and ``w``, the AND of their rows, so a child v costs
    # ``base | v << n | used`` and ``w & rows[v] & ~used``.
    mask = (1 << shift * (k - 1)) - 1
    high = shift + n
    # At k = 1 a pair (a, y) needs no arc a -> c, so the closure is the out-arc closure.
    lead = rows if k > 1 else [full] * n
    memo: set[int] = set()
    states = 0
    best: tuple[int, ...] = ()
    best_len = 0
    prefix: list[int] = []
    depth = 0
    used = 0
    # The empty prefix is the root: every vertex extends it, and it is no state.
    cand = w = full
    base = key = 0
    stack: list[tuple[int, int, int, int]] = []
    while True:
        if cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            d = depth + 1
            child_used = used | b
            if d > best_len:
                best = (*prefix, v)
                best_len = d
                if d == goal:
                    return best, True, states
            child = base | v << n | child_used
            if child in memo:
                continue
            if states >= max_states:
                return best, False, states
            free = full ^ child_used
            nxt = w & rows[v] & free
            room = best_len - d
            reach = nxt
            if nxt.bit_count() <= room:
                # The pair closure: a pair (a, y) leads to (y, c) for c in
                # lead[a] & rows[y] & free, from the pairs (v, x), x in nxt.
                # unseen[y] has the bits of the c with (y, c) not reached
                # yet; an entry (a, gained) holds the pairs (a, y), y in
                # gained, not yet followed.
                unseen = [-1] * n
                work = [(v, nxt)]
                while work and reach.bit_count() <= room:
                    a, grown = work.pop()
                    ra = lead[a] & free
                    while grown:
                        y = grown.bit_length() - 1
                        grown ^= 1 << y
                        gained = ra & rows[y] & unseen[y]
                        if gained:
                            unseen[y] ^= gained
                            reach |= gained
                            work.append((y, gained))
            if reach.bit_count() <= room:
                memo.add(child)
                states += 1
                continue
            stack.append((cand, key, base, w))
            prefix.append(v)
            depth = d
            used = child_used
            key = child
            cand = nxt
            base = (child >> n & mask) << high
            if d < k:
                w &= rows[v]
            else:
                w = full
                for u in prefix[d - k + 1:]:
                    w &= rows[u]
        elif stack:
            if states >= max_states:
                return best, False, states
            memo.add(key)
            states += 1
            cand, key, base, w = stack.pop()
            used ^= 1 << prefix.pop()
            depth -= 1
        else:
            return best, True, states


def _greedy_mask(t: Tournament, mask: int, k: int, rng: Rng) -> tuple[int, ...]:
    """Greedy extension within a vertex subset given as a bitmask.

    Every pick, the first one included, is the candidate with the most
    out-neighbors among the unused vertices of the subset; ``rng`` breaks ties
    with one ``randrange`` over the tied candidates, taking the i-th lowest
    label: the draw of ``rng.choice`` over them in ascending order, with no
    list built.

    Each vertex's out-degree into the unused part of the subset is kept up to
    date across the walk, bit-sliced: ``planes[p]`` is the bitmask of vertices
    whose degree has bit p set, built by OR-ing each degree class into the
    planes of its degree's bits. The most out-neighbors among the candidates
    is found by narrowing them plane by plane from the high bit down, and
    using a vertex subtracts 1 from each of its unused in-neighbors by a
    borrow rippled up the planes. A step costs O(log n) big-int operations
    instead of one popcount per candidate.
    """
    rows = t.rows
    classes: dict[int, int] = {}
    m = mask
    while m:
        b = m & -m
        m ^= b
        d = (rows[b.bit_length() - 1] & mask).bit_count()
        classes[d] = classes.get(d, 0) | b
    planes = [0] * mask.bit_count().bit_length()
    for d, members in classes.items():
        p = 0
        while d:
            if d & 1:
                planes[p] |= members
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
            for _ in range(rng.randrange(cand.bit_count())):
                cand &= cand - 1
        v = (cand & -cand).bit_length() - 1
        seq.append(v)
        unused ^= 1 << v
        borrow = unused & ~rows[v]
        p = 0
        while borrow:
            plane = planes[p] ^ borrow
            planes[p] = plane
            borrow &= plane
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
    if not verify_power_path(t, path)[0]:
        raise RuntimeError("unverified greedy witness")
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
    if not verify_power_path(t, path)[0]:
        raise RuntimeError("unverified insertion witness")
    return path

