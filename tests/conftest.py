import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ppath.exact import (  # noqa: E402
    PowerPath,
    longest_power_path_exact,
)
from ppath.rng import derive_seed, stream_word  # noqa: E402
from ppath.search import (  # noqa: E402
    AnnealChain,
    SearchRecord,
    canonical_fingerprint,
    flip_edge,
)
from ppath.tournament import Tournament, random_tournament  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"
CALIBRATION = Path(__file__).resolve().parents[1] / "calibration"


def brute_first_longest(t: Tournament, k: int) -> tuple[int, ...]:
    """Definition-level oracle: DFS over all valid vertex sequences.

    A sequence is valid when every pair of positions i < j <= i + k carries
    the forward edge; every prefix of a valid sequence is valid, so plain
    DFS without memoization enumerates exactly the valid sequences. Children
    are tried in ascending label order, so the first maximum-length sequence
    the DFS reaches is the lexicographically least one; that is returned.
    Exponential, intended for n <= 7.
    """
    n = t.n
    best: tuple[int, ...] = ()

    def ok_to_append(seq: list[int], v: int) -> bool:
        lo = max(0, len(seq) - k)
        for pos in range(lo, len(seq)):
            if not t.has_edge(seq[pos], v):
                return False
        return True

    def dfs(seq: list[int], used: set[int]) -> None:
        nonlocal best
        if len(seq) > len(best):
            best = tuple(seq)
        for v in range(n):
            if v in used:
                continue
            if ok_to_append(seq, v):
                seq.append(v)
                used.add(v)
                dfs(seq, used)
                seq.pop()
                used.remove(v)

    dfs([], set())
    return best


def brute_longest_power(t: Tournament, k: int) -> int:
    """Vertex count of the longest k-th power of a path, by brute force."""
    return len(brute_first_longest(t, k))


def relabel(t: Tournament, perm: list[int]) -> Tournament:
    """Tournament with vertex v renamed perm[v]."""
    rows = [0] * t.n
    for i in range(t.n):
        for j in range(t.n):
            if t.has_edge(i, j):
                rows[perm[i]] |= 1 << perm[j]
    return Tournament(rows)


def reference_greedy_mask(t: Tournament, mask: int, k: int, rng) -> tuple[int, ...]:
    """The greedy as first written: one popcount per candidate per step.

    Kept as the reference the bit-sliced ``exact._greedy_mask`` must match,
    picks and rng draws alike: the candidate with the most out-neighbors
    among the unused vertices of ``mask``, ties broken by one ``rng.choice``
    over the tied candidates in ascending label order.
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


def reference_verify_power_path(
    t: Tournament, p: PowerPath
) -> tuple[bool, Optional[tuple[int, int]]]:
    """The witness check as first written: one position at a time.

    Kept as the reference ``exact.verify_power_path`` must match, its result
    and its ``ValueError`` alike: the first out-of-range label raises
    unless a duplicate comes before it, a duplicate returns its two
    positions, and then the first missing arc (i, j), i < j <= i + k, in
    order of i and then j.
    """
    seen: dict[int, int] = {}
    for pos, v in enumerate(p.vertices):
        if not 0 <= v < t.n:
            raise ValueError(f"vertex {v} outside 0..{t.n - 1}")
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


class ReferenceChain(AnnealChain):
    """The chain as written before its objective cached whole results: the
    objective caches ``(pp, bound)`` by rows, and ``_move_to`` solves a
    record's tournament a second time for its witness and takes any new
    minimum, a budget-tripped lower bound too. Kept as the reference the
    ``ExactResult``-caching ``AnnealChain`` must match on unbudgeted chains,
    record for record; ``step`` and ``run`` differ from ``AnnealChain``'s
    only in passing ``(pp, bound)`` instead of the result."""

    def _objective(self, t: Tournament) -> tuple[int, bool]:
        hit = self._cache.get(t.rows)
        if hit is None:
            res = longest_power_path_exact(t, self.k, self.budget)
            hit = self._cache[t.rows] = (len(res.path), not res.optimal)
        return hit

    def _move_to(self, t: Tournament, pp: int, bound: bool) -> list[SearchRecord]:
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
            self.temperature = cfg.initial_temperature
            t = random_tournament(self.n, self.rng.next_u64())
            out += self._move_to(t, *self._objective(t))
        return out

    def run(self) -> Iterator[SearchRecord]:
        if self.t is None:
            t = random_tournament(self.n, derive_seed(self.cfg.seed, "anneal-init"))
            yield from self._move_to(t, *self._objective(t))
        while self.iteration < self.cfg.iterations:
            yield from self.step()


def reference_random_rows(n: int, base: int) -> tuple[int, ...]:
    """Random-tournament rows assembled pair by pair in pure Python, as
    ``random_tournament`` once did for n < 64. Kept as the reference its
    numpy assembly must match: bit p of the stream words orients the p-th
    pair (i, j), i < j, in lexicographic order, as i -> j when set."""
    npairs = n * (n - 1) // 2
    nwords = (npairs + 63) // 64
    big = 0
    for w in range(nwords - 1, -1, -1):
        big = (big << 64) | stream_word(base, w)
    rows = [0] * n
    pos = 0
    for i in range(n):
        span = n - 1 - i
        fwd = (big >> pos) & ((1 << span) - 1)
        rows[i] |= fwd << (i + 1)
        back = ~fwd & ((1 << span) - 1)
        while back:
            b = back & -back
            rows[i + b.bit_length()] |= 1 << i
            back ^= b
        pos += span
    return tuple(rows)


def reference_refinement_classes(t: Tournament) -> list[list[int]]:
    """The degree refinement as first written: 2 n^2 ``has_edge`` calls per
    round. Kept as the reference ``search._refinement_classes`` must match."""
    n = t.n
    color = [t.out_degree(v) for v in range(n)]
    while True:
        keys = []
        for v in range(n):
            outs = sorted(color[u] for u in range(n) if t.has_edge(v, u))
            ins = sorted(color[u] for u in range(n) if t.has_edge(u, v))
            keys.append((color[v], tuple(outs), tuple(ins)))
        ranking = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        new_color = [ranking[keys[v]] for v in range(n)]
        if new_color == color:
            break
        color = new_color
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(color[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def induced_rows(t: Tournament, members: Iterable[int]) -> tuple[int, ...]:
    """Rows of t's subtournament on ``members``, its vertices relabeled
    0..m-1 in ascending label order."""
    labels = sorted(members)
    return tuple(
        sum(((t.rows[u] >> v) & 1) << j for j, v in enumerate(labels)) for u in labels
    )


def reference_strong_components(t: Tournament) -> list[int]:
    """Vertex masks of t's strong components by reachability: u and v share
    one when each reaches the other, and a component that reaches more
    vertices comes first (the condensation of a tournament is transitive)."""
    reach = []
    for v in range(t.n):
        seen, todo = 1 << v, [v]
        while todo:
            gained = t.rows[todo.pop()] & ~seen
            seen |= gained
            todo += [u for u in range(t.n) if gained >> u & 1]
        reach.append(seen)
    reached = {}
    for v in range(t.n):
        mask = sum(1 << u for u in range(t.n) if reach[v] >> u & 1 and reach[u] >> v & 1)
        reached[mask] = reach[v].bit_count()
    return sorted(reached, key=reached.get, reverse=True)


def triangle_chain(n: int) -> Tournament:
    """Directed triangles {3i, 3i+1, 3i+2} in transitive order, then n mod 3
    single vertices: every vertex beats each later block, and 3i -> 3i+1 ->
    3i+2 -> 3i inside a triangle. Its square paths have at most ceil(2n/3)
    vertices. Rows are built with bitset arithmetic, O(n) big-int operations.
    """
    full = (1 << n) - 1
    tri = n - n % 3
    rows = []
    for v in range(n):
        if v < tri:
            start = v - v % 3
            nxt = start + (v - start + 1) % 3
            rows.append((full >> (start + 3) << (start + 3)) | 1 << nxt)
        else:
            rows.append(full >> (v + 1) << (v + 1))
    return Tournament(rows)


def blowup(rows: Sequence[int]) -> Tournament:
    """Each vertex a of the tournament with out-neighbour bitsets ``rows``
    becomes the directed triangle 3a -> 3a+1 -> 3a+2 -> 3a, and every arc
    a -> b becomes the nine arcs from a's triangle to b's."""
    out = []
    for a, r in enumerate(rows):
        block = 0
        for b in range(len(rows)):
            if (r >> b) & 1:
                block |= 7 << 3 * b
        for i in range(3):
            out.append(block | 1 << 3 * a + (i + 1) % 3)
    return Tournament(out)
