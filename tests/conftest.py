import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ppath.tournament import Tournament  # noqa: E402

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
    return Tournament.from_rows(rows)


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
    return Tournament.from_rows(rows)
