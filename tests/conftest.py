import sys
from collections.abc import Sequence
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
    return Tournament.from_rows(out)
