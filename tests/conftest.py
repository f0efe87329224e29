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
