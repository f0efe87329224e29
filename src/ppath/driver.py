"""Top-level finder for long path powers, and the cluster-digraph pieces of
the paper's construction.

``find_kth_power_path`` has three cases and no recursion: k = 1 is the
insertion Hamiltonian path, a tournament of at most DEFAULT_EXACT_THRESHOLD
vertices is solved exactly, and a larger one gets the seeded greedy. The
finder does not run the paper's structural recursion (partition, regularity
probe, chain, concatenation, split-and-join): at the default probe
parameters it never changed a greedy witness (README, "Finder routes").
``build_cluster_digraph`` and ``concatenate_along_cluster_path`` are its
pieces, kept as library code. Fixed (tournament, seed) yields an identical
route trace and witness.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .engine import RegularityParams, _ceil_frac, _truncate_verified, sampled_regular
from .exact import (
    PowerPath,
    SolveBudget,
    _greedy_mask,
    hamiltonian_path_insertion,
    longest_power_path_exact,
    verify_power_path,
)
from .rng import Rng, derive_seed
from .tournament import Tournament, VertexSet, bipartite_pair

Subfinder = Callable[[Tournament, VertexSet], PowerPath]

# Fixed for every caller: the exact case's size and states-only budget
# (which keeps results deterministic).
DEFAULT_EXACT_THRESHOLD = 16
DEFAULT_EXACT_STATES = 150_000


@dataclass(frozen=True)
class ClusterDigraph:
    """Auxiliary digraph on partition parts.

    An arc (i, j) means the pair probed regular with density(i->j) >= 1-delta;
    mid_pairs records probed-regular pairs with delta <= d <= 1-delta as
    (i, j, density i->j) with i < j, for the chain route.
    """

    parts: tuple[VertexSet, ...]
    arcs: frozenset[tuple[int, int]]
    mid_pairs: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self) -> None:
        for i, j in self.arcs:
            if not (0 <= i < len(self.parts) and 0 <= j < len(self.parts) and i != j):
                raise ValueError(f"arc ({i},{j}) references invalid parts")
            if (j, i) in self.arcs:
                raise ValueError(f"both arcs between parts {i} and {j}")


def _node_id(host_n: int, mask: int) -> str:
    return hashlib.sha256(f"{host_n}:{mask:x}".encode()).hexdigest()[:12]


def build_cluster_digraph(
    t: Tournament,
    parts: Sequence[VertexSet],
    params: RegularityParams,
    seed: int = 0,
) -> ClusterDigraph:
    """Probe every part pair once; arcs for near-complete regular pairs,
    a separate record for balanced regular pairs.

    Probes are seeded per pair index, so evaluation order never matters. An
    arc additionally requires a strict density majority, which keeps the
    one-arc-per-pair invariant achievable at the delta = 1/2 boundary.
    """
    parts = list(parts)
    seen = 0
    for p in parts:
        if len(p) == 0:
            raise ValueError("parts must be nonempty")
        if seen & p.mask:
            raise ValueError("parts must be disjoint")
        seen |= p.mask
    delta_f = params.delta_f
    half = Fraction(1, 2)
    arcs: set[tuple[int, int]] = set()
    mid: list[tuple[int, int, Fraction]] = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            pair = bipartite_pair(t, parts[i], parts[j])
            regular, _ = sampled_regular(
                t, pair, params, seed=derive_seed(seed, "probe", i, j)
            )
            if not regular:
                continue
            d = pair.d_ab
            if d >= 1 - delta_f and d > half:
                arcs.add((i, j))
            elif pair.d_ba >= 1 - delta_f and pair.d_ba > half:
                arcs.add((j, i))
            if delta_f <= d <= 1 - delta_f:
                mid.append((i, j, d))
    return ClusterDigraph(tuple(parts), frozenset(arcs), tuple(mid))


def _cond_mask(t: Tournament, tail: Sequence[int], base_mask: int) -> int:
    m = base_mask
    for u in tail:
        m &= t.rows[u]
    return m


def concatenate_along_cluster_path(
    t: Tournament,
    cd: ClusterDigraph,
    path: Sequence[int],
    params: RegularityParams,
    subfinder: Subfinder,
    k: int = 2,
    trace: Optional[list] = None,
) -> PowerPath:
    """Trim parts right-to-left, then join per-part witnesses left-to-right.

    Trimming keeps only vertices sending at least (1 - delta - eps) of the
    next trimmed part forward; a part trimmed to nothing is skipped (recorded
    in trace) and its predecessor trims against the next survivor. Each join
    restricts the following search space to the common out-neighborhood of
    the previous witness's last min(k, len) vertices, so the concatenation is
    valid by construction; it is verified regardless.
    """
    path = list(path)
    if len(path) != len(set(path)):
        raise ValueError("part path revisits a part")
    for a, b in zip(path, path[1:]):
        if (a, b) not in cd.arcs:
            raise ValueError(f"({a},{b}) is not an arc of the cluster digraph")
    rows = t.rows
    keep_frac = 1 - params.delta_f - params.eps_f
    trimmed: list[int] = [cd.parts[path[-1]].mask]
    for idx in range(len(path) - 2, -1, -1):
        nxt = trimmed[0]
        need = max(0, _ceil_frac(keep_frac * nxt.bit_count()))
        new_mask = 0
        for x in cd.parts[path[idx]]:
            if (rows[x] & nxt).bit_count() >= need:
                new_mask |= 1 << x
        if new_mask:
            trimmed.insert(0, new_mask)
        elif trace is not None:
            trace.append({"event": "empty_trimmed_part", "part": path[idx]})
    result: list[int] = []
    for mask in trimmed:
        space = mask
        if result:
            space &= _cond_mask(t, result[-min(k, len(result)) :], t.full_mask)
        if not space:
            if trace is not None:
                trace.append({"event": "empty_join_space"})
            continue
        sub = subfinder(t, VertexSet(space, t.n))
        result.extend(sub.vertices)
    return _truncate_verified(t, k, tuple(result))


def find_kth_power_path(
    t: Tournament,
    k: int,
    seed: int = 0,
    trace: Optional[list] = None,
) -> PowerPath:
    """Longest verified k-th power of a path the finder can produce.

    k = 1 is the insertion Hamiltonian path; at most DEFAULT_EXACT_THRESHOLD
    vertices are solved exactly under DEFAULT_EXACT_STATES; otherwise the
    greedy seeded from ``seed``. ``trace`` gets one record: the node id, the
    route ("base" for the exact solve, "greedy" otherwise) and the length.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        route, path = "greedy", hamiltonian_path_insertion(t)
    elif t.n <= DEFAULT_EXACT_THRESHOLD:
        res = longest_power_path_exact(t, k, SolveBudget(DEFAULT_EXACT_STATES))
        route, path = "base", res.path
    else:
        rng = Rng(derive_seed(derive_seed(seed, "find"), "greedy"))
        route, path = "greedy", PowerPath(k, _greedy_mask(t, t.full_mask, k, rng))
    if not verify_power_path(t, path)[0]:
        raise RuntimeError("internal error: unverified witness leaving driver")
    if trace is not None:
        node = _node_id(t.n, t.full_mask)
        trace.append({"node": node, "route": route, "len": len(path)})
    return path
