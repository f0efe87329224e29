"""Top-level search drivers for long path powers.

The driver recursion mirrors the constructive argument it implements: solve
sets of at most DEFAULT_EXACT_THRESHOLD vertices exactly; otherwise probe a
seeded random equipartition, chain inside a balanced regular pair when one
exists, concatenate along a long path of the cluster digraph when one
exists, and otherwise split the part ordering in half, discard weak
vertices, and recurse on both halves. Every route's output is verified, and
the longest verified witness (structural route vs greedy baseline, the route
on a tie) is returned; a node DEFAULT_MAX_DEPTH levels down returns its
greedy baseline. The one recursion serves every k: k = 1 is the insertion
Hamiltonian path, and k >= 2 runs the routes above. Fixed (tournament,
params, seed) yields an identical route trace and witness.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .engine import (
    OrientedGraph,
    RegularityParams,
    DEFAULT_PARAMS,
    _ceil_frac,
    _truncate_verified,
    chain_power_path,
    order_or_long_path,
    sampled_regular,
    weak_count_threshold,
)
from .exact import (
    PowerPath,
    SolveBudget,
    _greedy_mask,
    hamiltonian_path_insertion,
    longest_power_path_exact,
    verify_power_path,
)
from .rng import Rng, derive_seed
from .tournament import Tournament, VertexSet, bipartite_pair, induced

Subfinder = Callable[[Tournament, VertexSet], PowerPath]

# Fixed for every caller: the exact base case's size and states-only budget
# (which keeps results deterministic), and the recursion depth.
DEFAULT_EXACT_THRESHOLD = 16
DEFAULT_EXACT_STATES = 150_000
DEFAULT_MAX_DEPTH = 24


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


def _partition(t: Tournament, mask: int, num_parts: int, rng: Rng) -> list[VertexSet]:
    members: list[int] = []
    m = mask
    while m:
        b = m & -m
        members.append(b.bit_length() - 1)
        m ^= b
    rng.shuffle(members)
    total = len(members)
    base, extra = divmod(total, num_parts)
    parts: list[VertexSet] = []
    pos = 0
    for i in range(num_parts):
        size = base + (1 if i < extra else 0)
        if size == 0:
            continue
        parts.append(VertexSet.from_iterable(members[pos : pos + size], t.n))
        pos += size
    return parts


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


def _split_join_core(
    t: Tournament,
    cd: ClusterDigraph,
    ordering: Sequence[int],
    params: RegularityParams,
    subfinder: Subfinder,
    k: int,
) -> PowerPath:
    """Half the part ordering, drop weak left-half vertices, recurse and join."""
    rows = t.rows
    lp = len(cd.parts)
    half = lp // 2
    left_idx = list(ordering[:half])
    right_idx = list(ordering[half:])
    right_mask = 0
    for r in right_idx:
        right_mask |= cd.parts[r].mask
    wthr = weak_count_threshold(params, lp)
    low_frac = 1 - 2 * params.delta_f
    # Per right part: a left vertex counts it "bad" when it sends at most
    # (1 - 2 delta) of the part forward.
    bad_cap = {r: math.floor(low_frac * len(cd.parts[r])) for r in right_idx}
    left_mask = 0
    for j in left_idx:
        targets = [r for r in right_idx if (j, r) in cd.arcs]
        for x in cd.parts[j]:
            bad = 0
            for r in targets:
                if (rows[x] & cd.parts[r].mask).bit_count() <= bad_cap[r]:
                    bad += 1
                    if bad >= wthr:
                        break
            if bad < wthr:
                left_mask |= 1 << x
    h_left = (
        subfinder(t, VertexSet(left_mask, t.n)) if left_mask else PowerPath(k, ())
    )
    cond = right_mask
    if len(h_left):
        cond = _cond_mask(t, h_left.vertices[-min(k, len(h_left)) :], right_mask)
    h_right = subfinder(t, VertexSet(cond, t.n)) if cond else PowerPath(k, ())
    joined = PowerPath(k, h_left.vertices + h_right.vertices)
    if not verify_power_path(t, joined)[0]:
        joined = h_left if len(h_left) >= len(h_right) else h_right
    return joined


def _cd_graph(cd: ClusterDigraph) -> OrientedGraph:
    rows = [0] * len(cd.parts)
    for i, j in cd.arcs:
        rows[i] |= 1 << j
    return OrientedGraph(len(cd.parts), tuple(rows))


def _find(
    t: Tournament,
    mask: int,
    k: int,
    params: RegularityParams,
    seed: int,
    depth: int,
    trace: Optional[list],
) -> PowerPath:
    def finish(route: str, path: PowerPath) -> PowerPath:
        ok, _ = verify_power_path(t, path)
        if not ok:
            raise RuntimeError("internal error: unverified witness leaving driver")
        if trace is not None:
            trace.append(
                {"node": _node_id(t.n, mask), "route": route, "len": len(path)}
            )
        return path

    m = mask.bit_count()
    if m == 0:
        return finish("greedy", PowerPath(k, ()))
    if k == 1:
        # k = 1 returns before any recursion, so mask is the full vertex set.
        return finish("greedy", hamiltonian_path_insertion(t))
    if m <= DEFAULT_EXACT_THRESHOLD:
        sub, labels = induced(t, VertexSet(mask, t.n))
        res = longest_power_path_exact(sub, k, SolveBudget(DEFAULT_EXACT_STATES))
        return finish(
            "base", PowerPath(k, tuple(labels[v] for v in res.path.vertices))
        )
    greedy = PowerPath(k, _greedy_mask(t, mask, k, Rng(derive_seed(seed, "greedy"))))
    if depth <= 0:
        return finish("greedy", greedy)
    ell = params.parts
    if m // ell < 2 / params.delta_f:
        return finish("greedy", greedy)
    parts = _partition(t, mask, ell, Rng(derive_seed(seed, "partition")))
    cd = build_cluster_digraph(t, parts, params, seed=derive_seed(seed, "probe"))

    def subfinder(t: Tournament, s: VertexSet) -> PowerPath:
        child_seed = derive_seed(seed, "sub", _node_id(t.n, s.mask))
        return _find(t, s.mask, k, params, child_seed, depth - 1, trace)

    if cd.mid_pairs:
        i, j, _ = min(
            cd.mid_pairs, key=lambda rec: (-min(rec[2], 1 - rec[2]), rec[0], rec[1])
        )
        pair = bipartite_pair(t, parts[i], parts[j])
        res = chain_power_path(t, pair, k, params, "a")
        route = "claim1"
    else:
        kk = max(1, _ceil_frac(params.delta_f * len(parts) / 2))
        got = order_or_long_path(_cd_graph(cd), kk)
        if isinstance(got, PowerPath):
            res = concatenate_along_cluster_path(
                t, cd, got.vertices, params, subfinder, k=k
            )
            route = "claim2"
        else:
            res = _split_join_core(t, cd, got.order, params, subfinder, k)
            route = "claim3"
    return finish(route, res if len(res) >= len(greedy) else greedy)


def find_kth_power_path(
    t: Tournament,
    k: int,
    params: RegularityParams = DEFAULT_PARAMS,
    seed: int = 0,
    trace: Optional[list] = None,
) -> PowerPath:
    """Longest verified k-th power of a path the route machinery can produce.

    k=1 reduces to the insertion Hamiltonian path; k=2 (squares of paths)
    chains good pairs; k>=3 chains good k-tuples. Every join conditions on
    the last k vertices.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _find(
        t, t.full_mask, k, params, derive_seed(seed, "find"), DEFAULT_MAX_DEPTH, trace
    )
