"""Top-level finder for long path powers.

``find_kth_power_path`` has three cases and no recursion: k = 1 is the
insertion Hamiltonian path, a tournament of at most DEFAULT_EXACT_THRESHOLD
vertices is solved exactly, and a larger one gets the seeded greedy. The
paper's structural recursion (partition, regularity probe, chain,
concatenation, split-and-join) is not part of the package: at its default
probe parameters it never changed a greedy witness (README, "Finder
routes").
Fixed (tournament, seed) yields an identical route trace and witness.
"""

from __future__ import annotations

from typing import Optional

from .exact import (
    PowerPath,
    SolveBudget,
    _greedy_mask,
    hamiltonian_path_insertion,
    longest_power_path_exact,
    verify_power_path,
)
from .rng import Rng, derive_seed
from .tournament import Tournament

# Fixed for every caller: the exact case's size and states-only budget
# (which keeps results deterministic).
DEFAULT_EXACT_THRESHOLD = 16
DEFAULT_EXACT_STATES = 150_000


def find_kth_power_path(
    t: Tournament,
    k: int,
    seed: int = 0,
    trace: Optional[list] = None,
) -> PowerPath:
    """Longest verified k-th power of a path the finder can produce.

    k = 1 is the insertion Hamiltonian path; at most DEFAULT_EXACT_THRESHOLD
    vertices are solved exactly under DEFAULT_EXACT_STATES; otherwise the
    greedy seeded from ``seed``. ``trace`` gets one record: the route
    ("insertion", "base" for the exact solve, or "greedy") and the length.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        route, path = "insertion", hamiltonian_path_insertion(t)
    elif t.n <= DEFAULT_EXACT_THRESHOLD:
        res = longest_power_path_exact(t, k, SolveBudget(DEFAULT_EXACT_STATES))
        route, path = "base", res.path
    else:
        rng = Rng(derive_seed(derive_seed(seed, "find"), "greedy"))
        route, path = "greedy", PowerPath(k, _greedy_mask(t, t.full_mask, k, rng))
    if not verify_power_path(t, path)[0]:
        raise RuntimeError("unverified witness leaving driver")
    if trace is not None:
        trace.append({"route": route, "len": len(path)})
    return path
