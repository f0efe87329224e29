"""Long powers of paths in tournaments: constructive finders, exact oracles,
extremal search, and a reproducible CLI harness."""

__version__ = "0.1.0"

from .driver import find_kth_power_path
from .exact import (
    ExactResult,
    PowerPath,
    SolveBudget,
    greedy_power_path,
    hamiltonian_path_insertion,
    longest_power_path_exact,
    verify_power_path,
)
from .search import (
    AnnealConfig,
    SearchRecord,
    anneal_min_pp,
    canonical_fingerprint,
    enumerate_min_pp,
    flip_edge,
)
from .tournament import (
    Tournament,
    random_tournament,
    rotational,
    transitive,
)
from .trn import load_trn, read_trn, save_trn, write_trn

__all__ = [
    "AnnealConfig",
    "ExactResult",
    "PowerPath",
    "SearchRecord",
    "SolveBudget",
    "Tournament",
    "anneal_min_pp",
    "canonical_fingerprint",
    "enumerate_min_pp",
    "find_kth_power_path",
    "flip_edge",
    "greedy_power_path",
    "hamiltonian_path_insertion",
    "load_trn",
    "longest_power_path_exact",
    "random_tournament",
    "read_trn",
    "rotational",
    "save_trn",
    "transitive",
    "verify_power_path",
    "write_trn",
]
