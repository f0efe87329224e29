"""Long powers of paths in tournaments: constructive finders, exact oracles,
extremal search, and a reproducible CLI harness."""

__version__ = "0.1.0"

from .driver import find_kth_power_path
from .exact import (
    BudgetExceededError,
    ExactResult,
    PowerPath,
    SolveBudget,
    greedy_power_path,
    hamiltonian_path_insertion,
    longest_power_path_exact,
    pp_value,
    verify_power_path,
)
from .search import (
    AnnealConfig,
    SearchRecord,
    UseAnnealInsteadError,
    anneal_min_pp,
    canonical_fingerprint,
    enumerate_min_pp,
    flip_edge,
)
from .tournament import (
    Tournament,
    VertexSet,
    induced,
    random_tournament,
    rotational,
    transitive,
)
from .trn import load_trn, read_trn, save_trn, write_trn

__all__ = [
    "AnnealConfig",
    "BudgetExceededError",
    "ExactResult",
    "PowerPath",
    "SearchRecord",
    "SolveBudget",
    "Tournament",
    "UseAnnealInsteadError",
    "VertexSet",
    "anneal_min_pp",
    "canonical_fingerprint",
    "enumerate_min_pp",
    "find_kth_power_path",
    "flip_edge",
    "greedy_power_path",
    "hamiltonian_path_insertion",
    "induced",
    "load_trn",
    "longest_power_path_exact",
    "pp_value",
    "random_tournament",
    "read_trn",
    "rotational",
    "save_trn",
    "transitive",
    "verify_power_path",
    "write_trn",
]
