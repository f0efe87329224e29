"""Long powers of paths in tournaments: constructive finders, exact oracles,
extremal search, and a reproducible CLI harness."""

__version__ = "0.1.0"

from .driver import find_kth_power_path
from .engine import (
    GoodPair,
    RegularityParams,
    chain_power_path,
    find_good_pair,
    good_pair_threshold,
    is_good_pair,
)
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
    BipartitePair,
    Tournament,
    VertexSet,
    bipartite_pair,
    directed_density,
    induced,
    random_split,
    random_tournament,
    rotational,
    transitive,
)
from .trn import load_trn, read_trn, save_trn, write_trn

__all__ = [
    "AnnealConfig",
    "BipartitePair",
    "BudgetExceededError",
    "ExactResult",
    "GoodPair",
    "PowerPath",
    "RegularityParams",
    "SearchRecord",
    "SolveBudget",
    "Tournament",
    "UseAnnealInsteadError",
    "VertexSet",
    "anneal_min_pp",
    "bipartite_pair",
    "canonical_fingerprint",
    "chain_power_path",
    "directed_density",
    "enumerate_min_pp",
    "find_good_pair",
    "find_kth_power_path",
    "flip_edge",
    "good_pair_threshold",
    "greedy_power_path",
    "hamiltonian_path_insertion",
    "induced",
    "is_good_pair",
    "load_trn",
    "longest_power_path_exact",
    "pp_value",
    "random_split",
    "random_tournament",
    "read_trn",
    "rotational",
    "save_trn",
    "transitive",
    "verify_power_path",
    "write_trn",
]
