import ast
from pathlib import Path

import ppath
import ppath.cli
import ppath.exact
import ppath.search
import ppath.tournament
import ppath.trn

# Exports that left with the cluster digraph, the regularity probe, the
# ordering dichotomy, the common out-neighborhood, the good pairs and chains,
# the bipartite-pair densities, the vertex sets and induced subtournaments,
# the pp-only solve, and the exception classes that ValueError (bad input)
# and RuntimeError (a failed self-check) replace; none of them may come back
# as a stale entry.
REMOVED = {
    "BadDiagonal", "BipartitePair", "BudgetExceededError", "ClusterDigraph",
    "EmptySetError", "GoodPair", "InternalError", "InvalidLabelError",
    "InvalidResiduesError", "InvalidSizeError", "MalformedHeader",
    "NonSquareMatrix", "OrderingCertificate", "OrientationViolation",
    "OrientedGraph", "RegularityParams", "TrnError", "UsageError",
    "UseAnnealInsteadError", "VertexSet", "bipartite_pair",
    "build_cluster_digraph", "chain_power_path", "common_out_neighborhood",
    "concatenate_along_cluster_path", "directed_density", "find_good_pair",
    "good_pair_threshold", "induced", "is_good_pair", "order_or_long_path",
    "pp_value", "random_oriented_graph", "random_split", "sampled_regular",
}


def test_exports_resolve_and_removed_names_are_gone():
    # A name in __all__ that ppath lacks breaks ``from ppath import *``.
    assert len(set(ppath.__all__)) == len(ppath.__all__)
    assert [n for n in ppath.__all__ if not hasattr(ppath, n)] == []
    assert REMOVED.isdisjoint(ppath.__all__)
    assert [n for n in REMOVED if hasattr(ppath, n)] == []
    # Nor do the modules that defined them keep them.
    modules = (ppath.cli, ppath.exact, ppath.search, ppath.tournament, ppath.trn)
    assert [(m.__name__, n) for m in modules for n in REMOVED if hasattr(m, n)] == []


# What the package must not use: these reads of the environment, and the
# multiprocessing package.
ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def _banned(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "multiprocessing"]
    if isinstance(node, ast.ImportFrom):
        if (node.module or "").split(".")[0] == "multiprocessing":
            return [node.module]
        if node.module == "os":
            return [f"os.{a.name}" for a in node.names if a.name in ENV_READS]
    elif (isinstance(node, ast.Attribute) and node.attr in ENV_READS
          and isinstance(node.value, ast.Name) and node.value.id == "os"):
        return [f"os.{node.attr}"]
    return []


def test_package_reads_no_environment_and_starts_no_process():
    # A knob read from the environment, or a second process path, can come
    # back only together with a change to this test.
    sources = sorted(Path(ppath.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    found = [(source.name, name)
             for source in sources
             for node in ast.walk(ast.parse(source.read_text(), str(source)))
             for name in _banned(node)]
    assert found == []


def _callee(call: ast.Call) -> str:
    """The name ``call`` calls: ``name(...)`` or ``self.name(...)``."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "self":
        return f.attr
    return ""


def test_package_has_no_recursion():
    # Every walk keeps its own stack, so no input's depth can reach
    # Python's recursion limit.
    sources = sorted(Path(ppath.__file__).parent.glob("*.py"))
    found = {(source.name, func.name)
             for source in sources
             for func in ast.walk(ast.parse(source.read_text(), str(source)))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for call in ast.walk(func)
             if isinstance(call, ast.Call) and _callee(call) == func.name}
    assert found == set()
