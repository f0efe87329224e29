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


# Flags of os.open that let it write.
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _writes_file(call: ast.Call) -> bool:
    """Whether ``call`` writes a file: ``.write_bytes``, ``.write_text``, or
    an ``open`` whose mode (or ``os.open`` flags) can write or is not a
    literal that says it cannot."""
    f = call.func
    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
    if name in {"write_bytes", "write_text"}:
        return True
    if name != "open":
        return False
    receiver = f.value.id if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) else ""
    # open(file, mode) and io.open take the mode second, Path.open first.
    at = 0 if isinstance(f, ast.Attribute) and receiver not in {"io", "os"} else 1
    mode = next((k.value for k in call.keywords if k.arg in {"mode", "flags"}),
                call.args[at] if len(call.args) > at else None)
    if receiver == "os":
        names = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(mode)}
        return bool(names & WRITE_FLAGS) or "O_RDONLY" not in names
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_package_writes_files_only_through_write_file():
    # trn.write_file writes over an existing file's bytes and cuts it to
    # length; any other write path would truncate the file to zero first.
    exempt, found = [], []
    for source in sorted(Path(ppath.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(), str(source))
        helper = {id(node) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and func.name == "write_file"
                  and source.name == "trn.py"
                  for node in ast.walk(func)}
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and _writes_file(call):
                (exempt if id(call) in helper else found).append(
                    (source.name, ast.unparse(call.func)))
    assert exempt == [("trn.py", "os.open")]
    assert found == []


def test_write_guard_sees_each_kind_of_write():
    writes = ["p.write_bytes(b'')", "Path(p).write_text('')", "open(p, 'w')",
              "open(p, mode='ab')", "open(p, 'r+')", "p.open('x')", "io.open(p, 'wb')",
              "open(p, m)", "os.open(p, os.O_WRONLY | os.O_CREAT)", "os.open(p, flags)"]
    reads = ["open(p)", "open(p, 'rb')", "p.open()", "p.open('r')", "p.read_bytes()",
             "os.open(p, os.O_RDONLY)", "fh.write(b'')"]
    for text, expected in [*((w, True) for w in writes), *((r, False) for r in reads)]:
        assert _writes_file(ast.parse(text).body[0].value) is expected, text
