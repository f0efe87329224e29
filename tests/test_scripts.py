"""Smoke tests for scripts/: they import and call the library directly, so a
library signature change must not break them silently."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, entry", [("make_goldens", "main")])
def test_script_imports(name, entry):
    # Import only: running it rewrites the committed tests/golden/ files.
    assert callable(getattr(_load(SCRIPTS / f"{name}.py"), entry))


def test_calibration_pilots_reproduce_files(tmp_path, monkeypatch):
    # run_calibration.py writes the committed calibration/ files byte for byte.
    module = _load(SCRIPTS / "run_calibration.py")
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.growth_pilot()
    module.anneal_pilot()
    for name in ("growth_pilot.json", "anneal_pilot.json"):
        assert (tmp_path / name).read_bytes() == (ROOT / "calibration" / name).read_bytes()


def test_cli_outputs_match_goldens(tmp_path, monkeypatch):
    # The CLI commands that make_goldens.py pins write the same bytes.
    monkeypatch.chdir(tmp_path)
    pinned = json.loads((ROOT / "tests" / "golden" / "cli_outputs.json").read_text())
    assert _load(SCRIPTS / "make_goldens.py").cli_output_hashes() == pinned


def test_benchmark_trace_targets_resolve():
    # The benchmark's tracer wraps these entry points by name and skips a
    # missing one, a module that no longer imports included, so a rename in
    # ppath must fail here instead. The names below went with the finder's
    # structural recursion, the cluster digraph and the ppath.engine module;
    # the tracer still names them until the benchmark drops them.
    gone = {"ppath.driver.order_or_long_path", "ppath.driver.chain_power_path",
            "ppath.driver._split_join_core", "ppath.driver.build_cluster_digraph",
            "ppath.driver.sampled_regular",
            "ppath.driver.concatenate_along_cluster_path",
            "ppath.engine.verify_power_path"}
    missing = set()
    for mod_name, path, _ in _load(ROOT / "perfbench" / "tracer.py").TARGETS:
        try:
            owner = importlib.import_module(mod_name)
        except ImportError:
            missing.add(f"{mod_name}.{path}")
            continue
        for part in path.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.add(f"{mod_name}.{path}")
                break
    assert missing == gone


def _ppath_uses(tree: ast.AST) -> set[str]:
    """Dotted names of the ppath objects a module uses: each ``from ppath...
    import name``, and each attribute chain on an ``import ppath.x [as m]``
    binding (``m.f`` of ``import ppath.x as m`` is ``ppath.x.f``)."""
    uses, bound = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ppath":
            importlib.import_module(node.module)
            uses.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ppath":
                    importlib.import_module(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["ppath"] = "ppath"
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in bound:
            uses.add(".".join([bound[node.id], *reversed(parts)]))
    return uses


def test_benchmark_imports_resolve():
    # The benchmark also imports and calls ppath names outside the tracer's
    # targets; a removed one would fail every benchmark run, not a test.
    uses = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        uses |= _ppath_uses(ast.parse(path.read_text()))
    assert {"ppath.cli.main", "ppath.search.anneal_min_pp", "ppath.search.AnnealConfig",
            "ppath.exact.SolveBudget"} <= uses
    # Importing a submodule binds it on its package, so every name resolves
    # by attributes from ppath.
    missing = set()
    for name in uses:
        owner = importlib.import_module("ppath")
        for part in name.split(".")[1:]:
            if not hasattr(owner, part):
                missing.add(name)
                break
            owner = getattr(owner, part)
    assert missing == set()


def test_benchmark_commands_parse(tmp_path, monkeypatch):
    # Every command line the benchmark passes to ppath.cli.main must parse,
    # so a removed or renamed flag fails here, not every benchmark run.
    from ppath.cli import build_parser

    # Its dataclasses look their module up in sys.modules.
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    ops = [op for make in workloads.WORKLOADS.values() for op in make(tmp_path, 1)]
    ops += [make(tmp_path) for make in workloads.PROBES.values()]
    ops += workloads.self_check_ops(tmp_path)
    argvs = [cmd for op in ops for cmd in op.commands if isinstance(cmd, list)]
    assert {argv[0] for argv in argvs} == {"gen", "find", "solve", "search"}
    for argv in argvs:
        build_parser().parse_args(argv)


def _bench_stdout(run_s, same=True, failed=0):
    # The text perfbench/run.py prints, cut to the lines bench_pairs.py reads.
    return "\n".join([
        "workload=find_large seed=1 trace=0 seconds=30",
        "machine: nproc=2 cpu=Intel(R) Xeon(R) Processor python=3.11.7 numpy=2.4.6",
        f"output sha256=ab12 same as pinned: {'yes' if same else 'NO'}",
        f"failed_frac={failed / 10:.4f} ({failed} of 10 ops)",
        json.dumps({"correct": not failed, "attempted": 10, "failed": failed, "metrics": {
            "run_s": {"value": run_s, "unit": "s"},
            "witness_vertices": {"value": 2047, "unit": "count"}}}),
    ]) + "\n"


def _stand_in_checkouts(tmp_path, log, fail_call=0):
    # Each side's checkout holds a stand-in perfbench/run.py that logs its
    # side and prints fabricated results, so no benchmark runs here; the
    # ``fail_call``-th run of either side (counted from 1) exits 5 instead.
    # Its src/ppath holds 5 lines of .py files on the parent side and 3 on
    # the change side, and a .txt file that is not counted.
    for side, run_s, py_lines in (("parent", 0.16, (3, 2)), ("change", 0.10, (3,))):
        checkout = tmp_path / side
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "src" / "ppath").mkdir(parents=True)
        for i, lines in enumerate(py_lines):
            (checkout / "src" / "ppath" / f"m{i}.py").write_text("x = 1\n" * lines)
        (checkout / "src" / "ppath" / "notes.txt").write_text("not code\n")
        (checkout / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 30,
            "workloads": [{"name": "find_large"}, {"name": "solve_exact"}],
            "end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25},
                           {"name": "witness_vertices", "better": "higher",
                            "bound": 0.02}]}))
        (checkout / "perfbench" / "run.py").write_text(
            f"import sys\nopen({str(log)!r}, 'a').write({side!r} + ' ' + sys.argv[4] + '\\n')\n"
            f"if len(open({str(log)!r}).readlines()) == {fail_call}:\n    sys.exit(5)\n"
            f"print({_bench_stdout(run_s)!r}, end='')\n")
    return tmp_path / "parent", tmp_path / "change"


def _git(checkout, *args):
    return subprocess.run(["git", "-C", str(checkout), "-c", "user.name=t",
                           "-c", "user.email=t@t", *args],
                          check=True, capture_output=True, text=True).stdout.strip()


def test_bench_pairs_summary_on_fabricated_runs(tmp_path):
    module = _load(SCRIPTS / "bench_pairs.py")
    run = module.parse_run(_bench_stdout(0.16))
    assert run["metrics"] == {"run_s": 0.16, "witness_vertices": 2047}
    assert run["machine"] == {"cpu": "Intel(R) Xeon(R) Processor", "vcpus": 2,
                              "python": "3.11.7", "numpy": "2.4.6"}
    assert run["same_as_pinned"] is True and run["failed_frac"] == 0.0

    parent = [0.16, 0.15, 0.17, 0.16]
    change = [0.10, 0.16, 0.11, 0.16]
    pairs = [(module.parse_run(_bench_stdout(p)), module.parse_run(_bench_stdout(c)))
             for p, c in zip(parent, change)]
    better = {"run_s": "lower", "witness_vertices": "higher"}
    summary = module.summarize(pairs, better)
    run_s = summary["metrics"]["run_s"]
    assert run_s["parent"] == {"q1": 0.1575, "median": 0.16, "q3": 0.1625, "runs": parent}
    assert run_s["change"]["median"] == 0.135
    assert (run_s["change_wins"], run_s["ties"]) == (2, 1)
    wv = summary["metrics"]["witness_vertices"]
    assert (wv["change_wins"], wv["ties"], wv["better"]) == (0, 4, "higher")
    assert summary["pairs"] == 4 and summary["all_same_as_pinned"] is True
    assert summary["failed"] == 0 and summary["max_failed_frac"] == 0.0

    pairs[2] = (pairs[2][0], module.parse_run(_bench_stdout(0.11, same=False, failed=2)))
    summary = module.summarize(pairs, better)
    assert summary["all_same_as_pinned"] is False
    assert summary["failed"] == 2 and summary["max_failed_frac"] == 0.2

    # The file names each side's commit, a checkout with uncommitted edits
    # as dirty with the id of the tree it holds, and the claimed workload
    # and metric.
    parent, change = _stand_in_checkouts(tmp_path, tmp_path / "order.log")
    for checkout in (parent, change):
        _git(checkout, "init", "-q")
        _git(checkout, "add", "-A")
        _git(checkout, "commit", "-q", "-m", "stand-in")
    (change / "BENCHMARK.json").write_text((change / "BENCHMARK.json").read_text() + "\n")
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "find_large",
            "--seeds", "1", "--pairs", "1", "--out", str(out)]
    assert module.main(argv + ["--claim", "find_large/run_s"]) == 0
    bench = json.loads(out.read_text())
    assert bench["parent"] == _git(parent, "rev-parse", "--short=7", "HEAD")
    dirty, _, tree = bench["change"].partition(" tree ")
    assert dirty == _git(change, "rev-parse", "--short=7", "HEAD") + "-dirty"
    assert bench["claimed"] == {"workload": "find_large", "metric": "run_s"}
    assert bench["src_lines"] == {"parent": 5, "change": 3}
    # A claim outside BENCHMARK.json, or runs of another tree added to the
    # same file (an untracked file makes one, and so does a commit), exit 2
    # and leave the file as it was.
    written = out.read_bytes()
    for extra in (["--claim", "find_large/median_s"], ["--claim", "nowhere/run_s"]):
        with pytest.raises(SystemExit) as exc:
            module.main(argv + extra)
        assert exc.value.code == 2
    (change / "notes.txt").write_text("untracked\n")
    with pytest.raises(SystemExit) as exc:
        module.main(argv)
    assert exc.value.code == 2 and out.read_bytes() == written
    (change / "notes.txt").unlink()
    assert module.main(argv) == 0
    # The tree measured is the tree of a commit of exactly those edits.
    _git(change, "commit", "-q", "-am", "edit")
    assert tree == _git(change, "rev-parse", "HEAD^{tree}")[:12]
    written = out.read_bytes()
    with pytest.raises(SystemExit) as exc:
        module.main(argv)
    assert exc.value.code == 2 and out.read_bytes() == written


def test_bench_pairs_verdicts_on_fabricated_runs(tmp_path):
    module = _load(SCRIPTS / "bench_pairs.py")
    better = {"run_s": "lower", "witness_vertices": "higher"}

    def metric(parent, change):
        pairs = [(module.parse_run(_bench_stdout(p)), module.parse_run(_bench_stdout(c)))
                 for p, c in zip(parent, change)]
        return module.summarize(pairs, better)["metrics"]["run_s"]

    parent = [0.20, 0.21, 0.19, 0.20, 0.22, 0.18, 0.20, 0.21, 0.19, 0.20]
    # Parent median 0.20, q3 - q1 = 0.21 - 0.19. Nine wins and a median
    # 0.10 lower meet the claim; eight wins, or a gain inside the parent's
    # spread, do not.
    nine = [0.10] * 9 + [0.30]
    assert module.verdict(metric(parent, nine), 0.25) == {
        "within_bound": True, "claim_met": True}
    eight = [0.10] * 8 + [0.30, 0.30]
    assert module.verdict(metric(parent, eight), 0.25)["claim_met"] is False
    close = [p - 0.001 for p in parent]
    m = metric(parent, close)
    assert m["change_wins"] == 10 and module.verdict(m, 0.25)["claim_met"] is False
    # 20 % slower is within a 0.25 bound, 30 % is not; a metric where higher
    # is better reads the other way.
    assert module.verdict(metric(parent, [0.24] * 10), 0.25)["within_bound"] is True
    assert module.verdict(metric(parent, [0.26] * 10), 0.25) == {
        "within_bound": False, "claim_met": False}
    vertices = {"better": "higher", "change_wins": 0,
                "parent": {"q1": 100, "median": 100, "q3": 100, "runs": [100] * 10}}
    for change, within in ((98, True), (97, False), (120, True)):
        m = {**vertices, "change": {"median": change}}
        assert module.verdict(m, 0.02)["within_bound"] is within, change

    # bench_pairs.py writes both verdicts for every metric under its bound.
    parent, change = _stand_in_checkouts(tmp_path, tmp_path / "order.log")
    out = tmp_path / "BENCH.json"
    assert module.main(["--parent", str(parent), "--change", str(change),
                        "--workload", "find_large", "--seeds", "1", "--pairs", "2",
                        "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["find_large"]["seed1"]["metrics"]
    assert {k: metrics["run_s"][k] for k in ("within_bound", "claim_met")} == {
        "within_bound": True, "claim_met": True}
    assert {k: metrics["witness_vertices"][k] for k in ("within_bound", "claim_met")} == {
        "within_bound": True, "claim_met": False}


def test_bench_pairs_counts_equal_on_fabricated_runs(tmp_path):
    module = _load(SCRIPTS / "bench_pairs.py")

    def traced(run_s, states, calls):
        run = module.parse_run(_bench_stdout(run_s))
        run["metrics"].update({"exact.states": states, "exact.calls": calls})
        run["units"].update({"exact.states": "count", "exact.calls": "count"})
        return run

    # Only metrics of unit count are compared: run_s differs in every run.
    pairs = [(traced(0.16, 1522, 4), traced(0.10, 1522, 4)),
             (traced(0.15, 1522, 4), traced(0.11, 1522, 5))]
    assert module.counts_equal(pairs) == {
        "witness_vertices": True, "exact.states": True, "exact.calls": False}

    # bench_pairs.py writes it under traced.<workload>. A traced run's last
    # line also holds trace.run_s, which the progress lines print.
    parent, change = _stand_in_checkouts(tmp_path, tmp_path / "order.log")
    plain = _bench_stdout(0.10)
    traced_out = plain.replace('"metrics": {', '"metrics": {"trace.run_s": '
                               '{"value": 0.2, "unit": "s"}, ')
    for checkout in (parent, change):
        (checkout / "perfbench" / "run.py").write_text(
            f"import sys\nprint({traced_out!r} if sys.argv[8] == '1' else {plain!r}, end='')\n")
    out = tmp_path / "BENCH.json"
    assert module.main(["--parent", str(parent), "--change", str(change),
                        "--workload", "find_large", "--seeds", "1", "--pairs", "1",
                        "--traced-runs", "2", "--out", str(out)]) == 0
    traced_runs = json.loads(out.read_text())["traced"]["find_large"]
    assert len(traced_runs["parent"]) == len(traced_runs["change"]) == 2
    assert traced_runs["counts_equal"] == {"witness_vertices": True}


def test_bench_pairs_keeps_finished_pairs_when_a_run_fails(tmp_path):
    # The third run, the change's in pair 2 of seed 1, fails: pair 1 is
    # summarised and written with the failed run, no run follows it, and
    # the script exits 1.
    log = tmp_path / "order.log"
    parent, change = _stand_in_checkouts(tmp_path, log, fail_call=3)
    out = tmp_path / "BENCH.json"
    module = _load(SCRIPTS / "bench_pairs.py")
    assert module.main(["--parent", str(parent), "--change", str(change),
                        "--workload", "find_large", "--seeds", "1", "7", "--pairs", "3",
                        "--traced-runs", "1", "--out", str(out)]) == 1
    assert log.read_text().split()[::2] == ["parent", "change", "change"]
    bench = json.loads(out.read_text())
    assert list(bench["workloads"]["find_large"]) == ["seed1"]
    seed1 = bench["workloads"]["find_large"]["seed1"]
    assert seed1["pairs"] == 1
    assert seed1["metrics"]["run_s"]["change"]["runs"] == [0.10]
    assert "traced" not in bench
    command = bench["failed_run"].pop("command")
    assert command.endswith("perfbench/run.py --workload find_large --seed 1 "
                            "--seconds 30 --trace 0")
    assert bench["failed_run"] == {"workload": "find_large", "side": "change", "seed": 1,
                                   "pair": 2, "exit_code": 5, "checkout": str(change)}
    # A later invocation of the same workload that finishes drops the record.
    log.unlink()
    assert module.main(["--parent", str(parent), "--change", str(change),
                        "--workload", "find_large", "--seeds", "1", "--pairs", "1",
                        "--out", str(out)]) == 0
    assert "failed_run" not in json.loads(out.read_text())


def test_bench_pairs_alternates_sides(tmp_path):
    log = tmp_path / "order.log"
    _stand_in_checkouts(tmp_path, log)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"workloads": {"solve_exact": {"seed1": {}}}}))
    module = _load(SCRIPTS / "bench_pairs.py")
    assert module.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                        "--workload", "find_large", "--seeds", "1", "7", "--pairs", "3",
                        "--out", str(out)]) == 0
    sides = log.read_text().split()[::2]
    assert sides == ["parent", "change", "change", "parent", "parent", "change"] * 2
    bench = json.loads(out.read_text())
    assert set(bench["workloads"]) == {"solve_exact", "find_large"}
    assert set(bench["workloads"]["find_large"]) == {"seed1", "seed7"}
    assert bench["workloads"]["find_large"]["seed7"]["metrics"]["run_s"]["change_wins"] == 3
    assert bench["machine"]["vcpus"] == 2


def test_bench_pairs_filesystem_on_fabricated_mounts():
    module = _load(SCRIPTS / "bench_pairs.py")
    mounts = "\n".join([
        "/dev/vda / ext4 rw,relatime,discard 0 0",
        "proc /proc proc rw,nosuid 0 0",
        "tmpfs /srv/data2 tmpfs rw 0 0",
        "/dev/vdb /srv/my\\040work xfs rw,noatime 0 0",
        "/dev/vdc /srv/my\\040work/b ext4 rw 0 0",
        "overlay /srv/my\\040work/b overlay rw,lowerdir=/l 0 0",
        "",
    ])
    def mount(path):
        found = module.filesystem(Path(path), mounts)
        return found and (found["mount_point"], found["type"], found["options"])

    # The longest mount point that is a prefix by whole path components.
    assert mount("/srv/data") == ("/", "ext4", "rw,relatime,discard")
    assert mount("/srv/data2/x") == ("/srv/data2", "tmpfs", "rw")
    assert mount("/srv/my work") == ("/srv/my work", "xfs", "rw,noatime")
    assert mount("/srv/my work/bc") == ("/srv/my work", "xfs", "rw,noatime")
    # Of two mounts at one point, the last listed is the one on top.
    assert mount("/srv/my work/b/c") == ("/srv/my work/b", "overlay", "rw,lowerdir=/l")
    assert module.filesystem(Path("/srv"), "") is None
