"""Smoke tests for scripts/: they import and call the library directly, so a
library signature change must not break them silently."""

import importlib.util
import json
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
