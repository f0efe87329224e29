import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import ppath.cli
import ppath.driver
import ppath.exact
import ppath.search
from conftest import GOLDEN, blowup, triangle_chain
from ppath.cli import main
from ppath.exact import PowerPath, SolveBudget, longest_power_path_exact, verify_power_path
from ppath.rng import derive_seed
from ppath.search import flip_edge
from ppath.tournament import random_tournament, transitive
from ppath.trn import load_trn, save_trn, write_trn


def run(argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_transitive_matches_library(self, tmp_path):
        out = tmp_path / "t.trn"
        assert run(["gen", "--type", "transitive", "--n", 4, "--out", out]) == 0
        assert out.read_bytes() == write_trn(transitive(4))
        assert (tmp_path / "t.trn.manifest.json").exists()

    def test_random_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.trn", tmp_path / "b.trn"
        assert run(["gen", "--type", "random", "--n", 50, "--seed", 7, "--out", a]) == 0
        assert run(["gen", "--type", "random", "--n", 50, "--seed", 7, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_even_rotational_is_usage_error(self, tmp_path):
        code = run(
            ["gen", "--type", "rotational", "--n", 4, "--residues", "1",
             "--out", tmp_path / "x.trn"]
        )
        assert code == 2

    def test_missing_flags_exit_2(self, tmp_path):
        assert run(["gen", "--type", "transitive", "--out", tmp_path / "x.trn"]) == 2

    @pytest.mark.parametrize("gen_type, flag, value, error", [
        ("random", "--residues", "1,2", "--residues requires --type rotational"),
        ("transitive", "--residues", "1,2", "--residues requires --type rotational"),
        ("transitive", "--seed", 4, "--seed requires --type random"),
        ("rotational", "--seed", 3, "--seed requires --type random"),
    ])
    def test_flag_the_type_ignores_is_refused(self, tmp_path, capsys, gen_type, flag,
                                              value, error):
        out = tmp_path / "g.trn"
        argv = ["gen", "--type", gen_type, "--n", 5, "--out", out]
        if gen_type == "rotational":
            argv[-2:-2] = ["--residues", "1,2"]
        assert run(argv[:-2] + [flag, value] + argv[-2:]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert list(tmp_path.iterdir()) == []
        # Without the flag the type runs; a manifest that records the flag
        # records a run this version refuses, so replay exits 2 and rewrites
        # nothing.
        assert run(argv) == 0
        manifest = tmp_path / "g.trn.manifest.json"
        recorded = json.loads(manifest.read_text())
        recorded["args"][flag[2:]] = value
        manifest.write_text(json.dumps(recorded))
        out.unlink()
        capsys.readouterr()
        assert run(["replay", manifest]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_seed_at_its_default_is_accepted(self, tmp_path):
        out = tmp_path / "t.trn"
        assert run(["gen", "--type", "transitive", "--n", 4, "--seed", 0, "--out", out]) == 0
        assert out.read_bytes() == write_trn(transitive(4))


class TestSolve:
    def test_exact_transitive(self, tmp_path, capsys):
        trn = tmp_path / "t10.trn"
        save_trn(transitive(10), trn)
        assert run(["solve", "--exact", "-k", 2, trn]) == 0
        assert "pp=10 method=exact verified=true" in capsys.readouterr().out
        data = json.loads((tmp_path / "t10.trn.witness.json").read_text())
        assert data == {"k": 2, "vertices": list(range(10))}

    def test_exact_triangle(self, tmp_path, capsys):
        trn = tmp_path / "c3.trn"
        assert run(["gen", "--type", "rotational", "--n", 3, "--residues", "1",
                    "--out", trn]) == 0
        assert run(["solve", "--exact", "-k", 2, trn]) == 0
        assert "pp=2" in capsys.readouterr().out

    def test_budget_default_is_the_library_default(self):
        assert ppath.cli._subparser("solve").get_default("budget_states") == (
            ppath.exact.DEFAULT_BUDGET.max_states)

    def test_greedy_bounded_by_n(self, tmp_path, capsys):
        trn = tmp_path / "r.trn"
        save_trn(random_tournament(30, 3), trn)
        assert run(["solve", "--greedy", "-k", 1, trn]) == 0
        out = capsys.readouterr().out
        length = int(out.split("pp=")[1].split()[0])
        assert length <= 30

    def test_budget_trip_on_deep_instance_exits_3_with_witness(self, tmp_path):
        # The flipped arc 1499 -> 0 makes the chain strong, so the walk is
        # one deep walk and not 500 triangles.
        trn = tmp_path / "c1500.trn"
        t = flip_edge(triangle_chain(1500), 0, 1499)
        save_trn(t, trn)
        assert run(["solve", "--exact", "-k", 2, "--budget-states", 1000, trn]) == 3
        data = json.loads((tmp_path / "c1500.trn.witness.json").read_text())
        assert data == {"k": 2, "vertices": [v for v in range(1500) if v % 3 != 2]}
        assert verify_power_path(t, PowerPath(2, tuple(data["vertices"])))[0]

    def test_deep_spanning_instance_is_optimal(self, tmp_path):
        trn = tmp_path / "t1500.trn"
        save_trn(transitive(1500), trn)
        assert run(["solve", "--exact", "-k", 2, "--budget-states", 1000, trn]) == 0
        data = json.loads((tmp_path / "t1500.trn.witness.json").read_text())
        assert data == {"k": 2, "vertices": list(range(1500))}

    def test_budget_exhaustion_exits_3_with_witness(self, tmp_path):
        trn = tmp_path / "b18.trn"
        save_trn(blowup(load_trn(GOLDEN / "min_pp_n6.trn").rows), trn)
        assert run(["solve", "--exact", "-k", 2, "--budget-states", 100, trn]) == 3
        data = json.loads((tmp_path / "b18.trn.witness.json").read_text())
        assert data["vertices"]

    def test_tripped_budget_writes_the_same_bytes(self, tmp_path):
        trn = tmp_path / "b18.trn"
        save_trn(blowup(load_trn(GOLDEN / "min_pp_n6.trn").rows), trn)
        outs = [tmp_path / "w1.json", tmp_path / "w2.json"]
        for out in outs:
            assert run(["solve", "--exact", "-k", 2, "--budget-states", 200,
                        "--out", out, trn]) == 3
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_budget_ms_is_not_a_flag(self, tmp_path, capsys):
        trn = tmp_path / "b18.trn"
        save_trn(blowup(load_trn(GOLDEN / "min_pp_n6.trn").rows), trn)
        assert run(["solve", "--exact", "-k", 2, "--budget-ms", 3, trn]) == 2
        assert "unrecognized arguments: --budget-ms" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [trn]

    def test_malformed_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.trn"
        bad.write_bytes(b"TRN 1\n2\n-1\n1-\n")
        assert run(["solve", "--exact", "-k", 2, bad]) == 2

    @pytest.mark.parametrize("mode, flag, value, error", [
        ("--greedy", "--budget-states", 5, "--budget-states requires --exact"),
        ("--exact", "--seed", 9, "--seed requires --greedy"),
    ])
    def test_flag_the_mode_ignores_is_refused(self, tmp_path, capsys, mode, flag, value,
                                              error):
        trn = tmp_path / "r.trn"
        save_trn(random_tournament(10, 1), trn)
        assert run(["solve", mode, flag, value, trn]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert list(tmp_path.iterdir()) == [trn]
        # At its default, the flag changes nothing.
        dest = flag[2:].replace("-", "_")
        assert run(["solve", mode, flag, ppath.cli._subparser("solve").get_default(dest),
                    trn]) == 0
        # A manifest that records another value records a run this version
        # refuses, so replay exits 2 and rewrites nothing.
        out = tmp_path / "r.trn.witness.json"
        manifest = tmp_path / "r.trn.witness.json.manifest.json"
        recorded = json.loads(manifest.read_text())
        recorded["args"][dest] = value
        manifest.write_text(json.dumps(recorded))
        out.unlink()
        capsys.readouterr()
        assert run(["replay", manifest]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()


class TestFind:
    def test_transitive_200(self, tmp_path, capsys):
        trn = tmp_path / "t200.trn"
        save_trn(transitive(200), trn)
        assert run(["find", "-k", 2, trn]) == 0
        assert "len=200" in capsys.readouterr().out

    def test_deterministic_witness_and_trace(self, tmp_path):
        trn = tmp_path / "r.trn"
        save_trn(random_tournament(300, 2), trn)
        w1, tr1 = tmp_path / "w1.json", tmp_path / "tr1.jsonl"
        w2, tr2 = tmp_path / "w2.json", tmp_path / "tr2.jsonl"
        assert run(["find", "-k", 2, "--seed", 1, "--out", w1, "--trace", tr1, trn]) == 0
        assert run(["find", "-k", 2, "--seed", 1, "--out", w2, "--trace", tr2, trn]) == 0
        assert w1.read_bytes() == w2.read_bytes()
        assert tr1.read_bytes() == tr2.read_bytes()
        for line in tr1.read_text().splitlines():
            rec = json.loads(line)
            assert set(rec) == {"route", "len"}

    @pytest.mark.parametrize("out, trace", [("w.json", "nodir/tr.jsonl"),
                                            ("nodir/w.json", "tr.jsonl")])
    def test_missing_output_directory_writes_nothing(self, tmp_path, monkeypatch,
                                                     capsys, out, trace):
        trn = tmp_path / "r.trn"
        save_trn(random_tournament(40, 2), trn)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run(["find", "--trace", trace, "--out", out, trn]) == 2
        assert "error: no directory nodir" in capsys.readouterr().err
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_directory_as_output_writes_nothing(self, tmp_path, monkeypatch, capsys, flag):
        # find checks both output paths before it writes either, so a
        # directory given as --trace leaves no witness behind.
        trn = tmp_path / "r.trn"
        save_trn(random_tournament(40, 2), trn)
        work = tmp_path / "work"
        (work / "tdir").mkdir(parents=True)
        monkeypatch.chdir(work)
        assert run(["find", "-k", 2, flag, "tdir", trn]) == 2
        assert capsys.readouterr().err == "error: tdir is a directory\n"
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [trn]

    def test_finder_never_beats_exact_k1(self, tmp_path, capsys):
        trn = tmp_path / "t12.trn"
        save_trn(random_tournament(12, 8), trn)
        assert run(["find", "-k", 1, trn]) == 0
        find_len = int(capsys.readouterr().out.split("len=")[1].split()[0])
        assert run(["solve", "--exact", "-k", 1, trn]) == 0
        exact_len = int(capsys.readouterr().out.split("pp=")[1].split()[0])
        assert find_len <= exact_len == 12


class TestVerify:
    def test_valid_witness(self, tmp_path, capsys):
        trn = tmp_path / "t.trn"
        save_trn(transitive(5), trn)
        wit = tmp_path / "w.json"
        wit.write_text(json.dumps({"k": 2, "vertices": [0, 1, 2, 3, 4]}))
        assert run(["verify", trn, wit]) == 0
        assert "OK k=2 len=5" in capsys.readouterr().out

    def test_triangle_violation(self, tmp_path, capsys):
        trn = tmp_path / "c3.trn"
        run(["gen", "--type", "rotational", "--n", 3, "--residues", "1", "--out", trn])
        wit = tmp_path / "w.json"
        wit.write_text(json.dumps({"k": 2, "vertices": [0, 1, 2]}))
        assert run(["verify", trn, wit]) == 1
        assert "(0,2)" in capsys.readouterr().out

    def test_duplicate_vertex(self, tmp_path, capsys):
        trn = tmp_path / "t.trn"
        save_trn(transitive(5), trn)
        wit = tmp_path / "w.json"
        wit.write_text(json.dumps({"k": 2, "vertices": [0, 1, 0]}))
        assert run(["verify", trn, wit]) == 1
        assert "duplicate" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        "{not json",
        "[]",
        "null",
        '{"k": 2, "vertices": 5}',
        '{"k": 2, "vertices": [0.9, 1.2]}',
        '{"k": 2, "vertices": [true, 1]}',
        '{"k": 2, "vertices": ["0", "1"]}',
        '{"k": 2.0, "vertices": [0, 1]}',
        '{"k": true, "vertices": [0, 1]}',
    ], ids=["not-json", "list", "null", "vertices-int", "float-vertices",
            "bool-vertex", "string-vertices", "float-k", "bool-k"])
    def test_malformed_witness_exits_2(self, tmp_path, capsys, text):
        trn = tmp_path / "t.trn"
        save_trn(transitive(5), trn)
        wit = tmp_path / "w.json"
        wit.write_text(text)
        assert run(["verify", trn, wit]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_out_of_range_label_exits_2(self, tmp_path):
        trn = tmp_path / "t.trn"
        save_trn(transitive(3), trn)
        wit = tmp_path / "w.json"
        wit.write_text(json.dumps({"k": 2, "vertices": [0, 9]}))
        assert run(["verify", trn, wit]) == 2


class TestSearch:
    def test_enumerate_three(self, tmp_path, capsys):
        assert run(["search", "--mode", "enumerate", "--n", 3, "-k", 2,
                    "--out-dir", tmp_path / "s"]) == 0
        assert "min_pp=2" in capsys.readouterr().out
        csv = (tmp_path / "s" / "results.csv").read_text().splitlines()
        assert csv[0] == "n,k,fingerprint,pp,bound_flag,method,seed,witness_file"
        assert csv[1].startswith("3,2,") and ",enumeration," in csv[1]
        assert (tmp_path / "s" / "w_enum.trn").exists()

    def test_enumerate_large_n_rejected(self, tmp_path, capsys):
        # The library refuses n > 7 before anything is written.
        assert run(["search", "--mode", "enumerate", "--n", 8,
                    "--out-dir", tmp_path / "s"]) == 2
        assert capsys.readouterr().err == "error: enumeration beyond n = 7 is infeasible\n"
        assert not (tmp_path / "s").exists()

    def test_enumerate_seven(self, tmp_path, capsys):
        assert run(["search", "--mode", "enumerate", "--n", 7,
                    "--out-dir", tmp_path / "s"]) == 0
        assert "min_pp=5 count=5600" in capsys.readouterr().out

    def test_enumerate_empty_n_rejected(self, tmp_path, capsys):
        assert run(["search", "--mode", "enumerate", "--n", 0,
                    "--out-dir", tmp_path / "s"]) == 2
        assert "--n must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_zero_k_rejected_in_both_modes(self, tmp_path, capsys):
        for mode in ("enumerate", "anneal"):
            assert run(["search", "--mode", mode, "--n", 4, "-k", 0,
                        "--out-dir", tmp_path / "s"]) == 2
            assert "-k must be >= 1" in capsys.readouterr().err
            assert not (tmp_path / "s").exists()

    def test_anneal_flags_rejected_in_enumerate_mode(self, tmp_path, capsys):
        # Enumeration would ignore --seed and --iters; the retired schedule
        # flags are not flags at all, in either mode.
        base = ["search", "--mode", "enumerate", "--n", 3]
        for flag, value in [("--iters", 5), ("--iters", 0), ("--seed", 7)]:
            assert run(base + [flag, value, "--out-dir", tmp_path / "s"]) == 2
            assert capsys.readouterr().err == f"error: {flag} requires --mode anneal\n"
            assert not (tmp_path / "s").exists()
        for mode in ("enumerate", "anneal"):
            for flag, value in [("--temp", 0.8), ("--cool", 0.95), ("--moves", 6),
                                ("--budget-states", 400_000)]:
                assert run(["search", "--mode", mode, "--n", 3, flag, value,
                            "--out-dir", tmp_path / "s"]) == 2
                assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
                assert not (tmp_path / "s").exists()
        # At their defaults, the run is the plain enumeration.
        assert run(base + ["--iters", 200, "--seed", 0, "--out-dir", tmp_path / "s"]) == 0

    def test_anneal_deterministic_csv(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run(["search", "--mode", "anneal", "--n", 6, "--seed", 5,
                        "--iters", 60, "--out-dir", d]) == 0
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()

    @pytest.mark.parametrize("mode, target, name", [
        (["enumerate"], ppath.cli, "enumerate_min_pp"),
        (["anneal"], ppath.cli, "anneal_min_pp"),
    ], ids=["enumerate", "anneal"])
    def test_failed_run_creates_no_out_dir(self, tmp_path, monkeypatch, capsys,
                                           mode, target, name):
        # --out-dir is made by the first write, so a run that fails before
        # it has records leaves none.
        def killed(*args, **kwargs):
            raise RuntimeError("killed")

        monkeypatch.setattr(target, name, killed)
        assert run(["search", "--mode", *mode, "--n", 5, "--out-dir", tmp_path / "s"]) == 70
        assert capsys.readouterr().err == "internal error: killed\n"
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("mode", [["enumerate", "--n", 4], ["anneal", "--n", 6, "--iters", 5]],
                             ids=["enumerate", "anneal"])
    def test_directory_at_results_csv_writes_nothing(self, tmp_path, capsys, mode):
        # Every destination, the w_* files, results.csv and the manifest, is
        # checked once the records exist and before the first is written.
        out_dir = tmp_path / "s"
        (out_dir / "results.csv").mkdir(parents=True)
        assert run(["search", "--mode", *mode, "--out-dir", out_dir]) == 2
        assert capsys.readouterr().err == f"error: {out_dir / 'results.csv'} is a directory\n"
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_anneal_witnesses_stored(self, tmp_path):
        # Seed 18 at n = 10 improves on its initial tournament in the first
        # step, so two records come from iteration 0.
        for n, seed, iters in [(6, 1, 40), (10, 18, 1)]:
            d = tmp_path / f"w{n}_{seed}"
            assert run(["search", "--mode", "anneal", "--n", n, "--seed", seed,
                        "--iters", iters, "--out-dir", d]) == 0
            rows = [r.split(",") for r in
                    (d / "results.csv").read_text().splitlines()[1:]]
            names = [row[-1] for row in rows]
            assert len(set(names)) == len(names) > 1, names
            for row in rows:
                k, pp, name = int(row[1]), int(row[3]), row[-1]
                assert (d / name).exists()
                t = load_trn(d / name.replace(".json", ".trn"))
                assert len(longest_power_path_exact(t, k).path) == pp, name


class TestTable:
    def test_exact_rows_bounded(self, tmp_path):
        out = tmp_path / "tab.csv"
        assert run(["table", "--n-list", "4,6,8", "--trials", 3,
                    "--method", "exact", "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,seed,method,length"
        assert len(lines) == 10
        for line in lines[1:]:
            n, _, method, length = line.split(",")
            assert method == "exact" and int(length) <= int(n)

    def test_zero_trials_header_only(self, tmp_path):
        out = tmp_path / "tab.csv"
        assert run(["table", "--n-list", "4,6", "--trials", 0,
                    "--method", "greedy", "--out", out]) == 0
        assert out.read_text() == "n,seed,method,length\n"

    @pytest.mark.parametrize("n_list, trials, k", [("19,40,256", 2, 2), ("19,128", 1, 3)])
    def test_exact_at_any_n_is_the_oracle(self, tmp_path, n_list, trials, k):
        # No size cap: each cell finishes under the default budget.
        out = tmp_path / "t.csv"
        assert run(["table", "--n-list", n_list, "--trials", trials, "-k", k,
                    "--method", "exact", "--out", out]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == trials * len(n_list.split(","))
        for n, seed, _, length in rows:
            t = random_tournament(int(n), int(seed))
            assert int(length) == len(longest_power_path_exact(t, k).path)

    def test_exact_trip_exits_3_with_outputs(self, tmp_path, monkeypatch, capsys):
        # A cell whose solve trips writes its lower bound, and the table
        # still writes the CSV and manifest before it exits 3.
        solve = ppath.cli.longest_power_path_exact

        def trip_at_8(t, k, budget=SolveBudget()):
            return solve(t, k, SolveBudget(1) if t.n == 8 else budget)

        monkeypatch.setattr(ppath.cli, "longest_power_path_exact", trip_at_8)
        out = tmp_path / "t.csv"
        assert run(["table", "--n-list", "6,8", "--trials", 1,
                    "--method", "exact", "--out", out]) == 3
        assert capsys.readouterr().out == f"rows=2 out={out}\n"
        seed = derive_seed(0, "table", 8, 0)
        t8 = random_tournament(8, seed)
        bound = solve(t8, 2, SolveBudget(1))
        assert not bound.optimal and len(bound.path) < len(solve(t8, 2).path)
        assert out.read_text().splitlines()[2] == f"8,{seed},exact,{len(bound.path)}"
        assert (tmp_path / "t.csv.manifest.json").exists()


class TestReplay:
    def test_gen_replay_byte_identical(self, tmp_path):
        out = tmp_path / "r.trn"
        assert run(["gen", "--type", "random", "--n", 40, "--seed", 3, "--out", out]) == 0
        original = out.read_bytes()
        out.unlink()
        assert run(["replay", tmp_path / "r.trn.manifest.json"]) == 0
        assert out.read_bytes() == original

    def test_solve_replay_byte_identical(self, tmp_path):
        trn = tmp_path / "t.trn"
        save_trn(random_tournament(12, 9), trn)
        assert run(["solve", "--exact", "-k", 2, trn]) == 0
        wit = tmp_path / "t.trn.witness.json"
        original = wit.read_bytes()
        wit.unlink()
        assert run(["replay", tmp_path / "t.trn.witness.json.manifest.json"]) == 0
        assert wit.read_bytes() == original

    def test_replay_of_replay_rejected(self, tmp_path):
        man = tmp_path / "m.json"
        man.write_text(json.dumps({"subcommand": "replay", "args": {}}))
        assert run(["replay", man]) == 2

    def test_malformed_manifest_is_usage_error(self, tmp_path, capsys):
        man, trn = tmp_path / "m.json", tmp_path / "t.trn"
        save_trn(transitive(4), trn)
        digest = hashlib.sha256(trn.read_bytes()).hexdigest()

        def parsed(argv, hashes=None, **changed):
            # A manifest of the parsed argv, with values the parser could not
            # have produced put in.
            args = vars(ppath.cli.build_parser().parse_args([str(a) for a in argv]))
            return {"subcommand": args.pop("subcommand"), "args": {**args, **changed},
                    "input_hashes": hashes}

        gen = ["gen", "--type", "transitive", "--n", 5, "--out", tmp_path / "x.trn"]
        search = ["search", "--mode", "enumerate", "--n", 3, "--out-dir", tmp_path / "s"]
        solve = ["solve", "--exact", "--out", tmp_path / "w.json", trn]
        find = ["find", "--out", tmp_path / "w.json", trn]
        gone = tmp_path / "gone.trn"
        for manifest, message in [
            ({"subcommand": "gen", "args": {"type": "transitive"}},
             "error: manifest args lack --n"),
            ([{"subcommand": "gen"}], "error: manifest is not a JSON object"),
            ({"subcommand": "gen"}, "error: "),
            (parsed(gen, n="5"), "error: manifest gives --n the invalid value '5'"),
            (parsed(gen, n=True), "error: manifest gives --n the invalid value True"),
            (parsed(gen, n=None), "error: manifest gives --n the invalid value None"),
            (parsed(gen, type="bogus"),
             "error: manifest gives --type the invalid value 'bogus'"),
            (parsed(search, mode="bogus"),
             "error: manifest gives --mode the invalid value 'bogus'"),
            (parsed(search, iters=1.0), "error: manifest gives --iters the invalid value 1.0"),
            (parsed(search, temp=1),
             "error: manifest records --temp 1, which this version no longer has"),
            (parsed(gen), "error: manifest input_hashes is not a JSON object of strings"),
            (parsed(solve, [digest]), "error: manifest input_hashes is not a JSON object"),
            (parsed(solve, {str(trn): 5}), "error: manifest input_hashes is not a JSON"),
            (parsed(solve, {str(trn): "0" * 64}),
             f"error: input {trn} changed since the manifest was written"),
            (parsed(solve, {str(trn): digest, str(gone): digest}),
             f"error: input {gone} changed since the manifest was written"),
            # Without its hash, the input could be any file: replay would
            # overwrite the recorded witness with one of other bytes.
            (parsed(find, {}),
             f"error: manifest input_hashes name [], not the run's inputs ['{trn}']"),
            (parsed(gen, {str(trn): digest}),
             f"error: manifest input_hashes name ['{trn}'], not the run's inputs []"),
        ]:
            man.write_text(json.dumps(manifest))
            assert run(["replay", man]) == 2
            assert message in capsys.readouterr().err
            assert sorted(tmp_path.iterdir()) == [man, trn]

    def test_replay_on_changed_input_writes_nothing(self, tmp_path, capsys):
        trn, out = tmp_path / "r.trn", tmp_path / "r.trn.witness.json"
        assert run(["gen", "--type", "random", "--n", 12, "--seed", 3, "--out", trn]) == 0
        assert run(["solve", "--exact", trn]) == 0
        witness = out.read_bytes()
        assert run(["gen", "--type", "random", "--n", 12, "--seed", 4, "--out", trn]) == 0
        capsys.readouterr()
        assert run(["replay", tmp_path / "r.trn.witness.json.manifest.json"]) == 2
        assert f"error: input {trn} changed since" in capsys.readouterr().err
        assert out.read_bytes() == witness

    def _assert_replay_reproduces(self, tmp_path, argv, manifest, inputs=(),
                                  mask=lambda path, data: data):
        """Run argv, delete every file but the manifest and the inputs, replay
        the manifest, and compare every file (through ``mask``)."""

        def snapshot():
            return {p: mask(p, p.read_bytes()) for p in tmp_path.rglob("*") if p.is_file()}

        assert run(argv) == 0
        before = snapshot()
        for p in before:
            if p != manifest and p not in inputs:
                p.unlink()
        assert run(["replay", manifest]) == 0
        assert snapshot() == before

    def test_find_trace_replay_byte_identical(self, tmp_path):
        trn = tmp_path / "t.trn"
        save_trn(random_tournament(300, 2), trn)
        self._assert_replay_reproduces(
            tmp_path, ["find", "-k", 2, "--seed", 1, "--trace", tmp_path / "tr.jsonl", trn],
            tmp_path / "t.trn.witness.json.manifest.json", inputs=[trn])

    def test_find_replay_of_threaded_hash_input_byte_identical(self, tmp_path):
        # 1100 vertices make an input above _THREADED_HASH_BYTES.
        trn = tmp_path / "t.trn"
        save_trn(random_tournament(1100, 2), trn)
        self._assert_replay_reproduces(
            tmp_path, ["find", "-k", 2, "--seed", 1, trn],
            tmp_path / "t.trn.witness.json.manifest.json", inputs=[trn])

    def test_table_replay_rows_identical(self, tmp_path):
        out = tmp_path / "tab.csv"
        self._assert_replay_reproduces(
            tmp_path, ["table", "--n-list", "6,200", "--trials", 2, "--method", "find",
                       "--out", out],
            tmp_path / "tab.csv.manifest.json")

    def test_manifest_with_budget_ms_replays_byte_identical(self, tmp_path):
        # solve manifests written while solve had --budget-ms record it; with
        # null, the run they record is the states-only run of today.
        trn, out = tmp_path / "t.trn", tmp_path / "w.json"
        save_trn(random_tournament(10, 1), trn)
        assert run(["solve", "--exact", "-k", 2, "--out", out, trn]) == 0
        witness = out.read_bytes()
        out.unlink()
        manifest = tmp_path / "w.json.manifest.json"
        old = (
            '{\n "args": {\n  "budget_ms": null,\n  "budget_states": 1000000,\n'
            '  "exact": true,\n  "greedy": false,\n'
            f'  "input": "{trn}",\n  "k": 2,\n  "out": "{out}",\n  "seed": 0\n }},\n'
            f' "input_hashes": {{\n  "{trn}": '
            f'"{hashlib.sha256(trn.read_bytes()).hexdigest()}"\n }},\n'
            f' "outputs": [\n  "{out}"\n ],\n "seed": 0,\n "subcommand": "solve",\n'
            ' "tool": "ppath",\n "version": "0.1.0"\n}\n'
        ).encode()
        manifest.write_bytes(old)
        assert run(["replay", manifest]) == 0
        assert manifest.read_bytes() == old
        assert out.read_bytes() == witness

    def test_find_manifest_with_probe_flags_replays_byte_identical(self, tmp_path):
        # find manifests written while find had the probe flags record them;
        # the run they record at these values is the finder of today.
        trn, out, trace = tmp_path / "t.trn", tmp_path / "w.json", tmp_path / "tr.jsonl"
        save_trn(random_tournament(40, 3), trn)
        assert run(["find", "-k", 2, "--seed", 1, "--trace", trace, "--out", out, trn]) == 0
        witness, lines = out.read_bytes(), trace.read_bytes()
        out.unlink()
        trace.unlink()
        manifest = tmp_path / "w.json.manifest.json"
        old = (
            '{\n "args": {\n  "delta": 0.1,\n  "eps": 0.01,\n'
            f'  "input": "{trn}",\n  "k": 2,\n  "out": "{out}",\n'
            f'  "parts": 8,\n  "samples": 8,\n  "seed": 1,\n  "trace": "{trace}"\n }},\n'
            f' "input_hashes": {{\n  "{trn}": '
            f'"{hashlib.sha256(trn.read_bytes()).hexdigest()}"\n }},\n'
            f' "outputs": [\n  "{out}",\n  "{trace}"\n ],\n "seed": 1,\n'
            ' "subcommand": "find",\n "tool": "ppath",\n "version": "0.1.0"\n}\n'
        ).encode()
        manifest.write_bytes(old)
        assert run(["replay", manifest]) == 0
        assert manifest.read_bytes() == old
        assert out.read_bytes() == witness
        assert trace.read_bytes() == lines

    def test_manifest_with_removed_flag_values_is_refused(self, tmp_path, capsys):
        # A removed flag recorded at another value than its old default, or
        # a flag the subcommand never had, names a run this version cannot
        # make: replay writes nothing, where it would overwrite the recorded
        # witness with another one.
        trn, out = tmp_path / "r.trn", tmp_path / "w.json"
        assert run(["gen", "--type", "random", "--n", 17, "--seed", 11, "--out", trn]) == 0
        assert run(["find", "-k", 3, "--seed", 11, "--out", out, trn]) == 0
        assert run(["solve", "--exact", "--out", tmp_path / "s.json", trn]) == 0
        find_man = json.loads((tmp_path / "w.json.manifest.json").read_text())
        solve_man = json.loads((tmp_path / "s.json.manifest.json").read_text())
        probe = {"eps": 0.1, "delta": 0.5, "parts": 4, "samples": 4}
        files = {p: p.read_bytes() for p in tmp_path.iterdir()}
        man = tmp_path / "edited.json"
        for manifest, removed, message in [
            (find_man, probe, "--delta 0.5"),
            (find_man, {"eps": 0.01, "delta": 0.1, "parts": 8, "samples": 4}, "--samples 4"),
            (find_man, {"parts": 8.0}, "--parts 8.0"),
            (find_man, {"budget_ms": None}, "--budget-ms null"),
            (solve_man, {"budget_ms": 3}, "--budget-ms 3"),
            (solve_man, {"eps": 0.01}, "--eps 0.01"),
        ]:
            man.write_text(json.dumps({**manifest, "args": {**manifest["args"], **removed}},
                                      sort_keys=True))
            capsys.readouterr()
            assert run(["replay", man]) == 2
            assert (f"error: manifest records {message}, which this version no longer has"
                    in capsys.readouterr().err)
            assert {p: p.read_bytes() for p in tmp_path.iterdir() if p != man} == files

    def test_search_enumerate_replay_byte_identical(self, tmp_path):
        d = tmp_path / "s"
        self._assert_replay_reproduces(
            tmp_path, ["search", "--mode", "enumerate", "--n", 4, "--out-dir", d],
            d / "manifest.json")

    def test_search_anneal_replay_byte_identical(self, tmp_path):
        d = tmp_path / "s"
        self._assert_replay_reproduces(
            tmp_path, ["search", "--mode", "anneal", "--n", 6, "--seed", 3, "--iters", 30,
                       "--out-dir", d],
            d / "manifest.json")


def _old_search_manifest(out_dir, chains):
    """The manifest of ``search --mode anneal --n 6 --seed 3 --iters 30``, as
    written while search had --chains, --checkpoint-every, --resume and
    --stop-after, with --chains at ``chains``, and --temp, --cool, --moves and
    --budget-states."""
    return (
        '{\n "args": {\n  "budget_states": 400000,\n'
        f'  "chains": {chains},\n  "checkpoint_every": 0,\n  "cool": 0.95,\n'
        '  "iters": 30,\n  "k": 2,\n  "mode": "anneal",\n  "moves": 6,\n  "n": 6,\n'
        f'  "out_dir": "{out_dir}",\n  "resume": null,\n  "seed": 3,\n'
        '  "stop_after": null,\n  "temp": 0.8\n },\n "input_hashes": {},\n'
        f' "outputs": [\n  "{out_dir}/results.csv"\n ],\n "seed": 3,\n'
        ' "subcommand": "search",\n "tool": "ppath",\n "version": "0.1.0"\n}\n'
    ).encode()


class TestOldSearchManifests:
    def test_checkpoint_flags_at_defaults_replay_byte_identical(self, tmp_path):
        # At their old defaults the removed flags record the one plain chain
        # that search runs today.
        d = tmp_path / "s"
        assert run(["search", "--mode", "anneal", "--n", 6, "--seed", 3, "--iters", 30,
                    "--out-dir", d]) == 0
        manifest = d / "manifest.json"
        outputs = {p: p.read_bytes() for p in d.iterdir() if p != manifest}
        for p in outputs:
            p.unlink()
        old = _old_search_manifest(d, 1)
        manifest.write_bytes(old)
        assert run(["replay", manifest]) == 0
        assert manifest.read_bytes() == old
        assert {p: p.read_bytes() for p in d.iterdir() if p != manifest} == outputs

    def test_schedule_flags_at_defaults_replay_byte_identical(self, tmp_path):
        # A manifest written once the run-control flags were gone, while the
        # schedule flags were still there, replays the same chain.
        d = tmp_path / "s"
        assert run(["search", "--mode", "anneal", "--n", 6, "--seed", 3, "--iters", 30,
                    "--out-dir", d]) == 0
        manifest = d / "manifest.json"
        outputs = {p: p.read_bytes() for p in d.iterdir() if p != manifest}
        for p in outputs:
            p.unlink()
        run_control = (b'"chains"', b'"checkpoint_every"', b'"resume"', b'"stop_after"')
        old = b"".join(line for line in _old_search_manifest(d, 1).splitlines(keepends=True)
                       if not line.lstrip().startswith(run_control))
        manifest.write_bytes(old)
        assert run(["replay", manifest]) == 0
        assert manifest.read_bytes() == old
        assert {p: p.read_bytes() for p in d.iterdir() if p != manifest} == outputs

    def test_retired_schedule_is_the_one_search_runs(self, tmp_path, monkeypatch):
        # Old manifests replay only at the schedule search --mode anneal
        # builds, and --iters defaults to the library's iterations.
        built = []

        def capture(n, k, cfg, budget=None):
            built.append((cfg, budget))
            return iter(())

        monkeypatch.setattr(ppath.cli, "anneal_min_pp", capture)
        assert run(["search", "--mode", "anneal", "--n", 6, "--out-dir", tmp_path / "s"]) == 0
        ((cfg, budget),) = built
        removed = ppath.cli._REMOVED_FLAGS["search"]
        assert (removed["temp"], removed["cool"], removed["moves"]) == (
            cfg.initial_temperature, cfg.cooling_rate, cfg.moves_per_step)
        assert cfg.iterations == ppath.search.AnnealConfig().iterations and budget is None

    def test_two_chains_is_refused(self, tmp_path, capsys):
        d, manifest = tmp_path / "s", tmp_path / "m.json"
        manifest.write_bytes(_old_search_manifest(d, 2))
        assert run(["replay", manifest]) == 2
        assert capsys.readouterr().err == (
            "error: manifest records --chains 2, which this version no longer has\n")
        assert list(tmp_path.iterdir()) == [manifest]

    @pytest.mark.parametrize("recorded, flag", [
        ((b'"temp": 0.8', b'"temp": 0.5'), "--temp 0.5"),
        ((b'"cool": 0.95', b'"cool": 0.9'), "--cool 0.9"),
        ((b'"moves": 6', b'"moves": 6.0'), "--moves 6.0"),
        ((b'"budget_states": 400000', b'"budget_states": 5'), "--budget-states 5"),
    ], ids=["temp", "cool", "moves", "budget-states"])
    def test_schedule_flag_off_its_default_is_refused(self, tmp_path, capsys, recorded, flag):
        # The anneal runs at the schedule and budget these flags had by
        # default; a manifest that records another value names another run.
        d, manifest = tmp_path / "s", tmp_path / "m.json"
        manifest.write_bytes(_old_search_manifest(d, 1).replace(*recorded))
        assert run(["replay", manifest]) == 2
        assert capsys.readouterr().err == (
            f"error: manifest records {flag}, which this version no longer has\n")
        assert list(tmp_path.iterdir()) == [manifest]


class TestManifests:
    """One manifest per writer site, pinned field by field."""

    def test_solve_out(self, tmp_path):
        trn, out = tmp_path / "t.trn", tmp_path / "w.json"
        save_trn(random_tournament(10, 1), trn)
        assert run(["solve", "--exact", "-k", 2, "--out", out, trn]) == 0
        assert json.loads((tmp_path / "w.json.manifest.json").read_text()) == {
            "subcommand": "solve",
            "args": {"exact": True, "greedy": False, "k": 2,
                     "budget_states": 1_000_000, "seed": 0, "out": str(out),
                     "input": str(trn)},
            "seed": 0,
            "tool": "ppath",
            "version": "0.1.0",
            "input_hashes": {str(trn): hashlib.sha256(trn.read_bytes()).hexdigest()},
            "outputs": [str(out)],
        }

    def test_find_trace(self, tmp_path):
        trn, trace = tmp_path / "t.trn", tmp_path / "tr.jsonl"
        save_trn(random_tournament(20, 1), trn)
        assert run(["find", "-k", 3, "--seed", 4, "--trace", trace, trn]) == 0
        wit = tmp_path / "t.trn.witness.json"
        assert json.loads((tmp_path / "t.trn.witness.json.manifest.json").read_text()) == {
            "subcommand": "find",
            "args": {"k": 3, "seed": 4, "trace": str(trace), "out": None,
                     "input": str(trn)},
            "seed": 4,
            "tool": "ppath",
            "version": "0.1.0",
            "input_hashes": {str(trn): hashlib.sha256(trn.read_bytes()).hexdigest()},
            "outputs": [str(wit), str(trace)],
        }

    def test_search(self, tmp_path):
        d = tmp_path / "s"
        assert run(["search", "--mode", "anneal", "--n", 5, "--seed", 2, "--iters", 10,
                    "--out-dir", d]) == 0
        assert json.loads((d / "manifest.json").read_text()) == {
            "subcommand": "search",
            "args": {"mode": "anneal", "n": 5, "k": 2, "seed": 2, "iters": 10,
                     "out_dir": str(d)},
            "seed": 2,
            "tool": "ppath",
            "version": "0.1.0",
            "input_hashes": {},
            "outputs": [str(d / "results.csv")],
        }

    def test_back_to_back_calls_share_no_parsed_value(self, tmp_path):
        # main parses with one parser per process; a flag given to one call
        # must not reach the next, which gets its own flags and the defaults.
        assert ppath.cli.build_parser() is ppath.cli.build_parser()
        trn, trace = tmp_path / "t.trn", tmp_path / "tr.jsonl"
        save_trn(random_tournament(10, 1), trn)

        def args(out):
            return json.loads((tmp_path / f"{out}.manifest.json").read_text())["args"]

        exact, greedy, named = tmp_path / "e.json", tmp_path / "g.json", tmp_path / "x.json"
        assert run(["solve", "--exact", "-k", 3, "--budget-states", 99_999,
                    "--out", exact, trn]) == 0
        assert run(["solve", "--greedy", "--seed", 5, "--out", greedy, trn]) == 0
        assert args("e.json") == {"exact": True, "greedy": False, "k": 3,
                                  "budget_states": 99_999, "seed": 0, "out": str(exact),
                                  "input": str(trn)}
        assert args("g.json") == {"exact": False, "greedy": True, "k": 2,
                                  "budget_states": 1_000_000, "seed": 5, "out": str(greedy),
                                  "input": str(trn)}
        assert run(["find", "-k", 3, "--seed", 4, "--trace", trace, "--out", named, trn]) == 0
        assert run(["find", trn]) == 0
        assert args("x.json") == {"k": 3, "seed": 4, "trace": str(trace), "out": str(named),
                                  "input": str(trn)}
        assert args("t.trn.witness.json") == {"k": 2, "seed": 0, "trace": None, "out": None,
                                              "input": str(trn)}


class TestInputHash:
    """solve and find hash an input of at least _THREADED_HASH_BYTES on a
    second thread, and a smaller one on the calling thread; the manifest is
    the same either way."""

    @pytest.fixture
    def hash_threads(self, monkeypatch):
        """The names of the threads each _sha256 call ran on."""
        names = []
        sha256 = ppath.cli._sha256

        def spy(name):
            names.append(threading.current_thread().name)
            return sha256(name)

        monkeypatch.setattr(ppath.cli, "_sha256", spy)
        return names

    # A 600-vertex file is below the constant and a 1100-vertex one above it;
    # each is more than one 256 KiB read.
    @pytest.mark.parametrize("n, threaded", [(600, False), (1100, True)])
    @pytest.mark.parametrize("argv", [["find"], ["solve", "--greedy"]],
                             ids=["find", "solve-greedy"])
    def test_input_hashes_are_the_file_sha256(self, tmp_path, hash_threads, n, threaded,
                                              argv):
        trn = tmp_path / "r.trn"
        save_trn(random_tournament(n, 3), trn)
        data = trn.read_bytes()
        assert (len(data) >= ppath.cli._THREADED_HASH_BYTES) == threaded
        assert len(data) > 1 << 18
        assert run([*argv, trn]) == 0
        manifest = json.loads((tmp_path / "r.trn.witness.json.manifest.json").read_text())
        assert manifest["input_hashes"] == {str(trn): hashlib.sha256(data).hexdigest()}
        assert (hash_threads[0] != threading.main_thread().name) == threaded
        assert len(hash_threads) == 1

    def test_malformed_large_input_leaves_no_thread(self, tmp_path, monkeypatch, capsys):
        # The hash is slowed so that load_trn fails while the thread still runs.
        sha256 = ppath.cli._sha256

        def slow(name):
            time.sleep(0.2)
            return sha256(name)

        monkeypatch.setattr(ppath.cli, "_sha256", slow)
        bad = tmp_path / "bad.trn"
        bad.write_bytes(b"3\n" + b"x" * ppath.cli._THREADED_HASH_BYTES)
        threads = threading.active_count()
        assert run(["find", bad]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert threading.active_count() == threads
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("n", [600, 1100])
    def test_hash_error_exits_2(self, tmp_path, monkeypatch, capsys, n):
        def unreadable(name):
            raise PermissionError(f"cannot read {name}")

        monkeypatch.setattr(ppath.cli, "_sha256", unreadable)
        trn = tmp_path / "r.trn"
        save_trn(random_tournament(n, 3), trn)
        threads = threading.active_count()
        assert run(["find", trn]) == 2
        assert capsys.readouterr().err == f"error: cannot read {trn}\n"
        assert threading.active_count() == threads

    @pytest.mark.parametrize("argv", [["find"], ["solve", "--exact"], ["solve", "--greedy"]],
                             ids=["find", "solve-exact", "solve-greedy"])
    def test_input_is_loaded_once(self, tmp_path, monkeypatch, argv):
        # The benchmark's tracer times the input read by wrapping cli.load_trn.
        calls = []
        load = ppath.cli.load_trn
        monkeypatch.setattr(ppath.cli, "load_trn", lambda path: calls.append(path) or load(path))
        trn = tmp_path / "r.trn"
        save_trn(random_tournament(12, 3), trn)
        assert run([*argv, trn]) == 0
        assert calls == [str(trn)]


class TestWitnessGate:
    """A witness that fails self-verification is exit 70, and nothing is written."""

    @pytest.fixture(autouse=True)
    def _broken_verifier(self, monkeypatch):
        monkeypatch.setattr(ppath.cli, "verify_power_path", lambda t, p: (False, (0, 0)))

    @pytest.mark.parametrize("argv", [
        ["solve", "--exact", "-k", 2],
        ["find", "-k", 2],
        ["search", "--mode", "enumerate", "--n", 4, "--out-dir"],
    ])
    def test_internal_error_writes_nothing(self, tmp_path, capsys, argv):
        trn = tmp_path / "t.trn"
        save_trn(random_tournament(12, 3), trn)
        out_dir = tmp_path / "s"
        assert run(argv + [out_dir if argv[0] == "search" else trn]) == 70
        assert ("internal error: emitted witness failed self-verification"
                in capsys.readouterr().err)
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [trn]

    def test_later_search_witness_failing_writes_nothing(self, tmp_path, capsys,
                                                         monkeypatch):
        # Seed 18 at n = 10 makes two records in its first step; only the
        # second witness fails, and every witness is checked before any write.
        calls = []

        def second_fails(t, p):
            calls.append(p)
            return (True, None) if len(calls) != 2 else (False, (0, 0))

        monkeypatch.setattr(ppath.cli, "verify_power_path", second_fails)
        assert run(["search", "--mode", "anneal", "--n", 10, "--seed", 18, "--iters", 1,
                    "--out-dir", tmp_path / "s"]) == 70
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "internal error: emitted witness failed self-verification\n")
        assert len(calls) == 2
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    @pytest.mark.parametrize("argv, target, name, value, message", [
        (["find", "-k", 2], ppath.driver, "verify_power_path", lambda t, p: (False, (0, 0)),
         "unverified witness leaving driver"),
        (["solve", "--greedy", "-k", 2], ppath.exact, "verify_power_path",
         lambda t, p: (False, (0, 0)), "unverified greedy witness"),
    ], ids=["find-driver", "solve-greedy"])
    def test_library_self_check_is_exit_70(self, tmp_path, capsys, monkeypatch,
                                          argv, target, name, value, message):
        # A self-check inside the library fails before the CLI's own gate.
        monkeypatch.setattr(target, name, value)
        trn = tmp_path / "t.trn"
        save_trn(random_tournament(12, 3), trn)
        assert run(argv + [trn]) == 70
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"internal error: {message}\n")
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [trn]


def test_module_entrypoint_smoke(tmp_path):
    # The child imports this checkout's src first, never an installed copy.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "t.trn"
    proc = subprocess.run(
        [sys.executable, "-m", "ppath", "gen", "--type", "transitive",
         "--n", "3", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert out.exists()


@pytest.mark.parametrize("workers", ["3", "abc"])
def test_table_ignores_ppath_threads(tmp_path, monkeypatch, workers):
    # table runs in one process and reads no environment variable, so a worker
    # count, well-formed or not, changes no byte and no exit code.
    argv = ["table", "--n-list", "4,6", "--trials", 3, "--method", "greedy", "--out"]
    assert run(argv + [tmp_path / "plain.csv"]) == 0
    monkeypatch.setenv("PPATH_THREADS", workers)
    assert run(argv + [tmp_path / "set.csv"]) == 0
    assert (tmp_path / "set.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


@pytest.mark.parametrize("m", [0, 1, 2, 2048])
def test_witness_json_is_the_indented_json_encoding(m):
    # The encoder the witness was once written with, kept here as the reference.
    def reference(obj):
        return (json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)
                + "\n").encode()

    witness = PowerPath(2, tuple(range(m)))
    assert ppath.cli._witness_json(transitive(max(m, 1)), witness) == reference(
        {"k": 2, "vertices": list(range(m))})


def _tree(root):
    """Every file under ``root``, by its path relative to ``root``, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def _plant_stale(root, files):
    # Longer than the output it stands in for, so only the cut to length
    # removes its tail.
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(b"stale\n" * (len(data) // 6 + 64))


# Each writing command, run in a directory that holds in.trn, and the
# manifest it writes; every path is relative to that directory.
OVERWRITE_RUNS = {
    "gen": (["gen", "--type", "random", "--n", 30, "--seed", 4, "--out", "g.trn"],
            "g.trn.manifest.json"),
    "solve": (["solve", "--exact", "-k", 2, "--out", "w.json", "in.trn"],
              "w.json.manifest.json"),
    "find": (["find", "-k", 2, "--seed", 1, "--trace", "tr.jsonl", "--out", "f.json",
              "in.trn"], "f.json.manifest.json"),
    "table": (["table", "--n-list", "5,8", "--trials", 2, "--method", "exact",
               "--out", "t.csv"], "t.csv.manifest.json"),
    "search": (["search", "--mode", "enumerate", "--n", 4, "--out-dir", "s"],
               "s/manifest.json"),
}


class TestOverwrite:
    @pytest.mark.parametrize("argv, manifest", OVERWRITE_RUNS.values(), ids=OVERWRITE_RUNS)
    def test_run_and_replay_over_longer_stale_files(self, tmp_path, monkeypatch, argv,
                                                   manifest):
        # Every output written over a longer file at its path comes out as the
        # bytes of a run into an empty directory, and so does every output of
        # a replay of its manifest.
        def run_dir(name):
            root = tmp_path / name
            root.mkdir()
            save_trn(random_tournament(12, 9), root / "in.trn")
            monkeypatch.chdir(root)
            return root

        clean = run_dir("clean")
        assert run(argv) == 0
        expected = _tree(clean)
        outputs = {name: data for name, data in expected.items() if name != "in.trn"}
        assert {manifest, "in.trn"} < set(expected)
        stale = run_dir("stale")
        _plant_stale(stale, outputs)
        assert run(argv) == 0
        assert _tree(stale) == expected
        # The replay reads a copy, since the run it replays rewrites the
        # manifest's own path too.
        recorded = tmp_path / "recorded.json"
        recorded.write_bytes(expected[manifest])
        _plant_stale(stale, outputs)
        assert run(["replay", recorded]) == 0
        assert _tree(stale) == expected


class TestEdgeCases:
    @pytest.mark.parametrize("argv", [
        ["find", "-k", 2, "{dir}"],
        ["solve", "--exact", "-k", 2, "{dir}"],
        ["verify", "{dir}", "{wit}"],
        ["verify", "{trn}", "{dir}"],
    ], ids=["find-input", "solve-input", "verify-input", "verify-witness"])
    def test_directory_as_input_is_usage_error(self, tmp_path, capsys, argv):
        trn = tmp_path / "t.trn"
        save_trn(transitive(5), trn)
        wit = tmp_path / "w.json"
        wit.write_text(json.dumps({"k": 2, "vertices": [0, 1, 2, 3, 4]}))
        paths = {"dir": tmp_path, "trn": trn, "wit": wit}
        assert run([str(a).format(**paths) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, out", [
        (["gen", "--type", "transitive", "--n", 5, "--out", "o.trn"], "o.trn"),
        (["solve", "--exact", "-k", 2, "--out", "w.json", "{trn}"], "w.json"),
        (["find", "-k", 2, "--out", "w.json", "--trace", "tr.jsonl", "{trn}"], "w.json"),
        (["table", "--n-list", 5, "--trials", 1, "--method", "greedy", "--out", "t.csv"],
         "t.csv"),
    ], ids=["gen", "solve", "find", "table"])
    def test_directory_at_manifest_path_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                       argv, out):
        # The manifest path is checked with the other destinations, before
        # the first write.
        trn = tmp_path / "t.trn"
        save_trn(random_tournament(20, 1), trn)
        work = tmp_path / "work"
        (work / f"{out}.manifest.json").mkdir(parents=True)
        monkeypatch.chdir(work)
        assert run([str(a).format(trn=trn) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {out}.manifest.json is a directory\n"
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [trn]

    @pytest.mark.parametrize("argv, error", [
        (["find", "-k", 2, "--out", "{tmp}/r.trn", "r.trn"],
         "{tmp}/r.trn would overwrite the input"),
        (["solve", "--exact", "-k", 2, "--out", "r.trn", "r.trn"],
         "r.trn would overwrite the input"),
        (["find", "-k", 2, "--trace", "w.json", "--out", "w.json", "r.trn"],
         "w.json would overwrite another output"),
        (["find", "-k", 2, "--trace", "w.json.manifest.json", "--out", "w.json", "r.trn"],
         "w.json.manifest.json would overwrite another output"),
    ], ids=["find-out-is-input", "solve-out-is-input", "find-trace-is-out",
            "find-trace-is-manifest"])
    def test_destination_on_input_or_other_output_writes_nothing(self, tmp_path, monkeypatch,
                                                                 capsys, argv, error):
        # Destinations are compared before the first write, whatever the path
        # that names them.
        monkeypatch.chdir(tmp_path)
        save_trn(random_tournament(20, 1), tmp_path / "r.trn")
        before = (tmp_path / "r.trn").read_bytes()
        assert run([str(a).format(tmp=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {error.format(tmp=tmp_path)}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.trn"]
        assert (tmp_path / "r.trn").read_bytes() == before

    @pytest.mark.parametrize("link", [os.link, os.symlink], ids=["hard", "symbolic"])
    def test_destination_linked_to_input_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                        link):
        # Two names of one file are one destination.
        monkeypatch.chdir(tmp_path)
        save_trn(random_tournament(20, 1), tmp_path / "r.trn")
        before = (tmp_path / "r.trn").read_bytes()
        link("r.trn", "w.json")
        assert run(["find", "-k", 2, "--out", "w.json", "r.trn"]) == 2
        assert capsys.readouterr().err == "error: w.json would overwrite the input\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.trn", "w.json"]
        assert (tmp_path / "r.trn").read_bytes() == before

    @pytest.mark.parametrize("link, target, argv", [
        ("t.jsonl", "w.json", ["find", "-k", 2, "--out", "w.json", "--trace", "t.jsonl", "r.trn"]),
        ("q.trn.manifest.json", "q.trn", ["gen", "--type", "random", "--n", 6, "--out", "q.trn"]),
    ], ids=["find-trace-to-out", "gen-manifest-to-out"])
    def test_dangling_link_to_another_destination_writes_nothing(
            self, tmp_path, monkeypatch, capsys, link, target, argv):
        # A link to a destination not made yet names that destination.
        monkeypatch.chdir(tmp_path)
        save_trn(random_tournament(20, 1), tmp_path / "r.trn")
        os.symlink(target, link)
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {link} would overwrite another output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["r.trn", link])
        assert not (tmp_path / target).exists()

    @pytest.mark.parametrize("argv", [["verify", "r.trn", "deep.json"], ["replay", "deep.json"]],
                             ids=["verify", "replay"])
    def test_deeply_nested_json_is_format_error(self, tmp_path, monkeypatch, capsys, argv):
        # Python's JSON parser recurses, so nesting past its limit is a
        # malformed input, not an internal fault.
        monkeypatch.chdir(tmp_path)
        save_trn(random_tournament(5, 1), tmp_path / "r.trn")
        (tmp_path / "deep.json").write_text("[" * 100_000)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: maximum recursion depth exceeded") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.json", "r.trn"]

    def test_gen_rotational_single_vertex(self, tmp_path):
        out = tmp_path / "one.trn"
        assert run(["gen", "--type", "rotational", "--n", 1, "--residues", "",
                    "--out", out]) == 2  # empty residue list is unusable
        assert run(["gen", "--type", "transitive", "--n", 1, "--out", out]) == 0
        assert out.read_bytes() == b"TRN 1\n1\n-\n"

    def test_solve_and_find_single_vertex(self, tmp_path, capsys):
        trn = tmp_path / "one.trn"
        run(["gen", "--type", "transitive", "--n", 1, "--out", trn])
        assert run(["solve", "--exact", "-k", 2, trn]) == 0
        assert "pp=1" in capsys.readouterr().out
        assert run(["find", "-k", 2, trn]) == 0
        assert "len=1" in capsys.readouterr().out

    def test_search_enumerate_single_vertex(self, tmp_path, capsys):
        assert run(["search", "--mode", "enumerate", "--n", 1, "-k", 2,
                    "--out-dir", tmp_path / "s1"]) == 0
        assert "min_pp=1 count=1" in capsys.readouterr().out

    def test_search_anneal_single_vertex_rejected(self, tmp_path, capsys):
        assert run(["search", "--mode", "anneal", "--n", 1,
                    "--out-dir", tmp_path / "s1"]) == 2
        assert "--n must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "s1").exists()

    def test_find_with_custom_probe_flags(self, tmp_path, capsys):
        # The full old probe flag set is refused before anything is written;
        # the same run without it finds and verifies a path.
        trn = tmp_path / "r.trn"
        save_trn(random_tournament(200, 4), trn)
        before = sorted(tmp_path.iterdir())
        assert run(["find", "-k", 2, "--eps", 0.05, "--delta", 0.3,
                    "--parts", 4, "--samples", 4, "--seed", 2, trn]) == 2
        assert sorted(tmp_path.iterdir()) == before
        capsys.readouterr()
        assert run(["find", "-k", 2, "--seed", 2, trn]) == 0
        assert "verified=true" in capsys.readouterr().out

    def test_find_rejects_bad_probe_params(self, tmp_path):
        # The finder has no probe, so the old probe flags are usage errors.
        trn = tmp_path / "r.trn"
        save_trn(random_tournament(40, 4), trn)
        before = sorted(tmp_path.iterdir())
        assert run(["find", "-k", 2, "--eps", 0.05, trn]) == 2
        assert sorted(tmp_path.iterdir()) == before
