import json
import subprocess
import sys

import pytest

from conftest import GOLDEN, blowup, triangle_chain
from ppath.cli import main
from ppath.exact import PowerPath, longest_power_path_exact, verify_power_path
from ppath.search import AnnealChain
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

    def test_greedy_bounded_by_n(self, tmp_path, capsys):
        trn = tmp_path / "r.trn"
        save_trn(random_tournament(30, 3), trn)
        assert run(["solve", "--greedy", "-k", 1, trn]) == 0
        out = capsys.readouterr().out
        length = int(out.split("pp=")[1].split()[0])
        assert length <= 30

    def test_budget_trip_on_deep_instance_exits_3_with_witness(self, tmp_path):
        trn = tmp_path / "c1500.trn"
        t = triangle_chain(1500)
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

    def test_malformed_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.trn"
        bad.write_bytes(b"TRN 1\n2\n-1\n1-\n")
        assert run(["solve", "--exact", "-k", 2, bad]) == 2


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
            assert set(rec) == {"node", "route", "len"}

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

    def test_malformed_witness_exits_2(self, tmp_path):
        trn = tmp_path / "t.trn"
        save_trn(transitive(5), trn)
        wit = tmp_path / "w.json"
        wit.write_text("{not json")
        assert run(["verify", trn, wit]) == 2

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

    def test_enumerate_large_n_rejected(self, tmp_path):
        assert run(["search", "--mode", "enumerate", "--n", 9,
                    "--out-dir", tmp_path / "s"]) == 2
        assert not (tmp_path / "s").exists()

    def test_enumerate_empty_n_rejected(self, tmp_path, capsys):
        assert run(["search", "--mode", "enumerate", "--n", 0,
                    "--out-dir", tmp_path / "s"]) == 2
        assert "--n must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_negative_stop_after_rejected(self, tmp_path, capsys):
        assert run(["search", "--mode", "anneal", "--n", 6, "--seed", 5, "--iters", 20,
                    "--stop-after", -5, "--out-dir", tmp_path / "s"]) == 2
        assert "--stop-after must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_single_chain_flags_rejected_with_two_chains(self, tmp_path, capsys):
        base = ["search", "--mode", "anneal", "--n", 6, "--chains", 2]
        for flags, message in [
            (["--resume", tmp_path / "ck.json"], "--resume requires --chains 1"),
            (["--checkpoint-every", 5], "--checkpoint-every requires --chains 1"),
            (["--stop-after", 5], "--stop-after requires --chains 1"),
        ]:
            assert run(base + flags + ["--out-dir", tmp_path / "s"]) == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "s").exists()
        assert run(["search", "--mode", "anneal", "--n", 6, "--checkpoint-every", -1,
                    "--out-dir", tmp_path / "s"]) == 2
        assert "--checkpoint-every must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_anneal_deterministic_csv(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run(["search", "--mode", "anneal", "--n", 6, "--seed", 5,
                        "--iters", 60, "--out-dir", d]) == 0
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()

    def test_anneal_checkpoint_resume_identical(self, tmp_path):
        full, part = tmp_path / "full", tmp_path / "part"
        base = ["search", "--mode", "anneal", "--n", 6, "--seed", 5, "--iters", 120]
        assert run(base + ["--out-dir", full]) == 0
        assert run(base + ["--stop-after", 40, "--out-dir", part]) == 3
        assert run(base + ["--resume", part / "checkpoint.json", "--out-dir", part]) == 0
        assert (full / "results.csv").read_bytes() == (part / "results.csv").read_bytes()

    def test_resume_under_another_seed_is_usage_error(self, tmp_path, capsys):
        part = tmp_path / "part"
        base = ["search", "--mode", "anneal", "--n", 6, "--iters", 120, "--out-dir", part]
        assert run(base + ["--seed", 5, "--stop-after", 2]) == 3
        before = (part / "results.csv").read_bytes()
        capsys.readouterr()
        assert run(base + ["--seed", 6, "--resume", part / "checkpoint.json"]) == 2
        assert "does not match this chain: seed " in capsys.readouterr().err
        assert (part / "results.csv").read_bytes() == before

    def test_checkpoint_every_resumes_a_killed_run(self, tmp_path, monkeypatch):
        full, part = tmp_path / "full", tmp_path / "part"
        base = ["search", "--mode", "anneal", "--n", 6, "--seed", 5, "--iters", 120,
                "--checkpoint-every", 10]
        assert run(base + ["--out-dir", full]) == 0

        step = AnnealChain.step

        def dies_after_35(chain):
            if chain.iteration == 35:
                raise RuntimeError("killed")
            return step(chain)

        monkeypatch.setattr(AnnealChain, "step", dies_after_35)
        with pytest.raises(RuntimeError, match="killed"):
            run(base + ["--out-dir", part])
        monkeypatch.setattr(AnnealChain, "step", step)
        ck = json.loads((part / "checkpoint.json").read_text())
        assert ck["state"]["iteration"] == 30
        assert run(base + ["--resume", part / "checkpoint.json", "--out-dir", part]) == 0
        assert (full / "results.csv").read_bytes() == (part / "results.csv").read_bytes()

    def test_stop_after_reaching_last_iteration_is_complete(self, tmp_path):
        full, stopped = tmp_path / "full", tmp_path / "stopped"
        base = ["search", "--mode", "anneal", "--n", 6, "--seed", 5, "--iters", 40]
        assert run(base + ["--out-dir", full]) == 0
        assert run(base + ["--stop-after", 40, "--out-dir", stopped]) == 0
        assert not (stopped / "checkpoint.json").exists()
        assert (full / "results.csv").read_bytes() == (stopped / "results.csv").read_bytes()

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
        assert lines[0] == "n,seed,method,length,millis"
        assert len(lines) == 10
        for line in lines[1:]:
            n, _, method, length, _ = line.split(",")
            assert method == "exact" and int(length) <= int(n)

    def test_zero_trials_header_only(self, tmp_path):
        out = tmp_path / "tab.csv"
        assert run(["table", "--n-list", "4,6", "--trials", 0,
                    "--method", "greedy", "--out", out]) == 0
        assert out.read_text() == "n,seed,method,length,millis\n"

    def test_exact_beyond_oracle_limit_rejected(self, tmp_path):
        assert run(["table", "--n-list", "4,24", "--trials", 1,
                    "--method", "exact", "--out", tmp_path / "t.csv"]) == 2


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


def test_module_entrypoint_smoke(tmp_path):
    out = tmp_path / "t.trn"
    proc = subprocess.run(
        [sys.executable, "-m", "ppath", "gen", "--type", "transitive",
         "--n", "3", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_worker_fanout_is_row_deterministic(tmp_path, monkeypatch):
    rows = {}
    for workers in ("1", "3"):
        monkeypatch.setenv("PPATH_THREADS", workers)
        out = tmp_path / f"tab{workers}.csv"
        assert run(["table", "--n-list", "4,6", "--trials", 3,
                    "--method", "greedy", "--out", out]) == 0
        rows[workers] = [
            line.rsplit(",", 1)[0] for line in out.read_text().splitlines()
        ]
    assert rows["1"] == rows["3"]


def test_anneal_worker_fanout_is_byte_deterministic(tmp_path, monkeypatch):
    csvs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("PPATH_THREADS", workers)
        d = tmp_path / f"s{workers}"
        assert run(["search", "--mode", "anneal", "--n", 6, "--chains", 2,
                    "--seed", 3, "--iters", 30, "--out-dir", d]) == 0
        csvs[workers] = (d / "results.csv").read_bytes()
    assert csvs["1"] == csvs["2"]


class TestEdgeCases:
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
        trn = tmp_path / "r.trn"
        save_trn(random_tournament(200, 4), trn)
        assert run(["find", "-k", 2, "--eps", 0.05, "--delta", 0.3,
                    "--parts", 4, "--samples", 4, "--seed", 2, trn]) == 0
        assert "verified=true" in capsys.readouterr().out

    def test_find_rejects_bad_probe_params(self, tmp_path):
        trn = tmp_path / "r.trn"
        save_trn(random_tournament(40, 4), trn)
        assert run(["find", "-k", 2, "--eps", 0.5, "--delta", 0.1, trn]) == 2
