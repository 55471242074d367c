import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from mconcave import REPORT_SCHEMA, check_exc_single, cli, load, mutate, store
from mconcave.cli import (
    ALL_SUITES,
    SuiteConfig,
    build_instance,
    falsify_campaign,
    load_instances,
    main,
)


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return str(path)


def small_corpus_paths(tmp_path, corpus, ids):
    paths = []
    by_id = {i.instance_id: i for i in corpus}
    for iid in ids:
        p = tmp_path / f"{iid}.json"
        store(by_id[iid].fn, p)
        paths.append(str(p))
    return paths


# --- gen ----------------------------------------------------------------------


def test_gen_writes_corpus_and_manifest(tmp_path, corpus):
    out = tmp_path / "corpus"
    assert main(["gen", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["instances"]) == len(corpus)
    first = manifest["instances"][0]
    f = load(out / first["path"])
    assert f.n == first["n"]


def test_gen_uniform_file_has_16_entries(tmp_path):
    cfg = write_config(tmp_path, families=[
        {"family": "matroid_rank", "id": "u24",
         "matroid": {"kind": "uniform", "n": 4, "r": 2}}])
    out = tmp_path / "c"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    obj = json.loads((out / "instances" / "u24.json").read_text())
    assert len(obj["values"]) == 16


def test_gen_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--out", str(out1), "--seed", "7"]) == 0
    assert main(["gen", "--out", str(out2), "--seed", "7"]) == 0
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
    for entry in json.loads((out1 / "manifest.json").read_text())["instances"]:
        assert (out1 / entry["path"]).read_bytes() == (out2 / entry["path"]).read_bytes()


def test_gen_rejects_nonconcave_laminar(tmp_path, capsys):
    cfg = write_config(tmp_path, families=[
        {"family": "laminar", "n": 2, "members": [[1, 2]], "tables": [[0, 1, 3]]}])
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "c")]) == 2
    assert "concave" in capsys.readouterr().err


def test_gen_mutated_records_seed(tmp_path):
    cfg = write_config(tmp_path, families=[
        {"family": "mutated", "id": "mut0", "magnitude": 2,
         "base": {"family": "matroid_rank",
                  "matroid": {"kind": "uniform", "n": 3, "r": 2}}}])
    out = tmp_path / "c"
    assert main(["gen", "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["instances"][0]["params"]["seed"] == 9  # seed ^ index 0


# --- check ----------------------------------------------------------------------


def test_check_small_corpus_all_pass(tmp_path, corpus):
    paths = small_corpus_paths(tmp_path, corpus,
                               ["n3_uniform_r2", "n3_laminar", "n3_wbasis_uniform"])
    out = tmp_path / "reports.jsonl"
    code = main(["check", "--out", str(out), *paths])
    assert code == 0
    lines = out.read_text().splitlines()
    reports = [json.loads(line) for line in lines]
    assert all(r["verdict"] == "PASS" for r in reports)
    for r in reports:
        jsonschema.validate(r, REPORT_SCHEMA)
    # one line per suite x instance, plus fenchel pair lines
    per_instance = [s for s in ALL_SUITES if s != "fenchel"]
    assert len(reports) == 3 * len(per_instance) + 6  # 3 same-n instances: 6 pairs


def test_check_flags_mutated_instance(tmp_path, corpus):
    by_id = {i.instance_id: i for i in corpus}
    base = by_id["n3_uniform_r2"].fn
    bad = base.with_value([1, 2], 9)
    p = tmp_path / "bad.json"
    store(bad, p)
    out = tmp_path / "reports.jsonl"
    code = main(["check", "--suites", "corollary1", "--out", str(out), str(p)])
    assert code == 1
    rep = json.loads(out.read_text().splitlines()[0])
    assert rep["verdict"] == "FAIL"
    assert rep["counterexample"]["verdicts"] == ["FAIL", "FAIL", "FAIL"]
    assert rep["counterexample"]["agreement"] is True


def test_check_missing_file_is_operational_error(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_out_of_memory_is_operational_error(tmp_path, corpus, monkeypatch, capsys):
    """A suite that runs out of memory stops the run with exit code 2,
    not 1: it falsified nothing."""
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setitem(cli._INSTANCE_SUITES, "exc_single", exhausted)
    paths = small_corpus_paths(tmp_path, corpus, ["n3_uniform_r2"])
    assert main(["check", "--suites", "exc_single", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: MemoryError\n" and captured.out == ""


def test_check_malformed_instance_is_operational_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 2, "mode": "int", "values": [0, 0, 0]}')
    assert main(["check", str(p)]) == 2


def test_real_values_too_large_to_add_exit_2(tmp_path, capsys):
    """A real value beyond 2^1020 is refused at load with exit code 2: its
    sums overflowed, and the default Fenchel box ended in an OverflowError
    traceback with exit code 1. A table at +-2^1020 runs every suite."""
    big, edge = tmp_path / "big.json", tmp_path / "edge.json"
    for path, v in ((big, 2.0**1022), (edge, 2.0**1020)):
        path.write_text(json.dumps({"n": 2, "mode": "real", "values": [0.0, v, v, -v]}))
    assert main(["check", str(big)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "exceeds 2^1020" in captured.err
    assert main(["check", "--out", str(tmp_path / "r.jsonl"), str(edge)]) == 0
    lines = (tmp_path / "r.jsonl").read_text().splitlines()
    assert len(lines) == len(ALL_SUITES)
    assert all(json.loads(line)["verdict"] == "PASS" for line in lines)


def test_check_reports_byte_identical(tmp_path, corpus):
    paths = small_corpus_paths(tmp_path, corpus, ["n3_uniform_r2", "n4_wbasis_uniform"])
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    args = ["check", "--seed", "5", "--suites", "exc_single,exc_multi_bounded,duality_grid"]
    assert main([*args, "--out", str(out1), *paths]) == 0
    assert main([*args, "--out", str(out2), *paths]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_check_parallel_matches_serial(tmp_path, corpus):
    paths = small_corpus_paths(
        tmp_path, corpus, ["n3_uniform_r2", "n3_partition", "n4_laminar"])
    out1, out2 = tmp_path / "serial.jsonl", tmp_path / "par.jsonl"
    args = ["check", "--suites", "exc_single,exc_multi_bounded,lemmas_2_8"]
    assert main([*args, "--out", str(out1), *paths]) == 0
    assert main([*args, "--jobs", "2", "--out", str(out2), *paths]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_check_gen_dir_input(tmp_path):
    cfg = write_config(tmp_path, families=[
        {"family": "matroid_rank", "id": "u23",
         "matroid": {"kind": "uniform", "n": 3, "r": 2}},
        {"family": "assignment", "id": "asg", "weights": [[2, 1], [0, 3], [1, 1]]},
    ])
    out = tmp_path / "corpus"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    rep_path = tmp_path / "r.jsonl"
    assert main(["check", "--suites", "exc_single,fenchel",
                 "--out", str(rep_path), str(out)]) == 0
    suites = [json.loads(l)["suite"] for l in rep_path.read_text().splitlines()]
    assert suites.count("exc_single") == 2
    assert suites.count("fenchel") == 3  # two instances + self-pairs


def test_check_real_fenchel_is_weak_duality(tmp_path):
    # Both tables are M-natural-concave; the dual is taken on integer
    # prices only, so the pair keeps a gap of 0.3 and must still pass.
    paths = []
    for name, values in (("r1", [0.0, 0.5]), ("r2", [0.0, -0.3])):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"n": 1, "mode": "real", "values": values}))
        paths.append(str(p))
    out = tmp_path / "r.jsonl"
    assert main(["check", "--suites", "exc_single,fenchel", "--out", str(out), *paths]) == 0
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["suite"] for r in reports] == ["exc_single"] * 2 + ["fenchel"] * 3


def test_check_fenchel_refuses_a_non_exchange_member(tmp_path, capsys):
    """Fenchel duality needs M-natural-concave members: a pair with a table
    that fails the single exchange FAILs on that precondition."""
    paths = []
    for name, values in (("good", [0, 1, 1, 1]), ("bad", [0, 0, 0, 1])):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"n": 2, "mode": "int", "values": values}))
        paths.append(str(p))
    assert [check_exc_single(load(p)).passed for p in paths] == [True, False]
    assert main(["check", "--suites", "fenchel", *paths]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["instance_id"], r["verdict"]) for r in reports] == [
        ("good+good", "PASS"), ("good+bad", "FAIL"), ("bad+bad", "FAIL")]
    for r in reports[1:]:
        assert r["counterexample"] == {"reason": "single-exchange precondition fails",
                                       "instances": ["bad"]}


def test_check_rejects_unknown_suite(capsys):
    assert main(["check", "--suites", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


# --- falsify --------------------------------------------------------------------


def test_falsify_zero_trials(tmp_path):
    out = tmp_path / "f.json"
    assert main(["falsify", "--trials", "0", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["trials"] == 0 and rep["counterexamples"] == []


def test_falsify_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["falsify", "--trials", "300", "--seed", "13", "--out", str(out1)]) == 0
    assert main(["falsify", "--trials", "300", "--seed", "13", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_falsify_campaign_counts():
    outcome = falsify_campaign(200, seed=3)
    assert outcome.trials == 200
    assert sum(outcome.kinds.values()) == 200
    assert not outcome.counterexamples
    for margin, _, _ in outcome.near_misses:
        assert margin >= 0


# --- config handling --------------------------------------------------------------


def test_config_file_round(tmp_path):
    cfg = SuiteConfig.from_dict({"seed": 4, "suites": "exc_single, fenchel",
                                 "trials": 10})
    assert cfg.seed == 4 and cfg.suites == ("exc_single", "fenchel")
    for field in ("bogus", "mode", "tolerance"):
        with pytest.raises(ValueError, match="unknown config"):
            SuiteConfig.from_dict({field: 1})


def test_counts_that_fake_a_verdict_are_refused(tmp_path, corpus_by_id, capsys):
    """samples 0 made exc_multi_bounded PASS with no triple checked on a
    table that fails, samples -3 reported -3 triples, and negative jobs
    and trials ran silently: every such count now exits 2 without output."""
    f = mutate(corpus_by_id["n8_wbasis_uniform_r4"].fn, 0, 3)
    path = tmp_path / "m8.json"
    store(f, path)
    check = ["check", "--suites", "exc_multi_bounded", str(path)]
    assert main(check) == 1
    assert '"verdict":"FAIL"' in capsys.readouterr().out
    for fields in ({"samples": 0}, {"samples": -3}, {"samples": True}, {"samples": 2.5},
                   {"jobs": 0}, {"jobs": -4}, {"jobs": "2"}, {"trials": -5},
                   {"trials": False}, {"trials": 1.0}):
        assert main(["check", "--config", write_config(tmp_path, **fields), *check[1:]]) == 2
        assert main(["falsify", "--config", write_config(tmp_path, **fields)]) == 2
    assert main([*check, "--jobs", "-4"]) == 2
    assert main([*check, "--jobs", "0"]) == 2
    assert main(["falsify", "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "samples must be an int >= 1" in captured.err
    assert "trials must be an int >= 0" in captured.err
    with pytest.raises(ValueError, match="jobs"):
        SuiteConfig(jobs=0)


MALFORMED_CONFIGS = [
    {"n_range": ["a", 5]}, {"n_range": [2]}, {"n_range": 5}, {"seed": "x"},
    {"seed": True}, {"suites": 5}, {"suites": [5]}, {"families": 5},
    {"families": [5]}, {"out": 5},
]


@pytest.mark.parametrize("command", ["check", "falsify"])
@pytest.mark.parametrize("fields", MALFORMED_CONFIGS, ids=json.dumps)
def test_malformed_config_exits_2(tmp_path, capsys, command, fields):
    args = [command, "--config", write_config(tmp_path, **fields)]
    assert main([*args, "--trials", "5"] if command == "falsify" else args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_family_spec_with_a_malformed_n_exits_2(tmp_path, capsys):
    """Only the commands that build the families read their specs; n is
    checked before 2^n values are drawn."""
    for n in ("3", -1, 25):
        cfg = write_config(tmp_path, families=[{"family": "random", "n": n}])
        for command in ("check", "gen"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err.startswith("error: ")


UNIFORM_3_1 = {"kind": "uniform", "n": 3, "r": 1}
MALFORMED_FAMILIES = [
    ({"family": "weighted_basis", "matroid": UNIFORM_3_1, "weights": 5},
     "family spec 0 (weighted_basis): field 'weights' must be a list of numbers"),
    ({"family": "random", "n": 3, "neg_inf_prob": "x"},
     "family spec 0 (random): field 'neg_inf_prob' must be a number"),
    ({"family": "laminar", "n": 3, "members": 5, "tables": []},
     "family spec 0 (laminar): field 'members' must be a list of lists of ints"),
    ({"family": "matroid_rank", "matroid": {"kind": "uniform", "n": 3}},
     "family spec 0 (uniform) is missing field 'r'"),
    ({"n": 3}, "family spec 0 is missing field 'family'"),
    ({"family": ["random"]}, "family spec 0: field 'family' must be a string"),
    ({"family": "matroid_rank", "matroid": {"kind": "vector"}},
     "family spec 0: unknown kind 'vector'"),
    ({"family": "mutated", "base": {"family": "random", "n": 3}, "magnitude": "2"},
     "family spec 0 (mutated): field 'magnitude' must be an int"),
    ({"family": "matroid_rank",
      "matroid": {"kind": "graphic", "num_vertices": 3, "edges": [[1, 2, 3]]}},
     "family spec 0 (graphic): field 'edges' must be a list of pairs of ints"),
]


@pytest.mark.parametrize("spec, message", MALFORMED_FAMILIES, ids=lambda v: json.dumps(v))
def test_malformed_family_spec_exits_2(tmp_path, capsys, spec, message):
    """These specs used to end in a TypeError traceback with exit code 1,
    the falsification code, or in a bare ``error: 'r'``."""
    cfg = write_config(tmp_path, families=[spec])
    assert main(["check", "--suites", "exc_single", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert "Traceback" not in captured.err


def test_campaign_counts_that_fake_a_campaign_are_refused():
    """keep_near -1 emptied near_misses after every append, trials -5 was
    reported after no work, and trials True serialized as true."""
    for kwargs in ({"trials": -5}, {"trials": True}, {"trials": 2.0},
                   {"keep_near": -1}, {"keep_near": False}, {"keep_near": "5"}):
        args = {"trials": 200, "seed": 3, **kwargs}
        with pytest.raises(ValueError, match="must be an int >= 0"):
            falsify_campaign(**args)
    assert falsify_campaign(0, 3, keep_near=0).to_dict()["trials"] == 0
    assert falsify_campaign(200, 3, keep_near=0).near_misses == []


def test_suites_reuse_reports_of_one_table_only(corpus_by_id):
    """corollary1 and the lemmas_2_8 gate reuse the exchange reports of the
    instance being run, and never those of another table with the same id
    and seed."""
    good = corpus_by_id["n4_laminar"].fn
    bad = mutate(good, 0, 1)
    cfg = SuiteConfig()
    for f in (good, bad, good):
        want = check_exc_single(f, instance_id="x")
        assert cli._INSTANCE_SUITES["exc_single"]("x", f, cfg, 0) == want
        lemmas = cli._INSTANCE_SUITES["lemmas_2_8"]("x", f, cfg, 0)
        assert lemmas.passed == want.passed
        corollary = cli._INSTANCE_SUITES["corollary1"]("x", f, cfg, 0)
        assert corollary.verdict == want.verdict
    assert len(cli._memo) <= 4


@pytest.mark.parametrize("flag", [["--mode", "real"], ["--tol", "0.5"]])
def test_removed_flags_are_refused(flag):
    with pytest.raises(SystemExit) as exc:
        main(["check", *flag])
    assert exc.value.code == 2


def test_build_instance_unknown_family():
    with pytest.raises(ValueError, match="family"):
        build_instance({"family": "nope"}, 0, 0)


def test_load_instances_plain_dir(tmp_path, corpus):
    small_corpus_paths(tmp_path, corpus, ["n3_uniform_r2", "n3_partition"])
    loaded = load_instances([str(tmp_path)])
    assert [iid for iid, _ in loaded] == ["n3_partition", "n3_uniform_r2"]


def test_console_entry_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mconcave.cli", "falsify", "--trials", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["trials"] == 5


def test_run_verification_falsifies_the_cli_campaign(tmp_path, monkeypatch, capsys):
    """The script's campaign is the one ``mconcave falsify`` runs for the
    same seed and trials (``SuiteConfig.n_range``, not the library
    default); the corpus sweep is stubbed out."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_verification.py"
    spec = importlib.util.spec_from_file_location("run_verification", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "cmd_gen", lambda cfg, out: None)
    monkeypatch.setattr(script, "load_instances", lambda paths: [])
    monkeypatch.setattr(script, "run_check", lambda instances, cfg: [])
    monkeypatch.setattr(sys, "argv", ["run_verification.py", "--out", str(tmp_path),
                                      "--trials", "50"])
    assert script.main() == 0
    cli_run = falsify_campaign(50, 0, n_range=SuiteConfig().n_range)
    assert cli_run.singles_passed != falsify_campaign(50, 0).singles_passed
    assert f"  {cli_run.singles_passed} candidates passed" in capsys.readouterr().out


def test_run_verification_runs_from_a_checkout(tmp_path):
    """The README's ``python3 scripts/run_verification.py``, with no
    ``PYTHONPATH`` and no installed package."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_verification.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(script), "--trials", "10", "--out", str(tmp_path)],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "ALL SUITES PASS" in proc.stdout
    assert (tmp_path / "reports.jsonl").exists()


def test_python_m_mconcave_runs_from_a_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "mconcave", "check", "--suites", "exc_single"],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == len(cli.default_corpus())
