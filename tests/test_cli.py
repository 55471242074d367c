import json
import subprocess
import sys

import jsonschema
import pytest

from mconcave import REPORT_SCHEMA, load, store
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


def test_check_malformed_instance_is_operational_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 2, "mode": "int", "values": [0, 0, 0]}')
    assert main(["check", str(p)]) == 2


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


def test_check_dca_jobs_env(tmp_path, corpus, monkeypatch):
    paths = small_corpus_paths(tmp_path, corpus, ["n3_uniform_r2", "n3_partition"])
    out = tmp_path / "r.jsonl"
    monkeypatch.setenv("DCA_JOBS", "2")
    assert main(["check", "--suites", "exc_single", "--out", str(out), *paths]) == 0
    assert len(out.read_text().splitlines()) == 2


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
    # Both tables are M-natural-concave; the dual is scanned on integer
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
