import concurrent.futures
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest

from mconcave import (
    REPORT_SCHEMA,
    PriceVector,
    check_exc_single,
    cli,
    exchange,
    fenchel_gap,
    load,
    moves,
    mutate,
    store,
    uniform_matroid,
    weighted_basis_valuation,
)
from mconcave.cli import (
    ALL_SUITES,
    SuiteConfig,
    falsify_campaign,
    load_instances,
    main,
)
from mconcave.families import _DEFAULT_SPECS, build_instance


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


def test_gen_default_corpus_is_its_spec_list(tmp_path):
    """``gen`` on the default corpus and ``gen --config`` on its spec list
    write the same manifest and the same 36 instance files, whose bytes
    are pinned; each manifest entry's spec rebuilds its instance file,
    also where ``gen`` recorded a drawn seed in the params."""
    default, config = tmp_path / "default", tmp_path / "config"
    assert main(["gen", "--out", str(default)]) == 0
    cfg = write_config(tmp_path, families=_DEFAULT_SPECS)
    assert main(["gen", "--config", cfg, "--out", str(config)]) == 0
    manifest = json.loads((default / "manifest.json").read_text())
    assert (config / "manifest.json").read_bytes() == (default / "manifest.json").read_bytes()
    files = [(default / e["path"]).read_bytes() for e in manifest["instances"]]
    assert files == [(config / e["path"]).read_bytes() for e in manifest["instances"]]
    assert len(files) == 36 and hashlib.sha256(b"".join(files)).hexdigest() == \
        "9cf97a260b8984bc62a9e217ea2d966dfa849a17d774ffd686f65e63eae935d3"
    seeded = tmp_path / "seeded"
    cfg = write_config(tmp_path, families=[
        {"family": "random", "n": 3},
        {"family": "mutated", "id": "mut", "toggle_neg_inf": True,
         "base": {"family": "random", "n": 4}}])
    assert main(["gen", "--config", cfg, "--out", str(seeded), "--seed", "11"]) == 0
    for out in (default, seeded):
        manifest = json.loads((out / "manifest.json").read_text())
        for index, e in enumerate(manifest["instances"]):
            inst = build_instance({"family": e["family"], "id": e["id"], **e["params"]},
                                  index, manifest["seed"])
            store(inst.fn, tmp_path / "rebuilt.json")
            assert (tmp_path / "rebuilt.json").read_bytes() == (out / e["path"]).read_bytes()


@pytest.mark.parametrize("ids, message", [
    ([5], "field 'id' must be a string, got 5"),
    (["u", "u"], "family spec 1: id 'u' repeats an earlier spec's"),
    (["../escaped"], "family spec 0: id '../escaped' is not a file name"),
    (["a\\b"], "is not a file name"), ([""], "is not a file name"),
    (["."], "is not a file name"), ([".."], "is not a file name")],
    ids=["int", "repeated", "escaping", "backslash", "empty", "dot", "dotdot"])
def test_gen_refuses_ids_it_cannot_write(tmp_path, capsys, ids, message):
    """An int id made a manifest that ``check DIR`` refused, a repeated id
    overwrote the first instance file, and ``../escaped`` wrote outside
    ``instances/``: each is one error line and exit 2, and nothing is
    written. ``check --config`` refuses the same ids."""
    cfg = write_config(tmp_path, families=[
        {"family": "matroid_rank", "id": iid, "matroid": {"kind": "uniform", "n": 3, "r": 1}}
        for iid in ids])
    out = tmp_path / "c"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["c", "config.json", "instances"]
    assert main(["check", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


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


# One file per refusal: a value past every float is exact in int mode and
# runs every suite; NaN, Infinity, 1e308 in real mode (past 2^1020), a
# string value and an all-null domain are refused with one error line.
REFUSALS = {
    "huge_int": ('{"n": 2, "mode": "int", "values": [0, 1%s, 1%s, 2%s]}' % (("0" * 400,) * 3),
                 0, None),
    "nan": ('{"n": 2, "mode": "real", "values": [0, 1, 1, NaN]}', 2, "not a finite number"),
    "infinity": ('{"n": 2, "mode": "real", "values": [0, 1, 1, Infinity]}', 2,
                 "not a finite number"),
    "real_1e308": ('{"n": 2, "mode": "real", "values": [0, 1, 1, 1e308]}', 2, "exceeds 2^1020"),
    "string": ('{"n": 2, "mode": "int", "values": [0, 1, 1, "2"]}', 2, "requires exact ints"),
    "all_null": ('{"n": 2, "mode": "int", "values": [null, null, null, null]}', 2,
                 "effective domain is empty"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_check_refuses_or_decides_each_extreme_file(tmp_path, name):
    """``mconcave check FILE`` in a fresh process: the 10^400 table passes
    every suite with exit 0; each other file exits 2 with one ``error:``
    line naming it and no traceback, and prints no report."""
    text, code, message = REFUSALS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "mconcave", "check", str(path)],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert proc.stderr == ""
        reports = [json.loads(line) for line in proc.stdout.splitlines()]
        assert {r["verdict"] for r in reports} == {"PASS"}
        assert {r["suite"] for r in reports} == set(ALL_SUITES)
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert message in proc.stderr


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


def test_check_pool_is_capped_by_tasks_and_cpus(monkeypatch, corpus_by_id):
    """``--jobs 1000000`` asked for a pool of 10^6 workers, which the fork
    start method starts all at once. The pool gets no more workers than
    there are instances or CPUs, and none opens at one. A stand-in pool
    records what it is asked for and maps in this process."""
    asked = []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    instances = [(iid, corpus_by_id[iid].fn)
                 for iid in ("n3_uniform_r2", "n3_partition", "n4_laminar")]
    cfg = SuiteConfig(suites=("exc_single", "exc_multi_bounded"), jobs=10**6)
    serial = cli.run_check(instances, replace(cfg, jobs=1))
    assert cli.run_check(instances, cfg) == serial
    assert all(w <= os.cpu_count() for w in asked)
    for cpus, want in ((None, []), (1, []), (2, [2]), (64, [3])):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        asked.clear()
        assert cli.run_check(instances, cfg) == serial
        assert asked == want


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


@pytest.mark.parametrize("where", ["../outside.json", "instances/../../outside.json",
                                   "absolute"])
def test_check_refuses_a_manifest_path_outside_its_dir(tmp_path, capsys, rank_u24, where):
    """A manifest entry such as ``"path": "../outside.json"`` made
    ``check DIR`` read and report a file outside DIR (exit 0, with the
    entry's id): now one error line and exit 2, and nothing is checked.
    An entry inside DIR still loads."""
    store(rank_u24, tmp_path / "outside.json")
    corpus = tmp_path / "corpus"
    (corpus / "instances").mkdir(parents=True)
    store(rank_u24, corpus / "instances" / "x.json")
    path = str(tmp_path / "outside.json") if where == "absolute" else where
    entries = [{"id": "x", "path": "instances/x.json"}, {"id": "y", "path": path}]
    (corpus / "manifest.json").write_text(json.dumps({"instances": entries}))
    assert main(["check", "--suites", "exc_single", str(corpus)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and "outside" in captured.err
    assert [iid for iid, _ in load_instances([corpus / "instances"])] == ["x"]


def test_check_refuses_repeated_instance_ids(tmp_path, capsys, rank_u24):
    """``check a/x.json b/x.json`` printed two reports with
    ``"instance_id":"x"`` and nothing told them apart. A repeated id, from
    two files of one stem, one file named twice, or a manifest listing an
    id twice, is one error line and exit 2, as ``gen`` refuses repeated
    ids."""
    for d in ("a", "b", "m"):
        (tmp_path / d).mkdir()
        store(rank_u24, tmp_path / d / "x.json")
    entries = [{"id": "x", "path": "x.json"}, {"id": "x", "path": "x.json"}]
    (tmp_path / "m" / "manifest.json").write_text(json.dumps({"instances": entries}))
    a, b = str(tmp_path / "a" / "x.json"), str(tmp_path / "b" / "x.json")
    for paths in ([a, b], [a, a], [str(tmp_path / "m")], [str(tmp_path / "a"), b]):
        assert main(["check", "--suites", "exc_single", *paths]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "'x' repeats" in captured.err
    assert main(["check", "--suites", "exc_single", a]) == 0


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


def _real_file(tmp_path, name, values):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"n": 2, "mode": "real", "values": values}))
    return str(path)


def test_check_real_table_is_exact(tmp_path):
    """f({1, 2}) = 1e-9 makes the table supermodular: both exchange suites
    FAIL (a tolerance of 1e-9 passed them), exit 1."""
    path = _real_file(tmp_path, "tiny", [0, 0, 0, 1e-9])
    out = tmp_path / "r.jsonl"
    assert main(["check", "--suites", "exc_single,exc_multi_bounded", "--out", str(out),
                 path]) == 1
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["verdict"] for r in reports] == ["FAIL", "FAIL"]
    assert reports[0]["counterexample"] == {"X": [1, 2], "Y": [], "i": 1, "lhs": 1e-9}


@pytest.mark.parametrize("literal, code", [("1e-400", 2), ("1e-310", 2), ("1e-300", 1),
                                           ("2.2250738585072014e-308", 1), ("-0.0e-500", 0)])
def test_check_refuses_a_real_literal_below_the_normal_floats(tmp_path, capsys, literal, code):
    """``json`` read f({1, 2}) = 1e-400 as 0.0, and the table PASSed
    ``exc_single`` with exit 0, though the one it denotes fails. A nonzero
    literal below 2^-1022 (underflow to 0, or a subnormal such as 1e-310)
    is one error line and exit 2; 1e-300 and the least normal float still
    FAIL with exit 1, and a zero literal, whatever its exponent, passes."""
    path = tmp_path / "t.json"
    path.write_text('{"n": 2, "mode": "real", "values": [0, 0, 0, %s]}' % literal)
    assert main(["check", "--suites", "exc_single", str(path)]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and f"{literal} is nonzero" in captured.err
    else:
        assert captured.err == ""
        assert json.loads(captured.out)["verdict"] == ("PASS" if code == 0 else "FAIL")


def test_check_modular_real_table_passes_every_suite(tmp_path):
    """0.1 + 0.2 = 0.3 read as decimals: the modular table passes every
    suite, its grid swept like an int table's, and its Fenchel self-pair
    certifies a zero gap."""
    path = _real_file(tmp_path, "modular", [0.0, 0.1, 0.2, 0.3])
    out = tmp_path / "r.jsonl"
    assert main(["check", "--out", str(out), path]) == 0
    reports = {r["suite"]: r for r in map(json.loads, out.read_text().splitlines())}
    assert sorted(reports) == sorted(ALL_SUITES)
    assert all(r["verdict"] == "PASS" for r in reports.values())
    assert reports["duality_grid"]["regime"] == "exhaustive"
    f = load(path)
    res = fenchel_gap(f, f)
    assert res.certified and res.gap == 0.0 and res.attaining_q == PriceVector((0, 0))


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


@pytest.mark.parametrize("case", ["no suites", "fenchel past its n limit", "empty directory"])
def test_check_without_a_report_exits_2(tmp_path, corpus_by_id, capsys, case):
    """A run that checks nothing is refused, not passed: these printed
    nothing and exited 0."""
    if case == "no suites":
        args = ["--suites", ""]
    elif case == "fenchel past its n limit":
        store(corpus_by_id["n6_laminar"].fn, tmp_path / "n6.json")
        args = ["--suites", "fenchel", str(tmp_path / "n6.json")]
    else:
        (tmp_path / "empty").mkdir()
        args = [str(tmp_path / "empty")]
    assert main(["check", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: no report")
    assert "Traceback" not in captured.err


# --- falsify --------------------------------------------------------------------


def test_falsify_zero_trials(tmp_path, capsys):
    """A campaign of no trials printed a pass after no work: it exits 2,
    from the flag and from the config file, and writes nothing."""
    out = tmp_path / "f.json"
    assert main(["falsify", "--trials", "0", "--out", str(out)]) == 2
    assert main(["falsify", "--config", write_config(tmp_path, trials=0), "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: trials must be an int >= 1, got 0"] * 2


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


@pytest.mark.parametrize("command, flag, value, field, want", [
    ("check", "--seed", "9", "seed", 9),
    ("gen", "--out", "flag_dir", "out", "flag_dir"),
    ("falsify", "--out", "flag.json", "out", "flag.json"),
    ("check", "--suites", "fenchel,exc_single", "suites", ("exc_single", "fenchel")),
    ("check", "--jobs", "3", "jobs", 3),
    ("falsify", "--trials", "7", "trials", 7),
])
def test_each_flag_overrides_its_config_field(tmp_path, monkeypatch, command, flag, value,
                                              field, want):
    """A flag given with ``--config`` sets its one field of the file's
    config, the one route it takes to the command."""
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda cfg, *paths: seen.append(cfg) or 0)
    fields = {"seed": 4, "out": "file_out", "suites": "lemmas_2_8", "jobs": 2, "trials": 11}
    assert main([command, "--config", write_config(tmp_path, **fields), flag, value]) == 0
    assert seen == [replace(SuiteConfig.from_dict(fields), **{field: want})]


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
                   {"trials": 0}, {"trials": False}, {"trials": 1.0}):
        assert main(["check", "--config", write_config(tmp_path, **fields), *check[1:]]) == 2
        assert main(["falsify", "--config", write_config(tmp_path, **fields)]) == 2
    assert main([*check, "--jobs", "-4"]) == 2
    assert main([*check, "--jobs", "0"]) == 2
    assert main(["falsify", "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "samples must be an int >= 1" in captured.err
    assert "trials must be an int >= 1" in captured.err
    with pytest.raises(ValueError, match="jobs"):
        SuiteConfig(jobs=0)


MALFORMED_CONFIGS = [
    {"n_range": ["a", 5]}, {"n_range": [2]}, {"n_range": 5}, {"seed": "x"},
    {"seed": True}, {"suites": 5}, {"suites": [5]}, {"families": 5},
    {"families": [5]}, {"out": 5}, {"seed": -1}, {"seed": 2**64},
]


@pytest.mark.parametrize("command", ["check", "falsify"])
@pytest.mark.parametrize("fields", MALFORMED_CONFIGS, ids=json.dumps)
def test_malformed_config_exits_2(tmp_path, capsys, command, fields):
    args = [command, "--config", write_config(tmp_path, **fields)]
    assert main([*args, "--trials", "5"] if command == "falsify" else args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("command", [["falsify", "--trials", "300"],
                                     ["check", "--suites", "exc_multi_bounded"]])
@pytest.mark.parametrize("seed", [2**64, -1])
def test_seed_outside_64_bits_exits_2(capsys, command, seed):
    """Sub-seeds are taken mod 2^64, so a seed of 2^64 would print the
    bytes of seed 0; the largest 64-bit seed still runs."""
    assert main([*command, "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: seed ")
    assert SuiteConfig(seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("kind, body", [
    ("manifest", {"instances": [5]}),
    ("manifest", [1, 2]),
    ("manifest", {"instances": [{"id": "a", "path": 7}]}),
    ("config", 5),
    ("config", None),
    ("config", "ab"),
])
def test_malformed_manifest_or_config_exits_2(tmp_path, capsys, kind, body):
    """These used to end in a traceback with exit code 1, and the config
    "ab" was read as the unknown fields 'a' and 'b'."""
    if kind == "manifest":
        (tmp_path / "manifest.json").write_text(json.dumps(body))
        args = ["check", str(tmp_path)]
    else:
        (tmp_path / "config.json").write_text(json.dumps(body))
        args = ["check", "--config", str(tmp_path / "config.json")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err and "unknown config" not in captured.err


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
    """trials -5 and 0 were reported after no work, and trials True
    serialized as true."""
    for trials in (-5, 0, True, False, 2.0):
        with pytest.raises(ValueError, match="must be an int >= 1"):
            falsify_campaign(trials, 3)
        with pytest.raises(ValueError, match="must be an int >= 1"):
            SuiteConfig(trials=trials)
    assert falsify_campaign(1, 3).to_dict()["trials"] == 1


@pytest.mark.parametrize("seed, n_range, message", [
    (2**64, (3, 5), "seed must be an int in [0, 2^64)"),
    (-1, (3, 5), "seed must be an int in [0, 2^64)"),
    (0, (True, 3), "n_range must be a pair of ints"),
    (0, (2.5, 4), "n_range must be a pair of ints"),
    (0, (2, 4.0), "n_range must be a pair of ints"),
])
def test_campaign_refuses_what_suiteconfig_refuses(monkeypatch, seed, n_range, message):
    """seed 2^64 ran seed 0's campaign, -1 that of 2^64 - 1, (True, 3) ran
    as (1, 3), and a float bound stopped in a TypeError among the draws.
    Each is now SuiteConfig's ValueError, raised before any draw."""
    def refuse(*args):
        raise AssertionError("drawn")

    for name in ("_falsify_bases", "_bulk_draws"):
        monkeypatch.setattr(cli, name, refuse)
    with pytest.raises(ValueError) as library:
        falsify_campaign(10, seed, n_range)
    with pytest.raises(ValueError) as config:
        SuiteConfig(seed=seed, n_range=n_range)
    assert str(library.value) == str(config.value)
    assert str(library.value).startswith(message)


def test_suites_reuse_reports_of_one_table_only(corpus_by_id):
    """corollary1 and the lemmas_2_8 gate reuse the exchange reports of the
    instance being run, and never those of another table with the same id
    and seed, and exc_single gives the same report whichever suites are
    selected."""
    good = corpus_by_id["n4_laminar"].fn
    bad = mutate(good, 0, 1)
    for suites in (ALL_SUITES, ("exc_single",), ("exc_single", "corollary1")):
        cfg = SuiteConfig(suites=suites)
        for f in (good, bad, good):
            want = check_exc_single(f, instance_id="x")
            got = cli._INSTANCE_SUITES["exc_single"]("x", f, cfg, 0)
            assert got.to_json_line() == want.to_json_line()
            lemmas = cli._INSTANCE_SUITES["lemmas_2_8"]("x", f, cfg, 0)
            assert lemmas.passed == want.passed
            corollary = cli._INSTANCE_SUITES["corollary1"]("x", f, cfg, 0)
            assert corollary.verdict == want.verdict
    assert exchange._sweeps.cache_info().currsize <= 1
    assert exchange.exc_multi_reports.cache_info().currsize <= 1
    assert exchange._domain_plan.cache_info().currsize <= 1


@pytest.mark.parametrize("instance_id", ["n4_laminar", "n5_partition", "n8_wbasis_uniform_r4"])
def test_exchange_suites_build_one_value_table(corpus_by_id, instance_id, monkeypatch):
    """The six exchange suites of one instance build ``moves.value_table``
    once, for f: m_concave_lift is decided on f and builds no lift."""
    f = corpus_by_id[instance_id].fn
    suites = ("exc_single", "exc_multi_bounded", "exc_multi_unbounded", "corollary1",
              "m_concave_lift", "lemmas_2_8")
    for cache in (exchange._sweeps, exchange.exc_multi_reports, moves.value_table):
        cache.cache_clear()
    monkeypatch.setattr(exchange, "lift", lambda f: pytest.fail("lift was called"))
    reports = cli._instance_reports((0, instance_id, f, SuiteConfig(suites=suites)))
    assert all(r.passed for r in reports)
    assert moves.value_table.cache_info().misses == 1
    # exc_single sweeps; corollary1, m_concave_lift and both reads of lemmas_2_8 hit.
    assert exchange._sweeps.cache_info()[:2] == (4, 1)  # hits, misses


def test_lemmas_2_8_prints_the_same_lines_on_both_sides_of_the_gate(tmp_path, monkeypatch,
                                                                     capsys):
    """``check --suites exc_single,lemmas_2_8`` on a uniform valuated
    matroid with n = 10 (252 bases) prints the same lines whether the
    restriction facts read the interval table or, with the gate at 0, the
    moves. (The moves take about 5 s on the n = 12 analog, so n = 10.)"""
    path = tmp_path / "u10.json"
    store(weighted_basis_valuation(uniform_matroid(10, 5), (3, 1, 4, 1, 5, 9, 2, 6, 5, 3)),
          path)
    outs = []
    for gate in (exchange._INTERVAL_BYTES, 0):
        monkeypatch.setattr(exchange, "_INTERVAL_BYTES", gate)
        assert main(["check", "--suites", "exc_single,lemmas_2_8", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert [json.loads(line)["verdict"] for line in outs[0].splitlines()] == ["PASS", "PASS"]


@pytest.mark.parametrize("flag", [["--mode", "real"], ["--tol", "0.5"]])
def test_removed_flags_are_refused(flag):
    with pytest.raises(SystemExit) as exc:
        main(["check", *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag, value", [("gen", "--jobs", "2"),
                                                  ("gen", "--suites", "exc_single"),
                                                  ("falsify", "--jobs", "2"),
                                                  ("falsify", "--suites", "exc_single")])
def test_flags_a_command_does_not_read_are_refused(tmp_path, capsys, command, flag, value):
    """``gen`` and ``falsify`` read neither --jobs nor --suites, and took
    both without a word; argparse now exits 2 on them. The config file is
    shared by every command, so its jobs and suites fields stay accepted."""
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    cfg = write_config(tmp_path, jobs=2, suites="exc_single")
    out = str(tmp_path / "out")
    assert main([command, "--config", cfg, "--out", out]
                + (["--trials", "5"] if command == "falsify" else [])) == 0


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
    same seed and trials (``SuiteConfig.n_range``, (3, 5), not the library
    default (2, 5)); the corpus sweep is stubbed out."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_verification.py"
    spec = importlib.util.spec_from_file_location("run_verification", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "cmd_gen", lambda cfg: None)
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
