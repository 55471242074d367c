"""Tests of the benchmark itself: the tracer, the correctness gate, and
that tracing changes no output. Run with

    python3 -m pytest perfbench/tests -q
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from mconcave import cli, duality
from mconcave.core import PriceVector
from tracer import Tracer

SETTINGS = workloads.load_settings()
REFERENCE = workloads.load_reference()


def small_ops(workload, seed):
    """Cheap versions of the four workloads (a few seconds in total)."""
    if workload == "grid":
        return [op for op in workloads.build("grid", seed, SETTINGS) if op.label[1] == "3"]
    if workload == "exchange":
        instances = workloads._corpus_instances()
        cfg = cli.SuiteConfig(seed=seed,
                              suites=tuple(SETTINGS["workloads"][workload]["suites"]))
        order = [k for k, (_, f) in enumerate(instances) if f.n <= 5]
        return workloads._suite_ops(instances, order, cfg)
    settings = copy.deepcopy(SETTINGS)
    settings["workloads"]["falsify"].update(trials=500, campaigns=3)
    settings["workloads"]["dual_scan"].update(d=2, draws=1)
    return workloads.build(workload, seed, settings)


def run_ops(workload, seed, traced):
    tracer = None
    if traced:
        tracer = Tracer()
        workloads.install_trace(tracer)
    try:
        ops = small_ops(workload, seed)
        results = []
        for i, op in enumerate(ops):
            if tracer:
                tracer.begin_op(i)
            results.append(op.run())
            if tracer:
                tracer.end_op()
    finally:
        if tracer:
            tracer.uninstall()
    return ops, results, tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_output(workload):
    ops, plain, _ = run_ops(workload, 0, traced=False)
    _, traced, tracer = run_ops(workload, 0, traced=True)
    assert [workloads.digest(workload, r) for r in plain] == \
        [workloads.digest(workload, r) for r in traced]
    assert tracer.summary(), "the traced run recorded no spans"
    for op, res in zip(ops, plain):
        assert workloads.check(workload, 0, op, res, REFERENCE) == (0, [])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_across_traced_runs(workload):
    def counts():
        ops, results, tracer = run_ops(workload, 3, traced=True)
        calls = {k: v["calls"] for k, v in tracer.summary().items()}
        return calls, tracer.distinct("duality.conjugate"), \
            workloads.counts(workload, ops, results)
    assert counts() == counts()


def test_uninstall_restores_every_binding():
    before = (cli.check_exc_single, duality.conjugate, cli._INSTANCE_SUITES["lemmas_2_8"],
              cli.falsify_campaign)
    tracer = Tracer()
    workloads.install_trace(tracer)
    assert cli.check_exc_single is not before[0]
    assert cli._INSTANCE_SUITES["lemmas_2_8"] is not before[2]
    tracer.uninstall()
    assert (cli.check_exc_single, duality.conjugate, cli._INSTANCE_SUITES["lemmas_2_8"],
            cli.falsify_campaign) == before


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    tracer.begin_op(0)
    outer()
    tracer.end_op()
    s = tracer.summary()
    assert s["inner"]["calls"] == 3 and s["outer"]["calls"] == 1
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["s"] - s["inner"]["s"])
    assert 0 <= s["outer"]["self_s"] < s["outer"]["s"]


def test_setup_spans_are_kept_out_of_the_op_summary():
    tracer = Tracer()
    f = tracer.wrap(lambda x: x, "f", key=lambda x: x)
    f(1)
    tracer.begin_op(0)
    f(2)
    f(2)
    tracer.end_op()
    assert tracer.summary()["f"]["calls"] == 2
    assert tracer.summary(setup=True)["f"]["calls"] == 1
    assert tracer.distinct("f") == (2, 1)


def test_rounds_are_the_named_instances():
    grid = workloads.build("grid", 1, SETTINGS)
    assert [op.label for op in grid] == SETTINGS["workloads"]["grid"]["instances"]
    names = [op.label for op in workloads.build("exchange", 1, SETTINGS)]
    left_out = SETTINGS["workloads"]["exchange"]["leave_out"]
    assert names == [iid for iid, _ in workloads._corpus_instances() if iid not in left_out]


def test_gate_counts_a_false_falsification():
    ops, results, _ = run_ops("grid", 0, traced=False)
    line = json.loads(results[0])
    line.update(verdict="FAIL", counterexample={"X": [1]})
    bad = json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
    assert workloads.check("grid", 0, ops[0], bad, REFERENCE)[0] == 1


def test_gate_counts_changed_report_bytes():
    ops, results, _ = run_ops("exchange", 0, traced=False)
    changed = results[0].replace('"triples_checked":', '"triples_checked":1', 1)
    assert workloads.check("exchange", 0, ops[0], changed, REFERENCE)[0] == 1


def test_gate_counts_counterexamples():
    ops, results, _ = run_ops("falsify", 5, traced=False)
    out = json.loads(results[0])
    out["counterexamples"] = [{"trial": 1}, {"trial": 2}]
    assert workloads.check("falsify", 5, ops[0], json.dumps(out), REFERENCE)[0] == 2


def test_gate_checks_every_dual_result():
    ops, results, _ = run_ops("dual_scan", 1, traced=False)
    k = next(i for i, r in enumerate(results) if r.certified)
    op, res = ops[k], results[k]
    for wrong in (dataclasses.replace(res, certified=False),
                  dataclasses.replace(res, dual=res.dual - 1, gap=-1),
                  dataclasses.replace(res, dual=res.dual + 1)):
        assert workloads.check("dual_scan", 1, op, wrong, REFERENCE)[0] == 1
    # A certified point q whose dual is recomputed correctly but exceeds
    # the primal: the gap must still be 0.
    g1, g2 = op.inputs

    def dual_at(q):
        return duality.conjugate(g1, q).value + duality.conjugate(g2, -q).value
    q = res.attaining_q
    moved = (PriceVector(tuple(x + s * (j == k) for j, x in enumerate(q.entries)))
             for k in range(q.n) for s in (1, -1))
    worse = next(p for p in moved if dual_at(p) > res.primal)
    wrong = dataclasses.replace(res, attaining_q=worse, dual=dual_at(worse),
                                gap=dual_at(worse) - res.primal)
    assert workloads.check("dual_scan", 1, op, wrong, REFERENCE)[0] == 1
    k = next(i for i, r in enumerate(results) if not r.certified)
    assert ops[k].label == "n4_wbasis_uniform+n4_wbasis_cycle"
    flagless = dataclasses.replace(results[k], boundary=False)
    assert workloads.check("dual_scan", 1, ops[k], flagless, REFERENCE)[0] == 1


THREE_ROUNDS = str(3 * SETTINGS["workloads"]["grid"]["round_ref_s"])


def fake_worker(failed, digests):
    calls = iter(range(1000))

    def worker(mode, workload, seed, planned_s):
        i = next(calls)
        # The host runs at half the reference speed in the first worker.
        cal = run.CAL_REF_S * (2 if i == 0 else 1)
        return {"setup_s": 0.5 * cal / run.CAL_REF_S, "setup_cal_s": cal,
                "wall_s": 2.0 + i, "cal_s": [cal, cal], "op_cal": [0, 0], "op_s": [1.0, 1.0 + i],
                "ops": 2,
                "failed": failed, "reasons": ["x: FAIL"] * failed, "peak_rss_mb": 50.0,
                "digests": digests(i), "counts": {}}
    return worker


def test_failed_op_makes_exit_code_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "worker", fake_worker(1, lambda i: ["a", "b"]))
    assert run.main(["--workload", "grid", "--seed", "1", "--seconds", "1"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1 and last["attempted"] == 2


def test_times_are_scaled_to_the_reference_speed(monkeypatch, capsys):
    monkeypatch.setattr(run, "worker", fake_worker(0, lambda i: ["a", "b"]))
    assert run.main(["--workload", "grid", "--seed", "1", "--seconds", THREE_ROUNDS]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # Three repeats of 2, 3 and 4 wall seconds; the first ran at half speed.
    assert last["attempted"] == 6
    assert last["metrics"]["round_s"]["value"] == pytest.approx(3.0)
    assert last["metrics"]["ops_per_s"]["value"] == pytest.approx(2 / 3.0)
    assert last["metrics"]["setup_s"]["value"] == pytest.approx(0.5)


def test_repeats_that_differ_fail(monkeypatch, capsys):
    monkeypatch.setattr(run, "worker", fake_worker(0, lambda i: ["a", "b" if i else "c"]))
    assert run.main(["--workload", "grid", "--seed", "1", "--seconds", THREE_ROUNDS]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid",
                           "--seed", "1", "--seconds", "10", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_percentile_leaves_ten_beyond():
    assert run.tail_percentile(list(range(19))) is None
    label, value = run.tail_percentile(list(range(100)))
    assert (label, value) == ("p90", 89)
    assert sum(1 for x in range(100) if x > value) == 10


def test_benchmark_json_names_every_printed_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS) \
        == set(SETTINGS["workloads"])
