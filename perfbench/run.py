#!/usr/bin/env python3
"""Benchmark of the mconcave verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
A workload's round is a fixed list of ops made from the seed (see
``settings.json``). A run repeats the round ``S // round_ref_s`` times (at
least once), each time in a fresh worker process, serially, so the parent
and a change do identical work at equal settings and no state carries
from one repeat to the next. A worker that runs ``WORKER_LIMIT`` times
longer than planned is stopped.

``--trace 0`` prints the end-to-end metrics, in reference seconds: each
time is scaled by ``CAL_REF_S`` over the time of
``worker.calibrate(kind)``, a fixed piece of work timed in the same
process just after set-up, and just before and after each op. On a
shared host the speed of the cores drifts by up to half over tens of
seconds, and the scaling takes that out. ``round_s`` is the median over
the repeats of one round's time; ``setup_s`` the median over several
fresh processes of import plus input generation. ``--trace 1`` runs one
round untraced and then one round traced, and prints the per-layer
metrics.
Every op's output is checked, and every repeat must give the same
outputs; any failure, or a worker that crashes or is stopped, makes the
exit code 1. Exit code 2 means there is no program to run. The last line
of standard output is the JSON result; the full record, with the machine
and the inputs, is written to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
# About what worker.calibrate(kind) takes on a quiet 2-core Xeon.
CAL_REF_S = 0.025
# A worker is stopped after WORKER_LIMIT times its planned seconds, plus
# WORKER_SLACK_S for start-up, so a slower program is measured, not stopped.
WORKER_LIMIT = 10
WORKER_SLACK_S = 60

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

# Spans reported by name: calls and/or self seconds.
PER_LAYER_SPANS = {
    "duality.conjugate": ("calls", "self_s"),
    "duality.check_conjugate_submodular": ("self_s",),
    "duality.check_cross_submodular": ("self_s",),
    "duality.check_strong_quotient": ("self_s",),
    "core.restrict_by_size": ("calls",),
    "duality.fenchel_gap": ("calls", "self_s"),
    "exchange.check_m_concave": ("self_s",),
    "exchange.lift": ("self_s",),
    "duality.build_restrictions": ("calls", "self_s"),
    "exchange.check_exc_multi": ("self_s",),
    "exchange.check_exc_single": ("calls", "self_s"),
    "exchange._best_multi": ("calls", "self_s"),
    "exchange._multi_pass_margin": ("self_s",),
    "core.SetFn.init": ("calls", "self_s"),
    "families.random_table": ("self_s",),
    "families.mutate": ("self_s",),
    "cli.falsify_campaign": ("self_s",),
    "reporting.to_json_line": ("self_s",),
}
GRID_SIZES = range(3, 9)
SUITES = ("exc_single", "exc_multi_bounded", "exc_multi_unbounded",
                   "corollary1", "m_concave_lift", "lemmas_2_8", "duality_grid")
LAYERS = ("cli", "exchange", "duality", "core", "families", "reporting")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, fields in PER_LAYER_SPANS.items():
        for field in fields:
            units[f"{span}.{field}"] = "count" if field == "calls" else "s"
    units["duality.conjugate.unique_frac"] = "ratio"
    units["duality.fenchel_gap.nonattained_s"] = "s"
    units["duality.fenchel_gap.points_scanned"] = "count"
    units["exchange.triples_checked"] = "count"
    units["falsify.gate_pass_frac"] = "ratio"
    for n in GRID_SIZES:
        units[f"suite.duality_grid.n{n}"] = "s"
    for suite in SUITES:
        units[f"suite.{suite}.s"] = "s"
    units["families.default_corpus.s"] = "s"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


# ---------------------------------------------------------------------------


class WorkerError(RuntimeError):
    pass


def worker(mode, workload, seed, planned_s):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_SLACK_S + WORKER_LIMIT * planned_s)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker for {workload} ran more than {WORKER_LIMIT} times "
                          f"its planned {planned_s:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker for {workload} exited with {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples):
    """(label, value): the highest percentile with at least ten samples
    beyond it, or None when there are fewer than 20 samples."""
    if len(samples) < 20:
        return None
    xs = sorted(samples)
    k = len(xs) - 11
    return f"p{int(100 * (k + 1) / len(xs))}", xs[k]


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def point_label():
    """A trajectory point is labelled by the commit it measures."""
    return f"commit {git_commit()[:7]}"


def repeats_for(conf, seconds):
    return max(1, int(seconds // conf["round_ref_s"]))


# ---------------------------------------------------------------------------


def scaled_round_s(run):
    """A round's time in reference seconds: each op's time, scaled by the
    mean of the calibrations just before and just after it."""
    cal = run["cal_s"]
    return sum(t * CAL_REF_S / ((cal[j] + cal[j + 1]) / 2)
               for t, j in zip(run["op_s"], run["op_cal"]))


def end_to_end(workload, seed, repeats, conf):
    runs = [worker("run", workload, seed, conf["round_ref_s"]) for _ in range(repeats)]
    workers = runs + [worker("setup", workload, seed, 0)
                      for _ in range(SETUP_SAMPLES - repeats)]
    setups = [w["setup_s"] * CAL_REF_S / w["setup_cal_s"] for w in workers]
    rounds = [scaled_round_s(r) for r in runs]
    ops = runs[0]["ops"]
    failed = sum(r["failed"] for r in runs)
    reasons = [why for r in runs for why in r["reasons"]]
    differ = [i for i, ds in enumerate(zip(*(r["digests"] for r in runs))) if len(set(ds)) > 1]
    if differ:
        failed = min(ops * repeats, failed + len(differ))
        reasons.append(f"repeats of the same round differ at ops {differ[:10]}")
    round_s = statistics.median(rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "round_s": round_s,
        "ops_per_s": ops / round_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    info = {"repeats": repeats, "ops": ops, "failed": failed,
            "failed_frac": failed / (ops * repeats),
            "round_s": rounds, "wall_s": [r["wall_s"] for r in runs],
            "setup_s": setups, "setup_wall_s": [w["setup_s"] for w in workers],
            "speed": [s / r["wall_s"] for s, r in zip(rounds, runs)],
            "calibrations": sum(len(r["cal_s"]) for r in runs)}
    if workload != "falsify":
        # A campaign's trials cannot be timed one by one from outside; the
        # op percentiles are in wall seconds, over every repeat.
        op_ms = [1000 * t for r in runs for t in r["op_s"]]
        info["op_count"] = len(op_ms)
        info["op_p50_ms"] = statistics.median(op_ms)
        tail = tail_percentile(op_ms)
        info["op_tail_ms"] = None if tail is None else tail[1]
        info["op_tail_pct"] = None if tail is None else tail[0]
    info["counts"] = runs[0]["counts"]
    return metrics, ops * repeats, failed, reasons[:20], info


def per_layer(workload, seed, conf):
    plain = worker("run", workload, seed, conf["round_ref_s"])
    traced = worker("trace", workload, seed, conf["round_ref_s"])
    failed = max(plain["failed"], traced["failed"])
    reasons = plain["reasons"] + traced["reasons"]
    differ = [i for i, (a, b) in enumerate(zip(plain["digests"], traced["digests"])) if a != b]
    if differ or len(plain["digests"]) != len(traced["digests"]):
        failed = min(traced["ops"], failed + max(1, len(differ)))
        reasons.append(f"traced and untraced outputs differ at ops {differ[:10]}")

    spans = traced["spans"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    metrics = {}
    for span, fields in PER_LAYER_SPANS.items():
        for field in fields:
            metrics[f"{span}.{field}"] = spans.get(span, zero)[field]
    calls, distinct = traced["conjugate_distinct"]
    metrics["duality.conjugate.unique_frac"] = distinct / calls if calls else 0.0
    metrics["duality.fenchel_gap.nonattained_s"] = traced["fenchel_nonattained_s"]
    metrics.update(traced["counts"])
    for n in GRID_SIZES:
        metrics[f"suite.duality_grid.n{n}"] = spans.get(f"suite.duality_grid.n{n}", zero)["s"]
    for suite in SUITES:
        if suite == "duality_grid":
            total = sum(spans.get(f"suite.duality_grid.n{n}", zero)["s"] for n in GRID_SIZES)
        else:
            total = spans.get(f"suite.{suite}", zero)["s"]
        metrics[f"suite.{suite}.s"] = total
    # Input generation runs before the first op, so outside every op.
    metrics["families.default_corpus.s"] = \
        traced["setup_spans"].get("families.default_corpus", zero)["s"]
    for layer in LAYERS:
        # Suite runners are functions of mconcave.cli.
        metrics[f"layer.{layer}.self_s"] = sum(
            v["self_s"] for k, v in spans.items()
            if {"suite": "cli"}.get(k.split(".")[0], k.split(".")[0]) == layer)
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    info = {"ops": traced["ops"], "failed": failed, "failed_frac": failed / traced["ops"],
            "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
            "spans_recorded": traced["spans_recorded"], "trace_file": traced["trace_file"],
            "spans": spans}
    return metrics, traced["ops"], failed, reasons, info


def main(argv=None):
    settings = json.loads((HERE / "settings.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(settings["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mconcave" / "__init__.py").is_file():
        print(f"error: no mconcave package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    conf = settings["workloads"][args.workload]
    repeats = repeats_for(conf, args.seconds)
    try:
        if args.trace:
            metrics, attempted, failed, reasons, info = per_layer(
                args.workload, args.seed, conf)
            units = per_layer_units()
        else:
            metrics, attempted, failed, reasons, info = end_to_end(
                args.workload, args.seed, repeats, conf)
            units = END_TO_END
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    inputs = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "repeats": 1 if args.trace else repeats, "settings": conf}
    record = {"machine": machine(), "inputs": inputs, "trace": args.trace,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
              "info": info, "failures": reasons}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} repeats={inputs['repeats']} "
          f"trace={args.trace}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print("inputs " + json.dumps(inputs, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_frac':40s} {info['failed_frac']:>14.6g} ratio "
              f"({failed} of {attempted} ops)")
        print(f"  {'wall_s (unscaled, median)':40s} {statistics.median(info['wall_s']):>14.6g} s "
              f"(host speed {statistics.median(info['speed']):.3g} of reference)")
        if "op_p50_ms" in info:
            print(f"  {'op_p50_ms':40s} {info['op_p50_ms']:>14.6g} ms "
                  f"(n={info['op_count']} ops)")
            tail = "n/a (fewer than 20 ops)" if info["op_tail_ms"] is None else \
                f"{info['op_tail_ms']:>14.6g} ms ({info['op_tail_pct']}, n={info['op_count']})"
            print(f"  {'op_tail_ms':40s} {tail}")
        else:
            print("  op_p50_ms / op_tail_ms: n/a (a campaign's trials are not timed one by one)")
    for reason in reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
