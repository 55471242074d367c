#!/usr/bin/env python3
"""Re-measure the ROADMAP baseline table and record the seed-0 reference
outputs that the benchmark compares against.

    PYTHONPATH=src python3 perfbench/baseline.py

Runs every suite serially over the built-in corpus at seed 0 with the
default SuiteConfig, timing each suite runner per instance, then the
`fenchel` pairs and a 2,000-trial falsification campaign. Writes:

* ``perfbench/reference.json``: sha256 of each op's output bytes for
  the `grid` (with its own ``samples``), `exchange` (every corpus
  instance) and `falsify` workloads at seed 0, and of the whole reports;
* a trajectory point, labelled by the git commit, in
  ``perfbench/trajectory.json`` (it replaces a point of the same commit).

Takes about two minutes on a 2-core Xeon.
"""

import json
import sys
import time

import workloads
from run import machine, point_label
from mconcave import cli

EXCHANGE_SUITES = tuple(workloads.load_settings()["workloads"]["exchange"]["suites"])


def main():
    instances = [(i.instance_id, i.fn) for i in cli.default_corpus()]
    cfg = cli.SuiteConfig(seed=0)
    suite_s = {s: 0.0 for s in cli.ALL_SUITES}
    grid_by_n = {}
    lines = {}
    for k, (iid, f) in enumerate(instances):
        seed = (cfg.seed ^ k) & cli.MASK64
        for suite in cli.ALL_SUITES:
            if suite == "fenchel":
                continue
            t = time.perf_counter()
            report = cli._INSTANCE_SUITES[suite](iid, f, cfg, seed)
            dt = time.perf_counter() - t
            suite_s[suite] += dt
            if suite == "duality_grid":
                grid_by_n[f.n] = grid_by_n.get(f.n, 0.0) + dt
            lines[iid, suite] = report.to_json_line() + "\n"
        print(f"{iid}: done", file=sys.stderr, flush=True)
    t = time.perf_counter()
    fenchel = cli.run_fenchel_pairs(instances, cfg)
    suite_s["fenchel"] = time.perf_counter() - t
    t = time.perf_counter()
    cli.falsify_campaign(2000, 0)
    falsify_2000_s = time.perf_counter() - t

    def op_bytes(iid, suites):
        return "".join(lines[iid, s] for s in suites)

    settings = workloads.load_settings()
    reference = {"seed": 0, "grid": {}, "exchange": {}, "falsify": {}}
    grid = [(op.label, op.run()) for op in workloads.build("grid", 0, settings)]
    for iid, out in grid:
        reference["grid"][iid] = workloads.sha256(out)
    for iid, _ in instances:
        reference["exchange"][iid] = workloads.sha256(op_bytes(iid, EXCHANGE_SUITES))
    reference["grid_report_sha256"] = workloads.sha256("".join(out for _, out in grid))
    reference["exchange_report_sha256"] = workloads.sha256(
        "".join(op_bytes(iid, EXCHANGE_SUITES) for iid, _ in instances))
    for op in workloads.build("falsify", 0, settings):
        reference["falsify"][op.label] = workloads.sha256(op.run())
    if not all(r.passed for r in fenchel):
        sys.exit("error: a fenchel pair failed at seed 0; no reference written")
    (workloads.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")

    point = {
        "label": point_label(),
        "machine": machine(),
        "config": "serial, default SuiteConfig, seed 0, built-in corpus",
        "suite_s": suite_s,
        "duality_grid_by_n_s": {f"n{n}": s for n, s in sorted(grid_by_n.items())},
        "falsify_2000_trials_s": falsify_2000_s,
    }
    path = workloads.HERE / "trajectory.json"
    trajectory = json.loads(path.read_text()) if path.exists() else []
    trajectory = [p for p in trajectory if p["label"] != point["label"]] + [point]
    path.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(json.dumps(point, indent=1))


if __name__ == "__main__":
    main()
