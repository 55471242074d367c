#!/usr/bin/env python3
"""Run the benchmark over several seeds and report, per end-to-end
metric, the median and the spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) over the median.

    python3 perfbench/spread.py --workloads grid,dual_scan --seeds 1-10

Runs are serial. The summary is printed and written to
``perfbench/out/spread.json``. With ``--record`` the medians and spreads
are also stored under ``end_to_end`` in the trajectory point of the
current git commit in ``perfbench/trajectory.json`` (a new point if there
is none).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import machine, point_label

HERE = Path(__file__).resolve().parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "spread": spread,
                                       "bound": bounds[name], "values": vals}
            print(f"  {workload:10s} {name:12s} median {med:10.5g}  spread {spread:7.4f}"
                  f"  (bound {bounds[name]}, a third {bounds[name] / 3:.4f})", flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(summary, indent=1) + "\n")
    if args.record:
        path = HERE / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        label = point_label()
        point = next((p for p in trajectory if p["label"] == label), None)
        if point is None:
            point = {"label": label, "machine": machine()}
            trajectory.append(point)
        point["end_to_end"] = {
            "seconds": args.seconds, "seeds": args.seeds,
            "workloads": {w: {m: {"median": v["median"], "spread": v["spread"]}
                              for m, v in metrics.items()}
                          for w, metrics in summary.items()}}
        path.write_text(json.dumps(trajectory, indent=1) + "\n")


if __name__ == "__main__":
    main()
