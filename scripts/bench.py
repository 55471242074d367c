#!/usr/bin/env python3
"""A layer profile of the checkout: per suite and n in-process, and the
default CLI commands in fresh processes, written as one JSON file.

Suites run on the built-in corpus with the default ``SuiteConfig``,
each instance with the per-table caches (those of one entry) cleared
first, so that every suite pays for its own sweep and value table. A
suite's time at n is the sum over the corpus instances with that n
(``fenchel``: the same-n pairs among them). Those caches hide what
one table keeps for the next, so one more pass runs the selected
exchange suites over the whole corpus in its order with the caches kept,
as ``mconcave check`` runs them, clearing them once per run. Another pass
runs ``falsify_campaign(5000, s)`` in-process for s = 0..k - 1, the
campaign without the start-up that is most of the ``falsify`` command's
time. The commands are
``mconcave check``, ``mconcave check --jobs 2`` and ``mconcave falsify``
with their defaults, and ``python -c "import mconcave.cli"``, the start-up
each of them pays, all in fresh processes of one environment; each run
records the sha256 of its output. Every
number is over k runs: median, min, max and interquartile range, in
seconds. The host (CPU count, Python and numpy versions, commit and
whether the tree has uncommitted changes) and the load average before
and after go in too: on a shared machine the spread is part of the
measurement.

``--compare OLD NEW`` prints, for each suite at each n, the kept pass and
each command in both profiles, the change of the median next to the larger of the
two interquartile ranges, and marks a change inside that range as
noise. It decides no gate: the exit code is 0.

Usage:
    python3 scripts/bench.py --out BENCH.json [-k 5] [--suites S,...]
    python3 scripts/bench.py --compare OLD.json NEW.json
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from mconcave import cli, default_corpus, duality, exchange, moves  # noqa: E402

# The interpreter's arguments of each fresh-process run.
COMMANDS = {
    "check": ["-m", "mconcave", "check"],
    "check_jobs2": ["-m", "mconcave", "check", "--jobs", "2"],
    "falsify": ["-m", "mconcave", "falsify"],
    "import_cli": ["-c", "import mconcave.cli"],
}


def spread(times):
    """median, min, max and interquartile range of ``times`` (seconds)."""
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (times[0],) * 3
    return {"median_s": statistics.median(times), "min_s": min(times), "max_s": max(times),
            "iqr_s": q3 - q1, "runs": len(times)}


def clear_table_caches():
    """Empty every cache of one entry: those that hold the last table's
    sweeps, reports and value table. Caches of static tables stay."""
    for module in (cli, duality, exchange, moves):
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.cache_info().maxsize == 1:
                value.cache_clear()


def time_suite(suite, group, cfg):
    """Seconds of one run of ``suite`` over ``group``, (index, id, f)
    triples of the corpus, each seeded as ``mconcave check`` seeds it."""
    if suite == "fenchel":
        clear_table_caches()
        start = time.perf_counter()
        cli.run_fenchel_pairs([(iid, f) for _, iid, f in group], cfg)
        return time.perf_counter() - start
    total = 0.0
    for index, iid, f in group:
        clear_table_caches()
        start = time.perf_counter()
        cli._INSTANCE_SUITES[suite](iid, f, cfg, (cfg.seed ^ index) & cli.MASK64)
        total += time.perf_counter() - start
    return total


def suite_profile(suites, k):
    cfg = cli.SuiteConfig()
    by_n = defaultdict(list)
    for index, inst in enumerate(default_corpus()):
        by_n[inst.fn.n].append((index, inst.instance_id, inst.fn))
    out = {}
    for suite in suites:
        out[suite] = {}
        for n, group in sorted(by_n.items()):
            if suite == "fenchel" and n > cli.FENCHEL_PAIR_N_LIMIT:
                continue
            times = [time_suite(suite, group, cfg) for _ in range(k)]
            out[suite][str(n)] = {**spread(times), "instances": len(group)}
    return out


def kept_pass(suites, k):
    """Seconds of ``k`` runs of the selected exchange suites over the whole
    corpus in its order, with the caches cleared once per run and kept
    from one instance to the next, as ``mconcave check`` keeps them; None
    when no exchange suite is selected."""
    chosen = tuple(s for s in suites if s not in ("fenchel", "duality_grid"))
    if not chosen:
        return None
    cfg = cli.SuiteConfig(suites=chosen)
    tasks = [(index, inst.instance_id, inst.fn, cfg)
             for index, inst in enumerate(default_corpus())]
    times = []
    for _ in range(k):
        clear_table_caches()
        start = time.perf_counter()
        for task in tasks:
            cli._instance_reports(task)
        times.append(time.perf_counter() - start)
    return {**spread(times), "suites": list(chosen), "instances": len(tasks)}


def campaign_pass(k, trials=5000):
    """Seconds of ``k`` in-process campaigns of ``trials`` trials, seeds 0
    to k - 1, after one more that builds the bases and the plans."""
    cli.falsify_campaign(trials, k)
    times = []
    for seed in range(k):
        start = time.perf_counter()
        cli.falsify_campaign(trials, seed)
        times.append(time.perf_counter() - start)
    return {**spread(times), "trials": trials}


def command_profile(k):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = {}
    for name, args in COMMANDS.items():
        argv = [sys.executable, *args]
        times, digests = [], set()
        for _ in range(k):
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=True)
            times.append(time.perf_counter() - start)
            digests.add(hashlib.sha256(done.stdout).hexdigest())
        out[name] = {**spread(times), "args": args, "sha256": sorted(digests)}
    return out


def git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def host():
    status = git("status", "--porcelain")
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def compare(old, new):
    """The lines of ``--compare``: one per suite and n, then one per kept
    pass and one per command, present in both profiles ``old`` and
    ``new``."""
    rows = [(f"{suite} n={n}", entry, new["suites"][suite][n])
            for suite, by_n in old["suites"].items() if suite in new["suites"]
            for n, entry in sorted(by_n.items(), key=lambda item: int(item[0]))
            if n in new["suites"][suite]]
    rows += [(f"pass {name}", entry, new["passes"][name])
             for name, entry in old.get("passes", {}).items() if name in new.get("passes", {})]
    rows += [(name, entry, new["commands"][name]) for name, entry in old["commands"].items()
             if name in new["commands"]]
    lines = []
    for label, a, b in rows:
        delta, iqr = b["median_s"] - a["median_s"], max(a["iqr_s"], b["iqr_s"])
        line = (f"{label:<24} {a['median_s']:.6f} -> {b['median_s']:.6f} s  "
                f"delta {delta:+.6f} s ({delta / a['median_s']:+.1%})  iqr {iqr:.6f} s")
        if abs(delta) <= iqr:
            line += "  noise"
        if a.get("sha256") != b.get("sha256"):
            line += "  sha256 differs"
        lines.append(line)
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="the JSON file to write")
    ap.add_argument("-k", type=int, default=5, help="runs per number")
    ap.add_argument("--suites", default=",".join(cli.ALL_SUITES),
                    help="comma-separated suites (default: all)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="print the changes from profile OLD to NEW instead")
    args = ap.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args.compare)
        print("\n".join(compare(old, new)))
        return 0
    if not args.out:
        ap.error("--out is required without --compare")
    suites = args.suites.split(",")
    unknown = sorted(set(suites) - set(cli.ALL_SUITES))
    if unknown or args.k < 1:
        ap.error(f"unknown suites {unknown}" if unknown else "-k must be at least 1")
    load = [os.getloadavg()[0]]
    record = {"schema": 1, "host": host(), "k": args.k,
              "suites": suite_profile(suites, args.k), "passes": {},
              "commands": command_profile(args.k)}
    kept = kept_pass(suites, args.k)
    if kept is not None:
        record["passes"]["exchange_caches_kept"] = kept
    record["passes"]["falsify_campaign"] = campaign_pass(args.k)
    load.append(os.getloadavg()[0])
    record["host"]["load_1min"] = load
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
