#!/usr/bin/env python3
"""Run the whole verification pipeline on the built-in corpus: write the
instance files, sweep every suite, and finish with a falsification
campaign. Prints a per-suite summary and exits nonzero on any FAIL.

Usage:
    python3 scripts/run_verification.py [--out DIR] [--seed N]
                                        [--trials N] [--jobs N]
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

from mconcave.cli import SuiteConfig, cmd_gen, falsify_campaign, load_instances, run_check


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="verification_out", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=100_000,
                    help="falsification trials")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    out = Path(args.out)
    try:
        cfg = SuiteConfig(seed=args.seed, jobs=args.jobs, trials=args.trials,
                          out=str(out / "reports.jsonl"))
    except ValueError as e:
        ap.error(str(e))

    print(f"writing corpus to {out} ...")
    cmd_gen(cfg, out)
    instances = load_instances([str(out)])
    print(f"loaded {len(instances)} instances "
          f"(n = {sorted({f.n for _, f in instances})})")

    t0 = time.monotonic()
    reports = run_check(instances, cfg)
    elapsed = time.monotonic() - t0
    with open(out / "reports.jsonl", "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(r.to_json_line() + "\n")

    by_suite = Counter(r.suite for r in reports)
    fails = Counter(r.suite for r in reports if not r.passed)
    print(f"\n{len(reports)} reports in {elapsed:.1f}s "
          f"-> {out / 'reports.jsonl'}")
    for suite in sorted(by_suite):
        status = "FAIL" if fails.get(suite) else "PASS"
        print(f"  {status}  {suite:22s} {by_suite[suite]:4d} reports, "
              f"{fails.get(suite, 0)} failing")

    print(f"\nfalsification campaign: {cfg.trials} trials ...")
    t0 = time.monotonic()
    outcome = falsify_campaign(cfg.trials, cfg.seed, n_range=cfg.n_range)
    print(f"  {outcome.singles_passed} candidates passed the single-exchange "
          f"gate, {len(outcome.counterexamples)} counterexamples "
          f"({time.monotonic() - t0:.1f}s)")

    ok = not fails and not outcome.counterexamples
    print("\nALL SUITES PASS" if ok else "\nFAILURES DETECTED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
