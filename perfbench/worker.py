"""One measured process of the benchmark; ``run.py`` starts it.

    python3 perfbench/worker.py MODE WORKLOAD SEED

MODE is ``setup`` (import and input generation only), ``run`` (one
untraced round, each op timed) or ``trace`` (one traced round; spans are
written to ``perfbench/out/``). The result is printed as one JSON line.

``setup`` and ``run`` also time a fixed piece of work that does not use
the program, ``calibrate(kind)``, of the kind the workload's settings
name: a few times right after set-up, during the round between ops
every ``CALIBRATE_EVERY_S`` seconds or more rarely, and after the last
op, so that ``run.py`` can scale each op's time by the calibrations just
before and just after it.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import workloads  # noqa: E402  (imports mconcave and numpy)

CALIBRATE_EVERY_S = 0.5
SETUP_CALIBRATIONS = 3


@functools.cache
def _calibration_arrays(n=5, rows=24_000):
    points = (np.arange(rows * n, dtype=np.int64).reshape(rows, n) * 7919) % 9 - 4
    indicator = np.array([[m >> j & 1 for m in range(1 << n)] for j in range(n)],
                         dtype=np.int64)
    values = np.arange(1 << n, dtype=np.int64) * 37 % 11
    return points, indicator, values, np.arange(1 << n)


def calibrate(kind):
    """Seconds taken by a fixed piece of work, about 20 to 35 ms on a
    2-core Xeon. A host under contention slows kinds of work unequally, so
    each workload is calibrated with work like its own: ``interpreter``
    (small Python objects and short numpy calls) or ``arrays`` (an int64
    matrix product, column gathers and row maxima over arrays of
    megabytes, as in the batched conjugate)."""
    if kind == "arrays":
        points, indicator, values, masks = _calibration_arrays()
        t = time.perf_counter()
        sums = points @ indicator
        g1 = (values - sums[:, masks]).max(axis=1)
        g2 = (values + sums[:, masks[::-1]]).max(axis=1)
        int(np.argmin(g1 + g2))
        return time.perf_counter() - t
    t = time.perf_counter()
    acc, table = 0, {}
    for i in range(100_000):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 1023] = (i, acc)
    a = np.arange(2048.0)
    for _ in range(500):
        a = np.maximum(a - 1.0, a * 0.5)
    return time.perf_counter() - t


def main(mode, workload, seed):
    settings = workloads.load_settings()
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        workloads.install_trace(tracer)
    ops = workloads.build(workload, seed, settings)
    setup_s = time.perf_counter() - T0
    kind = settings["workloads"][workload]["calibrate"]
    if tracer is None:
        setup_cal_s = statistics.median(calibrate(kind) for _ in range(SETUP_CALIBRATIONS))
    if mode == "setup":
        return {"setup_s": setup_s, "setup_cal_s": setup_cal_s}

    results = []
    op_s = []
    cal_s = []
    op_cal = []  # per op, the index in cal_s of the calibration before it
    last_cal = float("-inf")
    for i, op in enumerate(ops):
        if tracer is None:
            if time.perf_counter() - last_cal >= CALIBRATE_EVERY_S:
                cal_s.append(calibrate(kind))
                last_cal = time.perf_counter()
            op_cal.append(len(cal_s) - 1)
        if tracer is not None:
            tracer.begin_op(i)
            run = tracer.wrap(op.run, f"op.{workload}")
            t = time.perf_counter()
            results.append(run())
            op_s.append(time.perf_counter() - t)
            tracer.end_op()
        else:
            t = time.perf_counter()
            results.append(op.run())
            op_s.append(time.perf_counter() - t)
    if tracer is None:
        cal_s.append(calibrate(kind))
    wall_s = sum(op_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    reference = workloads.load_reference()
    failed = 0
    reasons = []
    for op, res in zip(ops, results):
        bad, why = workloads.check(workload, seed, op, res, reference)
        failed += bad
        reasons.extend(why)

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": op_s,
        "ops": sum(op.weight for op in ops),
        "failed": failed,
        "reasons": reasons[:20],
        "peak_rss_mb": peak_rss_mb,
        "digests": [workloads.digest(workload, res) for res in results],
        "counts": workloads.counts(workload, ops, results),
    }
    if tracer is None:
        out["setup_cal_s"] = setup_cal_s
        out["cal_s"] = cal_s
        out["op_cal"] = op_cal
    else:
        out["spans"] = tracer.summary()
        out["setup_spans"] = tracer.summary(setup=True)
        out["spans_recorded"] = len(tracer.start)
        calls, distinct = tracer.distinct("duality.conjugate")
        out["conjugate_distinct"] = [calls, distinct]
        nonattained = {i for i, res in enumerate(results)
                       if workload == "dual_scan" and not res.certified}
        out["fenchel_nonattained_s"] = tracer.seconds_where("duality.fenchel_gap", nonattained)
        path = workloads.HERE / "out" / f"trace-{workload}.npz"
        tracer.save(path)
        out["trace_file"] = str(path.relative_to(workloads.HERE.parent))
    return out


if __name__ == "__main__":
    mode, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    print(json.dumps(main(mode, workload, seed)))
