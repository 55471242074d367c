"""The four benchmark workloads: inputs made from a seed, the ops that run
against the ``mconcave`` package, and the correctness check of each op's
output.

Each workload is a closed loop: one caller runs an op, waits for its
result and only then starts the next. The program receives only the
generated inputs; every check runs after the timed section.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from mconcave import cli, core, duality, exchange, families, reporting
from mconcave.core import NEG_INF, PriceVector

HERE = Path(__file__).resolve().parent
WORKLOADS = ("grid", "exchange", "falsify", "dual_scan")
MASK64 = (1 << 64) - 1


def load_settings():
    with open(HERE / "settings.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_reference():
    """sha256 of report bytes at seed 0, written by ``baseline.py``."""
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    label: str
    weight: int  # ops this counts for: 1, or the trials of a campaign
    run: object  # () -> result
    inputs: tuple = ()


# ---------------------------------------------------------------------------
# Inputs.


def _corpus_instances():
    return [(inst.instance_id, inst.fn) for inst in families.default_corpus()]


def _named(instances, names):
    """Corpus indices of the named instances, in the order given."""
    index = {iid: k for k, (iid, _) in enumerate(instances)}
    return [index[iid] for iid in names]


def fenchel_pairs(instances, n_max):
    """Same-n pairs with n <= n_max, in the order of the `fenchel` suite."""
    eligible = [(iid, f) for iid, f in instances if f.n <= n_max]
    return [(eligible[a], eligible[b])
            for a in range(len(eligible)) for b in range(a, len(eligible))
            if eligible[a][1].n == eligible[b][1].n]


def _domains_meet(f1, f2):
    return any(a is not NEG_INF and b is not NEG_INF for a, b in zip(f1.values, f2.values))


def _dual_tilt(rng, n, d):
    p = [rng.randint(-d, d) for _ in range(n)]
    p[rng.randrange(n)] = d if rng.random() < 0.5 else -d
    return p


def _suite_ops(instances, order, cfg):
    """One op per corpus index in ``order``."""
    def op(k):
        iid, f = instances[k]

        def run():
            reports = cli._instance_reports((k, iid, f, cfg))
            return "".join(rep.to_json_line() + "\n" for rep in reports)
        return Op(iid, 1, run)
    return [op(k) for k in order]


def _fenchel_op(g1, g2):
    # Looked up at call time, so a traced run calls the traced function.
    return lambda: duality.fenchel_gap(g1, g2)


def build(workload, seed, settings):
    """The ops of one round of ``workload`` at ``seed``."""
    conf = settings["workloads"][workload]
    if workload == "grid":
        instances = _corpus_instances()
        cfg = cli.SuiteConfig(seed=seed, suites=tuple(conf["suites"]), samples=conf["samples"])
        return _suite_ops(instances, _named(instances, conf["instances"]), cfg)
    if workload == "exchange":
        instances = _corpus_instances()
        cfg = cli.SuiteConfig(seed=seed, suites=tuple(conf["suites"]))
        order = [k for k, (iid, _) in enumerate(instances) if iid not in conf["leave_out"]]
        return _suite_ops(instances, order, cfg)
    if workload == "falsify":
        trials = conf["trials"]

        def op(c):
            cseed = (seed + (c << 32)) & MASK64

            def run():
                out = cli.falsify_campaign(trials, cseed)
                return json.dumps(out.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
            return Op(f"{cseed}:{trials}", trials, run)
        return [op(c) for c in range(conf["campaigns"])]
    if workload == "dual_scan":
        d = conf["d"]
        pairs = fenchel_pairs(_corpus_instances(), conf["n_max"])
        ops = []
        for r in range(conf["draws"]):
            rng = random.Random(seed * 1000003 + r)
            for (id1, f1), (id2, f2) in pairs:
                if _domains_meet(f1, f2):
                    p = _dual_tilt(rng, f1.n, d)
                else:
                    p = [(d // 2) * (-1) ** j for j in range(f1.n)]
                g1 = core.tilt(f1, PriceVector(tuple(p)))
                g2 = core.tilt(f2, PriceVector(tuple(-x for x in p)))
                ops.append(Op(f"{id1}+{id2}", 1, _fenchel_op(g1, g2), (g1, g2)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Outputs.


def digest(workload, result):
    """A string that identifies an op's output exactly."""
    if workload == "dual_scan":
        return json.dumps(result.to_dict(), sort_keys=True)
    return sha256(result)


def check(workload, seed, op, result, reference):
    """Failed ops (0 .. op.weight) and a reason for each failure."""
    if workload in ("grid", "exchange"):
        lines = result.splitlines()
        bad = [rep for rep in map(json.loads, lines) if rep["verdict"] != "PASS"]
        if bad:
            return 1, [f"{op.label}: FAIL in {b['suite']} (every corpus instance is "
                       f"M-natural-concave): {json.dumps(b['counterexample'])}" for b in bad]
        # Report bytes are fixed by the seed; lines without a seed do not
        # depend on it, so they are compared at every seed.
        if seed == 0 or all('"seed":null' in line for line in lines):
            want = reference[workload].get(op.label)
            if want is None:
                return 1, [f"{op.label}: no seed-0 reference report for this instance"]
            if sha256(result) != want:
                return 1, [f"{op.label}: report bytes differ from the seed-0 reference"]
        return 0, []
    if workload == "falsify":
        out = json.loads(result)
        if out["counterexamples"]:
            return len(out["counterexamples"]), [
                f"campaign {op.label}: counterexample {json.dumps(c)}"
                for c in out["counterexamples"]]
        if seed == 0:
            want = reference["falsify"].get(op.label)
            if want is not None and sha256(result) != want:
                return op.weight, [f"campaign {op.label}: output bytes differ "
                                   "from the seed-0 reference"]
        return 0, []
    return _check_dual(op, result)


def _check_dual(op, res):
    g1, g2 = op.inputs
    sums = [ext for ext in (core.ext_add(a, b) for a, b in zip(g1.values, g2.values))
            if ext is not NEG_INF]
    primal = max(sums) if sums else NEG_INF
    if res.primal != primal:
        return 1, [f"{op.label}: primal {res.primal} != recomputed {primal}"]
    if primal is NEG_INF:
        if not res.boundary:
            return 1, [f"{op.label}: disjoint domains but no boundary flag"]
        return 0, []
    if not res.certified or res.attaining_q is None:
        return 1, [f"{op.label}: attaining pair not certified: {res.to_dict()}"]
    if res.dual != primal or res.gap != 0:
        # Fenchel duality for M-natural-concave pairs whose domains meet:
        # the gap is exactly 0.
        return 1, [f"{op.label}: dual {res.dual}, gap {res.gap} for primal {primal}"]
    q = res.attaining_q
    exact = duality.conjugate(g1, q).value + duality.conjugate(g2, -q).value
    if res.dual != exact:
        return 1, [f"{op.label}: dual {res.dual} != g1(q*) + g2(-q*) = {exact}"]
    return 0, []


def points_scanned(op, res):
    """Dual points up to the final shell, (2r+1)^n: computed, not counted."""
    n = op.inputs[0].n
    r = max((abs(x) for x in res.attaining_q.entries), default=0) \
        if res.attaining_q is not None else res.box
    return (2 * r + 1) ** n


def counts(workload, ops, results):
    """Exact counts taken from the outputs."""
    out = {"exchange.triples_checked": 0, "falsify.gate_pass_frac": 0.0,
           "duality.fenchel_gap.points_scanned": 0}
    if workload == "exchange":
        out["exchange.triples_checked"] = sum(
            json.loads(line)["triples_checked"]
            for res in results for line in res.splitlines())
    elif workload == "falsify":
        passed = sum(json.loads(res)["singles_passed"] for res in results)
        out["falsify.gate_pass_frac"] = passed / sum(op.weight for op in ops)
    elif workload == "dual_scan":
        out["duality.fenchel_gap.points_scanned"] = sum(
            points_scanned(op, res) for op, res in zip(ops, results))
    return out


# ---------------------------------------------------------------------------
# Trace points: the layers' public functions and the kernels ROADMAP item 1
# names. Each is rebound wherever the package imported it.


def _conjugate_key(f, p):
    return f.values, p.entries


def _suite_name(suite):
    if suite == "duality_grid":
        return lambda instance_id, f, cfg, seed: f"suite.duality_grid.n{f.n}"
    return f"suite.{suite}"


def install_trace(tracer):
    for owner, attr, name in (
        (cli, "falsify_campaign", "cli.falsify_campaign"),
        (exchange, "check_exc_single", "exchange.check_exc_single"),
        (exchange, "check_exc_multi", "exchange.check_exc_multi"),
        (exchange, "check_m_concave", "exchange.check_m_concave"),
        (exchange, "lift", "exchange.lift"),
        (exchange, "exchange_leq", "exchange.exchange_leq"),
        (exchange, "augment_lt", "exchange.augment_lt"),
        (exchange, "_best_multi", "exchange._best_multi"),
        (exchange, "_multi_pass_margin", "exchange._multi_pass_margin"),
        (duality, "check_conjugate_submodular", "duality.check_conjugate_submodular"),
        (duality, "check_cross_submodular", "duality.check_cross_submodular"),
        (duality, "check_strong_quotient", "duality.check_strong_quotient"),
        (duality, "build_restrictions", "duality.build_restrictions"),
        (duality, "fenchel_gap", "duality.fenchel_gap"),
        (core, "restrict_by_size", "core.restrict_by_size"),
        (core, "tilt", "core.tilt"),
        (core.SetFn, "__init__", "core.SetFn.init"),
        (families, "default_corpus", "families.default_corpus"),
        (families, "random_table", "families.random_table"),
        (families, "mutate", "families.mutate"),
        (reporting.VerificationReport, "to_json_line", "reporting.to_json_line"),
    ):
        tracer.patch(owner, attr, name)
    tracer.patch(duality, "conjugate", "duality.conjugate", key=_conjugate_key)
    for suite in list(cli._INSTANCE_SUITES):
        tracer.patch_item(cli._INSTANCE_SUITES, suite, _suite_name(suite))
