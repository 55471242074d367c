"""Command-line harness: generate corpora, run verification suites, and
hunt for counterexamples with seeded mutations, whose tables are decided
in bulk (``exchange._bulk_decide``).

Exit codes: 0 when every report passes, 1 when any suite reports FAIL
(a falsification), 2 on operational errors (bad config, malformed
instance files, I/O). All randomness flows from one seed; instance k
uses the derived sub-seed ``seed XOR k``, so equal configurations give
byte-identical reports regardless of --jobs.
"""

import argparse
import functools
import json
import math
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from .core import FormatError, NEG_INF, _require_int, leq_for, load, store
from .duality import (
    check_conjugate_submodular,
    check_cross_submodular,
    check_strong_quotient,
    fenchel_gap,
    _feasible_caps,
)
from .exchange import (
    DEFAULT_SAMPLES,
    _bulk_decide,
    _lemma_facts,
    check_exc_single,
    check_m_concave,
    exc_multi_reports,
    lift,
)
from .families import (
    CorpusInstance,
    LaminarSpec,
    assignment_valuation,
    default_corpus,
    graphic_matroid,
    laminar_concave_fn,
    matroid_rank_fn,
    mutate,
    partition_matroid,
    random_table,
    uniform_matroid,
    weighted_basis_valuation,
)
from .reporting import VerificationReport, failed_report, passed_report

ALL_SUITES = (
    "exc_single",
    "exc_multi_bounded",
    "exc_multi_unbounded",
    "corollary1",
    "m_concave_lift",
    "fenchel",
    "lemmas_2_8",
    "duality_grid",
)

MASK64 = (1 << 64) - 1

FENCHEL_PAIR_N_LIMIT = 5

# Falsification trials drawn and decided together.
_FALSIFY_CHUNK = 512


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    families: object = "default"  # "default" or a list of family spec dicts
    n_range: tuple = (3, 8)
    trials: int = 1000
    suites: tuple = ALL_SUITES
    out: str | None = None
    jobs: int = 1
    samples: int = DEFAULT_SAMPLES

    def __post_init__(self):
        # Counts below these floors would give a verdict without the work.
        for name, floor in (("samples", 1), ("jobs", 1), ("trials", 0)):
            _require_int(name, getattr(self, name), floor)
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if not (isinstance(self.n_range, (list, tuple)) and len(self.n_range) == 2
                and all(map(_is_int, self.n_range))):
            raise ValueError(f"n_range must be a pair of ints, got {self.n_range!r}")
        if self.families != "default" and not (
                isinstance(self.families, (list, tuple))
                and all(isinstance(spec, dict) for spec in self.families)):
            raise ValueError(f'families must be "default" or a list of objects, '
                             f"got {self.families!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path string, got {self.out!r}")
        object.__setattr__(self, "n_range", tuple(self.n_range))
        object.__setattr__(self, "suites", _parse_suites(self.suites))

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_suites(value):
    """Suite names, from a comma-separated string or a list of strings, in
    ``ALL_SUITES`` order."""
    if isinstance(value, str):
        tokens = value.split(",")
    elif isinstance(value, (list, tuple)) and all(isinstance(t, str) for t in value):
        tokens = value
    else:
        raise ValueError(f"suites must be a string or a list of strings, got {value!r}")
    tokens = [t.strip() for t in tokens if t.strip()]
    bad = [t for t in tokens if t not in ALL_SUITES]
    if bad:
        raise ValueError(f"unknown suites {bad}; valid: {', '.join(ALL_SUITES)}")
    chosen = set(tokens)
    return tuple(s for s in ALL_SUITES if s in chosen)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return SuiteConfig.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Family specs -> instances (used by `gen` for non-default corpora).


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(test):
    return lambda value: isinstance(value, (list, tuple)) and all(map(test, value))


# The JSON shape of each family-spec field: a test and what it expects.
_SHAPES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (_is_int, "an int"),
    "number": (_is_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "ints": (_list_of(_is_int), "a list of ints"),
    "numbers": (_list_of(_is_number), "a list of numbers"),
    "int lists": (_list_of(_list_of(_is_int)), "a list of lists of ints"),
    "int pairs": (_list_of(lambda v: _list_of(_is_int)(v) and len(v) == 2),
                  "a list of pairs of ints"),
    "number lists": (_list_of(_list_of(_is_number)), "a list of lists of numbers"),
}

# The fields each family (and matroid kind) reads; a "?" marks an optional
# field.
_FAMILY_FIELDS = {
    "matroid_rank": {"matroid": "object"},
    "weighted_basis": {"matroid": "object", "weights": "numbers"},
    "laminar": {"n": "int", "members": "int lists", "tables": "number lists"},
    "assignment": {"weights": "number lists"},
    "random": {"n": "int", "seed?": "int", "lo?": "int", "hi?": "int",
               "neg_inf_prob?": "number"},
    "mutated": {"base": "object", "seed?": "int", "magnitude?": "int",
                "toggle_neg_inf?": "bool"},
}
_MATROID_FIELDS = {
    "uniform": {"n": "int", "r": "int"},
    "partition": {"blocks": "int lists", "caps": "ints"},
    "graphic": {"num_vertices": "int", "edges": "int pairs"},
}


def _check_fields(spec, where, fields):
    for key, shape in fields.items():
        name = key.rstrip("?")
        if name not in spec:
            if key.endswith("?"):
                continue
            raise ValueError(f"{where} is missing field {name!r}")
        test, expected = _SHAPES[shape]
        if not test(spec[name]):
            raise ValueError(f"{where}: field {name!r} must be {expected}, "
                             f"got {spec[name]!r}")


def _read_spec(spec, index, tag, schemas):
    """``spec[tag]``, a key of ``schemas``, after checking that ``spec``
    holds every field that key's schema requires, each of its shape."""
    _check_fields(spec, f"family spec {index}", {tag: "str"})
    value = spec[tag]
    if value not in schemas:
        raise ValueError(f"family spec {index}: unknown {tag} {value!r}")
    _check_fields(spec, f"family spec {index} ({value})", schemas[value])
    return value


def _build_matroid(spec, index):
    kind = _read_spec(spec, index, "kind", _MATROID_FIELDS)
    if kind == "uniform":
        return uniform_matroid(spec["n"], spec["r"])
    if kind == "partition":
        return partition_matroid(spec["blocks"], spec["caps"])
    return graphic_matroid(spec["num_vertices"], [tuple(e) for e in spec["edges"]])


def build_instance(spec, index, master_seed):
    """Build one corpus instance from a config dict, after checking the
    fields its family reads (``_FAMILY_FIELDS``). Seeded constructors
    (random, mutated) derive their seed from the master seed and the
    instance index unless the dict pins one; the seed used is recorded."""
    family = _read_spec(spec, index, "family", _FAMILY_FIELDS)
    instance_id = spec.get("id", f"{family}_{index}")
    derived = (master_seed ^ index) & MASK64
    meta = {k: v for k, v in spec.items() if k not in ("family", "id")}
    if family == "matroid_rank":
        m = _build_matroid(spec["matroid"], index)
        return CorpusInstance(instance_id, family, meta, matroid_rank_fn(m), m)
    if family == "weighted_basis":
        m = _build_matroid(spec["matroid"], index)
        fn = weighted_basis_valuation(m, tuple(spec["weights"]))
        return CorpusInstance(instance_id, family, meta, fn, m)
    if family == "laminar":
        ls = LaminarSpec(spec["n"], tuple(map(tuple, spec["members"])),
                         tuple(map(tuple, spec["tables"])))
        return CorpusInstance(instance_id, family, meta, laminar_concave_fn(ls))
    if family == "assignment":
        return CorpusInstance(instance_id, family, meta,
                              assignment_valuation(spec["weights"]))
    if family == "random":
        seed = spec.get("seed", derived)
        fn = random_table(spec["n"], seed, spec.get("lo", -5), spec.get("hi", 5),
                          spec.get("neg_inf_prob", 0.2))
        meta = dict(meta, seed=seed)
        return CorpusInstance(instance_id, family, meta, fn)
    base = build_instance(spec["base"], index, master_seed)
    seed = spec.get("seed", derived)
    fn = mutate(base.fn, seed, spec.get("magnitude", 1),
                spec.get("toggle_neg_inf", False))
    meta = dict(meta, seed=seed, base_id=base.instance_id)
    return CorpusInstance(instance_id, family, meta, fn)


def resolve_instances(cfg):
    if cfg.families == "default":
        return default_corpus()
    return [build_instance(spec, i, cfg.seed) for i, spec in enumerate(cfg.families)]


# ---------------------------------------------------------------------------
# Per-instance suite runners.


# Exchange reports of one table, so that corollary1 and the lemmas_2_8 gate
# reuse what exc_single and exc_multi_* computed: "fn" holds the table, and
# (bounded or None, instance id, seed, samples) keys its reports.
_memo = {}


def _exchange_report(instance_id, f, cfg, seed, bounded=None):
    """check_exc_single (``bounded`` None) or check_exc_multi for ``f``,
    computed once per instance; both multiple-exchange reports come from
    one pass."""
    if _memo.get("fn") is not f:
        _memo.clear()
        _memo["fn"] = f
    key = (bounded, instance_id, seed, cfg.samples)
    if key not in _memo:
        if bounded is None:
            _memo[key] = check_exc_single(f, instance_id=instance_id)
        else:
            reports = exc_multi_reports(f, samples=cfg.samples, seed=seed,
                                        instance_id=instance_id)
            for b, report in reports.items():
                _memo[(b, instance_id, seed, cfg.samples)] = report
    return _memo[key]


def _suite_exc_single(instance_id, f, cfg, seed):
    return _exchange_report(instance_id, f, cfg, seed)


def _suite_exc_multi(bounded):
    def run(instance_id, f, cfg, seed):
        return _exchange_report(instance_id, f, cfg, seed, bounded)
    return run


def _suite_corollary1(instance_id, f, cfg, seed):
    reports = [_exchange_report(instance_id, f, cfg, seed, bounded)
               for bounded in (None, False, True)]
    verdicts = [r.verdict for r in reports]
    agreement = len(set(verdicts)) == 1
    triples = sum(r.triples_checked for r in reports)
    if agreement and reports[0].passed:
        return passed_report("corollary1", instance_id, triples=triples,
                             regime=reports[1].regime, seed=seed)
    counter = {"verdicts": verdicts, "agreement": agreement}
    if not agreement:
        counter["reason"] = "checker verdicts disagree"
    else:
        counter["detail"] = reports[0].counterexample
    return failed_report("corollary1", instance_id, counter, triples=triples,
                         regime=reports[1].regime, seed=seed)


def _suite_m_concave_lift(instance_id, f, cfg, seed):
    lifted = lift(f)
    report = check_m_concave(lifted, instance_id=instance_id)
    s, r = f.dom_size_range()
    expected = sum(math.comb(r - s, r - m.bit_count()) for m in f.dom_masks)
    if len(lifted.dom_masks) != expected:
        counter = {"reason": "lifted domain size mismatch",
                   "expected": expected, "actual": len(lifted.dom_masks)}
        return failed_report("m_concave_lift", instance_id, counter,
                             triples=report.triples_checked)
    return VerificationReport("m_concave_lift", instance_id, report.verdict,
                              report.counterexample, None,
                              report.triples_checked, "exhaustive", None)


def _suite_lemmas(instance_id, f, cfg, seed):
    """The facts the proof uses, on every (X, Y) of an exchange-valid f: a
    swap for each i in X \\ Y when |X| <= |Y|, an augmenting swap when
    |X| < |Y|, and nonempty restrictions for each I inside X \\ Y."""
    gate = _exchange_report(instance_id, f, cfg, seed)
    if not gate.passed:
        counter = {"reason": "single-exchange precondition fails",
                   "detail": gate.counterexample}
        return failed_report("lemmas_2_8", instance_id, counter,
                             triples=gate.triples_checked)
    counter, checked = _lemma_facts(f)
    if counter is not None:
        return failed_report("lemmas_2_8", instance_id, counter, triples=checked)
    return passed_report("lemmas_2_8", instance_id, triples=checked)


def _suite_duality_grid(instance_id, f, cfg, seed):
    reports = [check_conjugate_submodular(f, seed=seed, samples=cfg.samples,
                                          instance_id=instance_id)]
    caps = list(_feasible_caps(f))
    per_k = max(1, cfg.samples // max(1, len(caps)))
    for k in caps:
        reports.append(check_cross_submodular(f, k, seed=seed, samples=per_k,
                                              instance_id=instance_id))
        reports.append(check_strong_quotient(f, k, seed=seed, samples=per_k,
                                             instance_id=instance_id))
    triples = sum(r.triples_checked for r in reports)
    regime = reports[0].regime
    failed = [r for r in reports if not r.passed]
    if failed:
        return failed_report("duality_grid", instance_id, failed[0].counterexample,
                             triples=triples, regime=regime,
                             seed=seed if regime == "sampled" else None)
    return passed_report("duality_grid", instance_id, triples=triples,
                         regime=regime, seed=seed if regime == "sampled" else None)


_INSTANCE_SUITES = {
    "exc_single": _suite_exc_single,
    "exc_multi_bounded": _suite_exc_multi(True),
    "exc_multi_unbounded": _suite_exc_multi(False),
    "corollary1": _suite_corollary1,
    "m_concave_lift": _suite_m_concave_lift,
    "lemmas_2_8": _suite_lemmas,
    "duality_grid": _suite_duality_grid,
}


def _instance_reports(task):
    index, instance_id, f, cfg = task
    seed = (cfg.seed ^ index) & MASK64
    return [_INSTANCE_SUITES[s](instance_id, f, cfg, seed)
            for s in cfg.suites if s != "fenchel"]


def run_fenchel_pairs(instances, cfg):
    """Fenchel duality over all same-n corpus pairs with small ground
    sets. The theorem needs M-natural-concave members, so a pair with a
    member that fails ``check_exc_single`` FAILs on that precondition
    without a dual. An int pair passes when the descent certifies a zero
    gap (a certified point is exact wherever it lies, so there is no
    retry with a larger box), a real pair on weak duality, and a pair
    with disjoint domains when the descent reaches the box edge."""
    reports = []
    eligible = [(iid, f, check_exc_single(f).passed)
                for iid, f in instances if f.n <= FENCHEL_PAIR_N_LIMIT]
    for a in range(len(eligible)):
        for b in range(a, len(eligible)):
            id1, f1, _ = eligible[a]
            id2, f2, _ = eligible[b]
            if f1.n != f2.n:
                continue
            pair_id = f"{id1}+{id2}"
            members = [eligible[a]] if a == b else [eligible[a], eligible[b]]
            failing = [iid for iid, _, valid in members if not valid]
            if failing:
                counter = {"reason": "single-exchange precondition fails",
                           "instances": failing}
                reports.append(failed_report("fenchel", pair_id, counter, triples=1))
                continue
            res = fenchel_gap(f1, f2)
            if res.primal is NEG_INF:
                # Disjoint effective domains: the dual is unbounded below,
                # so the boundary hit is the expected diagnostic.
                ok = res.boundary
            elif res.mode == "int":
                ok = res.certified
            else:
                # The dual is taken on integer prices only, so a real pair
                # may keep a gap: real mode checks weak duality.
                ok = leq_for("real")(res.primal, res.dual)
            if ok:
                reports.append(passed_report("fenchel", pair_id, triples=1))
            else:
                reports.append(failed_report("fenchel", pair_id, res.to_dict(),
                                             triples=1))
    return reports


def run_check(instances, cfg):
    """All selected suites over (instance_id, SetFn) pairs, reports in
    deterministic instance order."""
    tasks = [(i, iid, f, cfg) for i, (iid, f) in enumerate(instances)]
    if cfg.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            grouped = list(pool.map(_instance_reports, tasks))
    else:
        grouped = [_instance_reports(t) for t in tasks]
    reports = [r for group in grouped for r in group]
    if "fenchel" in cfg.suites:
        reports.extend(run_fenchel_pairs(instances, cfg))
    return reports


# ---------------------------------------------------------------------------
# Falsification campaign: seeded random tables and corpus mutations, looking
# for anything that passes the single exchange check yet fails the bounded
# multiple exchange check. Finding one would break the equivalence the
# corollary1 suite relies on.


@dataclass
class FalsifyOutcome:
    trials: int
    singles_passed: int = 0
    counterexamples: list = field(default_factory=list)
    near_misses: list = field(default_factory=list)  # (margin 0, trial, kind)
    kinds: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "trials": self.trials,
            "singles_passed": self.singles_passed,
            "counterexamples": self.counterexamples,
            "near_misses": [
                {"margin": m, "trial": t, "kind": k} for m, t, k in self.near_misses
            ],
            "kinds": dict(sorted(self.kinds.items())),
        }


@functools.cache
def _falsify_bases():
    """Small corpus instances to mutate, weighted toward cheap sizes; built
    once per process (instances are immutable)."""
    weights = {3: 3, 4: 2, 5: 1}
    bases = []
    for inst in default_corpus():
        bases.extend([inst] * weights.get(inst.fn.n, 0))
    return tuple(bases)


def _falsify_table(t, seed, bases, n_lo, n_hi):
    """Trial t's table and kind, from its own ``random.Random``."""
    rng = random.Random((seed ^ t) & MASK64)
    if t % 2 == 0 or bases is None:
        n = rng.randint(n_lo, n_hi)
        return random_table(n, rng.randrange(1 << 32)), "random"
    base = bases[rng.randrange(len(bases))]
    mseed = rng.randrange(1 << 32)
    magnitude = rng.randint(1, 3)
    if rng.random() < 0.3:
        f = mutate(base.fn, mseed, magnitude, toggle_neg_inf=True)
        if not f.dom_masks:
            f = mutate(base.fn, mseed, magnitude)
    else:
        f = mutate(base.fn, mseed, magnitude)
    return f, "mutated"


def falsify_campaign(trials, seed, n_range=(2, 5), keep_near=5):
    """``trials`` seeded tables, each gated on the single exchange and then
    checked for the bounded multiple exchange; trial t draws from
    ``random.Random(seed ^ t)``. Tables are drawn in chunks of
    ``_FALSIFY_CHUNK`` and decided in bulk (``exchange._bulk_decide``),
    which takes them all: every table drawn is an int table of n <= 5 with
    a nonempty domain and single- or double-digit values.

    ``near_misses`` lists the first ``keep_near`` passing trials as
    (margin, trial, kind). The margin, the least slack best - f(X) - f(Y)
    over the bounded triples, is 0 on every table that passes: a triple
    with I = {} has the one move J = {}, so best = f(X) + f(Y). It stays
    in the output so that the output bytes stay the same.

    The default ``n_range`` (2, 5) is not ``SuiteConfig.n_range`` (3, 8),
    which ``mconcave falsify`` passes, so a library call and the CLI run
    different campaigns for one seed; golden hashes and the benchmark's
    reference digests pin both defaults."""
    _require_int("trials", trials, 0)
    _require_int("keep_near", keep_near, 0)
    n_lo = max(1, n_range[0])
    n_hi = min(5, n_range[1])  # the campaign is defined at n <= 5
    if n_lo > n_hi:
        raise ValueError(f"empty falsification range {n_range}")
    bases = [b for b in _falsify_bases() if n_lo <= b.fn.n <= n_hi] or None
    out = FalsifyOutcome(trials=trials)
    for start in range(0, trials, _FALSIFY_CHUNK):
        drawn = [_falsify_table(t, seed, bases, n_lo, n_hi)
                 for t in range(start, min(start + _FALSIFY_CHUNK, trials))]
        verdicts = _bulk_decide([f for f, _ in drawn])
        for t, (f, kind), (passed, holds) in zip(range(start, trials), drawn, verdicts):
            out.kinds[kind] = out.kinds.get(kind, 0) + 1
            if not passed:
                continue
            out.singles_passed += 1
            if not holds:
                out.counterexamples.append({
                    "trial": t,
                    "kind": kind,
                    "n": f.n,
                    "values": [None if v is NEG_INF else v for v in f.values],
                })
            elif len(out.near_misses) < keep_near:
                out.near_misses.append((0, t, kind))
    return out


# ---------------------------------------------------------------------------
# Commands.


def _emit(lines, out_path):
    text = "".join(line + "\n" for line in lines)
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(cfg, out_dir):
    out_dir = Path(out_dir or cfg.out or "corpus")
    inst_dir = out_dir / "instances"
    inst_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"seed": cfg.seed, "instances": []}
    for inst in resolve_instances(cfg):
        path = inst_dir / f"{inst.instance_id}.json"
        store(inst.fn, path)
        manifest["instances"].append({
            "id": inst.instance_id,
            "family": inst.family,
            "params": inst.params,
            "n": inst.fn.n,
            "mode": inst.fn.mode,
            "path": f"instances/{inst.instance_id}.json",
        })
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


def load_instances(paths):
    """Instances from explicit files or from gen output directories."""
    out = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            manifest_path = p / "manifest.json"
            if manifest_path.exists():
                with open(manifest_path, "r", encoding="utf-8") as fh:
                    manifest = json.load(fh)
                for entry in manifest["instances"]:
                    out.append((entry["id"], load(p / entry["path"])))
            else:
                for f in sorted(p.glob("*.json")):
                    out.append((f.stem, load(f)))
        else:
            out.append((p.stem, load(p)))
    return out


def cmd_check(cfg, paths):
    instances = load_instances(paths) if paths else \
        [(inst.instance_id, inst.fn) for inst in resolve_instances(cfg)]
    reports = run_check(instances, cfg)
    _emit([r.to_json_line() for r in reports], cfg.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_falsify(cfg, trials):
    if trials is not None:
        cfg = replace(cfg, trials=trials)
    outcome = falsify_campaign(cfg.trials, cfg.seed, n_range=cfg.n_range)
    _emit([json.dumps(outcome.to_dict(), sort_keys=True, separators=(",", ":"))],
          cfg.out)
    return 1 if outcome.counterexamples else 0


# ---------------------------------------------------------------------------


def _add_common_flags(sp):
    sp.add_argument("--config", help="JSON config file mirroring SuiteConfig")
    sp.add_argument("--seed", type=int, help="master seed (64-bit)")
    sp.add_argument("--suites", help="comma-separated suite list")
    sp.add_argument("--out", help="output path (reports or corpus dir)")
    sp.add_argument("--jobs", type=int, help="worker processes")


def _config_from_args(args):
    cfg = load_config(args.config) if args.config else SuiteConfig()
    overrides = {}
    for name in ("seed", "suites", "out", "jobs"):
        if getattr(args, name) is not None:
            overrides[name] = getattr(args, name)
    return replace(cfg, **overrides)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mconcave",
        description="Exchange-property and duality verification suites for "
                    "set functions with exchange structure.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp_gen = sub.add_parser("gen", help="write corpus instance files + manifest")
    _add_common_flags(sp_gen)

    sp_check = sub.add_parser("check", help="run suites over instances")
    _add_common_flags(sp_check)
    sp_check.add_argument("paths", nargs="*",
                          help="instance files or gen output dirs "
                               "(default: the built-in corpus)")

    sp_falsify = sub.add_parser("falsify", help="seeded counterexample search")
    _add_common_flags(sp_falsify)
    sp_falsify.add_argument("--trials", type=int, help="number of trials")

    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "gen":
            return cmd_gen(cfg, args.out)
        if args.command == "check":
            return cmd_check(cfg, args.paths)
        if args.command == "falsify":
            return cmd_falsify(cfg, args.trials)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (OSError, ValueError, FormatError, KeyError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
