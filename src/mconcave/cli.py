"""Command-line harness: generate corpora, run verification suites, and
hunt for counterexamples among seeded random tables and mutations. Each
trial is drawn by ``core._below``'s rule, from generators seeded in bulk
(two ``core._seed_words`` calls a batch) and read in numpy, or, when its
draws run past their words, from one reseeded C generator
(``_random.Random``), as a key (table, entry, value) over its batch's
store of tables, and one decider (``exchange._bulk_decide``) decides each
distinct key once.

Exit codes: 0 when every report passes, 1 when any suite reports FAIL
(a falsification), 2 on operational errors (bad config, malformed
instance files, I/O, a check that gives no report). All randomness
flows from one seed; instance k uses the derived sub-seed
``seed XOR k``, so equal configurations give byte-identical reports
regardless of --jobs.

Instances come from family specs (``families.build_instance``; the default
corpus is a list of them) or instance files; every verdict is a checker's
of ``exchange`` or ``duality``, whose caches share one table's sweeps.
"""

import _random
import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import (FormatError, NEG_INF, _below, _require_int, _seed_words, _words_below,
                   _words_random, load, store)
from .duality import (
    check_conjugate_submodular,
    fenchel_gap,
    _cross_and_quotient,
    _feasible_caps,
)
from .exchange import (
    DEFAULT_SAMPLES,
    _BULK_SAFE,
    _bulk_bound,
    _bulk_decide,
    _lemma_facts,
    _lift_sweep,
    _sweep_report,
    _sweeps,
    check_exc_single,
    exc_multi_reports,
)
from .families import (MASK64, _draw_mutation, _draw_table, _is_int, _words_tables, build_corpus,
                       default_corpus)
from .moves import encoding
from .reporting import failed_report, passed_report

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

FENCHEL_PAIR_N_LIMIT = 5

# Values of the falsification trials drawn and decided together.
_FALSIFY_VALUES = 1 << 16

# Words of each falsification trial's first generator drawn in numpy
# (``core._seed_words``); a trial whose draws run past them is drawn in C.
_SEED_WORDS = 24

# Words of each trial's second generator drawn in numpy, in one call per
# batch: a mutation's, which reads one to three words and retries below its
# domain's size (2 in 10^4 of the corpus mutations read more), and a random
# table's, for n = 1..5: the fewest that all but one table in 10^4 read
# (each of its 2^n values reads two words, and a finite one a geometric run
# of 4-bit draws), and at n = 1 a mutation's 16 rather than 15, as the
# lanes' rows must start full. A trial that reads more is drawn in C.
_MUTATION_WORDS = 16
_TABLE_WORDS = (16, 23, 38, 68, 124)

# Passing trials a campaign lists as near misses.
_NEAR_MISSES = 5


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    families: object = "default"  # "default" or a list of family spec dicts
    n_range: tuple = (3, 5)
    trials: int = 1000
    suites: tuple = ALL_SUITES
    out: str | None = None
    jobs: int = 1
    samples: int = DEFAULT_SAMPLES

    def __post_init__(self):
        # Counts below these floors would give a verdict without the work.
        for name, floor in (("samples", 1), ("jobs", 1), ("trials", 1)):
            _require_int(name, getattr(self, name), floor)
        if not (_is_int(self.seed) and 0 <= self.seed <= MASK64):
            raise ValueError(f"seed must be an int in [0, 2^64), got {self.seed!r}")
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
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


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


def resolve_instances(cfg):
    return default_corpus() if cfg.families == "default" else build_corpus(cfg.families, cfg.seed)


# ---------------------------------------------------------------------------
# Per-instance suite runners.


def _suite_exc_single(instance_id, f, cfg, seed):
    return check_exc_single(f, instance_id)


def _suite_exc_multi(bounded):
    def run(instance_id, f, cfg, seed):
        return exc_multi_reports(f, samples=cfg.samples, seed=seed,
                                 instance_id=instance_id)[bounded]
    return run


def _suite_corollary1(instance_id, f, cfg, seed):
    multi = exc_multi_reports(f, samples=cfg.samples, seed=seed, instance_id=instance_id)
    reports = [check_exc_single(f, instance_id), multi[False], multi[True]]
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
    """``check_m_concave(lift(f))``, decided on f: the lift passes iff the
    single exchange and the swap and augment facts of lemmas_2_8 hold
    (``exchange._lift_sweep``), which the sweeps of exc_single give."""
    return _sweep_report(f, "m_concave_lift", instance_id, *_lift_sweep(f))


def _suite_lemmas(instance_id, f, cfg, seed):
    """The facts the proof uses, on every (X, Y) of an exchange-valid f: a
    swap for each i in X \\ Y when |X| <= |Y|, an augmenting swap when
    |X| < |Y|, and nonempty restrictions for each I inside X \\ Y."""
    gate = check_exc_single(f, instance_id)
    if not gate.passed:
        counter = {"reason": "single-exchange precondition fails",
                   "detail": gate.counterexample}
        return failed_report("lemmas_2_8", instance_id, counter,
                             triples=gate.triples_checked)
    counter, checked = _lemma_facts(f, _sweeps(f)[1])
    if counter is not None:
        return failed_report("lemmas_2_8", instance_id, counter, triples=checked)
    return passed_report("lemmas_2_8", instance_id, triples=checked)


def _suite_duality_grid(instance_id, f, cfg, seed):
    reports = [check_conjugate_submodular(f, seed=seed, samples=cfg.samples,
                                          instance_id=instance_id)]
    caps = list(_feasible_caps(f))
    for pair in _cross_and_quotient(f, caps, seed=seed, samples=max(1, cfg.samples // len(caps)),
                                    instance_id=instance_id):
        reports.extend(pair)
    # Every report is a duality_grid line of this regime and seed.
    first = next((r for r in reports if not r.passed), reports[0])
    return replace(first, triples_checked=sum(r.triples_checked for r in reports))


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
                ok = res.primal <= res.dual
            if ok:
                reports.append(passed_report("fenchel", pair_id, triples=1))
            else:
                reports.append(failed_report("fenchel", pair_id, res.to_dict(),
                                             triples=1))
    return reports


def run_check(instances, cfg):
    """All selected suites over (instance_id, SetFn) pairs, reports in
    deterministic instance order. The pool starts every worker at once,
    so it gets no more workers than there are tasks or CPUs."""
    tasks = [(i, iid, f, cfg) for i, (iid, f) in enumerate(instances)]
    workers = min(cfg.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: the process pool costs a serial run or a library
        # import about 20 ms.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
            "near_misses": [dict(margin=m, trial=t, kind=k) for m, t, k in self.near_misses],
            "kinds": dict(sorted(self.kinds.items())),
        }


@functools.cache
def _falsify_bases():
    """Small corpus tables to mutate, weighted toward cheap sizes; built
    once per process (tables are immutable)."""
    weights = {3: 3, 4: 2, 5: 1}
    return tuple(inst.fn for inst in default_corpus() for _ in range(weights.get(inst.fn.n, 0)))


def _padded(flat, sizes, n_hi, dtype):
    """Rows of ``sizes[k]`` values, taken in turn from ``flat`` and padded
    with zeros to 2^n_hi values: one masked scatter, no loop over rows."""
    keep = np.arange(1 << n_hi) < sizes[:, None]
    out = np.zeros(keep.shape, dtype)
    out[keep] = flat
    return out


def _bulk_draws(seed, first, stop, n_lo, n_hi, bases, neg):
    """``falsify_campaign``'s trials first..stop - 1 up to their keys, drawn
    by ``core._below``'s rule from the first words of each trial's
    generators (``core._seed_words``): ``_SEED_WORDS`` of its first one,
    ``_MUTATION_WORDS`` of a mutation's second and ``_TABLE_WORDS[n - 1]``
    of a random table's. Returns an int64 (3, trials) array, (n, sub-seed, 0)
    for a random table and (base, entry, value) for a mutation; the batch's
    store, the base rows and then one row per random table in trial order;
    a bool array of the trials whose draws run past their words, drawn in
    C; and one of the random tables whose row is left to C, theirs and
    those ``families._words_tables`` leaves. ``bases`` is the
    campaign's (values, width, dom_at, dom_size): base b's 2^width[b]
    values and its domain, each row padded."""
    values, width, dom_at, dom_size = bases
    mut = (np.arange(first, stop) % 2 == 1) & (len(width) > 0)
    words, _ = _seed_words(np.arange(first, stop, dtype=np.uint64) ^ np.uint64(seed & MASK64),
                           _SEED_WORDS)
    words = words[:_SEED_WORDS * len(mut)].reshape(_SEED_WORDS, -1)
    pos, tabs, cols = np.zeros(len(mut), np.int64), np.flatnonzero(~mut), np.flatnonzero(mut)
    n = n_lo + _words_below(words, tabs, pos, n_hi - n_lo + 1)
    sub = _words_below(words, tabs, pos, 1 << 32)
    base, mseed, magnitude = (_words_below(words, cols, pos, m) for m in (len(width), 1 << 32, 3))
    magnitude += 1
    toggle = _words_random(words, cols, pos) < 0.3
    scalar = pos > _SEED_WORDS
    del words, pos  # freed before the second seeding
    # One seeding for every second generator, its lanes by height: the
    # tables by n, largest first, then the mutations.
    left = scalar[tabs]
    lane = np.flatnonzero(~left)
    lane = lane[np.argsort(-n[lane], kind="stable")]
    height = np.take(_TABLE_WORDS, n[lane] - 1)
    flat, off = _seed_words(np.r_[sub[lane], mseed].view(np.uint64),  # seeds < 2^32
                            np.r_[height, np.full(len(cols), _MUTATION_WORDS)])
    store = np.zeros((len(width) + len(tabs), values.shape[1]), values.dtype)
    store[:len(width)] = values
    left[lane] = _words_tables(flat, off, height, 1 << n[lane], store[len(width):], lane, neg)
    lanes = len(lane) + len(cols)  # heights >= _MUTATION_WORDS: a mutation's words are one array
    words = flat[:_MUTATION_WORDS * lanes].reshape(_MUTATION_WORDS, lanes)[:, len(lane):]
    pos, idx = np.zeros(len(cols), np.int64), np.zeros(len(cols), np.int64)
    on = np.flatnonzero(toggle)
    idx[on] = _words_below(words, on, pos, 1 << width[base[on]])
    redo = on[(dom_size[base[on]] == 1) & (dom_at[base[on], 0] == idx[on])]  # emptied
    pos[redo], toggle[redo] = 0, False  # drawn again from word 0 without the toggle
    on, plain = np.flatnonzero(toggle), np.flatnonzero(~toggle & (dom_size[base] > 0))
    idx[plain] = dom_at[base[plain], _words_below(words, plain, pos, dom_size[base[plain]])]
    up = _words_below(words, plain, pos, 2) == 1
    value = values[base, idx].astype(np.int64)
    value[on] = np.where(value[on] == neg, 0, neg)
    value[plain] += np.where(up, magnitude[plain], -magnitude[plain])
    # past the words, or a plain mutation of an empty domain, which the C path refuses
    scalar[cols[(pos > _MUTATION_WORDS) | (~toggle & (dom_size[base] == 0))]] = True
    del flat, words  # freed before the keys are built
    out, in_c = np.zeros((3, len(mut)), np.int64), np.zeros(len(mut), bool)
    out[:2, tabs], out[:, cols], in_c[tabs] = (n, sub), (base, idx, value), left
    return out, store, scalar, in_c


def _mutation_verdicts(keys, store, width, m):
    """(passed, holds) of each column of ``keys``, int64 (table, entry,
    value) mutations of the rows of ``store`` (row k: 2^width[k] values,
    then zeros). A verdict depends on a row's values alone, so each
    distinct mutation is built once (a gather, then a scatter) and decided
    in slices of at most ``_FALSIFY_VALUES`` values or one row."""
    # np.unique(axis=0) sorts 4x slower; numpy radix-sorts a column that fits int16.
    order = np.lexsort([k.astype(np.int16) if abs(k).max() < 1 << 15 else k for k in keys[::-1]])
    keys = keys[:, order]
    new = np.r_[True, (keys[:, 1:] != keys[:, :-1]).any(axis=0)]
    (table, entry, value), ok = keys[:, new], np.zeros((2, np.count_nonzero(new)), dtype=bool)
    for n in set(width.tolist()):
        at = np.flatnonzero(width[table] == n)
        for lo in range(0, len(at), step := max(1, _FALSIFY_VALUES >> n)):
            u = at[lo:lo + step]
            vals = store[table[u], :1 << n]
            vals[np.arange(len(u)), entry[u]] = value[u]
            ok[:, u] = _bulk_decide(vals, m)
    back = np.empty_like(order)  # each column's place among the distinct keys
    back[order] = np.cumsum(new) - 1
    return ok[:, back]


def falsify_campaign(trials, seed, n_range=(2, 5)):
    """``trials`` seeded tables, each gated on the single exchange and then
    checked for the bounded multiple exchange. Trial t draws as
    ``random.Random(seed ^ t)``, then its table as ``random_table`` or
    ``mutate`` would from the sub-seed it drew, each ``randint``,
    ``randrange`` or ``choice`` by ``core._below``'s rule, as an int row
    and no ``SetFn``, in ``moves.encoding(m)``, m = max(5, max |base| + 3)
    capped below ``_BULK_SAFE`` (bases checked once, ``exchange._bulk_bound``).
    Every trial is a key (table, entry, value) over its batch's store of
    tables: the mutation bases, built once per campaign, then the batch's
    random tables, each keyed as itself (row, 0, row[0]). A batch of
    max(512, ``_FALSIFY_VALUES`` / 8) trials is drawn up to its keys and
    its store in numpy (``_bulk_draws``): one ``_seed_words`` call seeds
    every first generator, one more every second generator, a mutation's
    and a random table's, whose values ``families._words_tables`` decodes.
    The trials whose draws run past their words, and the random tables
    that do, have a value past the decoder's gather or are drawn all
    minus infinity, are drawn from one reseeded C generator
    (``_random.Random``, which draws as ``random.Random``; see
    ``core._below``). One decider (``_mutation_verdicts``) decides each
    distinct key once, in slices of at most ``_FALSIFY_VALUES`` values, so
    memory stays flat; verdicts, counterexamples (the key's row with its
    entry set) and near misses are read in trial order. ``SuiteConfig``'s
    ValueErrors refuse a bad count, seed or range before any draw.

    ``near_misses`` lists the first ``_NEAR_MISSES`` passing trials as
    (margin, trial, kind). The margin, the least best - f(X) - f(Y) over
    the bounded triples, is 0 on every passing table (I = {} has the one
    move J = {}) and stays in the output so that its bytes stay the same.

    The default ``n_range`` (2, 5) is not ``SuiteConfig.n_range`` (3, 5),
    which ``mconcave falsify`` passes, so a library call and the CLI run
    different campaigns for one seed; golden hashes and the benchmark's
    reference digests pin both defaults. A range past n = 5 runs as if
    it stopped there."""
    SuiteConfig(trials=trials, seed=seed, n_range=n_range)  # its checks, before any draw
    n_lo, n_hi = max(1, n_range[0]), min(5, n_range[1])  # the campaign is defined at n <= 5
    if n_lo > n_hi:
        raise ValueError(f"empty falsification range {n_range}")
    tables = [f for f in _falsify_bases() if n_lo <= f.n <= n_hi]
    m = min(max([5] + [_bulk_bound(f.values, k) + 3 for k, f in enumerate(tables)]), _BULK_SAFE - 1)
    neg, dtype = encoding(m)
    rows = [[neg if v is NEG_INF else v for v in f.values] for f in tables]
    doms = [f.dom_masks for f in tables]
    kinds = ("random", "mutated" if rows else "random")  # by the parity of t
    out = FalsifyOutcome(trials=trials)
    for p in range(min(trials, 2)):
        out.kinds[kinds[p]] = out.kinds.get(kinds[p], 0) + (trials + 1 - p) // 2
    # The bases, padded: the store's first rows, and what _bulk_draws draws from.
    width = np.array([f.n for f in tables], np.int64)
    dom_size = np.array([len(dom) for dom in doms], np.int64)
    bases = (_padded([v for row in rows for v in row], 1 << width, n_hi, dtype), width,
             _padded([x for dom in doms for x in dom], dom_size, n_hi, np.int64), dom_size)
    same = np.array([rows.index(row) for row in rows], np.int64)  # a table's first base
    rng = _random.Random()  # random.Random's C base: see core._below

    def drawn_in_c(t):  # trial t's draws up to its key, from its generators reseeded in C
        rng.seed((seed ^ t) & MASK64)
        if t % 2 == 0 or not rows:
            return n_lo + _below(rng, n_hi - n_lo + 1), _below(rng, 1 << 32), 0
        b, mseed = _below(rng, len(rows)), _below(rng, 1 << 32)
        magnitude, toggle = 1 + _below(rng, 3), rng.random() < 0.3
        rng.seed(mseed)
        entry, value = _draw_mutation(rng, rows[b], doms[b], magnitude, toggle, neg=neg)
        if toggle and doms[b] == (entry,):  # the toggle emptied the domain
            rng.seed(mseed)
            entry, value = _draw_mutation(rng, rows[b], doms[b], magnitude, neg=neg)
        return b, entry, value

    # A batch's two _seed_words calls cost about 11 ms each whatever their
    # size, some 1,800 C seeds (6 us each), and a trial drawn in C seeds two
    # generators and draws in Python: below about 1,500 trials C would be
    # cheaper. 512 is the batch test_campaign_memory_does_not_grow_with_trials runs.
    batch = max(512, _FALSIFY_VALUES >> 3)
    for first in range(0, trials, batch):
        stop = min(trials, first + batch)
        keys, store, scalar, left = _bulk_draws(seed, first, stop, n_lo, n_hi, bases, neg)
        for j in np.flatnonzero(scalar).tolist():
            keys[:, j] = drawn_in_c(first + j)
        drawn = (np.arange(first, stop) % 2 == 0) | (not rows)
        widths = np.concatenate((width, keys[0, drawn]))  # each stored table's n
        itself = np.arange(len(rows), len(store))
        for k, (n, sub) in zip(itself[left[drawn]].tolist(), keys[:2, left].T.tolist()):
            rng.seed(sub)  # a random table left to C
            store[k, :1 << n] = _draw_table(rng, n, neg=neg)
        keys[0, ~drawn] = same[keys[0, ~drawn]]
        keys[:, drawn] = itself, 0 * itself, store[itself, 0]
        verdicts = _mutation_verdicts(keys, store, widths, m)
        out.singles_passed += int(verdicts[0].sum())
        for j in np.flatnonzero(verdicts[0] & ~verdicts[1]).tolist():
            k, entry, value = keys[:, j].tolist()
            row = store[k, :1 << widths[k]].tolist()
            row[entry] = value
            out.counterexamples.append({"trial": first + j, "kind": kinds[(first + j) % 2],
                                        "n": int(widths[k]),
                                        "values": [None if v == neg else v for v in row]})
        for j in np.flatnonzero(verdicts[1])[:_NEAR_MISSES - len(out.near_misses)].tolist():
            out.near_misses.append((0, first + j, kinds[(first + j) % 2]))
    return out


# ---------------------------------------------------------------------------
# Commands.


def _refuse_out(path, directory):
    """An ``out`` of the wrong kind, refused before any work: ``gen``
    writes a directory there, ``check`` and ``falsify`` a report file."""
    if path is not None and Path(path).exists() and Path(path).is_dir() != directory:
        raise ValueError(f"out {str(path)!r} exists and is "
                         + ("not a directory" if directory else "a directory"))


def _emit(lines, out_path):
    text = "".join(line + "\n" for line in lines)
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(cfg):
    out_dir = Path(cfg.out or "corpus")
    _refuse_out(out_dir, True)
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
    """Instances from explicit files or from gen output directories. A
    manifest entry whose path resolves outside its directory, and an id
    that an earlier instance has (a file's id is its stem), are
    FormatErrors."""
    out, seen = [], set()

    def add(instance_id, path):
        if instance_id in seen:
            raise FormatError(f"{path}: instance id {instance_id!r} repeats an earlier "
                              f"instance's")
        seen.add(instance_id)
        out.append((instance_id, load(path)))

    for p in paths:
        p = Path(p)
        if p.is_dir():
            manifest_path = p / "manifest.json"
            if manifest_path.exists():
                with open(manifest_path, "r", encoding="utf-8") as fh:
                    manifest = json.load(fh)
                entries = manifest.get("instances") if isinstance(manifest, dict) else None
                if not (isinstance(entries, list) and all(
                        isinstance(e, dict) and isinstance(e.get("id"), str)
                        and isinstance(e.get("path"), str) for e in entries)):
                    raise FormatError(f"{manifest_path}: expected an object whose 'instances' "
                                      f"is a list of objects with string 'id' and 'path'")
                root = p.resolve()
                for entry in entries:
                    if not (p / entry["path"]).resolve().is_relative_to(root):
                        raise FormatError(f"{manifest_path}: instance {entry['id']!r} has path "
                                          f"{entry['path']!r}, outside {str(p)!r}")
                    add(entry["id"], p / entry["path"])
            else:
                for f in sorted(p.glob("*.json")):
                    add(f.stem, f)
        else:
            add(p.stem, p)
    return out


def cmd_check(cfg, paths):
    _refuse_out(cfg.out, False)
    instances = load_instances(paths) if paths else \
        [(inst.instance_id, inst.fn) for inst in resolve_instances(cfg)]
    reports = run_check(instances, cfg)
    if not reports:  # a PASS needs a check that ran
        raise ValueError(f"no report: {len(instances)} instances, suites {list(cfg.suites)}; "
                         f"fenchel pairs need n <= {FENCHEL_PAIR_N_LIMIT}")
    _emit([r.to_json_line() for r in reports], cfg.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_falsify(cfg):
    _refuse_out(cfg.out, False)
    outcome = falsify_campaign(cfg.trials, cfg.seed, n_range=cfg.n_range)
    _emit([json.dumps(outcome.to_dict(), sort_keys=True, separators=(",", ":"))],
          cfg.out)
    return 1 if outcome.counterexamples else 0


# ---------------------------------------------------------------------------


def _add_common_flags(sp):
    sp.add_argument("--config", help="JSON config file mirroring SuiteConfig")
    sp.add_argument("--seed", type=int, help="master seed (64-bit)")
    sp.add_argument("--out", help="output path (reports or corpus dir)")


def _config_from_args(args):
    cfg = load_config(args.config) if args.config else SuiteConfig()
    overrides = {name: getattr(args, name) for name in ("seed", "suites", "out", "jobs", "trials")
                 if getattr(args, name, None) is not None}
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
    sp_check.add_argument("--suites", help="comma-separated suite list")
    sp_check.add_argument("--jobs", type=int, help="worker processes")
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
            return cmd_gen(cfg)
        if args.command == "check":
            return cmd_check(cfg, args.paths)
        if args.command == "falsify":
            return cmd_falsify(cfg)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (OSError, ValueError, FormatError, KeyError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
