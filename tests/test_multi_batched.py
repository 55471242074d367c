"""The array kernel of the multiple exchange and of the ``lemmas_2_8``
facts against the scalar loops it replaced, which stay here as the
oracles.

``check_exc_multi`` is compared by report bytes (verdict, first violating
triple, witness-size histogram and triple count) on both bounds, in both
regimes, in every dtype of the kernel: int64, Python ints beyond 2^60 and
real mode, whose ties are moved by fractions of the slack. Each test runs
again with a budget of one byte, so every block holds one triple and one
move. The lemma facts are compared without the single-exchange gate, on
tables that fail each kind of fact first.
"""

import random
import tracemalloc

import numpy as np
import pytest

from mconcave import (
    NEG_INF,
    SetFn,
    check_exc_multi,
    default_corpus,
    lift,
    mutate,
    random_table,
)
from mconcave import cli, exchange, moves
from mconcave.core import (
    REAL_EPS,
    _SUBMASKS_ASC,
    _SUBMASKS_SIZED,
    elements_of,
    leq_for,
    submasks_ascending,
    submasks_by_size,
)
from mconcave.duality import _empty_restriction
from mconcave.exchange import (
    DEFAULT_SAMPLES,
    EXHAUSTIVE_N_LIMIT,
    _best_multi,
    _first_swap,
    _lemma_facts,
    exc_multi_reports,
)
from mconcave.families import random_mnat_concave
from mconcave.reporting import failed_report, passed_report
from test_rng_replay import ref_sampled_multi

BUDGETS = [exchange._BATCH_BYTES, 1]


# --- the oracles -------------------------------------------------------------


def ref_multi_pass(f, bounded):
    """The exhaustive loop over (X, Y, I) in lex order: (first violating
    (xm, ym, im) or None, histogram of witness sizes, triples checked)."""
    vals = f.values
    leq = leq_for(f.mode)
    dom = f.dom_masks
    counts = [0] * (f.n + 1)
    for xm in dom:
        fx = vals[xm]
        for ym in dom:
            lhs = fx + vals[ym]
            for im in submasks_ascending(xm & ~ym):
                best, _, size = _best_multi(vals, xm, ym, im, bounded)
                if best is NEG_INF or not leq(lhs, best):
                    return (xm, ym, im), counts, sum(counts) + 1
                counts[size] += 1
    return None, counts, sum(counts)


def ref_line(f, bounded, samples=DEFAULT_SAMPLES, seed=0):
    """The ``check_exc_multi`` report line the scalar loops give."""
    if f.n <= EXHAUSTIVE_N_LIMIT:
        failing, counts, triples = ref_multi_pass(f, bounded)
        regime, seed = "exhaustive", None
    else:
        failing, counts, triples = ref_sampled_multi(f, bounded, samples, seed)
        regime = "sampled"
    suite = "exc_multi_bounded" if bounded else "exc_multi_unbounded"
    hist = {size: c for size, c in enumerate(counts) if c}
    if failing is None:
        return passed_report(suite, "", histogram=hist, triples=triples, regime=regime,
                             seed=seed).to_json_line()
    xm, ym, im = failing
    counter = {"X": list(elements_of(xm)), "Y": list(elements_of(ym)),
               "I": list(elements_of(im)), "lhs": f.values[xm] + f.values[ym]}
    return failed_report(suite, "", counter, histogram=hist, triples=triples,
                         regime=regime, seed=seed).to_json_line()


def ref_lemma_facts(f):
    """The loop of the ``lemmas_2_8`` suite after its gate: (counter of the
    first failing fact or None, facts checked)."""
    vals = f.values
    checked = 0
    for xm in f.dom_masks:
        for ym in f.dom_masks:
            kx, ky = xm.bit_count(), ym.bit_count()
            lhs = vals[xm] + vals[ym]
            rest = ym & ~xm
            if kx <= ky:
                d = xm & ~ym
                while d:
                    ib = d & -d
                    d ^= ib
                    checked += 1
                    if _first_swap(f, lhs, xm ^ ib, ym | ib, rest) is None:
                        return {"fact": "swap_at_leq_size", "X": list(elements_of(xm)),
                                "Y": list(elements_of(ym)), "i": ib.bit_length()}, checked
            if kx < ky:
                checked += 1
                if _first_swap(f, lhs, xm, ym, rest) is None:
                    return {"fact": "augment_at_lt_size", "X": list(elements_of(xm)),
                            "Y": list(elements_of(ym))}, checked
            for im in submasks_ascending(xm & ~ym):
                checked += 1
                empty = _empty_restriction(f, xm, ym, im)
                if empty is not None:
                    return {"fact": "restriction_domains_nonempty",
                            "X": list(elements_of(xm)), "Y": list(elements_of(ym)),
                            "I": list(elements_of(im)), "detail": empty}, checked
    return None, checked


def assert_agree(tables, **kw):
    """Both bounds of each table against the oracle; returns the FAIL count."""
    fails = 0
    for f in tables:
        reports = exc_multi_reports(f, **kw)
        for bounded in (True, False):
            want = ref_line(f, bounded, **kw)
            assert reports[bounded].to_json_line() == want, (f, bounded, kw)
            assert check_exc_multi(f, bounded, **kw).to_json_line() == want
            fails += '"FAIL"' in want
    return fails


@pytest.fixture(params=BUDGETS, ids=["budget", "one_byte"])
def budget(request, monkeypatch):
    monkeypatch.setattr(exchange, "_BATCH_BYTES", request.param)
    return request.param


def thinned(tables, budget):
    """The tables to run at ``budget``. A one-byte block is one triple and
    one move, a dozen numpy calls, so that run keeps the tables of at most
    eight domain sets."""
    return tables if budget > 1 else [f for f in tables if len(f.dom_masks) <= 8]


@pytest.fixture(scope="module")
def by_id():
    return {c.instance_id: c.fn for c in default_corpus()}


def value_dtype(f):
    return moves.value_table(f, exchange._BATCH_BYTES)[1].dtype


def real_copy(f, scale):
    return SetFn(f.n, [v if v is NEG_INF else v * scale for v in f.values], "real")


def affine(f, scale=1, shift=0):
    return SetFn(f.n, [v if v is NEG_INF else v * scale + shift for v in f.values])


# --- the enumeration ------------------------------------------------------------


def test_ranked_moves_are_submasks_by_size():
    for m in range(11):
        want = list(submasks_by_size((1 << m) - 1))
        assert list(zip(*(a.tolist() for a in moves.by_size(m)))) == want
        for width in (1, 7):
            for j0 in range(0, 1 << m, width):
                got = moves.ranked(m, j0, min(j0 + width, 1 << m))
                assert list(zip(*(a.tolist() for a in got))) == want[j0:j0 + width]


def test_deposit_is_submasks_ascending():
    rng = random.Random(3)
    for d in [0, 1, 255, 0b10110100] + [rng.randrange(1 << 10) for _ in range(40)]:
        got = moves.deposit(np.arange(1 << d.bit_count()), np.array(d), 10)
        assert got.tolist() == list(submasks_ascending(d))


def test_exhaustive_triples_are_in_lex_order(budget):
    f = random_table(5, 11, neg_inf_prob=0.4)
    dm = np.array(f.dom_masks, dtype=np.int64)
    got = [t for block in moves.exhaustive_triples(dm, 5, budget) for t in zip(*block)]
    want = [(x, y, i) for x in f.dom_masks for y in f.dom_masks
            for i in submasks_ascending(x & ~y)]
    assert [tuple(map(int, t)) for t in got] == want


# --- check_exc_multi against the loops ------------------------------------------


def test_random_tables(budget):
    tables = [random_table(n, 100 * n + s, neg_inf_prob=p)
              for n in range(8) for s in range(3) for p in (0.0, 0.3)]
    tables += [random_mnat_concave(2 + s % 2, s) for s in range(8)]
    fails = assert_agree(thinned(tables, budget))
    assert 0 < fails < 2 * len(tables)


def test_mutated_corpus(by_id, budget):
    tables = []
    for f in by_id.values():
        for s in range(2):
            g = mutate(f, s, 1 + s, toggle_neg_inf=bool(s))
            if g.dom_masks and g.n <= EXHAUSTIVE_N_LIMIT:
                tables.append(g)
    tables = thinned(tables, budget)
    assert assert_agree(tables) > len(tables)


def test_corpus_passes(by_id, budget):
    tables = [f for f in by_id.values() if f.n <= EXHAUSTIVE_N_LIMIT]
    assert assert_agree(thinned(tables, budget)) == 0


def test_bounds_fail_at_different_triples(by_id):
    """The bounded FAIL can come first: the bounded report keeps its own
    triple and count, and the pass goes on to the unbounded one."""
    g = mutate(by_id["n6_uniform_r3"], 0, 1)
    h = mutate(by_id["n6_partition"], 1, 2, toggle_neg_inf=True)
    for f in (g, h):
        reports = exc_multi_reports(f)
        assert reports[True].triples_checked < reports[False].triples_checked
    assert assert_agree([g, h]) == 4


def test_real_mode(by_id, budget):
    tables = [real_copy(by_id[iid], 1 / 3) for iid in ("n3_laminar", "n4_assignment")]
    tables += [real_copy(by_id["n5_laminar"], 0.01),
               real_copy(mutate(by_id["n5_partition"], 0, 1), 0.37)]
    tables += [real_copy(random_table(2 + s % 4, s, neg_inf_prob=0.2), 0.7) for s in range(8)]
    assert 0 < assert_agree(thinned(tables, budget)) < 2 * len(tables)


def test_real_mode_ties(by_id):
    """Values below 1 make the slack exactly REAL_EPS: raising one value
    of a table with ties by half of it keeps the loop's PASS, by 1.5 times
    it makes the loop's FAIL."""
    base = real_copy(by_id["n4_laminar"], 0.01)
    assert assert_agree([base]) == 0
    results = {}
    for mask in (3, 6, 15):
        for bump in (0.5 * REAL_EPS, 1.5 * REAL_EPS):
            h = base.with_value(elements_of(mask), base.values[mask] + bump)
            results[mask, bump] = assert_agree([h])
    assert all(results[mask, 0.5 * REAL_EPS] == 0 for mask in (3, 6, 15))
    assert any(results[mask, 1.5 * REAL_EPS] for mask in (3, 6, 15))


def test_ints_beyond_int64_run_on_python_ints(by_id, budget):
    """A table peaking at 2^60 - 1 stays in int64; 2^60 and beyond,
    shifted by 2^62, by +-2^63 or past the float range, runs on Python
    ints."""
    f = by_id["n3_laminar"]
    edge = affine(f, shift=2**60 - 1 - max(f.values))
    low = affine(f, shift=-(2**60 - 1) - min(f.values))
    assert value_dtype(edge) == np.int64
    assert value_dtype(low) == np.int64
    tables = [edge, low]
    for shift in (2**62, 2**63, -(2**63), 2**2000):
        big = [affine(f, shift=shift), affine(mutate(f, 0, 1), shift=shift),
               affine(random_table(3, 5, neg_inf_prob=0.3), shift=shift),
               affine(random_mnat_concave(3, 1), shift=shift)]
        assert all(value_dtype(g) == object for g in big)
        tables += big
    assert value_dtype(affine(f, shift=2**60 - max(f.values))) == object
    fails = assert_agree(thinned(tables, budget))
    assert 0 < fails < 2 * len(tables)


def late_fail_table(missing):
    """An n = 8 table, 0 everywhere but NEG_INF at ``missing`` and its
    complement: a sampled triple fails only when every exchange reaches one
    of the two, so the first FAIL comes late."""
    vals = [0] * 256
    vals[missing] = vals[255 ^ missing] = NEG_INF
    return SetFn(8, vals)


def test_sampled_blocks(by_id, budget):
    """Sample counts around 1024, and FAILs in the first replay block and
    in the last: the late table first fails at sample 3058 of seed 1,
    past the first block of the default budget; a one-byte block holds one
    sample."""
    f8 = by_id["n8_wbasis_uniform_r4"]
    early = mutate(by_id["n8_wbasis_uniform_r3"], 0, 1)  # FAILs at sample 1
    late = late_fail_table(0b111)
    if budget > 1:
        runs = [(late, 3058, 1), (late, 3058, 2**64 - 1), (mutate(f8, 0, 1), 10**4, 0)]
        runs += [(g, samples, seed) for g in (f8, late, early)
                 for samples in (1, 1023, 1024, 1025, 10**4) for seed in (0, 2**64 - 1)]
    else:
        runs = [(mutate(f8, 0, 1), 27, 0), (early, 5, 0), (f8, 40, 2**64 - 1)]
        runs += [(g, samples, 0) for g in (f8, early) for samples in (1, 2, 3)]
    step = max(1, exchange._BATCH_BYTES // 640)  # the samples of a replay block
    blocks = set()
    for g, samples, seed in runs:
        assert_agree([g], samples=samples, seed=seed)
        rep = check_exc_multi(g, samples=samples, seed=seed)
        if not rep.passed:
            block = (rep.triples_checked - 1) // step
            blocks.add((block == 0, block == (samples - 1) // step))
    assert {(True, False), (False, True)} <= blocks


def test_both_reports_come_from_one_pass(by_id, monkeypatch):
    """The exchange suites of an instance run one multiple-exchange pass."""
    calls = []
    real = exchange._multi_pass_margin
    monkeypatch.setattr(exchange, "_multi_pass_margin",
                        lambda f, *a: calls.append(f) or real(f, *a))
    cfg = cli.SuiteConfig(suites=("exc_multi_bounded", "exc_multi_unbounded", "corollary1"))
    instances = [(iid, by_id[iid]) for iid in ("n4_laminar", "n8_wbasis_partition")]
    lines = [r.to_json_line() for r in cli.run_check(instances, cfg)]
    assert [f for _, f in instances] == calls
    for index, (iid, f) in enumerate(instances):
        for bounded in (True, False):
            report = check_exc_multi(f, bounded, seed=index, instance_id=iid)
            assert report.to_json_line() in lines


# --- the lemma facts against the loop ---------------------------------------------


def lemma_tables(by_id):
    tables = [random_table(n, 50 * n + s, neg_inf_prob=p)
              for n in range(7) for s in range(4) for p in (0.0, 0.3, 0.6)]
    tables += [mutate(f, s, 1 + s, toggle_neg_inf=bool(s))
               for f in by_id.values() if f.n <= 6 for s in range(2)]
    tables += [real_copy(random_table(4, s, neg_inf_prob=0.2), 0.3) for s in range(6)]
    tables += [f for f in by_id.values() if f.n <= 5]
    # Small tables that fail first on a swap, an augment, x_side and y_side.
    tables += [random_table(n, s, neg_inf_prob=p) for n, s, p in (
        (3, 1, 0.3), (2, 0, 0.3), (3, 113, 0.3), (3, 17, 0.6), (3, 31, 0.5), (3, 49, 0.5))]
    # ({1, 2, 3}, {4, 5}, {1}) reaches a finite x side only by J = {4, 5}.
    tables.append(SetFn(5, [0 if m in (7, 24, 25, 30) else None for m in range(32)]))
    # Python ints: a value of +-2^60, and shifts by +-2^63.
    f3 = by_id["n3_laminar"]
    tables += [f3.with_value((1, 2), 2**60), by_id["n4_laminar"].with_value((3,), -(2**60))]
    tables += [affine(g, shift=shift) for shift in (2**63, -(2**63))
               for g in (f3, mutate(f3, 0, 1), random_table(3, 5, neg_inf_prob=0.3),
                         random_mnat_concave(3, 1), by_id["n4_laminar"])]
    # Real ties moved by half the slack and by 1.5 times it.
    for iid, masks in (("n3_laminar", (3, 5, 7)), ("n4_laminar", (3, 6, 15))):
        base = real_copy(by_id[iid], 0.01)
        tables += [base.with_value(elements_of(m), base.values[m] + bump)
                   for m in masks for bump in (0.5 * REAL_EPS, 1.5 * REAL_EPS)]
    # Lifts with 252 and 924 domain sets: a PASS, and FAILs past many blocks.
    n5, n6 = by_id["n5_laminar"], by_id["n6_laminar"]
    tables += [lift(n5), lift(n5.with_value((3, 5), n5.values[20] - 1)),
               lift(n6.with_value((6,), n6.values[32] - 1))]
    return [f for f in tables if f.dom_masks]


def test_lemma_facts_match_the_loop(by_id, budget):
    """The facts without their gate, on tables that fail each kind first;
    on a PASS the counts of facts agree."""
    kinds = set()
    passes = 0
    tables = thinned(lemma_tables(by_id), budget)
    assert {str(value_dtype(f)) for f in tables} == {"int64", "object", "float64"}
    assert {252, 924} <= {len(f.dom_masks) for f in tables} or budget == 1
    for f in tables:
        got = _lemma_facts(f)
        assert got == ref_lemma_facts(f), f
        counter, _ = got
        if counter is None:
            passes += 1
        elif counter["fact"] == "restriction_domains_nonempty":
            kinds.add(counter["detail"].split()[0])
        else:
            kinds.add(counter["fact"])
    assert kinds == {"swap_at_leq_size", "augment_at_lt_size", "x_side", "x_side_sized",
                     "y_side"}
    assert passes >= 20


# --- bounded memory ----------------------------------------------------------------


def traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def n20_tables():
    """Two n = 20 tables whose domain holds the empty and the full set, so
    that |Y \\ X| = 20: those two sets alone, and a chain of prefixes with
    every singleton, which passes the augment facts from the empty set up
    to the full one."""
    full = (1 << 20) - 1
    pair = [NEG_INF] * (1 << 20)
    pair[0] = pair[full] = 0
    chain = [NEG_INF] * (1 << 20)
    for k in range(21):
        chain[(1 << k) - 1] = 0
    for j in range(20):
        chain[1 << j] = 0
    return SetFn(20, pair), SetFn(20, chain)


def test_memory_stays_bounded():
    """The sampled multiple exchange and the lemma facts at n = 20 hold a
    few blocks at a time, and give the loops' results."""
    budget = exchange._BATCH_BYTES
    pair, chain = n20_tables()
    samples, seed = 3, 6  # (empty, full), then (full, empty, I) with a NEG_INF move
    reports, peak = traced_peak(lambda: exc_multi_reports(pair, samples=samples, seed=seed))
    assert peak < 8 * budget
    facts, peak = traced_peak(lambda: _lemma_facts(chain))
    assert peak < 8 * budget
    gate, peak = traced_peak(lambda: cli._suite_lemmas("pair", pair, cli.SuiteConfig(), 0))
    assert peak < 8 * budget and not gate.passed
    try:
        for bounded in (True, False):
            assert reports[bounded].to_json_line() == ref_line(pair, bounded, samples, seed)
        assert facts == ref_lemma_facts(chain)
    finally:
        for mask in list(_SUBMASKS_ASC) + list(_SUBMASKS_SIZED):
            if mask.bit_count() > 12:
                _SUBMASKS_ASC.pop(mask, None)
                _SUBMASKS_SIZED.pop(mask, None)
    assert facts[0]["fact"] == "augment_at_lt_size" and facts[1] > 40
    assert reports[False].triples_checked == 2 and not reports[False].passed
