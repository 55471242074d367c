"""The batched grid-inequality engine against slow references.

Box regime: a copy, kept here, of the scalar pair loops over the same
integer box visits pairs in the same order, so verdict and
counterexample agree; on PASS the whole report does. (A box FAIL counts
its whole failing row, the loops stop at the failing pair.) The
unit-square and unit-step test that decides a PASS is held against the
engine's own all-pairs pass, which names every violation.

Sampled regime: a copy, kept here, of the scalar sampled loops the
engine replaced; every report must be byte-identical. The one pass that
serves the cross and quotient checks of every size cap is held against
the loops of each cap, and its work is counted.
"""

import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mconcave import (
    NEG_INF,
    PriceVector,
    SetFn,
    check_conjugate_submodular,
    check_cross_submodular,
    check_strong_quotient,
    conjugate,
    conjugate_sized,
    default_corpus,
    matroid_rank_fn,
    mutate,
    random_mnat_concave,
    random_table,
    restrict_by_size,
    uniform_matroid,
)
from mconcave import duality
from mconcave.cli import SuiteConfig, run_check
from mconcave.core import _Replay, leq_for
from mconcave.duality import (
    _Conjugates,
    _all_pairs,
    _box_points,
    _box_sweeps,
    _chunk,
    _cross_and_quotient,
    _feasible_caps,
    _unit_steps_hold,
)
from mconcave.reporting import failed_report, passed_report

# --- reference: the scalar sampled loops -------------------------------------


def _pair(rng, lo, hi, n):
    p = PriceVector(tuple(rng.randint(lo, hi) for _ in range(n)))
    q = PriceVector(tuple(rng.randint(lo, hi) for _ in range(n)))
    return p, q


def _sampled(counter, checked, seed, instance_id):
    if counter:
        return failed_report("duality_grid", instance_id, counter,
                             triples=checked, regime="sampled", seed=seed)
    return passed_report("duality_grid", instance_id, triples=checked,
                         regime="sampled", seed=seed)


def ref_submodular(f, lo, hi, seed, samples, instance_id):
    leq = leq_for(f.mode)
    caps = list(_feasible_caps(f))
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        p, q = _pair(rng, lo, hi, f.n)
        jn, mt = p.join(q), p.meet(q)
        checked += 2
        if not leq(conjugate(f, jn).value + conjugate(f, mt).value,
                   conjugate(f, p).value + conjugate(f, q).value):
            counter = {"inequality": "submodular", "p": list(p.entries),
                       "q": list(q.entries)}
            return _sampled(counter, checked, seed, instance_id)
        k = caps[rng.randrange(len(caps))]
        fk = restrict_by_size(f, k)
        if not leq(conjugate(fk, jn).value + conjugate(fk, mt).value,
                   conjugate(fk, p).value + conjugate(fk, q).value):
            counter = {"inequality": "submodular_sized", "k": k,
                       "p": list(p.entries), "q": list(q.entries)}
            return _sampled(counter, checked, seed, instance_id)
    return _sampled(None, checked, seed, instance_id)


def ref_cross(f, k, lo, hi, seed, samples, instance_id):
    leq = leq_for(f.mode)
    rng = random.Random(seed)
    fk = restrict_by_size(f, k)
    checked = 0
    for _ in range(samples):
        p, q = _pair(rng, lo, hi, f.n)
        checked += 1
        lhs = conjugate(fk, p.meet(q)).value + conjugate(f, p.join(q)).value
        if not leq(lhs, conjugate(fk, p).value + conjugate(f, q).value):
            counter = {"inequality": "cross_submodular", "k": k,
                       "p": list(p.entries), "q": list(q.entries)}
            return _sampled(counter, checked, seed, instance_id)
    return _sampled(None, checked, seed, instance_id)


def ref_quotient(f, k, lo, hi, seed, samples, instance_id):
    leq = leq_for(f.mode)
    rng = random.Random(seed)
    fk = restrict_by_size(f, k)
    checked = 0
    for _ in range(samples):
        pairs = [sorted((rng.randint(lo, hi), rng.randint(lo, hi))) for _ in range(f.n)]
        q = PriceVector(tuple(a for a, _ in pairs))
        p = PriceVector(tuple(b for _, b in pairs))
        checked += 1
        lhs = conjugate(f, p).value - conjugate(f, q).value
        rhs = conjugate(fk, p).value - conjugate(fk, q).value
        if not leq(lhs, rhs):
            counter = {"inequality": "strong_quotient", "k": k,
                       "p": list(p.entries), "q": list(q.entries)}
            return _sampled(counter, checked, seed, instance_id)
    return _sampled(None, checked, seed, instance_id)


# --- reference: the scalar box loops ----------------------------------------------


def _box_vectors(n, lo, hi):
    """Every integer price vector of [lo, hi]^n, in lexicographic order."""
    return [PriceVector(q) for q in product(range(lo, hi + 1), repeat=n)]


def _memo_conjugate(f):
    """g(p, k): the conjugate of f with size cap k (None: no cap), memoized."""
    memo = {}

    def g(p, k=None):
        key = (p.entries, k)
        if key not in memo:
            memo[key] = (conjugate(f, p) if k is None else conjugate_sized(f, k, p)).value
        return memo[key]
    return g


def _boxed(counter, checked, instance_id):
    if counter:
        return failed_report("duality_grid", instance_id, counter, triples=checked)
    return passed_report("duality_grid", instance_id, triples=checked)


def ref_box_submodular(f, lo, hi, instance_id=""):
    """Pairs p before-or-equal q in box order, for the plain conjugate and
    then for each feasible size cap."""
    leq, g = leq_for(f.mode), _memo_conjugate(f)
    vectors = _box_vectors(f.n, lo, hi)
    checked = 0
    for k in [None] + list(_feasible_caps(f)):
        for a, p in enumerate(vectors):
            for q in vectors[a:]:
                checked += 1
                if not leq(g(p.join(q), k) + g(p.meet(q), k), g(p, k) + g(q, k)):
                    counter = {"inequality": "submodular" if k is None else "submodular_sized",
                               "p": list(p.entries), "q": list(q.entries)}
                    if k is not None:
                        counter["k"] = k
                    return _boxed(counter, checked, instance_id)
    return _boxed(None, checked, instance_id)


def ref_box_cross(f, k, lo, hi, instance_id=""):
    leq, g = leq_for(f.mode), _memo_conjugate(f)
    vectors = _box_vectors(f.n, lo, hi)
    checked = 0
    for p in vectors:
        for q in vectors:
            checked += 1
            if not leq(g(p.meet(q), k) + g(p.join(q)), g(p, k) + g(q)):
                counter = {"inequality": "cross_submodular", "k": k,
                           "p": list(p.entries), "q": list(q.entries)}
                return _boxed(counter, checked, instance_id)
    return _boxed(None, checked, instance_id)


def ref_box_quotient(f, k, lo, hi, instance_id=""):
    leq, g = leq_for(f.mode), _memo_conjugate(f)
    vectors = _box_vectors(f.n, lo, hi)
    checked = 0
    for p in vectors:
        for q in vectors:
            if not p.dominates(q):
                continue
            checked += 1
            if not leq(g(p) - g(q), g(p, k) - g(q, k)):
                counter = {"inequality": "strong_quotient", "k": k,
                           "p": list(p.entries), "q": list(q.entries)}
                return _boxed(counter, checked, instance_id)
    return _boxed(None, checked, instance_id)


# --- inputs ---------------------------------------------------------------------


def _as_real(f):
    return SetFn(f.n, [v if v is NEG_INF else v / 3 for v in f.values], "real")


def _inputs(max_n):
    """Seeded random tables and mutated corpus instances (mostly FAIL)."""
    out = [(f"rand{n}_{s}", random_table(n, 100 * n + s))
           for n in range(2, max_n + 1) for s in range(3)]
    small = [inst for inst in default_corpus() if inst.fn.n <= max_n]
    for i, inst in enumerate(small[::3]):
        out.append((inst.instance_id, inst.fn))
        out.append((f"{inst.instance_id}_mut", mutate(inst.fn, i, 1 + i % 3)))
    # Entries near 2^62 take the exact object path.
    for iid, f in out[:2] + out[-2:]:
        out.append((f"{iid}_huge", SetFn(f.n, [v if v is NEG_INF else v * 2**62
                                               for v in f.values])))
    return out


def _run_all(f, box, seed, samples, instance_id):
    caps = list(_feasible_caps(f))
    reports = [check_conjugate_submodular(f, box=box, seed=seed, samples=samples,
                                          instance_id=instance_id)]
    for k in caps + [f.n + 1]:
        reports.append(check_cross_submodular(f, k, box=box, seed=seed + 1,
                                              samples=samples, instance_id=instance_id))
        reports.append(check_strong_quotient(f, k, box=box, seed=seed + 2,
                                             samples=samples, instance_id=instance_id))
    return reports


# Sampled boxes: each has more than 7^4 points at its n, so int mode samples.
SAMPLED_BOX = {2: (-30, 30), 3: (-7, 7), 4: (-3, 4), 5: (-3, 3)}
# Boxes small enough for the scalar box loops to sweep quickly.
EXPLICIT_BOX = {2: (-3, 3), 3: (-1, 2), 4: (-1, 1), 5: (0, 1)}


# --- box regime against the scalar box loops ---------------------------------------


@pytest.mark.parametrize("instance_id, f", _inputs(5))
def test_box_matches_explicit_grid(instance_id, f):
    box = EXPLICIT_BOX[f.n]
    fast = _run_all(f, box, 0, 10, instance_id)
    slow = [ref_box_submodular(f, *box, instance_id)]
    for k in list(_feasible_caps(f)) + [f.n + 1]:
        slow.append(ref_box_cross(f, k, *box, instance_id))
        slow.append(ref_box_quotient(f, k, *box, instance_id))
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.regime == "exhaustive"
        assert (a.verdict, a.counterexample) == (b.verdict, b.counterexample)
        if a.passed:
            assert a == b
        else:
            assert a.triples_checked >= b.triples_checked


# --- the unit-square decision against the all-pairs pass ---------------------------


def _local_cases():
    """(id, table, lo, hi) with n = 0..4 and box sides w = 1..7: seeded
    random tables, M-natural-concave bases (the corpus from n = 3 on,
    rejection-sampled tables below), seeded ``mutate``d copies of the
    bases, and, on boxes of at most 4^4 points, one of these scaled by
    2^62 for the exact object path."""
    rng = random.Random(2024)
    bases = {n: [c.fn for c in default_corpus() if c.fn.n == n] for n in (3, 4)}
    cases = []
    for n in range(5):
        for w in range(1, 8):
            for t in range(8 if n <= 3 else 4 if w <= 5 else 2):
                base = (bases[n][rng.randrange(len(bases[n]))] if n >= 3
                        else random_mnat_concave(n, rng.randrange(1 << 32)))
                tables = [random_table(n, rng.randrange(1 << 32), -4, 4, rng.choice((0, 0.2))),
                          base]
                if base.n and rng.random() < 0.8:
                    tables.append(mutate(base, rng.randrange(1 << 32), rng.randint(1, 3)))
                if w**n <= 4**4:  # the object path is slow on larger boxes
                    pick = tables[rng.randrange(len(tables))]
                    tables.append(SetFn(n, [v if v is NEG_INF else v * 2**62
                                            for v in pick.values]))
                lo = rng.randint(-5, 1)
                cases += [(f"n{n}_w{w}_{t}_{i}", f, lo, lo + w - 1)
                          for i, f in enumerate(tables)]
    return cases


LOCAL_CASES = _local_cases()


@pytest.mark.parametrize("n", range(5))
def test_unit_steps_decide_like_all_pairs(n):
    """Local PASS iff the all-pairs pass finds no violation in any cell,
    and on PASS the closed-form counts are the pass's counts."""
    failing = 0
    for case_id, f, lo, hi in LOCAL_CASES:
        if f.n != n:
            continue
        pts = _box_points(n, lo, hi)
        g = np.ascontiguousarray(_Conjugates(f)(pts).T)
        local = _unit_steps_hold(g, n, hi - lo + 1)
        first, checked = _all_pairs(g, pts, lo, hi)
        assert local == all(x is None for row in first for x in row), case_id
        fast_first, fast_checked = _box_sweeps(f, lo, hi)
        assert fast_first == first, case_id
        assert np.array_equal(fast_checked, checked), case_id
        failing += not local
    # No table fails at n <= 1: the n = 0 box has one point, and every
    # table with n = 1 is M-natural concave.
    assert failing > 0 if n >= 2 else failing == 0


# --- sampled regime against the scalar loops --------------------------------------


@pytest.mark.parametrize("mode", ["int", "real"])
@pytest.mark.parametrize("instance_id, f", _inputs(5))
def test_sampled_matches_scalar_loops(instance_id, f, mode):
    if mode == "real":
        f = _as_real(f)
    box = SAMPLED_BOX[f.n]
    samples = 40
    fast = _run_all(f, box, 3, samples, instance_id)
    caps = list(_feasible_caps(f))
    slow = [ref_submodular(f, *box, 3, samples, instance_id)]
    for k in caps + [f.n + 1]:
        slow.append(ref_cross(f, k, *box, 4, samples, instance_id))
        slow.append(ref_quotient(f, k, *box, 5, samples, instance_id))
    assert [r.to_json_line() for r in fast] == [r.to_json_line() for r in slow]
    assert all(r.regime == "sampled" for r in fast)


# --- one draw and one table for every cap against the scalar loops ----------------


def _toggled_inputs():
    """Corpus instances with n = 5..8 and two copies of each with one entry
    toggled between NEG_INF and finite, which mostly gain or lose a domain
    size, so the cross and quotient checks fail at some caps only."""
    out = []
    for c in default_corpus():
        if 5 <= c.fn.n <= 8:
            out.append((c.instance_id, c.fn))
            out += [(f"{c.instance_id}_tog{s}", mutate(c.fn, s, 1 + s, toggle_neg_inf=True))
                    for s in range(2)]
    return out


TOGGLED = _toggled_inputs()


def _ref_pairs(f, caps, seed, samples, instance_id):
    return [(ref_cross(f, k, -3, 3, seed, samples, instance_id),
             ref_quotient(f, k, -3, 3, seed, samples, instance_id)) for k in caps]


def _lines(pairs):
    return [r.to_json_line() for pair in pairs for r in pair]


@pytest.mark.parametrize("mode", ["int", "real"])
@pytest.mark.parametrize("instance_id, f", TOGGLED)
def test_one_pass_matches_scalar_loops(instance_id, f, mode, monkeypatch):
    """Every cap (and one past n) gets the reports of its own scalar cross
    and quotient loops, in chunks of the default size and of two samples."""
    if mode == "real":
        f = _as_real(f)
    caps = list(_feasible_caps(f)) + [f.n + 1]
    slow = _lines(_ref_pairs(f, caps, 7, 40, instance_id))
    assert _lines(_cross_and_quotient(f, caps, seed=7, samples=40,
                                      instance_id=instance_id)) == slow
    monkeypatch.setattr(duality, "_SAMPLE_BYTES", 16 * len(f.dom_masks) * 12)
    assert _chunk(f, 6) == 2
    assert _lines(_cross_and_quotient(f, caps, seed=7, samples=40,
                                      instance_id=instance_id)) == slow


# (toggled copy, seed), in int mode: FAILs at 513 samples in the first
# chunk (n8, and n5_assignment_tog0 at a middle cap only), in the last
# chunk (n5_assignment_tog1 at a middle cap only, n5_uniform_r2_tog1 at
# caps that fail cross but not quotient).
EDGE_CASES = (("n5_uniform_r2_tog1", 1), ("n5_assignment_tog1", 1),
              ("n5_assignment_tog0", 2), ("n8_wbasis_uniform_r4_tog1", 0))


def _truncated(report, samples):
    """The scalar loop's report at ``samples``, from its report at more:
    the loop draws the same pairs whatever its sample count."""
    if report.passed or report.triples_checked > samples:
        return _sampled(None, samples, report.seed, report.instance_id)
    return report


@pytest.mark.parametrize("mode", ["int", "real"])
def test_one_pass_at_chunk_edges(mode):
    """Sample counts at the chunk edges: 170 samples of six rows per
    chunk at these domain sizes (256 of four before), one sample, and the
    FAILs of ``EDGE_CASES``."""
    by_id = dict(TOGGLED)
    firsts = []
    for instance_id, seed in EDGE_CASES:
        f = by_id[instance_id] if mode == "int" else _as_real(by_id[instance_id])
        caps = list(_feasible_caps(f))
        assert _chunk(f, 6) == 170
        slow = _ref_pairs(f, caps, seed, 513, instance_id)
        for samples in (1, 169, 170, 171, 255, 256, 257, 340, 341, 513):
            fast = _cross_and_quotient(f, caps, seed=seed, samples=samples,
                                       instance_id=instance_id)
            assert _lines(fast) == _lines([[_truncated(r, samples) for r in pair]
                                           for pair in slow]), (instance_id, samples)
        firsts.append([[None if r.passed else r.triples_checked for r in pair]
                       for pair in slow])
    # Guard the coverage the cases are meant to give.
    failing = [t for case in firsts for pair in case for t in pair if t is not None]
    assert min(failing) <= 170 and max(failing) > 340
    assert any(x is not None and y is None for case in firsts for x, y in case)
    middle_only = [case for case in firsts
                   if [c for c, pair in enumerate(case) if pair != [None, None]]
                   in ([c] for c in range(1, len(case) - 1))]
    assert len(middle_only) == (2 if mode == "int" else 0)  # f / 3 moves the FAILs


def test_suite_with_more_caps_than_samples():
    """Fewer samples than caps: each cap's checks run one sample, and the
    suite line sums the scalar loops' counts and names their first FAIL."""
    cases = [(iid, f) for iid, f in TOGGLED if len(list(_feasible_caps(f))) > 3]
    assert len(cases) > 10
    for iid, f in cases:
        suite, = run_check([(iid, f)], SuiteConfig(suites=("duality_grid",), samples=3, seed=5))
        caps = list(_feasible_caps(f))
        refs = [ref_submodular(f, -3, 3, 5, 3, iid)]
        refs += [r for pair in _ref_pairs(f, caps, 5, 1, iid) for r in pair]
        failed = [r for r in refs if not r.passed]
        assert suite.counterexample == (failed[0].counterexample if failed else None), iid
        assert suite.triples_checked == sum(r.triples_checked for r in refs), iid


@pytest.mark.parametrize("instance_id", ["n5_partition", "n6_graphic_k4",
                                         "n7_wbasis_partition", "n8_wbasis_uniform_r4"])
def test_sampled_suite_work(instance_id, monkeypatch):
    """A sampled `duality_grid` builds one replay and one conjugate table
    for the submodular check and one of each for every cap's cross and
    quotient checks, and evaluates 4 price rows a submodular sample and 6
    a cross-and-quotient sample. A lone cross check evaluates 4 rows a
    sample and a lone quotient check 2, with the scalar loops' reports."""
    f = {c.instance_id: c.fn for c in default_corpus()}[instance_id]
    replays, tables, rows = [], [], []
    take, call = _Replay.take, _Conjugates.__call__

    def spy_take(self, samples, runs):
        replays.append(self)
        return take(self, samples, runs)

    def spy_call(self, P):
        tables.append(self)
        rows.append(len(P))
        return call(self, P)

    monkeypatch.setattr(_Replay, "take", spy_take)
    monkeypatch.setattr(_Conjugates, "__call__", spy_call)
    samples = 1000
    suite, = run_check([(instance_id, f)], SuiteConfig(suites=("duality_grid",),
                                                       samples=samples))
    per_k = samples // len(list(_feasible_caps(f)))
    assert suite.passed and suite.regime == "sampled"
    assert len({id(r) for r in replays}) == 2
    assert len({id(t) for t in tables}) == 2
    assert sum(rows) == 4 * samples + 6 * per_k
    k = max(_feasible_caps(f))
    for check, ref, height in ((check_cross_submodular, ref_cross, 4),
                               (check_strong_quotient, ref_quotient, 2)):
        rows.clear()
        report = check(f, k, samples=samples)
        assert sum(rows) == height * samples
        assert report.to_json_line() == ref(f, k, -3, 3, 0, samples, "").to_json_line()


def test_sampled_chunks_fit_a_byte_budget():
    """Every corpus instance keeps chunks of 256 four-row samples; a full
    domain at n = 12 gets smaller ones and stays under 8 MiB (it peaked at
    64.7 MiB with 256 samples a chunk), with the reports pinned before the
    chunk was bounded."""
    assert {_chunk(c.fn, 4) for c in default_corpus()} == {256}
    g = mutate(matroid_rank_fn(uniform_matroid(12, 5)), 0, 1)
    pinned = [
        (lambda: check_conjugate_submodular(g, samples=256),
         '{"counterexample":null,"instance_id":"","regime":"sampled","seed":0,'
         '"suite":"duality_grid","triples_checked":512,"verdict":"PASS","witness_histogram":null}'),
        (lambda: check_cross_submodular(g, 8, samples=256),
         '{"counterexample":{"inequality":"cross_submodular","k":8,'
         '"p":[-1,-3,2,3,-1,3,-2,-1,1,3,-3,-3],"q":[-1,-2,-1,0,-1,2,0,0,1,1,-3,-3]},'
         '"instance_id":"","regime":"sampled","seed":0,"suite":"duality_grid",'
         '"triples_checked":154,"verdict":"FAIL","witness_histogram":null}'),
        (lambda: check_strong_quotient(g, 8, samples=256),
         '{"counterexample":null,"instance_id":"","regime":"sampled","seed":0,'
         '"suite":"duality_grid","triples_checked":256,"verdict":"PASS","witness_histogram":null}'),
    ]
    for check, line in pinned:
        tracemalloc.start()
        try:
            report = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.to_json_line() == line
        assert peak < 8 << 20


# --- the kernel against scalar conjugates ------------------------------------------


@st.composite
def tables_and_prices(draw):
    n = draw(st.integers(0, 4))
    mode = draw(st.sampled_from(["int", "real"]))
    scale = draw(st.sampled_from([1, 2**62]))
    entry = st.integers(-6, 6).map(lambda v: v * scale)
    if mode == "real":
        entry = st.floats(-6, 6, allow_nan=False).map(lambda v: v * scale)
    values = draw(st.lists(st.one_of(st.none(), entry), min_size=1 << n,
                           max_size=1 << n).filter(lambda vs: any(v is not None for v in vs)))
    prices = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                           min_size=1, max_size=6))
    return SetFn(n, values, mode), prices


@settings(max_examples=150, deadline=None)
@given(tables_and_prices())
def test_kernel_matches_scalar_conjugates(case):
    f, prices = case
    conj = _Conjugates(f)
    P = np.array(prices, dtype=np.int64).reshape(len(prices), f.n)
    table, plain = conj(P), conj.plain(P)
    caps = list(_feasible_caps(f))
    assert table.shape == (len(prices), len(caps))
    for row, entries in enumerate(prices):
        p = PriceVector(tuple(entries))
        assert plain[row] == conjugate(f, p).value
        for c, k in enumerate(caps):
            assert table[row, c] == conjugate_sized(f, k, p).value
