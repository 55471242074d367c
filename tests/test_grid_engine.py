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

Every loop reads conjugates exactly (``exact_conjugate``), so a real
table is compared without a tolerance.
"""

import random
import tracemalloc
from functools import cache
from fractions import Fraction
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


def exact_conjugate(f, p):
    """max_Z f(Z) - p(Z), exactly: the scalar ``conjugate`` of f's exact
    table D * f at the prices D * p, over D (a Fraction when D > 1)."""
    d = f.scale
    value = conjugate(SetFn(f.n, f.exact), PriceVector(tuple(d * e for e in p.entries))).value
    return value if d == 1 else Fraction(value, d)


def plain_conjugate(conj, P):
    """The plain conjugate column of ``_Conjugates`` at the price rows P,
    without the per-size pass: the maximum of its domain-major gains, in
    int64 as the kernel returns it, or in Python ints."""
    plain = conj._gains(P).max(axis=0)
    return plain if plain.dtype == object else plain.astype(np.int64)


def _join(p, q):
    return PriceVector(tuple(map(max, p.entries, q.entries)))


def _meet(p, q):
    return PriceVector(tuple(map(min, p.entries, q.entries)))


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
    caps = list(_feasible_caps(f))
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        p, q = _pair(rng, lo, hi, f.n)
        jn, mt = _join(p, q), _meet(p, q)
        checked += 2
        if not (exact_conjugate(f, jn) + exact_conjugate(f, mt)
                <= exact_conjugate(f, p) + exact_conjugate(f, q)):
            counter = {"inequality": "submodular", "p": list(p.entries),
                       "q": list(q.entries)}
            return _sampled(counter, checked, seed, instance_id)
        k = caps[rng.randrange(len(caps))]
        fk = restrict_by_size(f, k)
        if not (exact_conjugate(fk, jn) + exact_conjugate(fk, mt)
                <= exact_conjugate(fk, p) + exact_conjugate(fk, q)):
            counter = {"inequality": "submodular_sized", "k": k,
                       "p": list(p.entries), "q": list(q.entries)}
            return _sampled(counter, checked, seed, instance_id)
    return _sampled(None, checked, seed, instance_id)


def ref_cross(f, k, lo, hi, seed, samples, instance_id):
    rng = random.Random(seed)
    fk = restrict_by_size(f, k)
    checked = 0
    for _ in range(samples):
        p, q = _pair(rng, lo, hi, f.n)
        checked += 1
        lhs = exact_conjugate(fk, _meet(p, q)) + exact_conjugate(f, _join(p, q))
        if not lhs <= exact_conjugate(fk, p) + exact_conjugate(f, q):
            counter = {"inequality": "cross_submodular", "k": k,
                       "p": list(p.entries), "q": list(q.entries)}
            return _sampled(counter, checked, seed, instance_id)
    return _sampled(None, checked, seed, instance_id)


def ref_quotient(f, k, lo, hi, seed, samples, instance_id):
    rng = random.Random(seed)
    fk = restrict_by_size(f, k)
    checked = 0
    for _ in range(samples):
        pairs = [sorted((rng.randint(lo, hi), rng.randint(lo, hi))) for _ in range(f.n)]
        q = PriceVector(tuple(a for a, _ in pairs))
        p = PriceVector(tuple(b for _, b in pairs))
        checked += 1
        lhs = exact_conjugate(f, p) - exact_conjugate(f, q)
        rhs = exact_conjugate(fk, p) - exact_conjugate(fk, q)
        if not lhs <= rhs:
            counter = {"inequality": "strong_quotient", "k": k,
                       "p": list(p.entries), "q": list(q.entries)}
            return _sampled(counter, checked, seed, instance_id)
    return _sampled(None, checked, seed, instance_id)


# --- reference: the scalar box loops ----------------------------------------------


def _box_vectors(n, lo, hi):
    """Every integer price vector of [lo, hi]^n, in lexicographic order."""
    return [PriceVector(q) for q in product(range(lo, hi + 1), repeat=n)]


def _memo_conjugate(f):
    """g(p, k): the exact conjugate of f with size cap k (None: no cap),
    memoized."""
    memo = {}

    def g(p, k=None):
        key = (p.entries, k)
        if key not in memo:
            memo[key] = exact_conjugate(f if k is None else restrict_by_size(f, k), p)
        return memo[key]
    return g


def _boxed(counter, checked, instance_id):
    if counter:
        return failed_report("duality_grid", instance_id, counter, triples=checked)
    return passed_report("duality_grid", instance_id, triples=checked)


def ref_box_submodular(f, lo, hi, instance_id=""):
    """Pairs p before-or-equal q in box order, for the plain conjugate and
    then for each feasible size cap."""
    g = _memo_conjugate(f)
    vectors = _box_vectors(f.n, lo, hi)
    checked = 0
    for k in [None] + list(_feasible_caps(f)):
        for a, p in enumerate(vectors):
            for q in vectors[a:]:
                checked += 1
                if not g(_join(p, q), k) + g(_meet(p, q), k) <= g(p, k) + g(q, k):
                    counter = {"inequality": "submodular" if k is None else "submodular_sized",
                               "p": list(p.entries), "q": list(q.entries)}
                    if k is not None:
                        counter["k"] = k
                    return _boxed(counter, checked, instance_id)
    return _boxed(None, checked, instance_id)


def ref_box_cross(f, k, lo, hi, instance_id=""):
    g = _memo_conjugate(f)
    vectors = _box_vectors(f.n, lo, hi)
    checked = 0
    for p in vectors:
        for q in vectors:
            checked += 1
            if not g(_meet(p, q), k) + g(_join(p, q)) <= g(p, k) + g(q):
                counter = {"inequality": "cross_submodular", "k": k,
                           "p": list(p.entries), "q": list(q.entries)}
                return _boxed(counter, checked, instance_id)
    return _boxed(None, checked, instance_id)


def ref_box_quotient(f, k, lo, hi, instance_id=""):
    g = _memo_conjugate(f)
    vectors = _box_vectors(f.n, lo, hi)
    checked = 0
    for p in vectors:
        for q in vectors:
            if _meet(p, q) != q:  # q <= p
                continue
            checked += 1
            if not g(p) - g(q) <= g(p, k) - g(q, k):
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


@cache
def local_cases():
    """(id, table, lo, hi) with n = 0..4 and box sides w = 1..7: seeded
    random tables, M-natural-concave bases (the corpus from n = 3 on,
    rejection-sampled tables below), seeded ``mutate``d copies of the
    bases, and, on boxes of at most 4^4 points, one of these scaled by
    2^62 for the exact object path. Built on first use, not at import:
    ``random_mnat_concave`` runs the exchange sweep, and a fault there
    should fail the test that reads these cases, not the collection of
    every module that imports this one."""
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


@pytest.mark.parametrize("n", range(5))
def test_unit_steps_decide_like_all_pairs(n):
    """Local PASS iff the all-pairs pass finds no violation in any cell,
    and on PASS the closed-form counts are the pass's counts."""
    failing = 0
    for case_id, f, lo, hi in local_cases():
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


@cache
def toggled():
    """Corpus instances with n = 5..8 and two copies of each with one entry
    toggled between NEG_INF and finite, which mostly gain or lose a domain
    size, so the cross and quotient checks fail at some caps only, as
    (id, table) in the order of ``TOGGLED_IDS``. Built on first use, like
    ``local_cases``."""
    out = []
    for c in default_corpus():
        if 5 <= c.fn.n <= 8:
            out.append((c.instance_id, c.fn))
            out += [(f"{c.instance_id}_tog{s}", mutate(c.fn, s, 1 + s, toggle_neg_inf=True))
                    for s in range(2)]
    return out


TOGGLED_IDS = [c.instance_id + tog for c in default_corpus() if 5 <= c.fn.n <= 8
               for tog in ("", "_tog0", "_tog1")]
SHIFTED_ID = "n5_wbasis_uniform_tog1_shifted"


@cache
def shifted():
    """A real copy of a toggled table, scaled by 10^-3 and shifted by 10^7,
    that fails the sampled strong quotient at seed 7 by about 2e-3 (at caps
    1 and 2, sample 26, like its int form): small differences of large
    values, decided exactly."""
    return SetFn(5, [v if v is NEG_INF else v * 1e-3 + 1e7
                     for v in dict(toggled())["n5_wbasis_uniform_tog1"].values], "real")


def _ref_pairs(f, caps, seed, samples, instance_id):
    return [(ref_cross(f, k, -3, 3, seed, samples, instance_id),
             ref_quotient(f, k, -3, 3, seed, samples, instance_id)) for k in caps]


def _lines(pairs):
    return [r.to_json_line() for pair in pairs for r in pair]


@pytest.mark.parametrize("mode", ["int", "real"])
@pytest.mark.parametrize("instance_id", [pytest.param(iid, id=f"{iid}-f{i}")  # f<i>: stable ids
                                         for i, iid in enumerate(TOGGLED_IDS + [SHIFTED_ID])])
def test_one_pass_matches_scalar_loops(instance_id, mode, monkeypatch):
    """Every cap (and one past n) gets the reports of its own scalar cross
    and quotient loops, in chunks of the default size and of two samples.
    ``shifted()`` is real already ("real" divides it by 3)."""
    f = shifted() if instance_id == SHIFTED_ID else dict(toggled())[instance_id]
    if mode == "real":
        f = _as_real(f)
    caps = list(_feasible_caps(f)) + [f.n + 1]
    slow = _lines(_ref_pairs(f, caps, 7, 40, instance_id))
    if instance_id == SHIFTED_ID:
        assert sum('"strong_quotient"' in line for line in slow) == 2
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
    by_id = dict(toggled())
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
    cases = [(iid, f) for iid, f in toggled() if len(list(_feasible_caps(f))) > 3]
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
    """A sampled `duality_grid` draws from one generator and builds one
    conjugate table for the submodular check, and one of each for every
    cap's cross and quotient checks, and evaluates 4 price rows a
    submodular sample and 6 a cross-and-quotient sample. A lone cross
    check evaluates 4 rows a sample and a lone quotient check 2, with the
    scalar loops' reports."""
    f = {c.instance_id: c.fn for c in default_corpus()}[instance_id]
    rngs, tables, rows = [], [], []
    draws, call = duality._draws, _Conjugates.__call__

    def spy_draws(rng, samples, runs):
        rngs.append(rng)
        return draws(rng, samples, runs)

    def spy_call(self, P):
        tables.append(self)
        rows.append(len(P))
        return call(self, P)

    monkeypatch.setattr(duality, "_draws", spy_draws)
    monkeypatch.setattr(_Conjugates, "__call__", spy_call)
    samples = 1000
    suite, = run_check([(instance_id, f)], SuiteConfig(suites=("duality_grid",),
                                                       samples=samples))
    per_k = samples // len(list(_feasible_caps(f)))
    assert suite.passed and suite.regime == "sampled"
    assert len({id(r) for r in rngs}) == 2
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
    table, plain = conj(P), plain_conjugate(conj, P)
    caps = list(_feasible_caps(f))
    assert table.shape == (len(prices), len(caps))
    for row, entries in enumerate(prices):
        p = PriceVector(tuple(entries))
        assert plain[row] == f.scale * exact_conjugate(f, p)
        for c, k in enumerate(caps):
            assert table[row, c] == f.scale * exact_conjugate(restrict_by_size(f, k), p)


def _tier_table(mode, last):
    """n = 3 with exact values 0..6 and ``last`` at the full set, so
    max|D * f| = ``last`` (real: the values over D = 4)."""
    return SetFn(3, [v if mode == "int" else v / 4 for v in [*range(7), last]], mode)


def _tier_edges(mode):
    """(table, top, tier) at and just past each bound of ``_Conjugates``,
    with S = max|D * f| + n * D * top for prices up to ``top``: float32
    while S < 2^24, float64 while S < 2^53, int64 while S < 2^61, Python
    ints above. 2^24 - 16 and 2^53 - 8 are multiples of n * D (3, or 12
    for real), so the first two edges of each float bound sit at S =
    bound - 1 and S = bound; at the third past 2^24, the gain 17 + n * D *
    top of the full set at -top is odd and past 2^24, where a float32
    difference would round. Past 2^53, the gain 9 + n * D * top is odd,
    where a float64 difference would round, and at the last int64 edge but
    one n * D * top passes 2^53, where a float64 product would."""
    unit = 3 * (1 if mode == "int" else 4)
    return [(_tier_table(mode, 15), (2**24 - 16) // unit, "float32"),
            (_tier_table(mode, 16), (2**24 - 16) // unit, "float64"),
            (_tier_table(mode, 17), (2**24 - 16) // unit, "float64"),
            (_tier_table(mode, 7), (2**53 - 8) // unit, "float64"),
            (_tier_table(mode, 8), (2**53 - 8) // unit, "int64"),
            (_tier_table(mode, 9), (2**53 - 1) // unit, "int64"),
            (_tier_table(mode, 9), -(-(2**53) // unit), "int64"),
            (_tier_table(mode, 9), (2**61 - 1 - 9) // unit, "int64"),
            (_tier_table(mode, 9), (2**61 - 9) // unit + 1, "object")]


def _tier_rows(top):
    return [[top, top, top], [-top, top - 1, -(top - 1)], [top, 1, 0], [-top, -top, -top]]


@pytest.mark.parametrize("mode", ["int", "real"])
def test_kernel_product_tiers_at_their_bounds(mode):
    """``_Conjugates._gains`` at each edge of ``_tier_edges`` against the
    exact domain-major gains: float32 and float64 in the float tiers,
    int64 in the int64 tier, Python ints above. Prices that note each
    dtype they are cast to show which product ran."""
    edges = _tier_edges(mode)
    assert [f.exact[-1] + 3 * f.scale * top for f, top, _ in edges[:5]] == \
        [2**24 - 1, 2**24, 2**24 + 1, 2**53 - 1, 2**53]
    for f, top, tier in edges:
        conj = _Conjugates(f)
        P = np.array(_tier_rows(top), dtype=np.int64).view(_NotedCasts)
        P.seen = []
        want = [[v - sum(int(p) * int(x) for p, x in zip(row, z)) for row in P]
                for v, z in zip(conj.vals, conj.ind)]
        got = conj._gains(P)
        assert got.tolist() == want, tier
        assert got.dtype == np.dtype(tier), tier
        floats = [t for t in P.seen if t.kind == "f"]
        assert floats == ([np.dtype(tier)] if tier.startswith("float") else []), tier


@pytest.mark.parametrize("mode", ["int", "real"])
def test_kernel_tiers_match_scalar_conjugates(mode):
    """``_Conjugates`` at each edge of ``_tier_edges``, and at prices
    (-2^62)^3, whose plain conjugate passes int64, against the scalar
    conjugate of every size cap: an int64 table from every tier but
    Python ints, whose table stays ``dtype=object``."""
    edges = [(f, _tier_rows(top), tier) for f, top, tier in _tier_edges(mode)]
    edges.append((_tier_table(mode, 9), [[-2**62] * 3], "object"))
    for f, rows, tier in edges:
        table = _Conjugates(f)(np.array(rows, dtype=np.int64))
        assert table.dtype == (object if tier == "object" else np.int64), tier
        for got, entries in zip(table.tolist(), rows):
            p = PriceVector(tuple(entries))
            assert got == [f.scale * exact_conjugate(restrict_by_size(f, k), p)
                           for k in _feasible_caps(f)], tier
    assert max(table[0]) >= 2**63  # the last table's, at (-2^62)^3


def test_real_thirds_take_the_int64_product_at_box_prices():
    """A corpus table read as thirds is a real table of 16-digit decimals,
    D = 10^16, so max|D * f| alone passes 2^53: at the prices of the
    default box ``_Conjugates`` takes the int64 product, with no float64
    cast of the prices, and every column equals the scalar conjugate of its
    size cap at every point. Such tables are what keeps the int64 tier."""
    f = _as_real({c.instance_id: c.fn for c in default_corpus()}["n4_laminar"])
    conj = _Conjugates(f)
    assert f.scale == 10**16 and conj.magnitude >= 2**53
    pts = _box_points(f.n, -3, 3)
    P = pts.view(_NotedCasts)
    P.seen = []
    assert conj._gains(P).dtype == np.int64 and np.dtype(np.float64) not in P.seen
    table = conj(pts)
    assert table.dtype == np.int64 and len(table) == 7**4
    caps = list(_feasible_caps(f))
    for got, entries in zip(table.tolist(), pts.tolist()):
        p = PriceVector(tuple(entries))
        assert got == [f.scale * exact_conjugate(restrict_by_size(f, k), p) for k in caps]


def test_float_tier_keeps_one_gains_temporary():
    """A call in either float tier on 1,024 price rows of a 70-set domain
    peaks, under ``tracemalloc`` (numpy's buffers included), below 1.5
    times one |dom| x rows gains array of the tier's float: the product
    and the differences share one array, and only the caps x rows table
    is cast to int64. A second gains-sized array, such as an int64 copy of
    the product, would reach two. Prices of 2^21 times -3..3 put S past
    2^24, into the float64 tier."""
    f = {c.instance_id: c.fn for c in default_corpus()}["n8_wbasis_uniform_r4"]
    conj = _Conjugates(f)
    assert len(f.dom_masks) == 70
    for unit, dtype in ((1, np.float32), (1 << 21, np.float64)):
        P = np.random.default_rng(0).integers(-3, 4, size=(1024, f.n)) * unit
        gains = P.shape[0] * len(f.dom_masks) * np.dtype(dtype).itemsize
        assert conj._gains(P).dtype == dtype
        tracemalloc.start()
        try:
            table = conj(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.dtype == np.int64
        assert peak < 1.5 * gains, dtype


class _NotedCasts(np.ndarray):
    """An array that notes each dtype it or a view of it is cast to in
    ``seen``."""

    def __array_finalize__(self, obj):
        self.seen = getattr(obj, "seen", None)

    def astype(self, dtype, *args, **kwargs):
        self.seen.append(np.dtype(dtype))
        return np.asarray(self).astype(dtype, *args, **kwargs)
