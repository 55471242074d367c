"""The batched grid-inequality engine against slow references.

Box regime: the scalar explicit-grid path on the same integer box visits
pairs in the same order, so verdict and counterexample agree; on PASS
the whole report does. (A box FAIL counts its whole failing row, the
explicit path stops at the failing pair.)

Sampled regime: a copy, kept here, of the scalar sampled loops the
engine replaced; every report must be byte-identical.
"""

import random

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
    integer_grid,
    mutate,
    random_table,
    restrict_by_size,
)
from mconcave.core import leq_for
from mconcave.duality import _Conjugates, _feasible_caps
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


def _run_all(f, box, seed, samples, instance_id, grid=None):
    caps = list(_feasible_caps(f))
    reports = [check_conjugate_submodular(f, grid, box=box, seed=seed, samples=samples,
                                          instance_id=instance_id)]
    for k in caps + [f.n + 1]:
        reports.append(check_cross_submodular(f, k, grid, box=box, seed=seed + 1,
                                              samples=samples, instance_id=instance_id))
        reports.append(check_strong_quotient(f, k, grid, box=box, seed=seed + 2,
                                             samples=samples, instance_id=instance_id))
    return reports


# Sampled boxes: each has more than 7^4 points at its n, so int mode samples.
SAMPLED_BOX = {2: (-30, 30), 3: (-7, 7), 4: (-3, 4), 5: (-3, 3)}
# Boxes small enough for the scalar explicit path to sweep quickly (the
# default [-3, 3]^n from n = 3 on takes it tens of seconds per table).
EXPLICIT_BOX = {2: (-3, 3), 3: (-1, 2), 4: (-1, 1), 5: (0, 1)}


# --- box regime against the explicit grid ----------------------------------------


@pytest.mark.parametrize("instance_id, f", _inputs(5))
def test_box_matches_explicit_grid(instance_id, f):
    box = EXPLICIT_BOX[f.n]
    fast = _run_all(f, box, 0, 10, instance_id)
    slow = _run_all(f, box, 0, 10, instance_id, grid=integer_grid(f.n, *box))
    for a, b in zip(fast, slow):
        assert a.regime == "exhaustive"
        assert (a.verdict, a.counterexample) == (b.verdict, b.counterexample)
        if a.passed:
            assert a == b
        else:
            assert a.triples_checked >= b.triples_checked


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
