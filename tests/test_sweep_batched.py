"""The batched single-exchange sweep against the scalar loop, its oracle.

Both run through one report builder, so the comparison is of report
bytes: verdict, first failing triple and the triple count through it.
The batched path is called directly, and through the public checkers on
every domain size.
"""

import numpy as np
import pytest

from mconcave import (
    NEG_INF,
    SetFn,
    check_exc_single,
    check_m_concave,
    default_corpus,
    lift,
    mutate,
    random_table,
)
from mconcave import exchange, moves
from mconcave.core import REAL_EPS, elements_of, leq_for
from mconcave.families import random_mnat_concave


def loop_sweep(f, drop):
    """The scalar sweep over (X, Y, i) in lex order: (first failing
    (xm, ym, i) or None, triples through it)."""
    vals = f.values
    leq = leq_for(f.mode)
    dom = f.dom_masks
    triples = 0
    for xm in dom:
        fx = vals[xm]
        for ym in dom:
            d = xm & ~ym
            if not d:
                continue
            lhs = fx + vals[ym]
            yonly = ym & ~xm
            while d:
                ib = d & -d
                d ^= ib
                triples += 1
                xmi = xm ^ ib
                ymi = ym | ib
                if drop:
                    a = vals[xmi]
                    if a is not NEG_INF:
                        b = vals[ymi]
                        if b is not NEG_INF and leq(lhs, a + b):
                            continue
                e = yonly
                while e:
                    jb = e & -e
                    e ^= jb
                    a = vals[xmi | jb]
                    if a is NEG_INF:
                        continue
                    b = vals[ymi ^ jb]
                    if b is not NEG_INF and leq(lhs, a + b):
                        break
                else:
                    return (xm, ym, ib.bit_length()), triples
    return None, triples


def loop_line(f, drop, suite="s", instance_id="t"):
    return exchange._sweep_report(f, suite, instance_id, *loop_sweep(f, drop)).to_json_line()


def batched_line(f, drop):
    return exchange._sweep_report(f, "s", "t", *exchange._single_sweep(f, drop)).to_json_line()


def assert_agree(tables, drop):
    fails = 0
    for f in tables:
        want = loop_line(f, drop)
        assert batched_line(f, drop) == want, (f, drop)
        fails += '"FAIL"' in want
    return fails


def real_copy(f, scale):
    return SetFn(f.n, [v if v is NEG_INF else v * scale for v in f.values], "real")


@pytest.fixture(scope="module")
def by_id():
    return {c.instance_id: c.fn for c in default_corpus()}


@pytest.mark.parametrize("drop", [True, False])
def test_random_tables(drop):
    tables = [random_table(1 + s % 5, s, neg_inf_prob=0.1 * (s % 5)) for s in range(60)]
    tables += [random_mnat_concave(2 + s % 2, s) for s in range(12)]
    fails = assert_agree(tables, drop)
    assert 0 < fails <= len(tables) - drop


@pytest.mark.parametrize("drop", [True, False])
def test_mutated_corpus_raw_and_lifted(by_id, drop):
    tables = []
    for iid, f in by_id.items():
        for s in range(2):
            g = mutate(f, s, 1 + s, toggle_neg_inf=bool(s))
            if g.dom_masks:
                tables.append(g)
                if f.n <= 5 or iid == "n6_laminar":
                    tables.append(lift(g))
    for iid in ("n5_laminar", "n5_assignment"):
        tables.append(lift(by_id[iid]))
    assert {len(f.dom_masks) for f in tables} >= {252, 924}
    fails = assert_agree(tables, drop)
    assert fails > len(tables) // 2


@pytest.mark.parametrize("budget", [exchange._BATCH_BYTES, 1])
def test_failures_past_the_first_block(by_id, monkeypatch, budget):
    """Single-entry moves whose first lifted failure lies past the 16th and
    the 64th domain set; a budget of one byte makes every row a block."""
    monkeypatch.setattr(exchange, "_BATCH_BYTES", budget)
    tables = []
    for iid, mask, delta in (("n5_laminar", 20, -1), ("n6_laminar", 32, -1),
                             ("n6_laminar", 7, 2), ("n6_assignment", 40, -1)):
        f = by_id[iid]
        tables.append(lift(f.with_value(elements_of(mask), f.values[mask] + delta)))
    tables.append(lift(by_id["n5_laminar"]))
    for drop in (True, False):
        assert assert_agree(tables, drop) == len(tables) - 1


def test_real_mode(by_id):
    tables = [real_copy(lift(by_id["n5_laminar"]), 0.1),
              real_copy(lift(by_id["n5_partition"]), 1 / 3),
              real_copy(mutate(by_id["n6_laminar"], 1, 2), 0.37)]
    tables += [real_copy(random_table(4 + s % 2, s, neg_inf_prob=0.2), 0.7) for s in range(10)]
    for drop in (True, False):
        assert 0 < assert_agree(tables, drop) < len(tables)


def test_real_mode_slack(by_id):
    """Values below 1 make the slack exactly REAL_EPS: raising one value
    of a table with ties by half of it keeps a PASS, by 1.5 times makes a
    FAIL, on both paths."""
    g = real_copy(lift(by_id["n5_laminar"]), 0.01)
    for mask in (31, 121):
        for bump, passes in ((0.5 * REAL_EPS, True), (1.5 * REAL_EPS, False)):
            h = g.with_value(elements_of(mask), g.values[mask] + bump)
            assert assert_agree([h], False) == (0 if passes else 1)


def test_every_domain_size_runs_batched(by_id, monkeypatch):
    """The checkers sweep batched on every domain size, from n6_laminar's
    64 sets down to one, and on lifts, and give the loop's report."""
    full = by_id["n6_laminar"]
    tables = []
    for k in range(64):
        f = SetFn(6, [None if m >= 64 - k else v for m, v in enumerate(full.values)])
        tables.append(f)
        if k % 16 == 0 or k >= 60:
            tables.append(lift(f))
    calls = []
    real_sweep = exchange._rule_sweep
    monkeypatch.setattr(exchange, "_rule_sweep",
                        lambda f, rules: calls.append(len(f.dom_masks)) or real_sweep(f, rules))
    equi = []
    for f in tables:
        assert check_exc_single(f).to_json_line() == loop_line(f, True, "exc_single", "")
        if len({m.bit_count() for m in f.dom_masks}) == 1:
            equi.append(f)
            assert check_m_concave(f).to_json_line() == loop_line(f, False, "m_concave", "")
    assert calls[:2] == [64, 924]
    assert sorted(set(calls)) == sorted({len(f.dom_masks) for f in tables})
    assert len(calls) == len(tables) + len(equi)
    assert {len(f.dom_masks) for f in tables} >= set(range(1, 65))


class _DtypeSpy:
    """numpy for ``moves``, noting the dtype of every ``np.array``."""

    def __init__(self):
        self.dtypes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def array(self, obj, dtype=None, **kwargs):
        self.dtypes.append(dtype)
        return np.array(obj, dtype=dtype, **kwargs)


def batched_dtypes(f, drop, monkeypatch):
    """The batched report line of f, and the dtypes its arrays took."""
    spy = _DtypeSpy()
    with monkeypatch.context() as m:
        m.setattr(moves, "np", spy)
        return batched_line(f, drop), spy.dtypes


def affine(f, scale=1, shift=0):
    return SetFn(f.n, [v if v is NEG_INF else v * scale + shift for v in f.values])


def test_ints_beyond_int64_sweep_on_python_ints(by_id, monkeypatch):
    """Int tables with some |v| >= 2^60 sweep on the object dtype of
    ``moves.value_table`` with the loop's report; up to 2^60 - 1 they stay
    in int64."""
    f = by_id["n6_laminar"]
    big = f.with_value((2, 5), 2**62)
    shifted = affine(f, shift=2**62)
    tables = [big, shifted, lift(big), affine(f, shift=-(2**2000))]
    maps = [(2**62, 0), (1, 2**63), (1, -(2**63))]
    for s in range(24):
        g = random_table(2 + s % 4, s, neg_inf_prob=0.1 * (s % 3))
        if g.dom_masks:
            tables.append(affine(g, *maps[s % 3]))
    tables += [affine(random_mnat_concave(3, s), *maps[s % 3]) for s in range(6)]
    fails = 0
    for g in tables:
        for drop in (True, False):
            got, dtypes = batched_dtypes(g, drop, monkeypatch)
            assert object in dtypes
            want = loop_line(g, drop)
            assert got == want, (g, drop)
            fails += '"FAIL"' in want
    assert 0 < fails < 2 * len(tables)
    assert check_exc_single(big).to_json_line() == loop_line(big, True, "exc_single", "")
    assert not check_exc_single(big).passed
    assert check_exc_single(shifted).passed

    edge = affine(f, shift=2**60 - 1 - max(f.values))
    got, dtypes = batched_dtypes(edge, True, monkeypatch)
    assert object not in dtypes
    assert got == loop_line(edge, True)
    past = affine(f, shift=2**60 - max(f.values))
    got, dtypes = batched_dtypes(past, True, monkeypatch)
    assert object in dtypes
    assert got == loop_line(past, True)
