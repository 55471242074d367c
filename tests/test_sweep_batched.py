"""The batched single-exchange sweep against the scalar loop, its oracle.

Both run through one report builder, so the comparison is of report
bytes: verdict, first failing triple and the triple count through it.
The batched path is called directly on small tables, which the public
checkers leave to the loop, and through the checkers from the threshold
on.
"""

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
from mconcave import exchange
from mconcave.core import REAL_EPS, elements_of
from mconcave.families import random_mnat_concave


def loop_line(f, drop, suite="s", instance_id="t"):
    report = exchange._sweep_report(f, suite, instance_id, *exchange._loop_sweep(f, drop))
    return report.to_json_line()


def batched_line(f, drop):
    return exchange._sweep_report(f, "s", "t", *exchange._batched_sweep(f, drop)).to_json_line()


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


def test_threshold_dispatch(by_id, monkeypatch):
    """The checkers run batched from _BATCH_MIN_DOM domain sets on, and
    give the loop's report on either side of it."""
    full = by_id["n6_laminar"]
    assert len(full.dom_masks) == exchange._BATCH_MIN_DOM
    below = full.with_value(elements_of(63), None)
    calls = []
    real_batched = exchange._batched_sweep
    monkeypatch.setattr(exchange, "_batched_sweep",
                        lambda f, drop: calls.append(len(f.dom_masks)) or real_batched(f, drop))
    for f in (full, below, lift(full.with_value((1,), full.values[1] - 1))):
        assert check_exc_single(f).to_json_line() == loop_line(f, True, "exc_single", "")
    assert check_m_concave(lift(by_id["n5_laminar"])).passed
    assert calls == [64, 924, 252]


def test_ints_beyond_int64_fall_back_to_the_loop(by_id):
    f = by_id["n6_laminar"]
    big = f.with_value((2, 5), 2**62)
    shifted = SetFn(f.n, [v if v is NEG_INF else v + 2**62 for v in f.values])
    for g in (big, shifted, lift(big)):
        assert exchange._batched_sweep(g, True) is None
        assert exchange._batched_sweep(g, False) is None
        assert check_exc_single(g).to_json_line() == loop_line(g, True, "exc_single", "")
    assert not check_exc_single(big).passed
    assert check_exc_single(shifted).passed
