"""The batched single-exchange sweep against the scalar loop, its oracle.

Both run through one report builder, so the comparison is of report
bytes: verdict, first failing triple and the triple count through it.
The batched path is called directly, and through the public checkers on
every domain size. With the drop it is the single verdict of the shared
sweep; without it, ``check_m_concave`` on an equi-cardinal table (where
no drop attains), the one sweep that has no drop: a mixed-size table is
swept without it as its largest layer of one domain size.
"""

from dataclasses import replace

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
from mconcave.core import elements_of
from mconcave.families import random_mnat_concave
from test_multi_batched import TIER_IDS, TIERS, affine, at_top, traced_peak, value_dtype


def loop_sweep(f, drop):
    """The scalar sweep over (X, Y, i) in lex order: (first failing
    (xm, ym, i) or None, triples through it)."""
    vals = f.exact
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
                        if b is not NEG_INF and lhs <= a + b:
                            continue
                e = yonly
                while e:
                    jb = e & -e
                    e ^= jb
                    a = vals[xmi | jb]
                    if a is NEG_INF:
                        continue
                    b = vals[ymi ^ jb]
                    if b is not NEG_INF and lhs <= a + b:
                        break
                else:
                    return (xm, ym, ib.bit_length()), triples
    return None, triples


def loop_line(f, drop, suite="s", instance_id="t"):
    return exchange._sweep_report(f, suite, instance_id, *loop_sweep(f, drop)).to_json_line()


def batched_line(f, drop):
    """The batched report line of f: the single verdict of the shared sweep
    with the drop, ``check_m_concave`` of an equi-cardinal f without it."""
    if drop:
        single = exchange._exchange_sweep(f)[0]
        return exchange._sweep_report(f, "s", "t", *exchange._sweep_count(f, single)).to_json_line()
    assert len({m.bit_count() for m in f.dom_masks}) == 1
    exchange._sweeps.cache_clear()  # sweep at the budget set now
    return replace(check_m_concave(f, instance_id="t"), suite="s").to_json_line()


def layer(f, k):
    """f on its domain sets of size k."""
    return SetFn(f.n, [v if m.bit_count() == k else NEG_INF for m, v in enumerate(f.values)],
                 f.mode)


def swept(f, drop):
    """f, or without the drop, f on the domain size that most of its
    domain sets have (the smallest such size)."""
    if drop:
        return f
    sizes = [m.bit_count() for m in f.dom_masks]
    return layer(f, max(sorted(set(sizes)), key=sizes.count))


def assert_agree(tables, drop):
    fails = 0
    for f in (swept(g, drop) for g in tables):
        want = loop_line(f, drop)
        assert batched_line(f, drop) == want, (f, drop)
        fails += '"FAIL"' in want
    return fails


def real_copy(f, scale):
    """f * scale as a real table of decimals: each value rounded to 12
    places, so that 3 * 0.1 reads 0.3, not 0.30000000000000004."""
    return SetFn(f.n, [v if v is NEG_INF else round(v * scale, 12) for v in f.values], "real")


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


def chunk_budget(f, width):
    """The budget at which ``exchange._exchange_sweep`` takes ``width`` rules
    of f at a time: n + 3 bools per (rule, X, Y) of the domain."""
    return width * (f.n + 3) * len(f.dom_masks) ** 2


def partial_chunk_tables(by_id):
    """Seeded random tables with n = 2..5 and ``mutate``d corpus tables
    with n = 3..6, some with minus infinity, and lifts with 56 and 252
    domain sets."""
    tables = [random_table(2 + s % 4, s, neg_inf_prob=0.1 * (s % 5)) for s in range(40)]
    tables += [mutate(by_id[iid], s, 1 + s, toggle_neg_inf=bool(s)) for s in range(2)
               for iid in ("n3_laminar", "n4_assignment", "n5_partition", "n6_laminar")]
    tables += [lift(by_id["n3_laminar"]), lift(mutate(by_id["n5_laminar"], 0, 1))]
    return [f for f in tables if f.dom_masks]


def test_partial_rule_chunks(by_id, monkeypatch):
    """Budgets that put 2 and n of the n + 1 rules in one chunk, so that a
    block compares rules that apply to a pair with rules that do not, and
    a later chunk holds the augment: the loop's report, with and without
    the drop."""
    runs = fails = 0
    for g in partial_chunk_tables(by_id):
        for drop in (True, False):
            f = swept(g, drop)
            for width in sorted({2, f.n}):
                monkeypatch.setattr(exchange, "_BATCH_BYTES", chunk_budget(f, width))
                want = loop_line(f, drop)
                assert batched_line(f, drop) == want, (f.values, drop, width)
                runs += 1
                fails += '"FAIL"' in want
    assert runs // 3 < fails < runs


def held_move_tables(by_id):
    """Tables on which every row block of a chunk holds a move: random and
    ``mutate``d corpus tables (n = 3..6) and random M-natural-concave ones
    (n = 2, 3) on their domain sets that hold the top element, and the
    full set alone (n = 1..4), which holds every move."""
    tables = [random_table(3 + s % 3, 90 + s, neg_inf_prob=0.1 * (s % 3)) for s in range(24)]
    tables += [mutate(by_id[iid], s, 1 + s) for s in range(2)
               for iid in ("n4_assignment", "n5_laminar", "n6_laminar")]
    tables += [random_mnat_concave(2 + s % 2, s) for s in range(4)]
    tops = [SetFn(f.n, [v if m >> (f.n - 1) & 1 else NEG_INF for m, v in enumerate(f.values)],
                  f.mode) for f in tables]
    fulls = [SetFn(n, [0 if m == (1 << n) - 1 else NEG_INF for m in range(1 << n)])
             for n in range(1, 5)]
    return [f for f in tops if f.dom_masks] + fulls


def test_multi_rule_chunks_skip_the_moves_a_block_holds(by_id, monkeypatch):
    """At budgets that put 2, n and all n + 1 rules in one chunk, whose
    one row block holds a move, the single verdict gives the loop's
    report with and without the drop, and on the full set alone, where
    no rule applies to a pair, neither verdict fails."""
    runs = fails = 0
    for g in held_move_tables(by_id):
        for drop in (True, False):
            f = swept(g, drop)
            assert np.bitwise_and.reduce(f.dom_masks) >> (f.n - 1) & 1
            for width in sorted({2, f.n, f.n + 1}):
                monkeypatch.setattr(exchange, "_BATCH_BYTES", chunk_budget(f, width))
                want = loop_line(f, drop)
                assert batched_line(f, drop) == want, (f.values, drop, width)
                if len(f.dom_masks) == 1:
                    assert exchange._exchange_sweep(f) == [None, None]
                runs += 1
                fails += '"FAIL"' in want
    assert runs // 4 < fails < runs


def test_sweep_memory_stays_under_two_budgets(by_id):
    """The tracemalloc peak of a sweep, value table included, is at most
    twice ``_BATCH_BYTES`` on every corpus instance, whose rules fit in
    one chunk, and on the full-domain n = 12 and n = 13 tables
    -(|Z| - 6)^2, swept a rule at a time in blocks of rows."""
    budget = exchange._BATCH_BYTES
    full = [(f"n{n}", SetFn(n, [-(m.bit_count() - 6) ** 2 for m in range(1 << n)]))
            for n in (12, 13)]
    peaks = {}
    for iid, f in [*by_id.items(), *full]:
        moves.value_table.cache_clear()
        best, peaks[iid] = traced_peak(lambda: exchange._exchange_sweep(f))
        assert best == [None, None]
    assert max(peaks.values()) <= 2 * budget, peaks


def test_real_mode(by_id):
    tables = [real_copy(lift(by_id["n5_laminar"]), 0.1),
              real_copy(lift(by_id["n5_partition"]), 1 / 3),
              real_copy(mutate(by_id["n6_laminar"], 1, 2), 0.37)]
    tables += [real_copy(random_table(4 + s % 2, s, neg_inf_prob=0.2), 0.7) for s in range(10)]
    for drop in (True, False):
        assert 0 < assert_agree(tables, drop) < len(tables)


def test_real_mode_slack(by_id):
    """No slack: raising one value of a table with ties by 5e-10 makes a
    FAIL, as 1.5e-9 does, on both paths (a tolerance of 1e-9 kept the
    PASS at 5e-10)."""
    g = real_copy(lift(by_id["n5_laminar"]), 0.01)
    assert assert_agree([g], False) == 0
    for mask in (31, 121):
        for bump in (5e-10, 1.5e-9):
            h = g.with_value(elements_of(mask), g.values[mask] + bump)
            assert assert_agree([h], False) == 1


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
    real_sweep = exchange._exchange_sweep
    monkeypatch.setattr(exchange, "_exchange_sweep", lambda f, *args, **kw:
                        calls.append(len(f.dom_masks)) or real_sweep(f, *args, **kw))
    equi = []
    for f in tables:
        assert check_exc_single(f).to_json_line() == loop_line(f, True, "exc_single", "")
        if len({m.bit_count() for m in f.dom_masks}) == 1:
            equi.append(f)
            assert check_m_concave(f).to_json_line() == loop_line(f, False, "m_concave", "")
    assert calls[:2] == [64, 924]
    assert sorted(set(calls)) == sorted({len(f.dom_masks) for f in tables})
    # check_m_concave reads the sweep that check_exc_single made of the same
    # table, as does a lift equal to the table before it (a lift with no pads).
    assert len(calls) == sum(k == 0 or f != tables[k - 1] for k, f in enumerate(tables))
    assert len(equi) > 1
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
    """The batched report line of f, and the dtypes its arrays took. The
    cache of ``moves.value_table`` is emptied first, so the table is built
    under the spy."""
    spy = _DtypeSpy()
    moves.value_table.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(moves, "np", spy)
        return batched_line(f, drop), spy.dtypes


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
        # Without the drop, the layer of the largest |value|, which sets the dtype.
        top = max(g.dom_masks, key=lambda m: abs(g.values[m])).bit_count()
        for drop in (True, False):
            h = g if drop else layer(g, top)
            got, dtypes = batched_dtypes(h, drop, monkeypatch)
            assert object in dtypes
            want = loop_line(h, drop)
            assert got == want, (h, drop)
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


@pytest.mark.parametrize("top, dtype", TIERS, ids=TIER_IDS)
def test_value_tiers_sweep_like_the_loop(by_id, top, dtype):
    """Corpus tables and lifts shifted to each side of each dtype boundary
    of ``moves.value_table``, up and down: ``check_exc_single`` and
    ``check_m_concave`` give the loop's report, FAILs included."""
    bases = [by_id["n5_laminar"], mutate(by_id["n5_partition"], 0, 1),
             mutate(by_id["n4_assignment"], 1, 2, toggle_neg_inf=True),
             lift(by_id["n4_laminar"]), lift(mutate(by_id["n4_laminar"], 0, 1)),
             by_id["n6_wbasis_k4"], mutate(by_id["n6_wbasis_k4"], 1, 1)]
    fails = 0
    for f in (at_top(g, top, low) for g in bases for low in (False, True)):
        assert value_dtype(f) == dtype
        want = loop_line(f, True, "exc_single", "")
        assert check_exc_single(f).to_json_line() == want
        fails += '"FAIL"' in want
        if len({m.bit_count() for m in f.dom_masks}) == 1:
            want = loop_line(f, False, "m_concave", "")
            assert check_m_concave(f).to_json_line() == want
            fails += '"FAIL"' in want
    assert 4 <= fails < 3 * len(bases)
