"""The bulk falsification decider against the per-table checkers, its
oracle, and whole campaigns against the per-trial loop they replace.

The oracle is the decider that ``exchange._bulk_decide`` replaced: a
full-cube index of the bounded triples built by scalar loops over
``submasks_ascending`` and ``submasks_by_size`` (``ref_bulk_index``), and
one ragged ``np.maximum.reduceat`` pass over it (``ref_bulk_holds``). The
decider's plan, built from ``moves.moves``, must hold the same triples
and moves. The gate and the multiple-exchange kernel are compared on
ungated tables, so the kernel's FAIL path (a triple with no move as good
as f(X) + f(Y)) is covered although no gated table ever reaches it. The
per-trial loop computes each passing table's margin itself and asserts
that it is 0, the constant the campaign writes. It draws its tables with
``ref_random_table`` and ``ref_mutate``, scalar copies of ``random_table``
and ``mutate`` with a ``random.Random`` of their own each, so the drawers
that the campaign runs on one reseeded generator are checked against code
that does not call them. The scalar copies call ``randint``, ``randrange``
and ``choice``; the drawers must leave the generator in the same state.
The campaign's C generator is checked against ``random.Random``, and its
counterexample path, which no real table reaches, with a stand-in
decider.
"""

import _random
import functools
import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest

from mconcave import (NEG_INF, PriceVector, SetFn, check_exc_single, default_corpus,
                      matroid_rank_fn, mutate, random_table, tilt, uniform_matroid)
from mconcave import cli, core, exchange
from mconcave.cli import MASK64, FalsifyOutcome, falsify_campaign, main
from mconcave.core import HARD_CAP, _require_int, submasks_ascending, submasks_by_size
from mconcave.exchange import _best_multi
from mconcave.families import _draw_mutation, _draw_table, _words_tables
from mconcave.moves import encoding, value_table
from test_multi_batched import ref_multi_pass


def ref_mutate(f, seed, magnitude, toggle_neg_inf=False):
    """Perturb one uniformly chosen entry of an int-mode function.

    Without the toggle, a finite entry moves by +-magnitude. With
    ``toggle_neg_inf`` the entry is chosen among all 2^n and flipped:
    finite -> NEG_INF, NEG_INF -> 0. Deterministic per seed.
    """
    if f.mode != "int":
        raise ValueError("mutation is defined for int-mode functions")
    _require_int("magnitude", magnitude, 0)
    return SetFn(f.n, ref_mutation_values(random.Random(seed), f, magnitude, toggle_neg_inf), "int")


def ref_mutation_values(rng, f, magnitude, toggle_neg_inf=False):
    vals = list(f.values)
    if toggle_neg_inf:
        idx = rng.randrange(1 << f.n)
        vals[idx] = 0 if vals[idx] is NEG_INF else NEG_INF
    else:
        if not f.dom_masks:
            raise ValueError("no finite entry to perturb")
        idx = f.dom_masks[rng.randrange(len(f.dom_masks))]
        vals[idx] = vals[idx] + rng.choice((-magnitude, magnitude))
    return vals


def ref_random_table(n, seed, lo=-5, hi=5, neg_inf_prob=0.2):
    """Arbitrary int-mode table: each entry NEG_INF with the given
    probability, otherwise uniform in [lo, hi], and one entry drawn finite
    when none is. Deterministic per seed."""
    _require_int("n", n, 0)
    if n > HARD_CAP:
        raise ValueError(f"ground-set size {n} exceeds hard cap {HARD_CAP}")
    return SetFn(n, ref_table_values(random.Random(seed), n, lo, hi, neg_inf_prob), "int")


def ref_table_values(rng, n, lo=-5, hi=5, neg_inf_prob=0.2):
    vals = [
        NEG_INF if rng.random() < neg_inf_prob else rng.randint(lo, hi)
        for _ in range(1 << n)
    ]
    if all(v is NEG_INF for v in vals):
        vals[rng.randrange(1 << n)] = rng.randint(lo, hi)
    return vals


def margin(f):
    """The least best - f(X) - f(Y) over the bounded triples (X, Y, I),
    X and Y in the domain, by ``_best_multi``; None when some triple has
    no move as good as f(X) + f(Y)."""
    low = None
    for xm in f.dom_masks:
        for ym in f.dom_masks:
            lhs = f.values[xm] + f.values[ym]
            for im in submasks_ascending(xm & ~ym):
                best, _, _ = _best_multi(f.values, xm, ym, im, True)
                if best is NEG_INF or best < lhs:
                    return None
                low = best - lhs if low is None else min(low, best - lhs)
    return low


def oracle(f):
    """(passed, holds) as the campaign's per-table loop decided them."""
    if not check_exc_single(f).passed:
        return False, None
    return True, ref_multi_pass(f, bounded=True)[0] is None


# The oracle's int64 encoding: every |value| < 2^60, minus infinity
# REF_NEG, so a finite sum of two values lies above REF_FLOOR, any sum with
# REF_NEG below it, and two of them add up to -2^63, the int64 minimum.
REF_NEG = -(1 << 62)
REF_FLOOR = -(1 << 61)


def matrices(rows, m):
    """Value rows (NEG_INF for minus infinity) in ``encoding(m)``: the
    decider's matrices, one per row length in order of first appearance,
    and the indices of each one's rows."""
    neg, dtype = encoding(m)
    groups = {}
    for k, row in enumerate(rows):
        groups.setdefault(len(row), []).append(k)
    return ([np.array([[neg if v is NEG_INF else v for v in rows[k]] for k in ks], dtype=dtype)
             for ks in groups.values()], list(groups.values()))


def decide(rows, m=None):
    """``_bulk_decide`` on value rows of mixed sizes, one call per size, as
    (passed, holds) per row in row order, holds None where the gate fails.
    m defaults to the rows' largest |value| (``_bulk_bound``)."""
    if m is None:
        m = max(exchange._bulk_bound(row, k) for k, row in enumerate(rows))
    mats, groups = matrices(rows, m)
    out = [None] * len(rows)
    for ks, vals in zip(groups, mats):
        passed, holds = exchange._bulk_decide(vals, m)
        for k, p, h in zip(ks, passed.tolist(), holds.tolist()):
            out[k] = (True, h) if p else (False, None)
    return out


def rows_of(tables):
    return [f.values for f in tables]


def bulk_rows(tables):
    return np.array([[REF_NEG if v is NEG_INF else v for v in f.values] + [REF_NEG]
                     for f in tables], dtype=np.int64)


def ungated_tables():
    """Tables of every n <= 5: random ones with and without NEG_INF,
    single-set domains, and plain and toggled mutations of the corpus."""
    out = []
    for n in range(1, 6):
        for s in range(60):
            out.append(random_table(n, 1000 * n + s, neg_inf_prob=0.3 if s % 2 else 0.0))
        for m in range(1 << n):
            out.append(SetFn(n, [m - 2 if k == m else None for k in range(1 << n)]))
    for c in default_corpus():
        if c.fn.n <= 5:
            out.append(c.fn)
            for s in range(4):
                g = mutate(c.fn, s, 1 + s % 3, toggle_neg_inf=bool(s % 2))
                if g.dom_masks:
                    out.append(g)
    return out


def by_n(tables):
    groups = {}
    for f in tables:
        groups.setdefault(f.n, []).append(f)
    return sorted(groups.items())


@functools.cache
def ref_bulk_index(n):
    """Every bounded exchange triple (X, Y, I) over the full cube 2^n, as
    indices into the w * w pair sums f(A) + f(B) at A * w + B of a table
    row of w = 2^n + 1 entries: the 2^n values, then a NEG_INF column.

    Returns (mlhs, moves, starts, singles). Triple k has f(X) + f(Y) at
    mlhs[k], and its moves J with |J| <= |I| are the segment of ``moves``
    from starts[k] to the next start (or the end). The first ``singles``
    triples, in lex order, are those with |I| = 1: the single exchange,
    whose moves are the drop (J = {}) and the swaps (J = {j}). The others
    follow in lex order.
    """
    w = (1 << n) + 1
    triples = ([], [])  # (lhs, moves) with |I| = 1, then the others
    for xm in range(1 << n):
        for ym in range(1 << n):
            for im in submasks_ascending(xm & ~ym):
                k = im.bit_count()
                moves = [(xm & ~im | jm) * w + ((ym | im) & ~jm)
                         for jm, size in submasks_by_size(ym & ~xm) if size <= k]
                triples[k != 1].append((xm * w + ym, moves))
    ordered = triples[0] + triples[1]
    sizes = [len(moves) for _, moves in ordered]
    arrays = (
        np.array([lhs for lhs, _ in ordered], dtype=np.intp),
        np.array([m for _, moves in ordered for m in moves], dtype=np.intp),
        np.cumsum([0] + sizes[:-1], dtype=np.intp),
    )
    return (*arrays, len(triples[0]))


def ref_bulk_holds(vals, mlhs, moves, starts, start, stop):
    """Which rows of ``vals`` (with the NEG_INF column) have a move >=
    f(X) + f(Y) for every triple start .. stop - 1 of the index with X and
    Y in the domain. Blocks of triples grow fourfold from 32, and rows
    leave after the block where they fail."""
    w = vals.shape[1]
    ends = np.append(starts, len(moves))
    alive, block = np.arange(len(vals)), 32
    while start < stop and len(alive):
        live = vals[alive]
        end = min(start + block, stop)
        lo, hi = ends[start], ends[end]
        xa, xb = np.divmod(mlhs[start:end], w)
        ma, mb = np.divmod(moves[lo:hi], w)
        lhs = live[:, xa] + live[:, xb]
        best = live[:, ma] + live[:, mb]
        best = np.maximum.reduceat(best, starts[start:end] - lo, axis=1)
        alive = alive[((best >= lhs) | (lhs <= REF_FLOOR)).all(axis=1)]
        start, block = end, block * 4
    holds = np.zeros(len(vals), dtype=bool)
    holds[alive] = True
    return holds


def plan_triples(plan):
    """The plan's triples of each group as sorted (X, Y, moves) tuples,
    moves the sorted pairs ((X\\I) | J, (Y\\J) | I)."""
    return [sorted((x, y, tuple(sorted(zip(a, b))))
                   for xs, ys, aa, bb in blocks
                   for x, y, a, b in zip(xs.tolist(), ys.tolist(), aa.tolist(), bb.tolist()))
            for blocks in plan]


def index_triples(n):
    """``plan_triples`` of the oracle index."""
    mlhs, moves, starts, singles = ref_bulk_index(n)
    w = (1 << n) + 1
    ends = np.append(starts, len(moves)).tolist()
    out = [(*divmod(lhs, w), tuple(sorted(divmod(m, w) for m in moves[ends[t]:ends[t + 1]])))
           for t, lhs in enumerate(mlhs.tolist())]
    return [sorted(out[:singles]), sorted(out[singles:])]


def test_index_sizes():
    gate, rest = exchange._bulk_plan(5)
    assert sum(len(x) for x, *_ in gate) == 1280 and sum(len(x) for x, *_ in rest) == 1845
    assert sum(a.size for _, _, a, _ in gate) == 2560  # their drops and swaps
    assert sum(a.size for _, _, a, _ in gate + rest) == 5100
    assert all(not arr.flags.writeable for block in gate + rest for arr in block)
    assert exchange._bulk_plan(5) is exchange._bulk_plan(5)


def test_plan_matches_the_index(monkeypatch):
    """The plan holds the oracle index's triples and moves, whatever the
    budget it is built under."""
    for n in range(6):
        assert plan_triples(exchange._bulk_plan(n)) == index_triples(n), n
    monkeypatch.setattr(exchange, "_BATCH_BYTES", 1)
    exchange._bulk_plan.cache_clear()
    try:
        for n in range(5):
            assert plan_triples(exchange._bulk_plan(n)) == index_triples(n), n
    finally:
        exchange._bulk_plan.cache_clear()


def test_plan_build_holds_the_plan_once():
    """Each width's parts are freed as they are joined, so building the
    plan (3.9 MiB at n = 7) peaks well below twice its size."""
    tracemalloc.start()
    try:
        plan = exchange._bulk_plan.__wrapped__(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(arr.nbytes for block in plan[0] + plan[1] for arr in block)
    assert peak < 1.5 * size, (peak, size)


def test_gate_matches_check_exc_single():
    seen = set()
    for n, tables in by_n(ungated_tables()):
        *index, singles = ref_bulk_index(n)
        got = ref_bulk_holds(bulk_rows(tables), *index, 0, singles).tolist()
        want = [check_exc_single(f).passed for f in tables]
        assert got == want, n
        assert [p for p, _ in decide(rows_of(tables))] == want, n
        seen |= set(want)
    assert seen == {True, False}


def test_margins_match_multi_pass_margin():
    """The oracle's verdict against the exhaustive loop's
    (``ref_multi_pass``, which ``_multi_pass_margin`` replaced), FAILs
    included; the margin of every table that holds is 0."""
    fails = 0
    for n, tables in by_n(ungated_tables()):
        index = ref_bulk_index(n)[:3]
        got = ref_bulk_holds(bulk_rows(tables), *index, 0, len(index[0])).tolist()
        for f, holds in zip(tables, got):
            failing = ref_multi_pass(f, bounded=True)[0]
            assert holds == (failing is None), f
            assert margin(f) == (0 if holds else None), f
            fails += failing is not None
    assert fails > 100


def wide_tables():
    """The corpus tables of n = 6 and 7 with plain and toggled mutations:
    some of each n pass the gate."""
    out = []
    for c in default_corpus():
        if c.fn.n in (6, 7):
            out.append(c.fn)
            out += [mutate(c.fn, s, 1 + s % 3, toggle_neg_inf=bool(s % 2)) for s in range(4)]
    return [f for f in out if f.dom_masks]


@functools.cache
def decide_cases():
    """Shuffled ungated and wide tables with their oracle verdicts."""
    tables = ungated_tables() + wide_tables()
    random.Random(5).shuffle(tables)
    return tables, [oracle(f) for f in tables]


@pytest.mark.parametrize("budget", [exchange._BATCH_BYTES, 1])
def test_decide_matches_oracle(monkeypatch, budget):
    """Every n <= 7, with some rows of n = 6 and 7 through the gate. The
    plans are built first, at the default budget (``_bulk_plan`` caches
    one per n, and ``test_plan_matches_the_index`` shows it does not
    depend on the budget); at budget 1 each piece is one triple."""
    tables, want = decide_cases()
    assert {(f.n, p) for f, (p, _) in zip(tables, want) if f.n >= 6} == \
        {(6, True), (6, False), (7, True), (7, False)}
    for n in range(8):
        exchange._bulk_plan(n)
    monkeypatch.setattr(exchange, "_BATCH_BYTES", budget)
    assert decide(rows_of(tables)) == want


def test_decide_reads_every_triple_of_the_plan(monkeypatch):
    """A made-up plan over n = 4 whose triple t has X = Y = {} and one move,
    read at mask t + 1 (repeated in blocks of two and three moves): row r
    is 0 at mask r + 1 and 1 elsewhere, so it fails at triple r alone. The
    decider must read every triple of every block in pieces of any size,
    and drop only the failing rows."""
    masks = np.arange(1, 16, dtype=np.int64)

    def block(lo, hi, width):
        moved = np.repeat(masks[lo:hi, None], width, axis=1)
        return np.zeros(hi - lo, dtype=np.int64), np.zeros(hi - lo, dtype=np.int64), moved, moved
    plan = ((block(0, 5, 1), block(5, 10, 2)), (block(10, 15, 3),))
    monkeypatch.setattr(exchange, "_bulk_plan", lambda n: plan)
    rows = [[0 if k == r + 1 else 1 for k in range(16)] for r in range(16)]
    want = [(False, None)] * 10 + [(True, False)] * 5 + [(True, True)]
    # Whole blocks, three triples (six int16 values a row per move), one.
    for budget in (exchange._BATCH_BYTES, 12 * 16 * 3, 1):
        monkeypatch.setattr(exchange, "_BATCH_BYTES", budget)
        assert decide(rows) == want, budget


def test_decide_many_rows_that_all_pass():
    """1,000 rows of n = 5 that all pass, so that every row stays through
    every piece: tilts of the rank of U(2, 5), which are M-natural
    concave. (The index decider's blocks grew fourfold per step whatever
    their size, and past 2^63 triples on this input.)"""
    rank = matroid_rank_fn(uniform_matroid(5, 2))
    rng = random.Random(11)
    tables = [tilt(rank, PriceVector(tuple(rng.randint(-3, 3) for _ in range(5))))
              for _ in range(1000)]
    assert [oracle(f) for f in tables[:20]] == [(True, True)] * 20
    assert decide(rows_of(tables)) == [(True, True)] * 1000


def test_tables_outside_the_bound_are_refused():
    """Rows with values just inside the bound run in bulk and agree with
    the oracle; a row with any |v| >= 2^60, a float or a bool, an empty
    domain or a length other than 2^n raises ValueError in ``_bulk_bound``,
    and in ``_bulk_decide`` when its ints fit int64, as the campaign never
    draws one; so do a matrix of another dtype than the encoding's and
    m >= 2^60. numpy would read the bools as ints without a word."""
    top = exchange._BULK_SAFE - 1
    inside, outside = [random_table(6, 0)], []
    for s in range(40):
        f = random_table(3 + s % 3, s, lo=-1, hi=1, neg_inf_prob=0.2 * (s % 3))
        inside.append(SetFn(f.n, [v if v is NEG_INF else v * top for v in f.values]))
        m = f.dom_masks[s % len(f.dom_masks)]
        for bad in (top + 1, -top - 1, 1 << 70, 1.0, True, False):
            row = list(f.values)
            row[m] = bad
            outside.append(row)
    for c in default_corpus():
        if c.fn.n <= 5:
            scale = top // max(abs(v) for v in c.fn.values if v is not NEG_INF)
            inside.append(SetFn(c.fn.n, [v if v is NEG_INF else v * scale for v in c.fn.values]))
    outside += [[0, 0.5, 0.25, 1.0], [True, 1], [NEG_INF] * 8, [], [0, 1, 2], [None, 1]]
    assert decide(rows_of(inside)) == [oracle(f) for f in inside]
    assert {p for p, _ in map(oracle, inside)} == {True, False}
    neg, dtype = encoding(top)
    good = matrices(rows_of(inside[:3]), top)[0][0]
    for row in outside:
        with pytest.raises(ValueError, match="outside the bulk decider"):
            exchange._bulk_bound(row, 0)
        encoded = [neg if v is NEG_INF else v for v in row]
        if all(type(v) is int and abs(v) < 2**63 for v in encoded):
            with pytest.raises(ValueError, match="outside the bulk decider"):
                exchange._bulk_decide(np.array([encoded], dtype=dtype), top)
    for vals, m in ((good, top + 1), (good.astype(np.int32), top), (good.astype(float), top)):
        with pytest.raises(ValueError, match="outside the bulk decider"):
            exchange._bulk_decide(vals, m)


def drawer_cases():
    """(seed, n, lo, hi, neg_inf_prob) for the table drawer: every n <= 6,
    the campaign's defaults and others, and a probability that forces the
    all-NEG_INF redraw."""
    out = []
    for s in range(320):
        n = s % 7
        lo, hi, prob = ((-5, 5, 0.2), (-3, 3, 0.15), (0, 0, 0.5), (-100, 7, 0.9),
                        (2, 9, 1.0))[s % 5]
        out.append((s, n, lo, hi, prob))
    return out


def same_draws(draw, ref, seed, *args):
    """``draw`` and ``ref`` from two generators seeded alike: the values,
    and the generator state after, so that no word is drawn more or less."""
    rng, twin = random.Random(seed), random.Random(seed)
    got = draw(rng, *args)
    assert got == ref(twin, *args), seed
    assert rng.getstate() == twin.getstate(), seed
    return got


def test_c_generator_draws_as_random_random():
    """The campaign reseeds ``_random.Random``, the C base of
    ``random.Random``, whose ``getstate`` wraps the base's state as
    (VERSION, state, gauss_next). Seeded alike, the two hold the same
    state and draw the same bits and floats, also when one generator is
    reseeded after draws, as the campaign's is."""
    pick = random.Random(5)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + [pick.getrandbits(64) for _ in range(200)]
    fast, slow = _random.Random(), random.Random()
    for s in seeds:
        fast.seed(s)
        slow.seed(s)
        assert (random.Random.VERSION, fast.getstate(), None) == slow.getstate(), s
        for k in (1, 2, 4, 33):
            assert [fast.getrandbits(k) for _ in range(64)] == \
                [slow.getrandbits(k) for _ in range(64)], (s, k)
        assert [fast.random() for _ in range(64)] == [slow.random() for _ in range(64)], s


def test_table_drawer_matches_the_scalar_random_table():
    redraws = 0
    for s, n, lo, hi, prob in drawer_cases():
        want = ref_random_table(n, s, lo, hi, prob)
        assert same_draws(_draw_table, ref_table_values, s, n, lo, hi, prob) == list(want.values)
        assert random_table(n, s, lo, hi, prob) == want
        redraws += len(want.dom_masks) == 1 and prob == 1.0
    assert redraws == 64
    for s in range(300):  # the campaign's defaults
        same_draws(_draw_table, ref_table_values, s, 1 + s % 5)


def mutation_bases():
    """Corpus tables, random ones, and tables with one finite entry (which
    the toggle may empty)."""
    bases = [c.fn for c in default_corpus() if c.fn.n <= 6]
    bases += [ref_random_table(n, n, neg_inf_prob=0.5) for n in range(7)]
    bases += [SetFn(n, [3 if k == (5 * n) % (1 << n) else None for k in range(1 << n)])
              for n in range(4)]
    return bases


def test_mutation_drawer_matches_the_scalar_mutate():
    bases, emptied = mutation_bases(), 0

    def draw(rng, f, *rest):
        vals = list(f.values)
        entry, vals[entry] = _draw_mutation(rng, f.values, f.dom_masks, *rest)
        return vals
    for s in range(600):
        f, magnitude, toggle = bases[s % len(bases)], s % 4, bool(s // 300)
        want = ref_mutate(f, s, magnitude, toggle)
        assert same_draws(draw, ref_mutation_values, s, f, magnitude, toggle) == list(want.values)
        assert mutate(f, s, magnitude, toggle) == want
        emptied += not want.dom_masks
    assert emptied > 0
    empty = SetFn(2, [None] * 4)
    for draw in (lambda: ref_mutate(empty, 0, 1),
                 lambda: _draw_mutation(random.Random(0), empty.values, empty.dom_masks, 1)):
        with pytest.raises(ValueError, match="no finite entry"):
            draw()


def campaign_bases(n_range, bases=None):
    """The tables a campaign over ``n_range`` mutates (None: it draws only
    random tables); ``bases`` replaces the corpus tables."""
    n_lo, n_hi = max(1, n_range[0]), min(5, n_range[1])
    weights = {3: 3, 4: 2, 5: 1}
    if bases is None:
        bases = [inst.fn for inst in default_corpus() for _ in range(weights.get(inst.fn.n, 0))]
    return [b for b in bases if n_lo <= b.n <= n_hi] or None


def trial_table(t, seed, n_range, bases, emptied=None):
    """Trial t's (table, kind), from its own ``random.Random`` and the
    scalar drawers. ``bases`` is as ``campaign_bases`` gives it;
    ``emptied`` collects the trials whose toggle emptied the domain."""
    n_lo, n_hi = max(1, n_range[0]), min(5, n_range[1])
    rng = random.Random((seed ^ t) & MASK64)
    if t % 2 == 0 or bases is None:
        n = rng.randint(n_lo, n_hi)
        return ref_random_table(n, rng.randrange(1 << 32)), "random"
    base = bases[rng.randrange(len(bases))]
    mseed = rng.randrange(1 << 32)
    magnitude = rng.randint(1, 3)
    if rng.random() < 0.3:
        f = ref_mutate(base, mseed, magnitude, toggle_neg_inf=True)
        if not f.dom_masks:
            f = ref_mutate(base, mseed, magnitude)
            if emptied is not None:
                emptied.append(t)
    else:
        f = ref_mutate(base, mseed, magnitude)
    return f, "mutated"


def per_trial_campaign(trials, seed, n_range=(2, 5), keep_near=5, bases=None, emptied=None):
    """The campaign as a loop over trials, one table decided at a time,
    each trial from its own ``random.Random``. ``bases`` replaces the
    corpus tables to mutate; ``emptied`` collects the trials whose toggle
    emptied the domain."""
    bases = campaign_bases(n_range, bases)
    out = FalsifyOutcome(trials=trials)
    for t in range(trials):
        f, kind = trial_table(t, seed, n_range, bases, emptied)
        out.kinds[kind] = out.kinds.get(kind, 0) + 1
        if not check_exc_single(f).passed:
            continue
        out.singles_passed += 1
        low = margin(f)
        if low is None:
            out.counterexamples.append({"trial": t, "kind": kind, "n": f.n,
                                        "values": [None if v is NEG_INF else v
                                                   for v in f.values]})
        else:
            assert low == 0, (t, f)
            out.near_misses.append((low, t, kind))
            out.near_misses.sort()
            del out.near_misses[keep_near:]
    return out


def dump(outcome):
    return json.dumps(outcome.to_dict(), sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n_range", [(1, 5), (3, 8), (1, 1), (5, 5)])
def test_campaign_matches_per_trial_loop(monkeypatch, seed, n_range):
    """700 trials cross a chunk boundary; keeping 10^6 near misses
    compares every margin."""
    for keep_near in (10**6, 3):
        want = dump(per_trial_campaign(700, seed, n_range, keep_near))
        monkeypatch.setattr(cli, "_NEAR_MISSES", keep_near)
        assert dump(falsify_campaign(700, seed, n_range)) == want


def test_campaign_runs_no_per_table_checker(monkeypatch):
    """Campaign tables never reach the per-table checkers. ``cli`` no longer
    imports ``_multi_pass_margin``; the patch also covers a later import."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-table path taken")

    for owner, name in ((cli, "check_exc_single"), (cli, "_multi_pass_margin"),
                        (exchange, "check_exc_single"), (exchange, "_multi_pass_margin"),
                        (exchange, "_best_multi")):
        monkeypatch.setattr(owner, name, refuse, raising=False)
    line = dump(falsify_campaign(1000, 0)) + "\n"
    assert hashlib.sha256(line.encode()).hexdigest() == \
        "40adb1ed899f28b285a7fcbb3ae54779f56ce5023a89f34799c4cb01c6d5dfdd"


def test_campaign_redraws_a_mutation_whose_toggle_empties_the_domain(monkeypatch):
    """Mutating one-entry bases empties the domain on some toggles, and the
    campaign then draws the plain mutation from the same sub-seed."""
    bases = tuple(SetFn(n, [n if k == n % (1 << n) else None for k in range(1 << n)])
                  for n in (1, 2, 3)) + cli._falsify_bases()[:2]
    monkeypatch.setattr(cli, "_falsify_bases", lambda: bases)
    monkeypatch.setattr(cli, "_NEAR_MISSES", 10**6)
    emptied = []
    want = dump(per_trial_campaign(600, 9, (1, 5), 10**6, bases, emptied))
    assert dump(falsify_campaign(600, 9, (1, 5))) == want
    assert len(emptied) >= 10


@pytest.mark.parametrize("value", [exchange._BULK_SAFE, -exchange._BULK_SAFE, -(1 << 62),
                                   2**63, -(2**63) - 1, 2**70, 0.5])
def test_campaign_refuses_a_base_outside_the_bulk_decider(monkeypatch, value):
    """A base with a value that an int64 row cannot hold exactly (one past
    the bound, the int64 oracle's -infinity code, past int64, a float)
    raises ValueError, as ``_bulk_bound`` refuses such a row, and is never
    decided as wrapped, truncated or misread values."""
    values = [value if k == 5 else k for k in range(8)]
    base = SetFn(3, values, "real" if isinstance(value, float) else "int")
    monkeypatch.setattr(cli, "_falsify_bases", lambda: (base,))
    with pytest.raises(ValueError, match="outside the bulk decider"):
        falsify_campaign(20, 0, (3, 3))
    with pytest.raises(ValueError, match="outside the bulk decider"):
        exchange._bulk_bound(base.values, 0)


def test_campaign_refuses_a_mutation_past_the_bound(monkeypatch):
    """A base just inside the bound passes, a campaign whose trials move no
    value past it runs, and its mutations that move a value past it are
    refused on the chunk's matrix."""
    top = exchange._BULK_SAFE - 1
    base = SetFn(3, [top] * 8)
    assert decide(rows_of([base])) == [(True, True)]
    monkeypatch.setattr(cli, "_falsify_bases", lambda: (base,))
    assert falsify_campaign(1, 0, (3, 3)).kinds == {"random": 1}
    with pytest.raises(ValueError, match="outside the bulk decider"):
        falsify_campaign(40, 0, (3, 3))
    for row in ([top + 1] + [top] * 7, [NEG_INF] * 8):
        with pytest.raises(ValueError, match="outside the bulk decider"):
            exchange._bulk_decide(matrices([row], top)[0][0], top)


def test_campaign_builds_no_setfn(monkeypatch):
    """Trials are drawn and decided as value rows; the bases are built
    before the count starts."""
    cli._falsify_bases()
    built = []
    init = core.SetFn.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(core.SetFn, "__init__", counting)
    outcome = falsify_campaign(2000, 3)
    assert outcome.trials == 2000 and outcome.singles_passed > 0
    assert built == []


# Chunks of 1, 7 and 10^6 rows in the campaign's unit, values: every row
# closes its chunk, 4 to 56 rows (of 2 to 32 values), everything.
CHUNK_VALUES = {1: 1, 7: 7 * 16, 10**6: 10**6}


@pytest.mark.parametrize("chunk", [1, 7, 10**6])
def test_falsify_bytes_do_not_depend_on_the_chunk(monkeypatch, capsys, chunk):
    """The default ``mconcave falsify`` bytes, and a library campaign
    crossing several chunks, with trials drawn and decided in chunks of
    ``CHUNK_VALUES[chunk]`` values."""
    def wide():
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_NEAR_MISSES", 10**6)
            return dump(falsify_campaign(1100, 2**64 - 1, (1, 5)))

    want = wide()
    monkeypatch.setattr(cli, "_FALSIFY_VALUES", CHUNK_VALUES[chunk])
    assert main(["falsify"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "4e56659d3b0b9571dac24ae456a271c5f10546ee93990f419e57b7b9c55558a5"
    assert wide() == want


def test_bases_are_built_once():
    assert cli._falsify_bases() is cli._falsify_bases()
    assert isinstance(cli._falsify_bases(), tuple)


def sevens(vals, m):
    """A stand-in decider whose verdict depends only on a row's values:
    every row passes the gate, and the multiple exchange fails when the
    sum of its finite values is a multiple of 7."""
    neg = encoding(m)[0]
    return np.ones(len(vals), dtype=bool), np.where(vals == neg, 0, vals).sum(axis=1) % 7 != 0


def test_campaign_reports_counterexamples_in_trial_order(monkeypatch, capsys):
    """No real table reaches the campaign's FAIL path, so a stand-in
    decider takes it: each counterexample is the table that the scalar
    drawers give for its trial, in trial order across sizes, whatever the
    chunk, and ``mconcave falsify`` then exits 1."""
    monkeypatch.setattr(cli, "_bulk_decide", sevens)
    monkeypatch.setattr(cli, "_NEAR_MISSES", 3)
    seed, n_range = 2**64 - 1, (1, 5)
    outcome = falsify_campaign(1100, seed, n_range)
    bad = outcome.counterexamples
    assert [c["trial"] for c in bad] == sorted({c["trial"] for c in bad})
    assert len({c["n"] for c in bad}) == 5 and len({c["kind"] for c in bad}) == 2
    bases = campaign_bases(n_range)
    want = []
    for t in range(1100):
        f, kind = trial_table(t, seed, n_range, bases)
        values = [None if v is NEG_INF else v for v in f.values]
        if sum(v for v in values if v is not None) % 7 == 0:
            want.append({"trial": t, "kind": kind, "n": f.n, "values": values})
    assert bad == want
    assert outcome.singles_passed == 1100 and len(outcome.near_misses) == 3
    for chunk in (1, 7, 10**6):
        monkeypatch.setattr(cli, "_FALSIFY_VALUES", CHUNK_VALUES[chunk])
        assert dump(falsify_campaign(1100, seed, n_range)) == dump(outcome)
    assert main(["falsify", "--trials", "50"]) == 1
    assert json.loads(capsys.readouterr().out)["counterexamples"]


def spy_batches(monkeypatch):
    """Per batch of the campaign as it runs: its first trial, its trials
    drawn in C, and the shapes of the matrices it decides."""
    batches, draw, decide = [], cli._bulk_draws, cli._bulk_decide

    def draws(seed, first, stop, *args):
        out = draw(seed, first, stop, *args)
        batches.append((first, set((first + np.flatnonzero(out[2])).tolist()), []))
        return out

    def decided(vals, m):
        batches[-1][2].append(vals.shape)
        return decide(vals, m)
    monkeypatch.setattr(cli, "_bulk_draws", draws)
    monkeypatch.setattr(cli, "_bulk_decide", decided)
    return batches


@pytest.mark.parametrize("chunk", [1, 7, 10**6])
def test_each_batch_decides_one_row_per_distinct_mutation(monkeypatch, chunk):
    """A batch decides one row for each random table and each trial drawn in
    C, and one for each distinct (base table, mutated row) among its other
    mutations, found here from the scalar drawers; no matrix holds a row
    more than it needs to reach ``_FALSIFY_VALUES`` values."""
    values = CHUNK_VALUES[chunk]
    monkeypatch.setattr(cli, "_FALSIFY_VALUES", values)
    batches = spy_batches(monkeypatch)
    seed, n_range, trials = 5, (1, 5), 1500
    falsify_campaign(trials, seed, n_range)
    bases = campaign_bases(n_range)
    stops = [first for first, _, _ in batches[1:]] + [trials]
    for (first, scalar, shapes), stop in zip(batches, stops):
        plain, distinct = 0, set()
        for t in range(first, stop):
            if t % 2 == 0 or t in scalar:
                plain += 1
                continue
            base = bases[random.Random(seed ^ t).randrange(len(bases))]
            f, _ = trial_table(t, seed, n_range, bases)
            distinct.add((tuple(base.values), tuple(f.values)))
        assert sum(rows for rows, _ in shapes) == plain + len(distinct) < stop - first
        assert all(rows * width - width < values for rows, width in shapes)
    assert len(batches) == -(-trials // max(512, values >> 3))


@pytest.mark.parametrize("chunk", [1, 7, 10**6])
def test_mutated_trials_take_their_own_rows_verdict(monkeypatch, chunk):
    """With every passing trial kept as a near miss, the campaign lists the
    per-trial loop's passing trials, mutated ones among them, and no
    others, at each chunk."""
    seed, n_range = 2**63 + 3, (1, 5)
    monkeypatch.setattr(cli, "_NEAR_MISSES", 10**6)
    want = per_trial_campaign(1100, seed, n_range, 10**6)
    mutated = [t for _, t, kind in want.near_misses if kind == "mutated"]
    assert 0 < len(mutated) < 550
    monkeypatch.setattr(cli, "_FALSIFY_VALUES", CHUNK_VALUES[chunk])
    assert dump(falsify_campaign(1100, seed, n_range)) == dump(want)


def test_a_mutation_drawn_twice_gives_one_counterexample_per_trial(monkeypatch):
    """On a single all-zero base at n = 2, each of its four toggles is a
    counterexample under ``sevens`` (finite sum 0) and is drawn many
    times: every trial that draws it is reported, with its row, in trial
    order, as the scalar drawers give it."""
    base = SetFn(2, [0, 0, 0, 0])
    monkeypatch.setattr(cli, "_falsify_bases", lambda: (base,))
    monkeypatch.setattr(cli, "_bulk_decide", sevens)
    seed, n_range = 17, (2, 2)
    want = []
    for t in range(600):
        f, kind = trial_table(t, seed, n_range, [base])
        values = [None if v is NEG_INF else v for v in f.values]
        if sum(v for v in values if v is not None) % 7 == 0:
            want.append({"trial": t, "kind": kind, "n": 2, "values": values})
    rows = [tuple(c["values"]) for c in want if c["kind"] == "mutated"]
    assert len(rows) > 4 * len(set(rows)) and None in {v for row in rows for v in row}
    for chunk in (1, 7, 10**6):
        monkeypatch.setattr(cli, "_FALSIFY_VALUES", CHUNK_VALUES[chunk])
        assert falsify_campaign(600, seed, n_range).counterexamples == want


def shifted(tables, top, up):
    """Each table's finite values moved by one constant, so that its
    largest value is ``top`` (``up``) or its least is -top: the exchange
    verdicts stay, as both sides of every inequality hold two values."""
    out = []
    for f in tables:
        fin = [v for v in f.values if v is not NEG_INF]
        c = top - max(fin) if up else -top - min(fin)
        out.append(SetFn(f.n, [v if v is NEG_INF else v + c for v in f.values]))
    return out


@pytest.mark.parametrize("bound, below, above", [(2**12, np.int16, np.int32),
                                                 (2**28, np.int32, np.int64),
                                                 (2**60, np.int64, None)])
def test_decide_matches_the_int64_oracle_on_each_dtype_tier(monkeypatch, bound, below, above):
    """Rows of every n <= 5 in one call, whose largest |value| is
    bound - 1 or bound (ungated tables shifted up and down), take the
    narrow dtype of their tier and agree with ``ref_bulk_holds`` in int64:
    the gate on the plan, and the bounded multiple exchange, FAILs
    included, on a plan whose triples all lie past the gate. At 2^60 the
    rows are refused."""
    tables = ungated_tables()[::3]
    plan = exchange._bulk_plan
    for top, dtype in ((bound - 1, below), (bound, above)):
        rows = shifted(tables, top, True) + shifted(tables, top, False)
        if dtype is None:
            with pytest.raises(ValueError, match="outside the bulk decider"):
                exchange._bulk_bound(rows[0].values, 0)
            with pytest.raises(ValueError, match="outside the bulk decider"):
                exchange._bulk_decide(matrices(rows_of(rows), top)[0][0], top)
            continue
        assert encoding(top)[1] is dtype
        want = []
        for f in rows:
            *index, singles = ref_bulk_index(f.n)
            vals = bulk_rows([f])
            gate = ref_bulk_holds(vals, *index, 0, singles)[0]
            want.append((gate, ref_bulk_holds(vals, *index, 0, len(index[0]))[0]))
        assert {g for g, _ in want} == {b for _, b in want} == {True, False}
        assert decide(rows_of(rows), top) == [(True, True) if g else (False, None) for g, _ in want]
        with monkeypatch.context() as patch:
            patch.setattr(exchange, "_bulk_plan", lambda n: ((), plan(n)[0] + plan(n)[1]))
            assert decide(rows_of(rows), top) == [(True, b) for _, b in want]


def test_value_table_and_the_decider_share_one_encoding(monkeypatch):
    """For one M, ``value_table`` and ``_bulk_decide`` take the same
    (neg, dtype) from ``moves.encoding``, on each side of every tier."""
    seen = []
    real = exchange.encoding
    monkeypatch.setattr(exchange, "encoding", lambda m: seen.append(real(m)) or seen[-1])
    for top in (0, 1, 2**12 - 1, 2**12, 2**28 - 1, 2**28, 2**60 - 1):
        f = SetFn(2, [top, -(top // 2), None, 0])
        _, neg = value_table(f, exchange._BATCH_BYTES)
        assert decide(rows_of([f])) == [oracle(f)]
        assert seen[-1][0] == int(neg) and np.dtype(seen[-1][1]) == neg.dtype, top


def test_default_campaigns_decide_int16_matrices(monkeypatch, capsys):
    """The default ``mconcave falsify`` and library campaigns draw values
    within 5 or 3 of the corpus bases', so their matrices are int16."""
    dtypes = []
    real = cli._bulk_decide

    def spy(vals, m):
        dtypes.append(vals.dtype)
        return real(vals, m)
    monkeypatch.setattr(cli, "_bulk_decide", spy)
    assert main(["falsify"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "4e56659d3b0b9571dac24ae456a271c5f10546ee93990f419e57b7b9c55558a5"
    falsify_campaign(1000, 0)
    assert len(dtypes) > 2 and set(dtypes) == {np.dtype(np.int16)}


def test_campaign_memory_does_not_grow_with_trials(monkeypatch):
    """Rows are packed and decided one chunk at a time, so ten times the
    trials peak within a small slack of the same allocations (traced by
    ``tracemalloc``, numpy's included), once the plans and the bases are
    built. Chunks of 2^12 values keep it quick: 600 trials fill a few."""
    monkeypatch.setattr(cli, "_FALSIFY_VALUES", 1 << 12)
    falsify_campaign(600, 5)
    peaks = []
    for trials in (600, 6000):
        tracemalloc.start()
        try:
            falsify_campaign(trials, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + (64 << 10), peaks


class Counting(_random.Random):
    """A C generator that counts the words it draws (``used``)."""

    used = 0

    def getrandbits(self, k):
        self.used += (k + 31) // 32
        return super().getrandbits(k)

    def random(self):
        self.used += 2
        return super().random()


def kernel_seeds():
    """The edge seeds and seeded 1- and 2-word seeds, mixed in one list."""
    pick = random.Random(11)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    return seeds + [pick.getrandbits(pick.choice((1, 20, 32, 33, 50, 64))) for _ in range(300)]


def seed_words(seeds, k):
    """``core._seed_words``' first k words of each seed as a (k, seeds) array."""
    flat, _ = core._seed_words(seeds, k)
    return flat[:k * len(seeds)].reshape(k, -1)


@pytest.mark.parametrize("k", [1, 2, 24, 227])
def test_seed_words_are_the_c_generators_first_words(k):
    seeds = kernel_seeds()
    assert {(s > MASK64 >> 32) for s in seeds} == {False, True}  # 1- and 2-word keys
    words = seed_words(seeds, k)
    assert words.shape == (k, len(seeds)) and words.dtype == np.uint32
    for j, s in enumerate(seeds):
        rng = _random.Random(s)
        assert words[:, j].tolist() == [rng.getrandbits(32) for _ in range(k)], (s, k)


@pytest.mark.parametrize("heights", [(227, 1), (2, 1), (124, 68, 38, 23, 16, 2, 1), (1,)])
def test_seed_words_by_height_are_the_c_generators_first_words(heights):
    """Each seed's own number of words, the seeds sorted by height and held
    ragged: word i of seed j at flat[off[i] + j], one word more per seed
    than the heights sum, and the first min(heights) rows one array.
    Heights 1 and 2 read outputs 0 and 1, which the kernel emits last; the
    edge seeds take the largest heights and then the least."""
    seeds = kernel_seeds()
    k = np.array(sorted((heights[j % len(heights)] for j in range(len(seeds))), reverse=True))
    for order in (seeds, seeds[::-1]):
        flat, off = core._seed_words(order, k)
        assert flat.dtype == np.uint32 and len(flat) == len(order) + k.sum()
        low = int(k[-1])
        assert (flat[:low * len(order)].reshape(low, -1) == seed_words(order, low)).all()
        for j, s in enumerate(order):
            rng = _random.Random(s)
            assert [int(flat[off[i] + j]) for i in range(k[j])] == \
                [rng.getrandbits(32) for _ in range(k[j])], (s, k[j])


def table_reads(s, n, neg):
    """``_draw_table``'s values on seed s before its redraw of a table all
    ``neg``, the words they read, and the most 4-bit draws one value took."""
    rng, vals, most = Counting(s), [], 0
    for _ in range(1 << n):
        if rng.random() < 0.2:
            vals.append(neg)
            continue
        before = rng.used
        vals.append(core._below(rng, 11) - 5)
        most = max(most, rng.used - before)
    return vals, rng.used, most


@pytest.mark.parametrize("shrink", [1, 3])
def test_table_decoder_matches_draw_table(shrink):
    """``families._words_tables`` against ``_draw_table`` on each lane's own
    generator, n = 1..5 in one call, into shuffled store rows. A lane is
    left to C exactly when its 2^n values read past its height (the
    campaign's heights over ``shrink``: at 3, most lanes of n >= 3), one
    value takes seven 4-bit draws or more, past the gather's 8 words (about
    one lane in 100), or all are minus infinity (one table in 25 at n = 1);
    every other lane's row is ``_draw_table``'s, and nothing past a row's
    2^n values or outside the rows is written."""
    pick = random.Random(shrink)
    n = np.array(sorted((pick.randint(1, 5) for _ in range(1500)), reverse=True))
    seeds = [pick.getrandbits(32) for _ in n]
    height = np.array([max(2, cli._TABLE_WORDS[m - 1] // shrink) for m in n])
    neg = encoding(8)[0]
    store = np.full((len(n) + 3, 32), 99, np.int16)
    at = np.array(pick.sample(range(3, len(store)), len(n)))
    left = _words_tables(*core._seed_words(seeds, height), height, 1 << n, store, at, neg)
    past = emptied = long_runs = 0
    for j, s in enumerate(seeds):
        vals, used, most = table_reads(s, int(n[j]), neg)
        empty = vals.count(neg) == len(vals)
        assert left[j] == (used > height[j] or most >= 7 or empty), (j, used, height[j], most)
        row = store[at[j]].tolist()
        if not left[j]:
            assert row[:1 << n[j]] == vals == _draw_table(random.Random(s), int(n[j]), neg=neg)
        assert row[1 << n[j]:] == [99] * (32 - (1 << n[j]))
        past, emptied = past + (used > height[j]), emptied + empty
        long_runs += most >= 7 and used <= height[j]
    assert (store[:3] == 99).all()
    assert emptied > 5 and (past > len(n) // 2) == (shrink > 1)
    assert long_runs > 5 or shrink > 1  # left to C within their words, at full heights


def decode_against_below(seeds, k, draws):
    """``draws`` (a list of bounds, each an int or one per seed) decoded by
    ``_words_below`` from k words a seed, against ``core._below`` on each
    seed's C generator: the values, the words drawn, and the seeds that
    run out of words, exactly those whose scalar draws need more than k."""
    words = seed_words(seeds, k)
    cols, pos = np.arange(len(seeds)), np.zeros(len(seeds), np.int64)
    got = [core._words_below(words, cols, pos, m) for m in draws]
    for j, s in enumerate(seeds):
        rng = Counting(s)
        want = [core._below(rng, m if isinstance(m, int) else int(m[j])) for m in draws]
        assert (pos[j] > k) == (rng.used > k), (s, draws)
        if rng.used <= k:
            assert [int(g[j]) for g in got] == want, (s, draws)
            assert pos[j] == rng.used
    return pos


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 2**31, 2**32 - 1, 2**32])
def test_words_below_matches_below(m):
    """Eight draws below m from 24 words, and from 8, where a retry runs a
    seed out of words: every bound but 2^32 - 1 retries on some seed."""
    seeds = kernel_seeds()
    for k in (24, 8):
        pos = decode_against_below(seeds, k, [m] * 8)
    assert (pos > 8).any() == (m != 2**32 - 1)


def test_words_below_takes_a_bound_per_seed():
    seeds = kernel_seeds()
    bounds = np.array([1 + s % 33 for s in range(len(seeds))])
    pos = decode_against_below(seeds, 12, [bounds, 2**32, bounds[::-1].copy(), 2])
    assert (pos > 12).any() and (pos <= 12).any()


def test_words_random_matches_random():
    seeds = kernel_seeds()
    words = seed_words(seeds, 9)
    cols, pos = np.arange(len(seeds)), np.zeros(len(seeds), np.int64)
    got = [core._words_random(words, cols, pos) for _ in range(4)]
    assert (pos == 8).all()
    for j, s in enumerate(seeds):
        rng = _random.Random(s)
        assert [g[j] for g in got] == [rng.random() for _ in range(4)], s


def spy_scalar(monkeypatch):
    """The trials drawn wholly in C, and the random tables whose rows are
    drawn in C (those trials' tables among them), as the campaign runs."""
    taken, tables, real = [], [], cli._bulk_draws

    def spy(seed, first, stop, *args):
        keys, store, scalar, left = real(seed, first, stop, *args)
        taken.extend((first + np.flatnonzero(scalar)).tolist())
        tables.extend((first + np.flatnonzero(left)).tolist())
        return keys, store, scalar, left
    monkeypatch.setattr(cli, "_bulk_draws", spy)
    return taken, tables


@pytest.mark.parametrize("words", [2, 5, 9])
def test_trials_past_the_words_take_the_scalar_path(monkeypatch, words):
    """With few words a seed, many trials run past them (all at 2); the campaign
    still equals the per-trial loop, over corpus bases and over one-entry
    bases whose toggle empties the domain, and at every chunk."""
    monkeypatch.setattr(cli, "_SEED_WORDS", words)
    monkeypatch.setattr(cli, "_MUTATION_WORDS", words)
    monkeypatch.setattr(cli, "_NEAR_MISSES", 10**6)
    taken, _ = spy_scalar(monkeypatch)
    for seed, n_range in ((0, (1, 5)), (2**64 - 1, (3, 8))):
        want = dump(per_trial_campaign(500, seed, n_range, 10**6))
        for chunk in (7, 10**6):
            monkeypatch.setattr(cli, "_FALSIFY_VALUES", CHUNK_VALUES[chunk])
            assert dump(falsify_campaign(500, seed, n_range)) == want
    assert 0 < len(taken) <= 2 * 2 * 500 and (len(taken) < 2000) == (words > 2)
    bases = tuple(SetFn(n, [n if k == n % (1 << n) else None for k in range(1 << n)])
                  for n in (1, 2, 3)) + cli._falsify_bases()[:2]
    monkeypatch.setattr(cli, "_falsify_bases", lambda: bases)
    emptied = []
    want = dump(per_trial_campaign(400, 9, (1, 5), 10**6, bases, emptied))
    assert dump(falsify_campaign(400, 9, (1, 5))) == want
    assert len(emptied) >= 5


def test_tables_past_their_words_are_drawn_in_c(monkeypatch):
    """With each table height of n >= 3 at the mean words its values read
    (and a mutation's 16 below), about half the random tables of n >= 3
    read past their words, some by one word, and are drawn in C from their
    sub-seed. A stand-in decider fails every row, so the campaign lists
    each trial's table, and each is the one the scalar drawers give, at
    every chunk; the tables left to C are random tables only."""
    monkeypatch.setattr(cli, "_TABLE_WORDS", (16, 16, 25, 51, 101))
    monkeypatch.setattr(cli, "_bulk_decide",
                        lambda vals, m: (np.ones(len(vals), bool), np.zeros(len(vals), bool)))
    taken, tables = spy_scalar(monkeypatch)
    seed, n_range, trials = 2**64 - 1, (1, 5), 700
    bases, want = campaign_bases(n_range), []
    for t in range(trials):
        f, kind = trial_table(t, seed, n_range, bases)
        want.append({"trial": t, "kind": kind, "n": f.n,
                     "values": [None if v is NEG_INF else v for v in f.values]})
    for chunk in (7, 10**6):
        monkeypatch.setattr(cli, "_FALSIFY_VALUES", CHUNK_VALUES[chunk])
        assert falsify_campaign(trials, seed, n_range).counterexamples == want
    left = set(tables) - set(taken)
    assert all(t % 2 == 0 for t in tables)
    assert trials // 8 < len(left) < trials // 4, len(left)  # of the 350 random tables


def test_table_heights_start_at_a_mutations_words():
    """The second seeding's rows start full: each random table's height, n
    = 1..5, is at least a mutation's, so the mutations' words are its first
    ``_MUTATION_WORDS`` rows as one array."""
    assert len(cli._TABLE_WORDS) == 5 and min(cli._TABLE_WORDS) >= cli._MUTATION_WORDS


def test_campaign_reseeds_only_random_tables_and_the_scalar_path(monkeypatch):
    """In a default campaign of 2,000 trials the C generator is seeded two or
    three times for each trial past the words and once for each other
    random table left to C (past its words, a value past the decoder's
    gather, or drawn all minus infinity): 25 seeds at seed 0 (5 trials
    past the words, 15 of the 1,000 tables left to C), bounded here by 28,
    against two or three a trial when every generator was seeded in C."""
    seeds = []

    class Seeding(_random.Random):
        def seed(self, s):
            seeds.append(s)
            super().seed(s)
    monkeypatch.setattr(cli, "_random", type("C", (), {"Random": Seeding}))
    taken, tables = spy_scalar(monkeypatch)
    trials = 2000
    assert dump(falsify_campaign(trials, 0)) == dump(per_trial_campaign(trials, 0))
    scalar = set(taken)
    assert scalar <= set(seeds)  # a trial past the words is seeded t = 0 ^ t first
    assert scalar & set(range(0, trials, 2)) <= set(tables)
    table_trials = len(set(tables) - scalar)
    assert 2 * len(scalar) <= len(seeds) - table_trials <= 3 * len(scalar)
    assert len(seeds) <= 28
