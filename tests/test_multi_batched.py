"""The array kernel of the multiple exchange and of the ``lemmas_2_8``
facts against the scalar loops it replaced, which stay here as the
oracles.

``check_exc_multi`` is compared by report bytes (verdict, first violating
triple, witness-size histogram and triple count) on both bounds, in both
regimes, in every dtype of the kernel (int16, int32 and int64 up to
|value| < 2^12, 2^28 and 2^60, Python ints above), and on real tables,
some with ties moved by a billionth. Each test runs again with a budget
of one byte, so every block holds one triple and one move. The lemma
facts are compared without the single-exchange gate, on tables that fail
each kind of fact first, from the interval table and from the moves.
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
    elements_of,
    mask_of,
    shown,
    submasks_ascending,
    submasks_by_size,
)
from mconcave.exchange import (
    DEFAULT_SAMPLES,
    EXHAUSTIVE_N_LIMIT,
    _best_multi,
    _empty_side,
    _first_swap,
    _lemma_facts,
    exc_multi_reports,
)
from mconcave.families import random_mnat_concave
from mconcave.reporting import failed_report, passed_report
from test_rng_replay import ref_sampled_multi

BUDGETS = [exchange._BATCH_BYTES, 1]
# ``_lemma_facts`` on each side of its size gate: the moves of every
# table, and the interval table wherever 4^n fits (the default).
GATES = [0, exchange._INTERVAL_BYTES]


# --- the oracles -------------------------------------------------------------


def ref_multi_pass(f, bounded):
    """The exhaustive loop over (X, Y, I) in lex order: (first violating
    (xm, ym, im) or None, histogram of witness sizes, triples checked)."""
    vals = f.exact
    dom = f.dom_masks
    counts = [0] * (f.n + 1)
    for xm in dom:
        fx = vals[xm]
        for ym in dom:
            lhs = fx + vals[ym]
            for im in submasks_ascending(xm & ~ym):
                best, _, size = _best_multi(vals, xm, ym, im, bounded)
                if best is NEG_INF or not lhs <= best:
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
               "I": list(elements_of(im)),
               "lhs": shown(f, f.exact[xm] + f.exact[ym])}
    return failed_report(suite, "", counter, histogram=hist, triples=triples,
                         regime=regime, seed=seed).to_json_line()


def scan_empty_restriction(f, xm, ym, im):
    """None when the three restrictions of (X, Y, I) all have a nonempty
    domain, else the message naming the first empty one of x_side,
    x_side_sized and y_side. Scans J inside Y \\ X and stops as soon as
    all three are known nonempty."""
    vals = f.values
    xbase = xm & ~im
    ybase = ym | im
    k = im.bit_count()
    x_side = x_sized = y_side = False
    for g in submasks_ascending(ym & ~xm):
        if not x_sized and vals[xbase | g] is not NEG_INF:
            x_side = True
            x_sized = g.bit_count() <= k
        if not y_side and vals[ybase & ~g] is not NEG_INF:
            y_side = True
        if x_sized and y_side:
            return None
    name = "x_side" if not x_side else "x_side_sized" if not x_sized else "y_side"
    return _empty_side(name, xm, ym, im)


def ref_lemma_facts(f):
    """The loop of the ``lemmas_2_8`` suite after its gate: (counter of the
    first failing fact or None, facts checked)."""
    vals = f.exact
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
                empty = scan_empty_restriction(f, xm, ym, im)
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


# The tiers of ``moves.value_table``: the largest |value| on each side of
# each dtype boundary, and the dtype the table takes.
TIERS = [(4095, np.int16), (4096, np.int32), (2**28 - 1, np.int32), (2**28, np.int64),
         (2**60 - 1, np.int64), (2**60, object)]
TIER_IDS = ["4095", "4096", "2^28-1", "2^28", "2^60-1", "2^60"]


def at_top(f, top, low=False):
    """f shifted so that its largest |value| is ``top``: its maximum moved
    to ``top``, or its minimum to ``-top`` when ``low``."""
    fin = [v for v in f.values if v is not NEG_INF]
    return affine(f, shift=-top - min(fin) if low else top - max(fin))


def real_copy(f, scale):
    return SetFn(f.n, [v if v is NEG_INF else v * scale for v in f.values], "real")


def affine(f, scale=1, shift=0):
    return SetFn(f.n, [v if v is NEG_INF else v * scale + shift for v in f.values])


# --- the enumeration ------------------------------------------------------------


def test_ranked_moves_are_submasks_by_size():
    def pairs(bits, size):
        masks = (bits << np.arange(len(bits))[:, None]).sum(axis=0, dtype=np.int64)
        assert set(bits.flat) <= {0, 1}
        return list(zip(masks.tolist(), size.tolist()))
    for m in range(11):
        want = list(submasks_by_size((1 << m) - 1))
        assert pairs(*moves.by_size(m)) == want
        for width in (1, 7):
            for j0 in range(0, 1 << m, width):
                assert pairs(*moves.ranked(m, j0, j0 + width)) == want[j0:j0 + width]


def test_deposit_is_submasks_ascending():
    rng = random.Random(3)
    for d in [0, 1, 255, 0b10110100] + [rng.randrange(1 << 10) for _ in range(40)]:
        got = moves.deposit(np.arange(1 << d.bit_count()), np.array(d), 10)
        assert got.tolist() == list(submasks_ascending(d))


def ref_moves(at, xm, ym, im):
    """(f((X\\I) | J), f((Y\\J) | I), |J|) of every move J of (X, Y, I) in
    the order of ``submasks_by_size``, one scalar lookup each."""
    return [(at(xm & ~im | jm), at(ym & ~jm | im), size)
            for jm, size in submasks_by_size(ym & ~xm)]


def moves_triples(n, count, seed, top=None):
    """``count`` seeded triples (X, Y, I) over n elements, a few with
    Y inside X (m = 0); with ``top`` set, Y \\ X holds bit ``top`` and at
    most five more bits."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        xm, ym = rng.getrandbits(n), rng.getrandbits(n)
        if t % 7 == 0:
            ym &= xm
        if top is not None:
            xm &= ~(1 << top)
            extra = rng.sample([e for e in range(n) if not xm >> e & 1 and e != top],
                               rng.randrange(6))
            ym = xm & ym | 1 << top | sum(1 << e for e in extra)
        out.append((xm, ym, xm & ~ym & rng.getrandbits(n)))
    return [np.array(col, dtype=np.int64) for col in zip(*out)]


def moves_of(at, triples, budget):
    """Each triple's (a, b, |J|) from the masks of ``moves.moves`` read
    through ``at``, in the order its blocks give them, checking each
    block's k against |I|."""
    xm, ym, im = triples
    got = [[] for _ in xm]
    for rows, a, b, size, k in moves.moves(xm, ym, im, budget):
        assert k.tolist() == np.bitwise_count(im[rows]).tolist()
        a, b = at(a), at(b)
        for t, row in enumerate(rows.tolist()):
            got[row] += zip(a[t].tolist(), b[t].tolist(), size.tolist())
    return got


@pytest.mark.parametrize("budget", [exchange._BATCH_BYTES, 64 * 5, 1])
def test_moves_against_the_loop(budget):
    """Every move of every triple once, in ``submasks_by_size`` order, with
    its |J| and its triple's |I|: whole blocks at the default budget, and
    split ones (``ranked`` chunks of 5 and of 1 move) below it; with the
    identity as the table, with a value table, and at n = 24 with bit 23
    in Y \\ X."""
    values = np.array(random.Random(5).choices(range(-9, 10), k=1 << 7), dtype=np.int64)
    cases = [(lambda masks: masks, moves_triples(7, 60, 1)), (values.take, moves_triples(7, 60, 2)),
             (lambda masks: masks, moves_triples(24, 30, 3, top=23))]
    for at, triples in cases:
        want = [ref_moves(lambda mask: int(at(np.int64(mask))), *map(int, t))
                for t in zip(*triples)]
        assert moves_of(at, triples, budget) == want
    assert any(not xm & ~ym for xm, ym, _ in zip(*cases[0][1]))


def test_moves_never_deposit(monkeypatch):
    """The moves are a product of bit matrices; ``deposit`` stays for the
    I masks of ``triples`` only."""
    def banned(*args):
        raise AssertionError("moves.moves called deposit")
    triples = moves_triples(7, 20, 4)
    monkeypatch.setattr(moves, "deposit", banned)
    for budget in (exchange._BATCH_BYTES, 64 * 5):
        assert moves_of(lambda masks: masks, triples, budget)


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


def test_multi_best_matches_the_scalar_search(budget):
    """Per triple, ``moves.multi_best``'s four arrays are
    ``_best_multi``'s best and smallest |J|, under both bounds: equal
    where some move gives a finite sum, and below -2M (no finite sum, M
    the largest |value|) where none does."""
    tables = [random_table(n, 70 * n + s, neg_inf_prob=p)
              for n in range(1, 6) for s in range(3) for p in (0.0, 0.3)]
    tables += [random_mnat_concave(2 + s % 2, s) for s in range(6)]
    redone = infinite = 0
    for f in thinned([f for f in tables if f.dom_masks], budget):
        at, neg = moves.value_table(f, budget)
        top = max(abs(v) for v in f.exact if v is not NEG_INF)
        dm = np.array(f.dom_masks, dtype=np.int64)
        for xm, ym, im in moves.exhaustive_triples(dm, f.n, budget):
            got = moves.multi_best(at, neg, len(xm), moves.moves(xm, ym, im, budget))
            redone += int((got[1][1] > np.bitwise_count(im)).sum())
            for t, triple in enumerate(zip(xm.tolist(), ym.tolist(), im.tolist())):
                for (best, size), bounded in zip(got, (True, False)):
                    want, _, want_size = _best_multi(f.exact, *triple, bounded)
                    if want is NEG_INF:
                        infinite += 1
                        assert best[t] < -2 * top, (f.values, triple, bounded)
                    else:
                        assert (best[t], size[t]) == (want, want_size), (f.values, triple)
    assert redone and infinite


def test_bounded_pick_is_decided_again_only_past_the_bound(by_id, monkeypatch):
    """In each block of ``multi_best``'s one pass, the bounded pick is
    decided again only in the rows whose unbounded pick has |J| > |I|, on
    the same sums with the moves past |I| at ``neg``, and not at all in a
    block without such rows: on the corpus there are some, and under a
    tenth of the rows."""
    blocks, tops, negs = [], [], []
    real_best, real_top = moves.multi_best, moves._top

    def spy_best(at, neg, count, given):
        def seen():
            for block in given:
                blocks.append((block, len(tops)))  # the block and its first pick
                yield block
        return real_best(at, neg, count, seen())

    def spy_top(s):
        top, pick = real_top(s)
        tops.append((s, pick))
        return top, pick
    monkeypatch.setattr(exchange, "multi_best", spy_best)
    monkeypatch.setattr(moves, "_top", spy_top)
    for f in by_id.values():
        start = len(blocks)
        exc_multi_reports(f)
        negs += [moves.value_table(f, exchange._BATCH_BYTES)[1]] * (len(blocks) - start)
    ends = [first for _, first in blocks[1:]] + [len(tops)]
    total = redone = 0
    for ((_, _, _, size, k), first), end, neg in zip(blocks, ends, negs):
        (s, pick), *again = tops[first:end]
        past = size[pick] > k
        assert len(again) == past.any()
        for masked, _ in again:
            assert np.array_equal(masked, np.where(size <= k[past, None], s[past], neg))
        total += len(past)
        redone += int(past.sum())
    assert 0 < redone < total // 10


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
    """Comparisons are exact: raising one value of a table with ties by
    5e-10 or by 1.5e-9 makes the loop's FAIL as surely as a larger bump,
    where a tolerance of 1e-9 kept a PASS at 5e-10."""
    base = real_copy(by_id["n4_laminar"], 0.01)
    assert assert_agree([base]) == 0
    results = {}
    for mask in (3, 6, 15):
        for bump in (5e-10, 1.5e-9):
            h = base.with_value(elements_of(mask), base.values[mask] + bump)
            results[mask, bump] = assert_agree([h])
    assert all(results[mask, 5e-10] == results[mask, 1.5e-9] for mask in (3, 6, 15))
    assert any(results[mask, 5e-10] for mask in (3, 6, 15))


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


@pytest.mark.parametrize("top, dtype", TIERS + [(2**2000, object)], ids=TIER_IDS + ["2^2000"])
@pytest.mark.parametrize("blanks", [False, True])
def test_minus_infinity_is_a_number_on_both_tiers(top, dtype, blanks):
    """``value_table`` gives minus infinity as the number neg = -4M - 4,
    M = max |value|, on every dtype tier, dense and sparse: exactly
    ``neg`` off the domain, and neg + M < -2M, so that a term ``neg``
    fails every exchange comparison. The table takes the narrowest dtype
    that holds 2 * neg, and is dense while the bytes of that dtype fit
    in the budget."""
    rng = random.Random(top.bit_length())
    vals = [rng.randint(-top, top) for _ in range(16)]
    vals[5], vals[6] = top, -top
    if blanks:
        vals[0] = vals[9] = vals[15] = NEG_INF
    f = SetFn(4, vals)
    size = np.dtype(dtype).itemsize << 4
    for budget, dense in ((exchange._BATCH_BYTES, True), (size, True), (size - 1, False)):
        at, neg = moves.value_table(f, budget)
        assert neg.dtype == dtype and neg == -4 * top - 4
        assert isinstance(getattr(at, "__self__", None), np.ndarray) == dense
        assert isinstance(neg.item(), int)
        got = at(np.arange(16, dtype=np.int64))
        assert got.dtype == dtype
        assert got.tolist() == [int(neg) if v is NEG_INF else v for v in f.exact]
        assert neg + top < -2 * top
        if dtype is not object:
            assert 2 * int(neg) >= np.iinfo(dtype).min


def late_fail_table(missing):
    """An n = 8 table, 0 everywhere but NEG_INF at ``missing`` and its
    complement: a sampled triple fails only when every exchange reaches one
    of the two, so the first FAIL comes late."""
    vals = [0] * 256
    vals[missing] = vals[255 ^ missing] = NEG_INF
    return SetFn(8, vals)


def test_sampled_blocks(by_id, budget):
    """Sample counts around one sampled block, and FAILs in the first
    sampled block and in the last: the late table first fails at sample
    3058 of seed 1, past the first block of the default budget; a one-byte
    block holds one sample."""
    step = max(1, budget // moves._TRIPLE_BYTES)  # the samples of a sampled block
    f8 = by_id["n8_wbasis_uniform_r4"]
    early = mutate(by_id["n8_wbasis_uniform_r3"], 0, 1)  # FAILs at sample 1
    late = late_fail_table(0b111)
    if budget > 1:
        assert step < 3058
        runs = [(late, 3058, 1), (late, 3058, 2**64 - 1), (mutate(f8, 0, 1), 10**4, 0)]
        runs += [(g, samples, seed) for g in (f8, late, early)
                 for samples in (1, step - 1, step, step + 1, 10**4) for seed in (0, 2**64 - 1)]
    else:
        runs = [(mutate(f8, 0, 1), 27, 0), (early, 5, 0), (f8, 40, 2**64 - 1)]
        runs += [(g, samples, 0) for g in (f8, early) for samples in (1, 2, 3)]
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
    # Each side of each dtype boundary, up from the top and down from the
    # bottom, on tables of at most eight domain sets.
    tables += [at_top(g, top, low) for top, _ in TIERS for low in (False, True)
               for g in (mutate(f3, 0, 1), random_table(3, 5, neg_inf_prob=0.3))]
    # J = {} finite on one side only at the first failing fact: f(X\I) at
    # an x_side FAIL, f(Y | I) at a y_side FAIL.
    tables += one_sided_tables()
    tables += wide_restriction_tables().values()
    # Real ties moved by 5e-10 and by 1.5e-9.
    for iid, masks in (("n3_laminar", (3, 5, 7)), ("n4_laminar", (3, 6, 15))):
        base = real_copy(by_id[iid], 0.01)
        tables += [base.with_value(elements_of(m), base.values[m] + bump)
                   for m in masks for bump in (5e-10, 1.5e-9)]
    # Lifts with 252 and 924 domain sets: a PASS, and FAILs past many blocks.
    n5, n6 = by_id["n5_laminar"], by_id["n6_laminar"]
    tables += [lift(n5), lift(n5.with_value((3, 5), n5.values[20] - 1)),
               lift(n6.with_value((6,), n6.values[32] - 1))]
    return [f for f in tables if f.dom_masks]


# Domains (zero tables) with n = 5..8 whose first failing fact is a
# restriction fact of each side, found by a seeded search that grew random
# domains of three to six sets to eight while the first failure kept its kind.
WIDE_DOMAINS = {
    (5, "x_side"): (17, 19, 20, 21, 22, 24, 25, 29),
    (5, "x_side_sized"): (7, 11, 15, 19, 23, 24, 28, 30),
    (5, "y_side"): (15, 21, 23, 24, 26, 27, 29, 30),
    (6, "x_side"): (38, 46, 50, 52, 54),
    (6, "x_side_sized"): (22, 26, 33, 40, 41, 48, 53, 62),
    (6, "y_side"): (7, 11, 14, 23, 24, 34, 39, 51),
    (7, "x_side"): (11, 27, 73, 89, 96, 100, 119, 124),
    (7, "x_side_sized"): (55, 87, 88, 108, 110, 112, 115, 126),
    (7, "y_side"): (7, 21, 32, 38, 40, 43, 68, 74),
    (8, "x_side"): (7, 13, 15, 67, 73, 136, 144, 187),
    (8, "x_side_sized"): (91, 121, 217, 226, 239, 247, 250, 251),
    (8, "y_side"): (55, 151, 154, 164, 182, 197, 213, 233),
}


def wide_restriction_tables():
    """{(n, side): the zero table on WIDE_DOMAINS[n, side]}."""
    return {key: SetFn(key[0], [0 if m in dom else None for m in range(1 << key[0])])
            for key, dom in WIDE_DOMAINS.items()}


def one_sided_tables():
    """Zero tables on n = 4 with three sets outside the domain, whose first
    failing fact (after 118 and 50 facts) is a restriction fact where J = {}
    reaches a finite value on one side only: f(X\\I) = -inf at an x_side
    FAIL, f(Y | I) = -inf at a y_side FAIL."""
    return [SetFn(4, [None if m in holes else 0 for m in range(16)])
            for holes in ((0, 4, 12), (0, 1, 9))]


def lemma_facts(f):
    """``_lemma_facts`` given the first failing swap or augment fact of
    the shared exchange sweep, as the CLI runs it."""
    return _lemma_facts(f, exchange._exchange_sweep(f)[1])


def test_lemma_facts_match_the_loop(by_id, budget, monkeypatch):
    """The facts without their gate, on tables that fail each kind first,
    on each side of the size gate; on a PASS the counts of facts agree."""
    tables = thinned(lemma_tables(by_id), budget)
    assert {str(value_dtype(f)) for f in tables} == {"int16", "int32", "int64", "object"}
    assert {252, 924} <= {len(f.dom_masks) for f in tables} or budget == 1
    wants = [ref_lemma_facts(f) for f in tables]
    for gate in GATES:
        monkeypatch.setattr(exchange, "_INTERVAL_BYTES", gate)
        kinds = set()
        passes = 0
        for f, want in zip(tables, wants):
            got = lemma_facts(f)
            assert got == want, (f, gate)
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
        for (n, kind), f in wide_restriction_tables().items():
            assert f.n == n and lemma_facts(f)[0]["detail"].split()[0] == kind


def test_restriction_facts_skip_what_the_empty_move_settles(by_id, monkeypatch):
    """Below the size gate ``_lemma_facts`` reads the interval table and
    runs no moves. Above it (the gate at 0), it runs the moves of a triple
    only where J = {} leaves a side infinite: never on a full domain, on
    single-size domains it does. Where J = {} is finite on one side only,
    the first failing fact is the loop's, with its count."""
    calls = []
    real = exchange.restriction_sides
    monkeypatch.setattr(exchange, "restriction_sides",
                        lambda at, neg, xm, *a: calls.append(len(xm)) or real(at, neg, xm, *a))
    f8 = by_id["n8_wbasis_uniform_r4"]
    f8_facts = ref_lemma_facts(f8)[1]
    for gate in GATES:
        monkeypatch.setattr(exchange, "_INTERVAL_BYTES", gate)
        moves_path = gate == 0
        calls.clear()
        for iid in ("n4_laminar", "n5_laminar"):
            assert lemma_facts(by_id[iid]) == ref_lemma_facts(by_id[iid])
        assert calls == []
        assert lemma_facts(f8) == (None, f8_facts)
        assert (bool(calls) and sum(calls) < f8_facts) == moves_path
        for f, (kind, x_finite, y_finite, count) in zip(one_sided_tables(),
                                                        (("x_side", False, True, 118),
                                                         ("y_side", True, False, 50))):
            calls.clear()
            got = lemma_facts(f)
            assert got == ref_lemma_facts(f)
            counter, checked = got
            xm, ym, im = (mask_of(counter[key], 4) for key in "XYI")
            assert counter["detail"].split()[0] == kind and checked == count
            assert (f.exact[xm & ~im] is not NEG_INF, f.exact[ym | im] is not NEG_INF) == \
                (x_finite, y_finite)
            assert bool(calls) == moves_path


@pytest.mark.parametrize("top, dtype", TIERS, ids=TIER_IDS)
def test_value_tiers_match_the_loops(by_id, top, dtype):
    """Corpus tables shifted to each side of each dtype boundary, up and
    down: both bounds of the multiple exchange, exhaustive and sampled, and
    the lemma facts give the loops' results, FAILs included."""
    def shifted(tables):
        out = [at_top(g, top, low) for g in tables for low in (False, True)]
        assert all(value_dtype(g) == dtype for g in out)
        return out

    exhaustive = shifted([by_id["n4_laminar"], by_id["n5_wbasis_uniform"],
                          mutate(by_id["n5_partition"], 0, 1),
                          mutate(by_id["n4_assignment"], 1, 2, toggle_neg_inf=True)])
    sampled = shifted([by_id["n8_wbasis_uniform_r4"], late_fail_table(0b111),
                       mutate(by_id["n8_wbasis_uniform_r3"], 0, 1)])
    fails = assert_agree(exhaustive) + assert_agree(sampled, samples=3058, seed=1)
    assert 0 < fails < 2 * (len(exhaustive) + len(sampled))
    lemma_fails = 0
    for f in shifted([by_id["n4_laminar"], by_id["n6_wbasis_k4"], *one_sided_tables(),
                      random_table(3, 1, neg_inf_prob=0.3)]):
        got = lemma_facts(f)
        assert got == ref_lemma_facts(f), f
        lemma_fails += got[0] is not None
    assert lemma_fails >= 4


# --- one domain's plan, read by every table on it --------------------------------


def cold_lines(f):
    """f's two multiple-exchange report lines with the exchange caches
    emptied first."""
    exchange._domain_plan.cache_clear()
    exchange.exc_multi_reports.cache_clear()
    return [exc_multi_reports(f)[bounded].to_json_line() for bounded in (True, False)]


def test_tables_on_one_domain_share_its_plan(by_id, monkeypatch):
    """Tables decided back to back: a corpus table, ``mutate`` copies that
    keep its domain and fail, a real-mode copy, other corpus tables on the
    domain, and between them tables on other domains of the same n. Each
    gives the lines of a cold cache and of the scalar loop, and the plan is
    built once per run of tables on one domain."""
    base = by_id["n5_partition"]
    fails = [mutate(base, s, 1 + s) for s in (0, 2)]
    assert all(g.dom_masks == base.dom_masks for g in fails)
    tables = [base, *fails, real_copy(base, 0.37), by_id["n5_laminar"],
              by_id["n5_wbasis_uniform"], by_id["n5_graphic"], by_id["n4_laminar"],
              by_id["n4_wbasis_cycle"], by_id["n4_assignment"], by_id["n4_graphic_cycle"]]
    wants = [[ref_line(f, bounded) for bounded in (True, False)] for f in tables]
    assert [cold_lines(f) for f in tables] == wants
    assert sum('"FAIL"' in line for want in wants for line in want) == 4
    builds = []
    real = exchange.exhaustive_triples
    monkeypatch.setattr(exchange, "exhaustive_triples",
                        lambda dm, *a: builds.append(len(dm)) or real(dm, *a))
    exchange._domain_plan.cache_clear()
    for f, want in zip(tables, wants):
        exchange.exc_multi_reports.cache_clear()
        assert [exc_multi_reports(f)[bounded].to_json_line() for bounded in (True, False)] == want
        assert "triples" in exchange._domain_plan(f.n, f.dom_masks)
    assert builds == [32, 10, 32, 16, 4, 16]


def test_a_failing_fact_after_a_passing_table_gets_its_own_count(by_id):
    """The kept restriction scan covers every pair, so only a table whose
    sweep reports no failing fact reads it: tables that fail a swap or
    augment fact, decided after a passing table on the same domain, count
    the facts through their own failure, as the loop does, and so do the
    one-sided tables, whose first failing fact is a restriction fact."""
    good = by_id["n4_laminar"]
    bad = [mutate(good, s, 2) for s in (1, 4)]
    assert all(g.dom_masks == good.dom_masks and exchange._exchange_sweep(g)[1] for g in bad)
    one_sided = one_sided_tables()
    for f in (good, *bad, real_copy(good, 0.5), *one_sided, real_copy(one_sided[0], 0.5)):
        assert lemma_facts(f) == ref_lemma_facts(f), f
        assert ("facts" in exchange._domain_plan(4, f.dom_masks)) == (f.dom_masks == good.dom_masks)


def test_a_plan_past_the_budget_is_not_kept(by_id):
    """n6_laminar's plan (1.37 MB) and a full n = 7 table's exceed
    _BATCH_BYTES: their triples stream as they are built and nothing is
    kept. The sampled regime (n = 8) builds no plan. The largest kept plan
    of the corpus, n7_wbasis_uniform_r3's, holds read-only arrays within
    _BATCH_BYTES."""
    for f in (by_id["n6_laminar"], random_table(7, 3, neg_inf_prob=0.0)):
        assert len(f.dom_masks) == 1 << f.n
        cold_lines(f)
        assert "triples" not in exchange._domain_plan(f.n, f.dom_masks)
    cold_lines(by_id["n8_wbasis_partition"])
    assert exchange._domain_plan.cache_info().currsize == 0
    f = by_id["n7_wbasis_uniform_r3"]
    cold_lines(f)
    arrays = [arr for xm, ym, im, mv in exchange._domain_plan(f.n, f.dom_masks)["triples"]
              for arr in (xm, ym, im, *(part for block in mv for part in block))]
    # The rows of a block are views of one array; count each buffer once.
    owners = {id(a): a for a in (arr if arr.base is None else arr.base for arr in arrays)}
    assert exchange._BATCH_BYTES // 2 < sum(a.nbytes for a in owners.values()) \
        <= exchange._BATCH_BYTES
    assert not any(a.flags.writeable for a in arrays)


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
    facts, peak = traced_peak(lambda: lemma_facts(chain))
    assert peak < 8 * budget
    gate, peak = traced_peak(lambda: cli._suite_lemmas("pair", pair, cli.SuiteConfig(), 0))
    assert peak < 8 * budget and not gate.passed
    try:
        for bounded in (True, False):
            assert reports[bounded].to_json_line() == ref_line(pair, bounded, samples, seed)
        assert facts == ref_lemma_facts(chain)
    finally:
        submasks_ascending.cache_clear()  # the 20-bit masks' entries
        submasks_by_size.cache_clear()
    assert facts[0]["fact"] == "augment_at_lt_size" and facts[1] > 40
    assert reports[False].triples_checked == 2 and not reports[False].passed
