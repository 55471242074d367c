"""The bulk falsification decider against the per-table checkers, its
oracle, and whole campaigns against the per-trial loop they replace.

The gate and the multiple-exchange kernel are compared on ungated
tables, so the kernel's FAIL path (a triple with no move as good as
f(X) + f(Y)) is covered although no gated table ever reaches it. The
per-trial loop computes each passing table's margin itself and asserts
that it is 0, the constant the campaign writes. It draws its tables with
``ref_random_table`` and ``ref_mutate``, scalar copies of ``random_table``
and ``mutate`` with a ``random.Random`` of their own each, so the drawers
that the campaign runs on one reseeded generator are checked against code
that does not call them. The scalar copies call ``randint``, ``randrange``
and ``choice``; the drawers must leave the generator in the same state.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from mconcave import NEG_INF, SetFn, check_exc_single, default_corpus, mutate, random_table
from mconcave import cli, core, exchange
from mconcave.cli import MASK64, FalsifyOutcome, falsify_campaign, main
from mconcave.core import HARD_CAP, _require_int, submasks_ascending
from mconcave.exchange import _best_multi
from mconcave.families import _draw_mutation, _draw_table
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


def rows_of(tables):
    return [exchange._bulk_row(f.values, k) for k, f in enumerate(tables)]


def bulk_rows(tables):
    return np.array(
        [[exchange._BULK_NEG if v is NEG_INF else v for v in f.values] + [exchange._BULK_NEG]
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


def test_index_sizes():
    mlhs, moves, starts, singles = exchange._bulk_index(5)
    assert singles == 1280 and len(mlhs) == len(starts) == 3125 and len(moves) == 5100
    assert starts[singles] == 2560  # their drops and swaps
    assert not moves.flags.writeable and exchange._bulk_index(5) is exchange._bulk_index(5)


def test_gate_matches_check_exc_single():
    seen = set()
    for n, tables in by_n(ungated_tables()):
        *index, singles = exchange._bulk_index(n)
        got = exchange._bulk_holds(bulk_rows(tables), *index, 0, singles).tolist()
        want = [check_exc_single(f).passed for f in tables]
        assert got == want, n
        seen |= set(want)
    assert seen == {True, False}


def test_margins_match_multi_pass_margin():
    """The bulk verdict against the exhaustive loop's (``ref_multi_pass``,
    which ``_multi_pass_margin`` replaced), FAILs included; the margin of
    every table that holds is 0."""
    fails = 0
    for n, tables in by_n(ungated_tables()):
        index = exchange._bulk_index(n)[:3]
        got = exchange._bulk_holds(bulk_rows(tables), *index, 0, len(index[0])).tolist()
        for f, holds in zip(tables, got):
            failing = ref_multi_pass(f, bounded=True)[0]
            assert holds == (failing is None), f
            assert margin(f) == (0 if holds else None), f
            fails += failing is not None
    assert fails > 100


@pytest.mark.parametrize("budget", [exchange._BATCH_BYTES, 1])
def test_decide_matches_oracle(monkeypatch, budget):
    monkeypatch.setattr(exchange, "_BATCH_BYTES", budget)
    tables = ungated_tables()
    random.Random(5).shuffle(tables)
    assert exchange._bulk_decide(rows_of(tables)) == [oracle(f) for f in tables]


def test_tables_outside_the_bound_are_refused():
    """Rows with values just inside the bound run in bulk and agree with
    the oracle; a row with any |v| >= 2^60, a float or a bool, an empty
    domain or a length other than 2^n raises ValueError in ``_bulk_row``,
    and in ``_bulk_decide`` when its encoding fits int64, as the campaign
    never draws one. numpy would read the bools as ints without a word."""
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
    assert exchange._bulk_decide(rows_of(inside)) == [oracle(f) for f in inside]
    assert {p for p, _ in map(oracle, inside)} == {True, False}
    for row in outside:
        with pytest.raises(ValueError, match="outside the bulk decider"):
            exchange._bulk_row(row, 0)
        encoded = [exchange._BULK_NEG if v is NEG_INF else v for v in row]
        if all(type(v) is int and abs(v) < 2**63 for v in encoded):
            with pytest.raises(ValueError, match="outside the bulk decider"):
                exchange._bulk_decide(rows_of(inside[:3]) + [encoded])


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
    draw = lambda rng, f, *rest: _draw_mutation(rng, f.values, f.dom_masks, *rest)
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


def per_trial_campaign(trials, seed, n_range=(2, 5), keep_near=5, bases=None, emptied=None):
    """The campaign as a loop over trials, one table decided at a time,
    each trial from its own ``random.Random``. ``bases`` replaces the
    corpus tables to mutate; ``emptied`` collects the trials whose toggle
    emptied the domain."""
    n_lo, n_hi = max(1, n_range[0]), min(5, n_range[1])
    weights = {3: 3, 4: 2, 5: 1}
    if bases is None:
        bases = [inst.fn for inst in default_corpus() for _ in range(weights.get(inst.fn.n, 0))]
    bases = [b for b in bases if n_lo <= b.n <= n_hi] or None
    out = FalsifyOutcome(trials=trials)
    for t in range(trials):
        rng = random.Random((seed ^ t) & MASK64)
        if t % 2 == 0 or bases is None:
            n = rng.randint(n_lo, n_hi)
            f = ref_random_table(n, rng.randrange(1 << 32))
            kind = "random"
        else:
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
            kind = "mutated"
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
def test_campaign_matches_per_trial_loop(seed, n_range):
    """700 trials cross a chunk boundary; keep_near 10^6 compares every
    margin."""
    for keep_near in (10**6, 3):
        want = dump(per_trial_campaign(700, seed, n_range, keep_near))
        assert dump(falsify_campaign(700, seed, n_range, keep_near)) == want


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
    emptied = []
    want = dump(per_trial_campaign(600, 9, (1, 5), 10**6, bases, emptied))
    assert dump(falsify_campaign(600, 9, (1, 5), 10**6)) == want
    assert len(emptied) >= 10


@pytest.mark.parametrize("value", [exchange._BULK_SAFE, -exchange._BULK_SAFE, exchange._BULK_NEG,
                                   2**63, -(2**63) - 1, 2**70, 0.5])
def test_campaign_refuses_a_base_outside_the_bulk_decider(monkeypatch, value):
    """A base with a value that an int64 row cannot hold exactly (one past
    the bound, the -infinity code itself, past int64, a float) raises
    ValueError, as ``_bulk_row`` refuses such a row, and is never
    decided as wrapped, truncated or misread values."""
    values = [value if k == 5 else k for k in range(8)]
    base = SetFn(3, values, "real" if isinstance(value, float) else "int")
    monkeypatch.setattr(cli, "_falsify_bases", lambda: (base,))
    with pytest.raises(ValueError, match="outside the bulk decider"):
        falsify_campaign(20, 0, (3, 3))
    with pytest.raises(ValueError, match="outside the bulk decider"):
        exchange._bulk_row(base.values, 0)


def test_campaign_refuses_a_mutation_past_the_bound(monkeypatch):
    """A base just inside the bound passes, and its mutations that move a
    value past it are refused on the chunk's int64 matrix."""
    top = exchange._BULK_SAFE - 1
    base = SetFn(3, [top] * 8)
    assert exchange._bulk_decide(rows_of([base])) == [(True, True)]
    monkeypatch.setattr(cli, "_falsify_bases", lambda: (base,))
    with pytest.raises(ValueError, match="outside the bulk decider"):
        falsify_campaign(40, 0, (3, 3))
    for row in ([top + 1] + [top] * 7, [exchange._BULK_NEG] * 8):
        with pytest.raises(ValueError, match="outside the bulk decider"):
            exchange._bulk_decide([row])


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


@pytest.mark.parametrize("chunk", [1, 7, 10**6])
def test_falsify_bytes_do_not_depend_on_the_chunk(monkeypatch, capsys, chunk):
    """The default ``mconcave falsify`` bytes, and a library campaign
    crossing several chunks, with trials drawn and decided in chunks of
    ``chunk``."""
    want = dump(falsify_campaign(1100, 2**64 - 1, (1, 5), 10**6))
    monkeypatch.setattr(cli, "_FALSIFY_CHUNK", chunk)
    assert main(["falsify"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "4e56659d3b0b9571dac24ae456a271c5f10546ee93990f419e57b7b9c55558a5"
    assert dump(falsify_campaign(1100, 2**64 - 1, (1, 5), 10**6)) == want


def test_bases_are_built_once():
    assert cli._falsify_bases() is cli._falsify_bases()
    assert isinstance(cli._falsify_bases(), tuple)
