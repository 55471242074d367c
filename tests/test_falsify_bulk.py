"""The bulk falsification decider against the per-table checkers, its
oracle, and whole campaigns against the per-trial loop they replace.

The gate and the margin kernel are compared on ungated tables, so the
kernel's FAIL path (a triple with no move as good as f(X) + f(Y)) is
covered although no gated table ever reaches it.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from mconcave import NEG_INF, SetFn, check_exc_single, default_corpus, mutate, random_table
from mconcave import cli, exchange
from mconcave.cli import MASK64, FalsifyOutcome, falsify_campaign
from mconcave.exchange import _multi_pass_margin


def oracle(f):
    """(passed, margin) as the campaign's per-table loop decided them."""
    if not check_exc_single(f).passed:
        return False, None
    failing, _, _, margin = _multi_pass_margin(f, bounded=True)
    return True, None if failing is not None else margin


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
        got = exchange._bulk_gate(bulk_rows(tables), *exchange._bulk_index(n)).tolist()
        want = [check_exc_single(f).passed for f in tables]
        assert got == want, n
        seen |= set(want)
    assert seen == {True, False}


def test_margins_match_multi_pass_margin():
    fails = 0
    for n, tables in by_n(ungated_tables()):
        got = exchange._bulk_margins(bulk_rows(tables), *exchange._bulk_index(n)[:3])
        for f, margin in zip(tables, got):
            failing, _, _, want = _multi_pass_margin(f, bounded=True)
            assert margin == (None if failing is not None else want), f
            assert margin is None or type(margin) is int
            fails += failing is not None
    assert fails > 100


@pytest.mark.parametrize("budget", [exchange._BATCH_BYTES, 1])
def test_decide_matches_oracle(monkeypatch, budget):
    monkeypatch.setattr(exchange, "_BATCH_BYTES", budget)
    tables = ungated_tables()
    random.Random(5).shuffle(tables)
    assert exchange._bulk_decide(tables) == [oracle(f) for f in tables]


def test_tables_outside_the_bound_are_refused():
    """Values just inside the bound run in bulk and agree with the oracle;
    a table with any |v| >= 2^60, a real-mode table or an empty domain
    raises ValueError, as the campaign never draws one."""
    top = exchange._BULK_SAFE - 1
    inside, outside = [random_table(6, 0)], []
    for s in range(40):
        f = random_table(3 + s % 3, s, lo=-1, hi=1, neg_inf_prob=0.2 * (s % 3))
        inside.append(SetFn(f.n, [v if v is NEG_INF else v * top for v in f.values]))
        m = f.dom_masks[s % len(f.dom_masks)]
        for big in (top + 1, -top - 1, 1 << 70):
            outside.append(f.with_value([j + 1 for j in range(f.n) if m >> j & 1], big))
    for c in default_corpus():
        if c.fn.n <= 5:
            scale = top // max(abs(v) for v in c.fn.values if v is not NEG_INF)
            inside.append(SetFn(c.fn.n, [v if v is NEG_INF else v * scale for v in c.fn.values]))
    outside.append(SetFn(2, [0, 0.5, 0.25, 1.0], "real"))
    outside.append(SetFn(3, [None] * 8))
    assert exchange._bulk_decide(inside) == [oracle(f) for f in inside]
    assert {p for p, _ in map(oracle, inside)} == {True, False}
    for f in outside:
        with pytest.raises(ValueError, match="outside the bulk decider"):
            exchange._bulk_decide(inside[:3] + [f])


def per_trial_campaign(trials, seed, n_range=(2, 5), keep_near=5):
    """The campaign as a loop over trials, one table decided at a time."""
    n_lo, n_hi = max(1, n_range[0]), min(5, n_range[1])
    weights = {3: 3, 4: 2, 5: 1}
    bases = [inst for inst in default_corpus() for _ in range(weights.get(inst.fn.n, 0))]
    bases = [b for b in bases if n_lo <= b.fn.n <= n_hi] or None
    out = FalsifyOutcome(trials=trials)
    for t in range(trials):
        rng = random.Random((seed ^ t) & MASK64)
        if t % 2 == 0 or bases is None:
            n = rng.randint(n_lo, n_hi)
            f = random_table(n, rng.randrange(1 << 32))
            kind = "random"
        else:
            base = bases[rng.randrange(len(bases))]
            mseed = rng.randrange(1 << 32)
            magnitude = rng.randint(1, 3)
            if rng.random() < 0.3:
                f = mutate(base.fn, mseed, magnitude, toggle_neg_inf=True)
                if not f.dom_masks:
                    f = mutate(base.fn, mseed, magnitude)
            else:
                f = mutate(base.fn, mseed, magnitude)
            kind = "mutated"
        out.kinds[kind] = out.kinds.get(kind, 0) + 1
        if not check_exc_single(f).passed:
            continue
        out.singles_passed += 1
        failing, _, _, margin = _multi_pass_margin(f, bounded=True)
        if failing is not None:
            out.counterexamples.append({"trial": t, "kind": kind, "n": f.n,
                                        "values": [None if v is NEG_INF else v
                                                   for v in f.values]})
        else:
            out.near_misses.append((margin, t, kind))
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


def test_bases_are_built_once():
    assert cli._falsify_bases() is cli._falsify_bases()
    assert isinstance(cli._falsify_bases(), tuple)
