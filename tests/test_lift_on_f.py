"""The ``m_concave_lift`` suite, decided on f, against its oracle
``check_m_concave(lift(f))``, and the two verdicts of the shared exchange
sweep against the scalar loops and witness finders.

The suite's report is compared by bytes with the oracle's, relabelled:
verdict, first failing lifted triple (pads as elements n + 1 ..) and the
triple count through it. The tables are seeded random and mutated ones
with n <= 5, with and without minus infinity, tables of one domain size
(no pads), and tables at each dtype tier of ``moves.value_table``.
"""

import math
from dataclasses import replace

import pytest

from mconcave import (
    NEG_INF,
    SetFn,
    augment_lt,
    check_m_concave,
    cli,
    default_corpus,
    exchange,
    exchange_leq,
    find_single_exchange,
    lift,
    mutate,
    random_table,
    store,
)
from mconcave.cli import SuiteConfig, main
from mconcave.core import elements_of
from mconcave.families import random_mnat_concave
from test_multi_batched import TIER_IDS, TIERS, at_top, value_dtype
from test_sweep_batched import chunk_budget, loop_sweep, partial_chunk_tables


@pytest.fixture(scope="module")
def by_id():
    return {c.instance_id: c.fn for c in default_corpus()}


def suite_line(f):
    """The m_concave_lift suite's report of f, labelled as the oracle's."""
    exchange._sweeps.cache_clear()
    report = cli._INSTANCE_SUITES["m_concave_lift"]("t", f, SuiteConfig(), 0)
    assert report.suite == "m_concave_lift"
    return replace(report, suite="m_concave").to_json_line()


def assert_agree(tables):
    """Each table's suite line against the oracle's; returns the oracle's
    counterexamples."""
    counters = []
    for f in tables:
        want = check_m_concave(lift(f), instance_id="t")
        assert suite_line(f) == want.to_json_line(), f.values
        if not want.passed:
            counters.append((f, want.counterexample))
    return counters


def random_tables():
    """Seeded random tables with n = 1..5, with and without minus infinity,
    and random M-natural-concave ones, which pass."""
    tables = [random_table(1 + s % 5, s, neg_inf_prob=0.1 * (s % 6)) for s in range(150)]
    tables += [random_mnat_concave(2 + s % 2, s) for s in range(15)]
    return [f for f in tables if f.dom_masks]


def test_random_tables_match_the_lift():
    tables = random_tables()
    counters = assert_agree(tables)
    assert 30 < len(counters) < len(tables) - 15
    assert any(max(c["X"] + c["Y"]) > f.n for f, c in counters)  # FAILs with pads


def test_mutated_tables_match_the_lift(by_id):
    """Seeded ``mutate``d corpus tables with n <= 5, some with an entry
    toggled to or from minus infinity, and the unmutated ones."""
    tables = [f for f in by_id.values() if f.n <= 5]
    for k, f in enumerate(list(tables)):
        for s in range(3):
            g = mutate(f, 7 * k + s, 1 + s, toggle_neg_inf=s == 2)
            if g.dom_masks:
                tables.append(g)
    counters = assert_agree(tables)
    assert len(counters) > len(tables) // 2


def test_tables_of_one_domain_size_are_their_own_lift(by_id):
    """With no pads the lift is f, and the suite is ``check_m_concave(f)``."""
    tables = [f for f in by_id.values() if len({m.bit_count() for m in f.dom_masks}) == 1]
    for s in range(40):
        n = 2 + s % 4
        g = random_table(n, s, neg_inf_prob=0.1 * (s % 3))
        k = s % (n + 1)
        tables.append(SetFn(n, [v if m.bit_count() == k else NEG_INF
                                for m, v in enumerate(g.values)]))
    tables = [f for f in tables if f.dom_masks]
    counters = assert_agree(tables)
    assert 5 < len(counters) < len(tables)
    for f in tables:
        assert lift(f) == f
        assert suite_line(f) == check_m_concave(f, instance_id="t").to_json_line()


@pytest.mark.parametrize("top, dtype", TIERS, ids=TIER_IDS)
def test_value_tiers_match_the_lift(by_id, top, dtype):
    """Tables shifted to each side of each dtype boundary of
    ``moves.value_table``, up and down, FAILs included."""
    bases = [by_id["n4_laminar"], mutate(by_id["n4_laminar"], 0, 1),
             mutate(by_id["n4_assignment"], 1, 2, toggle_neg_inf=True),
             random_table(3, 5, neg_inf_prob=0.3), by_id["n5_partition"]]
    tables = [at_top(g, top, low) for g in bases for low in (False, True)]
    assert all(value_dtype(f) == dtype for f in tables)
    counters = assert_agree(tables)
    assert 4 <= len(counters) < len(tables)


def test_every_rule_position_maps_to_its_lifted_triple(by_id, monkeypatch):
    """For each (X, Y) of f and each rule that applies, the lifted triple
    and the count through it are those of lift(f)'s lex order, counted
    triple by triple: X and Y with their lowest pads, i in X \\ Y as
    itself, and the augment as the first pad of P \\ Q, n + b + 1 for
    b = r - |Y|. No table tried fails first on a pad, so this is where the
    augment's mapping is checked."""
    tables = [by_id["n3_laminar"], random_table(3, 2, neg_inf_prob=0.3),
              SetFn(4, [0 if m in (0, 1, 3, 6, 7, 14, 15) else None for m in range(16)])]
    for f in tables:
        lifted = lift(f)
        # The count of lift(f)'s triples (Zx, Zy, k) through each, as
        # ``test_sweep_batched.loop_sweep`` counts them.
        position = {}
        for zx in lifted.dom_masks:
            for zy in lifted.dom_masks:
                for k in elements_of(zx & ~zy):
                    position[zx, zy, k] = len(position) + 1
        s, r = f.dom_size_range()
        order = sorted(range(len(f.dom_masks)),
                       key=lambda k: (r - f.dom_masks[k].bit_count(), f.dom_masks[k]))
        dm = [f.dom_masks[k] for k in order]
        pads = 0
        for x, xm in enumerate(dm):
            for y, ym in enumerate(dm):
                rules = [i for i in range(f.n) if xm >> i & 1 and not ym >> i & 1]
                rules += [f.n] * (xm.bit_count() < ym.bit_count())
                for rule in rules:
                    with monkeypatch.context() as m:
                        m.setattr(exchange, "_exchange_sweep",
                                  lambda *a, **kw: [None, (x, y, rule)])
                        (zx, zy, i), got = exchange._lift_sweep(f)
                    a, b = r - xm.bit_count(), r - ym.bit_count()
                    assert (zx, zy) == (xm | ((1 << a) - 1) << f.n, ym | ((1 << b) - 1) << f.n)
                    assert i == (rule + 1 if rule < f.n else f.n + b + 1)
                    assert got == position[zx, zy, i]
                    pads += rule == f.n
        assert pads > 0 and s < r


def lifted_holds(g, zx, zy, k):
    """Whether some j in Zy \\ Zx attains g(Zx) + g(Zy) for element bit k
    of Zx \\ Zy: the scalar exchange of ``check_m_concave``."""
    vals = g.exact
    lhs = vals[zx] + vals[zy]
    for j in range(g.n):
        if zy >> j & 1 and not zx >> j & 1:
            a, b = vals[zx ^ 1 << k | 1 << j], vals[zy ^ 1 << j | 1 << k]
            if a is not NEG_INF and b is not NEG_INF and lhs <= a + b:
                return True
    return False


def pair_first(f, x, y):
    """[single, facts]: the rule at which each verdict of
    ``_exchange_sweep`` first fails on (X, Y) = (dom[x], dom[y]) alone, or
    None, from a sweep over the domain sets [X, Y]. Its pairs (X, X) and
    (Y, Y) hold every rule, and (Y, X) comes after (X, Y)."""
    return [g[2] if g is not None and g[:2] == (0, 1) else None
            for g in exchange._exchange_sweep(f, [x, y])]


def scalar_first(f, xm, ym):
    """``pair_first`` by the scalar witness finders: the first i in X \\ Y
    (as rule i - 1) where ``find_single_exchange`` finds no move, and the
    first where ``exchange_leq`` finds none for |X| <= |Y|, else rule n
    where ``augment_lt`` finds none for |X| < |Y|."""
    X, Y = elements_of(xm), elements_of(ym)
    d = elements_of(xm & ~ym)
    single = next((i - 1 for i in d if find_single_exchange(f, X, Y, i) is None), None)
    facts = None
    if len(X) <= len(Y):
        facts = next((i - 1 for i in d if exchange_leq(f, X, Y, i) is None), None)
    if facts is None and len(X) < len(Y) and augment_lt(f, X, Y) is None:
        facts = f.n
    return [single, facts]


def test_each_lift_rule_holds_on_a_pair_where_its_lifted_element_does():
    """Pair by pair, rule k of the lift (the AND of the two verdicts of
    ``_exchange_sweep``, as ``_lift_sweep`` reads them) holds on (X, Y) of
    f iff the lifted exchange holds for its element at (X u P, Y u Q) for
    every P and Q, and iff it holds with P and Q the lowest pads: element
    i for rule i < n, and a pad of P \\ Q for the augment. A sweep over
    the domain sets [X, Y] gives the first rule of that pair where the
    lift fails, so each rule up to it is decided there. The first failure
    of the lift on a whole table has, on every table tried, never depended
    on where the drop is allowed, so this is where the drop condition is
    checked."""
    tables = [random_table(1 + s % 4, s, neg_inf_prob=0.1 * (s % 5)) for s in range(60)]
    tables = [f for f in tables if f.dom_masks and len(set(map(int.bit_count, f.dom_masks))) > 1]
    decided = set()
    for f in tables:
        g, n, r = lift(f), f.n, f.dom_size_range()[1]
        pad_sets = {a: [p << n for p in range(1 << (g.n - n)) if p.bit_count() == a]
                    for a in range(g.n - n + 1)}
        for x, xm in enumerate(f.dom_masks):
            for y, ym in enumerate(f.dom_masks):
                if x == y:
                    continue
                a, b = r - xm.bit_count(), r - ym.bit_count()
                first = min(filter(lambda k: k is not None, pair_first(f, x, y)), default=None)
                applying = []
                for k in range(n + 1):
                    if k < n and not (xm >> k & 1 and not ym >> k & 1) or k == n and a <= b:
                        continue
                    applying.append(k)
                    # The lifted element: i itself, or the lowest pad of P \ Q.
                    bit = k if k < n else n + b
                    low = lifted_holds(g, xm | ((1 << a) - 1) << n, ym | ((1 << b) - 1) << n, bit)
                    every = all(lifted_holds(g, xm | pm, ym | qm, kb)
                                for pm in pad_sets[a] for qm in pad_sets[b]
                                for kb in range(g.n) if (k < n and kb == k or k == n and kb >= n)
                                and (xm | pm) >> kb & 1 and not (ym | qm) >> kb & 1)
                    assert low == every, (f.values, xm, ym, k)
                    if first is None or k <= first:
                        holds = k != first
                        assert holds == low, (f.values, xm, ym, k)
                        decided.add((holds, k == n, a < b, a == b))
                assert first is None or first in applying, (f.values, xm, ym, first)
    # Passes and failures of the augment, and of rule i at each size order.
    assert decided == {(h, False, lt, eq) for h in (True, False)
                       for lt, eq in ((True, False), (False, True), (False, False))} | {
        (True, True, False, False), (False, True, False, False)}


def test_shared_rules_hold_pair_by_pair(by_id):
    """On each pair (X, Y) alone (an ``_exchange_sweep`` over the domain
    sets [X, Y]), each verdict first fails at the rule where the scalar
    witness finders first find no move: ``find_single_exchange`` for the
    single verdict, ``exchange_leq`` for rule i of the facts where
    |X| <= |Y|, and ``augment_lt`` for the augment where |X| < |Y|. The
    first failure of a whole table has, on every table tried, never
    depended on the drop of the facts, so this is where it is checked."""
    tables = [random_table(1 + s % 4, s, neg_inf_prob=0.1 * (s % 5)) for s in range(40)]
    tables += [mutate(by_id["n4_laminar"], s, 1) for s in range(3)]
    seen = set()
    for f in tables:
        n, dom = f.n, f.dom_masks
        for x, xm in enumerate(dom):
            for y, ym in enumerate(dom):
                if x == y:
                    continue
                got = pair_first(f, x, y)
                assert got == scalar_first(f, xm, ym), (f.values, xm, ym)
                # Where a verdict fails, whether the other holds at that rule.
                single, facts = got
                leq = xm.bit_count() <= ym.bit_count()
                if single is not None:
                    seen.add((False, leq, False, facts is None or facts > single))
                if facts is not None:
                    seen.add((facts == n, leq, single is None or single > facts, False))
    # Each verdict fails somewhere, the facts where the drop would hold too.
    assert {(False, True, True, False), (False, True, False, False),
            (False, False, False, True), (True, True, True, False)} <= seen


def _lost_to_a_shared_cut(firsts, found, n):
    """Whether a row cut shared by the two verdicts would lose one of the
    first failures ``found`` ([single, facts]): at the first rule r < n
    where verdict k fails on any pair, the other verdict has failed in an
    earlier rule, on a row before every row where k fails. ``firsts`` maps
    each pair (x, y) to ``scalar_first``'s [single, facts]."""
    for k, first in enumerate(found):
        if first is None:
            continue
        r = min(fr[k] for fr in firsts.values() if fr[k] is not None)
        before = [x for (x, _), fr in firsts.items() if fr[1 - k] is not None and fr[1 - k] < r]
        if r < n and before and min(before) < first[0]:
            return True
    return False


def test_shared_sweep_is_the_two_sweeps(by_id, monkeypatch):
    """Each verdict of ``_exchange_sweep`` is its scalar loop's, at the
    block budget and at one byte, where every row is a block: the single
    one, counted by ``_sweep_count``, is ``loop_sweep``'s, and the facts
    one is the first pair where ``scalar_first`` finds a failing fact.
    Each verdict keeps its own first failure and row cut: on the mutated
    tables that end the list, one verdict has failed on an early row
    before the first rule where the other fails, and only on later rows."""
    tables = random_tables()[:60] + [mutate(by_id["n5_laminar"], s, 1) for s in range(4)]
    tables += [mutate(by_id[iid], 5, 3) for iid in ("n3_uniform_r1", "n4_uniform_r2",
                                                    "n5_uniform_r2")]
    tables.append(mutate(by_id["n5_partition"], 0, 1))
    firsts = [{(x, y): scalar_first(f, xm, ym) for x, xm in enumerate(f.dom_masks)
               for y, ym in enumerate(f.dom_masks)} for f in tables]
    for budget in (exchange._BATCH_BYTES, 1):
        monkeypatch.setattr(exchange, "_BATCH_BYTES", budget)
        passes = fails = lost = 0
        for f, pairs in zip(tables, firsts):
            single, facts = exchange._exchange_sweep(f)
            assert exchange._sweep_count(f, single) == loop_sweep(f, True)
            assert facts == next(((x, y, k) for (x, y), (_, k) in pairs.items()
                                  if k is not None), None)
            passes += single is None and facts is None
            if single is not None and facts is not None:
                fails += single[:2] != facts[:2]
            lost += _lost_to_a_shared_cut(pairs, [single, facts], f.n)
        assert passes > 10 and fails > 10 and lost == 4


def test_partial_rule_chunks_match_the_lift(by_id, monkeypatch):
    """At budgets that put 2 and n of the n + 1 rules in one chunk, so that
    a block compares rules that apply to a pair with rules that do not,
    the suite's report is the lifted oracle's, and each verdict of the
    sweep is its scalar loop's."""
    tables = partial_chunk_tables(by_id) + random_tables()[::5]
    runs = counters = 0
    for f in tables:
        pairs = {(x, y): scalar_first(f, xm, ym) for x, xm in enumerate(f.dom_masks)
                 for y, ym in enumerate(f.dom_masks)}
        for width in sorted({2, f.n}):
            monkeypatch.setattr(exchange, "_BATCH_BYTES", chunk_budget(f, width))
            runs += 1
            counters += len(assert_agree([f]))
            single, facts = exchange._exchange_sweep(f)
            assert exchange._sweep_count(f, single) == loop_sweep(f, True)
            assert facts == next(((x, y, k) for (x, y), (_, k) in pairs.items()
                                  if k is not None), None)
    assert runs // 3 < counters < runs


def test_check_never_lifts(monkeypatch, capsys):
    """Default ``check`` runs m_concave_lift on every corpus instance
    without building a lift or sweeping one."""
    calls = []
    monkeypatch.setattr(exchange, "lift", lambda f: calls.append(f))
    monkeypatch.setattr(exchange, "check_m_concave", lambda f, **kw: calls.append(f))
    assert main(["check", "--suites", "m_concave_lift"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(default_corpus())
    assert all('"suite":"m_concave_lift"' in line for line in lines)
    assert calls == []


def test_full_domain_n12_gets_a_verdict_without_the_lift(monkeypatch):
    """The full-domain n = 12 table -(|Z| - 6)^2, whose lift has 2^24
    values, passes with the count of every lifted triple: each of the 24
    lifted elements lies in C(23, 11) of the C(24, 12) lifted sets."""
    monkeypatch.setattr(exchange, "lift", lambda f: pytest.fail("lift was called"))
    f = SetFn(12, [-(m.bit_count() - 6) ** 2 for m in range(1 << 12)])
    report = cli._INSTANCE_SUITES["m_concave_lift"]("n12", f, SuiteConfig(), 0)
    c = math.comb(23, 11)
    assert report.passed and report.triples_checked == 24 * c * (math.comb(24, 12) - c)


def test_a_lift_past_the_cap_is_refused(tmp_path, capsys):
    """n + r - s > 24 is refused as ``lift`` refuses it, with exit code 2
    and before any sweep."""
    f = SetFn(13, [0 if m in (0, (1 << 13) - 1) else None for m in range(1 << 13)])
    with pytest.raises(ValueError, match="lifted ground-set size 26 exceeds hard cap 24"):
        lift(f)
    store(f, tmp_path / "wide.json")
    assert main(["check", "--suites", "m_concave_lift", str(tmp_path / "wide.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lifted ground-set size 26 exceeds hard cap 24\n"
