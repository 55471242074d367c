"""Metamorphic relations of the exchange suites: transforms of f that keep
M-natural-concavity and every fact of the proof keep the verdicts of
``exc_single``, ``m_concave_lift`` and ``lemmas_2_8``, and of both
multiple-exchange suites and ``corollary1``.

The transforms are a permutation of the ground set, an added constant,
an integer modular tilt f(Z) + p(Z), scaling by an integer c > 0, and
the complement Z -> N \\ Z (for ``exc_single`` and ``m_concave_lift``:
the size bounds of the restriction facts do not turn over with it). The
value transforms keep every comparison of every sweep, so the reports
keep their counterexamples and counts too, all but the values shown. A
report's counterexample, mapped through a permutation, violates the
permuted table. The CLI keeps these relations on instance files.

One relation is one-sided: a PASS on f is a PASS on each interval minor
g(Z) = f(A u Z) on B \\ A, for |A| <= 1 and |B| >= n - 1.
"""

import json
import random

import pytest

from mconcave import (
    NEG_INF,
    SetFn,
    cli,
    default_corpus,
    exchange,
    find_multi_exchange,
    find_single_exchange,
    lift,
    mutate,
    random_table,
    store,
)
from mconcave.cli import SuiteConfig, main
from mconcave.families import random_mnat_concave

SUITES = ("exc_single", "m_concave_lift", "lemmas_2_8")


def reports(f, suites=SUITES):
    """{suite: report} of f on ``suites``, from cleared caches."""
    for cached in (exchange._sweeps, exchange.exc_multi_reports):
        cached.cache_clear()
    return {s: cli._INSTANCE_SUITES[s]("t", f, SuiteConfig(), 0) for s in suites}


def permuted(f, perm):
    """g with g(sigma(Z)) = f(Z), sigma moving element bit b to perm[b]."""
    vals = [NEG_INF] * (1 << f.n)
    for m, v in enumerate(f.values):
        vals[sum(1 << perm[b] for b in range(f.n) if m >> b & 1)] = v
    return SetFn(f.n, vals, f.mode)


def tilted(f, p):
    return SetFn(f.n, [v if v is NEG_INF else v + sum(p[b] for b in range(f.n) if m >> b & 1)
                       for m, v in enumerate(f.values)])


def complemented(f):
    full = (1 << f.n) - 1
    return SetFn(f.n, [f.values[full & ~m] for m in range(1 << f.n)])


def tables():
    """Seeded random tables with n <= 4 and M-natural-concave ones (n <= 3),
    and seeded ``mutate``d corpus tables with n <= 5 and the unmutated
    ones."""
    out = [random_table(1 + s % 4, s, neg_inf_prob=0.1 * (s % 4)) for s in range(24)]
    out += [random_mnat_concave(2 + s % 2, s) for s in range(6)]
    corpus = [c.fn for c in default_corpus() if c.fn.n <= 5]
    for k, f in enumerate(corpus):
        out.append(f)
        out += [mutate(f, 5 * k + s, 1 + s, toggle_neg_inf=s == 1) for s in range(2)]
    return [f for f in out if f.dom_masks]


@pytest.fixture(scope="module")
def cases():
    """(f, its reports) for every table, with PASS and FAIL on every suite."""
    out = [(f, reports(f)) for f in tables()]
    for s in SUITES:
        assert {r[s].verdict for _, r in out} == {"PASS", "FAIL"}, s
    return out


def without_values(report):
    """The report's line with the values it shows (``lhs``) taken out."""
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "lhs"}
        return obj
    return report.verdict, report.triples_checked, strip(report.counterexample)


def value_transforms(f, rng):
    c = rng.randint(2, 5)
    p = [rng.randint(-6, 6) for _ in range(f.n)]
    return {"constant": SetFn(f.n, [v if v is NEG_INF else v + c - 9 for v in f.values]),
            "tilt": tilted(f, p),
            "scale": SetFn(f.n, [v if v is NEG_INF else c * v for v in f.values])}


def test_value_transforms_keep_the_reports(cases):
    """An added constant, a modular tilt and a positive integer scale
    keep each suite's verdict, first failure and count."""
    rng = random.Random(7)
    for f, want in cases:
        for name, g in value_transforms(f, rng).items():
            got = reports(g)
            for s in SUITES:
                assert without_values(got[s]) == without_values(want[s]), (name, s, f.values)


def test_complement_keeps_the_verdicts(cases):
    flipped = 0
    for f, want in cases:
        got = reports(complemented(f))
        for s in ("exc_single", "m_concave_lift"):
            assert got[s].verdict == want[s].verdict, (s, f.values)
        flipped += got["exc_single"].counterexample != want["exc_single"].counterexample
    assert flipped  # the complement moves the first failure


def mapped(elements, perm, n):
    """Elements (1-based) through the permutation; pads above n stay."""
    return [perm[e - 1] + 1 if e <= n else e for e in elements]


def fails_single(g, c, perm, n):
    """The permuted single-exchange counterexample c fails on g."""
    X, Y = mapped(c["X"], perm, n), mapped(c["Y"], perm, n)
    return find_single_exchange(g, X, Y, mapped([c["i"]], perm, n)[0]) is None


def test_permutation_keeps_the_verdicts_and_maps_the_counterexample(cases):
    """A permuted table gets each suite's verdict, and each FAIL's
    counterexample, mapped through the permutation, fails the single
    exchange on it (on its lift for ``m_concave_lift``, pads fixed). A
    ``lemmas_2_8`` FAIL is its single-exchange precondition's: the facts
    of the proof hold wherever the single exchange does."""
    rng = random.Random(3)
    for f, want in cases:
        n = f.n
        perm = list(range(n))
        rng.shuffle(perm)
        g = permuted(f, perm)
        got = reports(g)
        for s in SUITES:
            assert got[s].verdict == want[s].verdict, (s, perm, f.values)
        if not want["exc_single"].passed:
            assert fails_single(g, want["exc_single"].counterexample, perm, n)
        if not want["m_concave_lift"].passed:
            assert fails_single(lift(g), want["m_concave_lift"].counterexample, perm, n)
        if not want["lemmas_2_8"].passed:
            c = want["lemmas_2_8"].counterexample
            assert c["reason"] == "single-exchange precondition fails"
            assert fails_single(g, c["detail"], perm, n)


MULTI_SUITES = ("exc_multi_bounded", "exc_multi_unbounded", "corollary1")


def multi_reports(f):
    """{suite: report} of f on the multiple-exchange suites and corollary1."""
    return reports(f, MULTI_SUITES)


@pytest.fixture(scope="module")
def multi_cases():
    """(f, its multiple-exchange reports) for every table, with PASS and
    FAIL on every suite."""
    out = [(f, multi_reports(f)) for f in tables()]
    for s in MULTI_SUITES:
        assert {r[s].verdict for _, r in out} == {"PASS", "FAIL"}, s
    return out


def kept(report):
    return report.verdict, report.regime, report.triples_checked


def fails_multi(g, suite, c, perm, n):
    """The counterexample c of a multiple-exchange suite (corollary1's, the
    single-exchange failure its three verdicts agree on), mapped through the
    permutation, fails on g."""
    if suite == "corollary1":
        assert c["agreement"] and c["verdicts"] == ["FAIL"] * 3
        return fails_single(g, c["detail"], perm, n)
    X, Y, I = (mapped(c[key], perm, n) for key in "XYI")
    return find_multi_exchange(g, X, Y, I, suite == "exc_multi_bounded") is None


def test_multiple_exchange_keeps_its_reports_under_the_transforms(multi_cases):
    """An added constant, an integer modular tilt and x3 keep each suite's
    verdict, regime, triples_checked and counterexample (all but the values
    shown); a permutation keeps the verdict and regime, the count on every
    PASS (on a FAIL the first failure in lex order may move), and maps each
    FAIL's counterexample to one that fails on the permuted table."""
    rng = random.Random(13)
    for f, want in multi_cases:
        c, p = rng.randint(2, 5), [rng.randint(-6, 6) for _ in range(f.n)]
        for name, g in (("constant", SetFn(f.n, [v if v is NEG_INF else v + c - 9
                                                 for v in f.values])),
                        ("tilt", tilted(f, p)),
                        ("x3", SetFn(f.n, [v if v is NEG_INF else 3 * v for v in f.values]))):
            got = multi_reports(g)
            for s in MULTI_SUITES:
                assert kept(got[s]) == kept(want[s]), (name, s, f.values)
                assert without_values(got[s]) == without_values(want[s]), (name, s, f.values)
        perm = list(range(f.n))
        rng.shuffle(perm)
        g = permuted(f, perm)
        got = multi_reports(g)
        for s in MULTI_SUITES:
            assert kept(got[s])[:2] == kept(want[s])[:2], (s, perm, f.values)
            if want[s].passed:
                assert got[s].triples_checked == want[s].triples_checked, (s, perm, f.values)
            else:
                assert fails_multi(g, s, want[s].counterexample, perm, f.n), (s, perm, f.values)


CLI_SUITES = ("exc_single", "exc_multi_bounded", "exc_multi_unbounded", "m_concave_lift",
              "lemmas_2_8")


def check_file(tmp_path, name, f, capsys):
    """{suite: report} that ``mconcave check`` prints for f stored as a file."""
    path = tmp_path / f"{name}.json"
    store(f, path)
    code = main(["check", "--suites", ",".join(CLI_SUITES), str(path)])
    reports = {r["suite"]: r for r in map(json.loads, capsys.readouterr().out.splitlines())}
    assert sorted(reports) == sorted(CLI_SUITES)
    assert code == (0 if all(r["verdict"] == "PASS" for r in reports.values()) else 1)
    return reports


def fails_on(g, suite, c, perm, n):
    """The counterexample c of ``suite``, mapped through the permutation,
    fails on g."""
    if suite == "lemmas_2_8":
        assert c["reason"] == "single-exchange precondition fails"
        return fails_single(g, c["detail"], perm, n)
    if suite.startswith("exc_multi"):
        X, Y, I = (mapped(c[key], perm, n) for key in "XYI")
        return find_multi_exchange(g, X, Y, I, suite == "exc_multi_bounded") is None
    return fails_single(lift(g) if suite == "m_concave_lift" else g, c, perm, n)


def test_check_keeps_its_verdicts_on_a_transformed_instance_file(tmp_path, capsys):
    """``mconcave check`` on corpus instance files (one with sampled
    multiple-exchange suites) and on copies permuted, shifted by a constant
    and tripled prints the same verdict, regime and triples_checked for
    every exchange suite. On a ``mutate``d instance every suite FAILs on
    both files, and each counterexample mapped through the permutation
    (the copy's mapped back) fails on the other table; the first failure
    in lex order, and so the count through it, may move."""
    by_id = {c.instance_id: c.fn for c in default_corpus()}
    rng = random.Random(5)
    regimes = set()
    for iid in ("n5_laminar", "n8_wbasis_partition", "mutated"):
        f = mutate(by_id["n5_partition"], 0, 1) if iid == "mutated" else by_id[iid]
        n = f.n
        perm = list(range(n))
        rng.shuffle(perm)
        g = permuted(SetFn(n, [v if v is NEG_INF else 3 * (v + 7) for v in f.values]), perm)
        want, got = check_file(tmp_path, iid, f, capsys), check_file(tmp_path, "copy", g, capsys)
        keys = ("verdict", "regime") + ("triples_checked",) * (iid != "mutated")
        for s in CLI_SUITES:
            assert [got[s][k] for k in keys] == [want[s][k] for k in keys], (iid, s)
            assert want[s]["verdict"] == ("FAIL" if iid == "mutated" else "PASS"), (iid, s)
            regimes.add(want[s]["regime"])
        if iid == "mutated":
            inverse = [perm.index(b) for b in range(n)]
            for s in CLI_SUITES:
                assert fails_on(g, s, want[s]["counterexample"], perm, n), s
                assert fails_on(f, s, got[s]["counterexample"], inverse, n), s
    assert regimes == {"exhaustive", "sampled"}


def interval_minor(f, a, b):
    """g(Z) = f(A u Z) on the ground set B \\ A, A inside B given as
    bitmasks, its elements renumbered in ascending order."""
    rest = [e for e in range(f.n) if (b & ~a) >> e & 1]
    return SetFn(len(rest), [f.values[a | sum(1 << e for k, e in enumerate(rest) if z >> k & 1)]
                             for z in range(1 << len(rest))])


def test_one_sided_interval_minors_keep_a_pass():
    """Wherever f PASSes a suite, each minor g(Z) = f(A u Z) on B \\ A with
    A inside B, |A| <= 1 and |B| >= n - 1 PASSes it too: a triple of g,
    with its moves, is the triple (A u X, A u Y) of f with the same moves.
    On every corpus table with n <= 5 and two ``mutate``d copies of each."""
    corpus = [c.fn for c in default_corpus() if c.fn.n <= 5]
    minors = dict.fromkeys(CLI_SUITES, 0)
    for k, f in enumerate(corpus):
        for h in [f] + [mutate(f, 5 * k + s, 1 + s, toggle_neg_inf=s == 1) for s in range(2)]:
            passing = [s for s, r in reports(h, CLI_SUITES).items() if r.passed]
            if not passing:
                continue
            full = (1 << h.n) - 1
            for b in [full] + [full & ~(1 << e) for e in range(h.n)]:
                for a in [0] + [1 << e for e in range(h.n) if b >> e & 1]:
                    g = interval_minor(h, a, b)
                    if not g.dom_masks:
                        continue
                    got = reports(g, CLI_SUITES)
                    for s in passing:
                        assert got[s].passed, (s, a, b, h.values)
                        minors[s] += 1
    assert all(minors.values()), minors
