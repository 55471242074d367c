"""Golden hashes of the behaviour contract: the bytes of `falsify` output,
of the `fenchel` suite and of the exchange-suite reports are fixed by the
seed.

The report instances cover both multiple-exchange regimes (n <= 7
exhaustive, n = 8 sampled) and seeded `mutate`d copies, so FAIL
counterexamples and the triple counts at failure are pinned too. The
lifted instances reach lifted domains of 252 and 924 sets, where the
single-exchange sweep runs batched. A change to any of these hashes is a
change of the report contract.
"""

import contextlib
import hashlib
import io
import json

from mconcave import (
    check_conjugate_submodular,
    cli,
    check_cross_submodular,
    check_strong_quotient,
    default_corpus,
    mutate,
)
from mconcave.core import elements_of
from mconcave.cli import SuiteConfig, falsify_campaign, main, run_check
from mconcave.duality import _feasible_caps

EXCHANGE_SUITES = ("exc_single", "exc_multi_bounded", "exc_multi_unbounded",
                   "corollary1", "m_concave_lift")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_falsify_campaign_bytes():
    out = falsify_campaign(1000, 0)
    line = json.dumps(out.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    assert sha256(line) == "40adb1ed899f28b285a7fcbb3ae54779f56ce5023a89f34799c4cb01c6d5dfdd"


def test_falsify_wide_campaign_bytes(monkeypatch):
    """Every margin of a campaign over n = 1..5 at a seed >= 2^63."""
    monkeypatch.setattr(cli, "_NEAR_MISSES", 10**6)
    out = falsify_campaign(3000, 2**63 + 7, n_range=(1, 5))
    line = json.dumps(out.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    assert sha256(line) == "aa78d0b5f233d11f2c7d93f715b75934614644dfd6a78c948fc15835b6462873"


def test_default_falsify_stdout_bytes():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["falsify"]) == 0
    assert sha256(buf.getvalue()) == \
        "4e56659d3b0b9571dac24ae456a271c5f10546ee93990f419e57b7b9c55558a5"


def test_fenchel_check_stdout_bytes():
    """The 85 same-n corpus pairs with n <= 5, all PASS."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["check", "--suites", "fenchel"]) == 0
    assert len(buf.getvalue().splitlines()) == 85
    assert sha256(buf.getvalue()) == \
        "8232ad1d144cf68e71f98f4702e2ded468b59c50023cb92fc364a4bdbe5f7e7b"


def golden_instances():
    """Corpus instances with n <= 5 or n = 8, then mutated copies: two per
    instance with n <= 4 (a +-1 move, and a toggled NEG_INF entry) and one
    per n = 8 instance (a +-3 move, found in the sampled regime)."""
    corpus = default_corpus()
    out = [(c.instance_id, c.fn) for c in corpus if c.fn.n <= 5 or c.fn.n == 8]
    for c in corpus:
        if c.fn.n <= 4:
            for s in range(2):
                g = mutate(c.fn, s, 1 + s, toggle_neg_inf=bool(s))
                if g.dom_masks:
                    out.append((f"{c.instance_id}_mut{s}", g))
        if c.fn.n == 8:
            out.append((f"{c.instance_id}_mut", mutate(c.fn, 0, 3)))
    return out


def test_exchange_report_bytes():
    reports = run_check(golden_instances(), SuiteConfig(suites=EXCHANGE_SUITES))
    text = "".join(r.to_json_line() + "\n" for r in reports)
    verdicts = {(r.suite, r.regime, r.verdict) for r in reports}
    # Guard the coverage the hash is meant to pin.
    assert ("exc_multi_bounded", "sampled", "FAIL") in verdicts
    assert ("exc_multi_bounded", "exhaustive", "FAIL") in verdicts
    assert ("exc_multi_unbounded", "sampled", "PASS") in verdicts
    assert sha256(text) == "e0949aff82379e6696377ce6be542e0c70436ee2290446bef8f7a1d9b36eb4c8"


def exhaustive_multi_instances():
    """Corpus instances with n = 6, 7, where the multiple exchange runs
    exhaustively, then two seeded `mutate`d copies of each (a +-1 move,
    and a +-2 move with a toggled NEG_INF entry) and two single-entry
    moves whose counterexample lies deep in the lex order."""
    corpus = default_corpus()
    out = [(c.instance_id, c.fn) for c in corpus if c.fn.n in (6, 7)]
    for c in corpus:
        if c.fn.n in (6, 7):
            for s in range(2):
                out.append((f"{c.instance_id}_mut{s}",
                            mutate(c.fn, s, 1 + s, toggle_neg_inf=bool(s))))
    by_id = dict(out)
    for iid, mask, delta in (("n6_laminar", 63, 1), ("n7_wbasis_graphic", 120, -1)):
        f = by_id[iid]
        out.append((f"{iid}_at{mask}", f.with_value(elements_of(mask), f.values[mask] + delta)))
    return out


def test_exhaustive_multi_report_bytes():
    """Both multiple-exchange bounds, `corollary1` and `lemmas_2_8` at
    n = 6, 7: the exhaustive regime's PASS histograms and triple counts,
    and the first violating triple of each FAIL."""
    suites = ("exc_multi_bounded", "exc_multi_unbounded", "corollary1", "lemmas_2_8")
    instances = exhaustive_multi_instances()
    reports = run_check(instances, SuiteConfig(suites=suites))
    text = "".join(r.to_json_line() + "\n" for r in reports)
    n_of = dict(instances)
    verdicts = {(n_of[r.instance_id].n, r.suite, r.regime, r.verdict) for r in reports}
    # Guard the coverage the hash is meant to pin.
    for suite in suites:
        assert (6, suite, "exhaustive", "PASS") in verdicts
        assert (7, suite, "exhaustive", "FAIL") in verdicts
    gate = [r for r in reports if r.suite == "lemmas_2_8" and not r.passed]
    assert gate and all(r.counterexample["reason"] == "single-exchange precondition fails"
                        for r in gate)
    assert max(r.triples_checked for r in reports
               if r.suite == "exc_multi_unbounded" and not r.passed) > 10_000
    assert sha256(text) == "f7c050d64b0aacfb69cafa1b47bfb668628c60bcd02ad7eab0f188e35700fdfe"


def lifted_instances():
    """`n6_laminar` and `n8_wbasis_uniform_r4`, seeded `mutate`d copies of
    n = 5/6 instances, and two single-entry moves on n = 6 instances whose
    lifted counterexample lies past the 64th domain set."""
    corpus = {c.instance_id: c.fn for c in default_corpus()}
    out = [(iid, corpus[iid]) for iid in ("n6_laminar", "n8_wbasis_uniform_r4")]
    for iid, s, toggle in (("n5_laminar", 1, False), ("n5_assignment", 1, False),
                           ("n6_laminar", 1, False), ("n6_assignment", 0, False),
                           ("n6_laminar", 0, True)):
        out.append((f"{iid}_mut{s}", mutate(corpus[iid], s, 1 + s, toggle_neg_inf=toggle)))
    for iid, mask, delta in (("n6_laminar", 7, 2), ("n6_assignment", 40, -1)):
        f = corpus[iid]
        out.append((f"{iid}_at{mask}", f.with_value(elements_of(mask), f.values[mask] + delta)))
    return out


def test_lift_and_lemmas_report_bytes():
    reports = run_check(lifted_instances(), SuiteConfig(suites=("m_concave_lift", "lemmas_2_8")))
    text = "".join(r.to_json_line() + "\n" for r in reports)
    lift_fails = [r for r in reports if r.suite == "m_concave_lift" and not r.passed]
    assert len(lift_fails) == 7
    assert max(r.triples_checked for r in lift_fails) > 200_000
    assert sha256(text) == "2a35ccfba2a50d04d2f7cded9c9f70bd13f245bb535c80c7c15c4c6ae6c23ba2"


GRID_SEEDS = (0, 2**63 + 12_345)


def grid_instances():
    """Corpus instances with n = 5..8, all in the sampled grid regime, and
    two seeded `mutate`d copies of each (a +-2 move and a +-3 move)."""
    corpus = [c for c in default_corpus() if 5 <= c.fn.n <= 8]
    out = [(c.instance_id, c.fn) for c in corpus]
    for c in corpus:
        for s in range(2):
            out.append((f"{c.instance_id}_mut{s}", mutate(c.fn, s, 2 + s)))
    return out


def test_grid_report_bytes():
    """`duality_grid` at 500 samples, at seed 0 and at a seed >= 2^63, plus
    the per-inequality reports behind the suite line of every mutated copy,
    so the FAIL pairs of all three grid checkers' draws are pinned."""
    instances = grid_instances()
    lines, verdicts, inequalities = [], set(), set()
    for seed in GRID_SEEDS:
        cfg = SuiteConfig(suites=("duality_grid",), samples=500, seed=seed)
        for index, report in enumerate(run_check(instances, cfg)):
            lines.append(report.to_json_line())
            verdicts.add((instances[index][1].n, report.regime, report.verdict))
        for index, (iid, f) in enumerate(instances):
            if "_mut" not in iid:
                continue
            caps = list(_feasible_caps(f))
            per_k = 500 // len(caps)
            sub_seed = seed ^ index
            reports = [check_conjugate_submodular(f, seed=sub_seed, samples=500,
                                                  instance_id=iid)]
            for k in caps:
                reports.append(check_cross_submodular(f, k, seed=sub_seed, samples=per_k,
                                                      instance_id=iid))
                reports.append(check_strong_quotient(f, k, seed=sub_seed, samples=per_k,
                                                     instance_id=iid))
            lines += [r.to_json_line() for r in reports]
            inequalities |= {r.counterexample["inequality"] for r in reports if not r.passed}
    # Guard the coverage the hash is meant to pin.
    for n in range(5, 9):
        assert (n, "sampled", "PASS") in verdicts
        assert (n, "sampled", "FAIL") in verdicts
    assert {"submodular", "cross_submodular"} <= inequalities
    assert sha256("".join(line + "\n" for line in lines)) == \
        "0afb9a3e0b617ff473d9acd49778cc6909b398472c60c7f53d41b61799271a5f"


def test_box_grid_report_bytes():
    """`duality_grid` over the n <= 4 instances of `golden_instances`, all
    in the box regime at the default box: the suite line of each, then
    its per-inequality reports. PASS lines hold the pair counts; FAIL
    lines the first violated pair in row order, which the all-pairs
    sweep names once the unit-square test has found a violation."""
    lines, verdicts, inequalities = [], set(), set()
    for iid, f in golden_instances():
        if f.n > 4:
            continue
        suite, = run_check([(iid, f)], SuiteConfig(suites=("duality_grid",)))
        reports = [check_conjugate_submodular(f, instance_id=iid)]
        for k in _feasible_caps(f):
            reports.append(check_cross_submodular(f, k, instance_id=iid))
            reports.append(check_strong_quotient(f, k, instance_id=iid))
        lines += [r.to_json_line() for r in [suite] + reports]
        verdicts |= {(r.regime, r.verdict) for r in [suite] + reports}
        inequalities |= {r.counterexample["inequality"] for r in reports if not r.passed}
    # Guard the coverage the hash is meant to pin.
    assert verdicts == {("exhaustive", "PASS"), ("exhaustive", "FAIL")}
    assert {"submodular", "cross_submodular", "strong_quotient"} <= inequalities
    assert len(lines) == 448
    assert sha256("".join(line + "\n" for line in lines)) == \
        "b5d4e5f0917d6ea631c9b39225db5d443826e58601cb8c4299b0838464e17a7e"


def toggled_grid_instances():
    """Two `mutate`d copies of each corpus instance with n = 5..8, each
    with one entry toggled between NEG_INF and finite: most gain or lose a
    domain size, so their caps differ and the cross and quotient checks
    fail at some caps only."""
    out = []
    for c in default_corpus():
        if 5 <= c.fn.n <= 8:
            for s in range(2):
                out.append((f"{c.instance_id}_tog{s}",
                            mutate(c.fn, s, 1 + s, toggle_neg_inf=True)))
    return out


def test_toggled_grid_report_bytes():
    """`duality_grid` at 300 samples on the toggled copies, at two seeds:
    the suite line of each, then its per-inequality reports, so the first
    failing sample of every cap's cross and quotient check is pinned."""
    instances = toggled_grid_instances()
    lines, inequalities, verdicts = [], set(), set()
    for seed in GRID_SEEDS:
        cfg = SuiteConfig(suites=("duality_grid",), samples=300, seed=seed)
        suite = run_check(instances, cfg)
        for index, (iid, f) in enumerate(instances):
            caps = list(_feasible_caps(f))
            per_k = 300 // len(caps)
            sub_seed = seed ^ index
            reports = [check_conjugate_submodular(f, seed=sub_seed, samples=300,
                                                  instance_id=iid)]
            for k in caps:
                reports.append(check_cross_submodular(f, k, seed=sub_seed, samples=per_k,
                                                      instance_id=iid))
                reports.append(check_strong_quotient(f, k, seed=sub_seed, samples=per_k,
                                                     instance_id=iid))
            lines += [r.to_json_line() for r in [suite[index]] + reports]
            verdicts |= {(r.regime, r.verdict) for r in [suite[index]] + reports}
            inequalities |= {r.counterexample["inequality"] for r in reports if not r.passed}
    # Guard the coverage the hash is meant to pin.
    assert verdicts == {("sampled", "PASS"), ("sampled", "FAIL")}
    assert {"submodular", "cross_submodular", "strong_quotient"} <= inequalities
    assert len(lines) == 1168
    assert sha256("".join(line + "\n" for line in lines)) == \
        "cf8f203aa9146017f2ab0648aaa63a153caf12a56ead1fd1e02e04a7fe89b414"
