"""Golden hashes of the behaviour contract: the bytes of `falsify` output
and of the exchange-suite reports are fixed by the seed.

The report instances cover both multiple-exchange regimes (n <= 5
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

from mconcave import default_corpus, mutate
from mconcave.core import elements_of
from mconcave.cli import SuiteConfig, falsify_campaign, main, run_check

EXCHANGE_SUITES = ("exc_single", "exc_multi_bounded", "exc_multi_unbounded",
                   "corollary1", "m_concave_lift")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_falsify_campaign_bytes():
    out = falsify_campaign(1000, 0)
    line = json.dumps(out.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    assert sha256(line) == "40adb1ed899f28b285a7fcbb3ae54779f56ce5023a89f34799c4cb01c6d5dfdd"


def test_default_falsify_stdout_bytes():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["falsify"]) == 0
    assert sha256(buf.getvalue()) == \
        "4e56659d3b0b9571dac24ae456a271c5f10546ee93990f419e57b7b9c55558a5"


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
