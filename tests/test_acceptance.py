"""End-to-end acceptance suite: one test and one printed pass/fail line
per criterion. Run with ``pytest tests/test_acceptance.py -v -s``.

Everything here is pinned: corpus, seeds, sample counts, tolerances
(exact equality in int mode throughout).
"""

import math
import random
import time

from mconcave import (
    NEG_INF,
    check_conjugate_submodular,
    check_cross_submodular,
    check_exc_multi,
    check_exc_single,
    check_m_concave,
    check_strong_quotient,
    elements_of,
    fenchel_gap,
    find_multi_exchange,
    find_single_exchange,
    lift,
    mask_of,
    random_table,
    weighted_basis_valuation,
)
from mconcave.cli import SuiteConfig, _suite_lemmas, falsify_campaign
from mconcave.core import submasks_ascending
from mconcave.duality import _feasible_caps

SAMPLES = 10_000


def _verdict(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_bounded_multi_exchange(corpus):
    """Bounded multiple exchange holds corpus-wide: exhaustive for n <= 7,
    >= 10^4 sampled triples at n = 8, exact arithmetic, under 5 minutes."""
    t0 = time.monotonic()
    assert len(corpus) >= 30
    assert {i.fn.n for i in corpus} == set(range(3, 9))
    failures = []
    for idx, inst in enumerate(corpus):
        assert inst.fn.mode == "int"
        rep = check_exc_multi(inst.fn, bounded=True, samples=SAMPLES, seed=idx,
                              instance_id=inst.instance_id)
        if inst.fn.n <= 7:
            assert rep.regime == "exhaustive"
        else:
            assert rep.regime == "sampled" and rep.triples_checked >= SAMPLES
        if not rep.passed:
            failures.append((inst.instance_id, rep.counterexample))
    elapsed = time.monotonic() - t0
    _verdict("criterion 1: bounded multiple exchange on full corpus",
             not failures and elapsed <= 300,
             f"{len(corpus)} instances, {elapsed:.1f}s")


def test_criterion_2_checker_agreement():
    """The three exchange checkers give identical verdicts on 1000 seeded
    arbitrary tables (n <= 5, values in [-5, 5], NEG_INF prob 0.2)."""
    disagreements = []
    for i in range(1000):
        rng = random.Random(20_000 + i)
        n = rng.randint(2, 5)
        f = random_table(n, seed=rng.randrange(1 << 32), lo=-5, hi=5,
                         neg_inf_prob=0.2)
        v1 = check_exc_single(f).verdict
        v2 = check_exc_multi(f, bounded=False).verdict
        v3 = check_exc_multi(f, bounded=True).verdict
        if not v1 == v2 == v3:
            disagreements.append((i, v1, v2, v3))
    _verdict("criterion 2: three-checker agreement on 1000 arbitrary tables",
             not disagreements, f"{len(disagreements)} disagreements")


def test_criterion_3_integer_fenchel_duality(corpus):
    """Exact zero gap with interior attaining integer q on >= 50 corpus
    pairs (common ground set, n <= 5); boundary hits must resolve once
    the box is doubled."""
    eligible = [i for i in corpus if i.fn.n <= 5]
    pairs = 0
    unresolved = []
    for a in range(len(eligible)):
        for b in range(a, len(eligible)):
            f1, f2 = eligible[a].fn, eligible[b].fn
            if f1.n != f2.n:
                continue
            if not any(f1.values[m] is not NEG_INF and f2.values[m] is not NEG_INF
                       for m in range(1 << f1.n)):
                continue  # empty intersection: no finite primal to certify
            pairs += 1
            res = fenchel_gap(f1, f2)
            if res.boundary:
                res = fenchel_gap(f1, f2, box=2 * res.box)
            if not (res.certified and res.gap == 0 and not res.boundary):
                unresolved.append((eligible[a].instance_id,
                                   eligible[b].instance_id, res.to_dict()))
    _verdict("criterion 3: integer duality gap certification",
             pairs >= 50 and not unresolved,
             f"{pairs} pairs, {len(unresolved)} unresolved")


def test_criterion_4_grid_inequality_suites(corpus):
    """Conjugate submodularity, the mixed inequality, and the quotient
    relation: exhaustive on [-3,3]^n for n <= 4, 10^4 sampled pairs per
    inequality family for n = 5..6, all exact."""
    violations = []
    for idx, inst in enumerate(corpus):
        f = inst.fn
        if f.n > 6:
            continue
        reports = [check_conjugate_submodular(f, seed=idx, samples=SAMPLES,
                                              instance_id=inst.instance_id)]
        caps = list(_feasible_caps(f))
        per_k = max(1, SAMPLES // len(caps))
        for k in caps:
            reports.append(check_cross_submodular(
                f, k, seed=idx, samples=per_k, instance_id=inst.instance_id))
            reports.append(check_strong_quotient(
                f, k, seed=idx, samples=per_k, instance_id=inst.instance_id))
        expected_regime = "exhaustive" if f.n <= 4 else "sampled"
        for rep in reports:
            assert rep.regime == expected_regime, (inst.instance_id, rep.regime)
            if not rep.passed:
                violations.append((inst.instance_id, rep.counterexample))
    _verdict("criterion 4: conjugate grid inequalities", not violations,
             f"{len(violations)} violations")


def test_criterion_5_lifting(corpus):
    """Every corpus instance lifts to an equi-cardinal function that passes
    the exhaustive check, with the predicted domain cardinality."""
    failures = []
    for inst in corpus:
        lifted = lift(inst.fn)
        rep = check_m_concave(lifted, instance_id=inst.instance_id)
        s, r = inst.fn.dom_size_range()
        expected = sum(math.comb(r - s, r - m.bit_count())
                       for m in inst.fn.dom_masks)
        if not rep.passed or len(lifted.dom_masks) != expected:
            failures.append(inst.instance_id)
    _verdict("criterion 5: lifting to equi-cardinal functions",
             not failures, f"{len(failures)} failures")


def test_criterion_6_witness_facts(corpus):
    """Swap witnesses at |X| <= |Y|, augmenting witnesses at |X| < |Y|,
    and nonempty restriction domains, for every eligible configuration."""
    cfg = SuiteConfig()
    failures = []
    for inst in corpus:
        rep = _suite_lemmas(inst.instance_id, inst.fn, cfg, 0)
        if not rep.passed:
            failures.append((inst.instance_id, rep.counterexample))
    _verdict("criterion 6: swap/augment/restriction witness facts",
             not failures, f"{len(failures)} failures")


def test_criterion_7_matroid_base_exchange(corpus):
    """Classical multiple exchange on every corpus matroid: all basis
    pairs, all I, with |J| = |I| and both exchanged sets bases."""
    matroids = {}
    for inst in corpus:
        if inst.matroid is not None:
            matroids[(inst.matroid.n, inst.matroid.kind,
                      inst.matroid.rank_table)] = inst.matroid
    checked = 0
    failures = 0
    for m in matroids.values():
        bases = set(m.bases)
        indicator = weighted_basis_valuation(m, (0,) * m.n)
        for xm in m.bases:
            for ym in m.bases:
                X, Y = elements_of(xm), elements_of(ym)
                for im in submasks_ascending(xm & ~ym):
                    I = elements_of(im)
                    checked += 1
                    w = find_multi_exchange(indicator, X, Y, I, bounded=True)
                    if w is None:
                        failures += 1
                        continue
                    J = w.moved
                    jm = mask_of(J, m.n)
                    if (len(J) != len(I)
                            or ((xm & ~im) | jm) not in bases
                            or ((ym & ~jm) | im) not in bases):
                        failures += 1
    _verdict("criterion 7: classical matroid multiple exchange",
             failures == 0,
             f"{len(matroids)} matroids, {checked} exchanges")


def test_criterion_8_single_element_specialization(corpus):
    """On 10^4 sampled (X, Y, i): the |I| = 1 bounded search and the
    single-exchange search find the same maximum, and the witnesses map
    drop <-> empty J, swap(j) <-> {j}."""
    rng = random.Random(8)
    insts = [i for i in corpus]
    mismatches = 0
    done = 0
    while done < SAMPLES:
        inst = insts[rng.randrange(len(insts))]
        f = inst.fn
        dom = f.dom_masks
        xm = dom[rng.randrange(len(dom))]
        ym = dom[rng.randrange(len(dom))]
        xonly = xm & ~ym
        if not xonly:
            continue
        done += 1
        i = elements_of(xonly)[rng.randrange(xonly.bit_count())]
        X, Y = elements_of(xm), elements_of(ym)
        ws = find_single_exchange(f, X, Y, i)
        wm = find_multi_exchange(f, X, Y, [i], bounded=True)
        ok = (ws is not None and wm is not None and ws.rhs == wm.rhs
              and ((ws.kind == "drop" and wm.moved == ())
                   or (ws.kind == "swap" and len(ws.moved) == 1 and wm.moved == ws.moved)))
        if not ok:
            mismatches += 1
    _verdict("criterion 8: |I| = 1 specialization", mismatches == 0,
             f"{done} samples, {mismatches} mismatches")


def test_criterion_9_falsification_campaign():
    """10^5 seeded mutated/random instances at n <= 5: nothing passes the
    single-element check while failing the bounded multiple exchange."""
    outcome = falsify_campaign(100_000, seed=99)
    _verdict("criterion 9: falsification campaign",
             not outcome.counterexamples,
             f"{outcome.trials} trials, {outcome.singles_passed} candidates, "
             f"{len(outcome.counterexamples)} counterexamples")
