from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mconcave import (
    NEG_INF,
    ExchangeContext,
    SetFn,
    augment_lt,
    check_exc_multi,
    check_exc_single,
    check_m_concave,
    elements_of,
    exchange_leq,
    ext_add,
    find_multi_exchange,
    find_single_exchange,
    lift,
    mask_of,
    matroid_base_multi_exchange,
    matroid_rank_fn,
    uniform_matroid,
    weighted_basis_valuation,
)
from mconcave.exchange import _multi_pass_margin

# --- oracles: set-algebra reimplementations, no bitmask tricks ---------------


def f_at(f, s):
    return f(sorted(s))


def brute_single_best(f, X, Y, i):
    """max[f(X-i)+f(Y+i), max_j f(X-i+j)+f(Y+i-j)] via plain set algebra."""
    X, Y = set(X), set(Y)
    cands = [ext_add(f_at(f, X - {i}), f_at(f, Y | {i}))]
    for j in sorted(Y - X):
        cands.append(ext_add(f_at(f, (X - {i}) | {j}), f_at(f, (Y | {i}) - {j})))
    best = NEG_INF
    for c in cands:
        if c is not NEG_INF and (best is NEG_INF or c > best):
            best = c
    return best


def brute_multi_best(f, X, Y, I, bounded):
    X, Y, I = set(X), set(Y), set(I)
    pool = sorted(Y - X)
    best = NEG_INF
    for r in range(len(pool) + 1):
        if bounded and r > len(I):
            break
        for J in combinations(pool, r):
            c = ext_add(f_at(f, (X - I) | set(J)), f_at(f, (Y - set(J)) | I))
            if c is not NEG_INF and (best is NEG_INF or c > best):
                best = c
    return best


def random_dom_pair(f, rng):
    dom = f.dom_masks
    return dom[rng.randrange(len(dom))], dom[rng.randrange(len(dom))]


small_tables = st.lists(st.one_of(st.none(), st.integers(-5, 5)),
                        min_size=16, max_size=16).filter(
    lambda vs: any(v is not None for v in vs))


# --- find_single_exchange -----------------------------------------------------


def test_single_exchange_drop_wins_tie():
    f = matroid_rank_fn(uniform_matroid(3, 2))
    w = find_single_exchange(f, [1, 2], [3], 1)
    assert (w.kind, w.moved, w.lhs, w.rhs) == ("drop", (), 3, 3)


def test_single_exchange_constant_fn():
    f = SetFn.constant(3, 0)
    w = find_single_exchange(f, [1, 3], [2], 3)
    assert w.kind == "drop" and w.lhs == w.rhs == 0


def test_single_exchange_forced_swap():
    f = weighted_basis_valuation(uniform_matroid(2, 1), (0, 1))
    w = find_single_exchange(f, [1], [2], 1)
    assert w.kind == "swap" and w.j == 2
    assert w.lhs == 1 and w.rhs == 1


def test_single_exchange_precondition():
    f = SetFn.constant(2, 0)
    with pytest.raises(ValueError):
        find_single_exchange(f, [1], [1, 2], 1)


@settings(max_examples=150)
@given(small_tables, st.randoms(use_true_random=False))
def test_single_exchange_matches_oracle(values, rng):
    f = SetFn(4, values)
    xm, ym = random_dom_pair(f, rng)
    xonly = xm & ~ym
    if not xonly:
        return
    X, Y = elements_of(xm), elements_of(ym)
    i = elements_of(xonly)[rng.randrange(xonly.bit_count())]
    w = find_single_exchange(f, X, Y, i)
    best = brute_single_best(f, X, Y, i)
    lhs = f(X) + f(Y)
    if w is None:
        assert best is NEG_INF or best < lhs
    else:
        assert w.rhs == best or (best is NEG_INF and w.rhs is NEG_INF)


# --- check_exc_single ----------------------------------------------------------


def test_check_exc_single_passes_rank(rank_u24):
    rep = check_exc_single(rank_u24)
    assert rep.passed and rep.regime == "exhaustive"


def test_check_exc_single_passes_constant():
    assert check_exc_single(SetFn.constant(3, 0)).passed


def test_check_exc_single_catches_mutation(rank_u24):
    bad = rank_u24.with_value([1, 2], 5)
    rep = check_exc_single(bad)
    assert not rep.passed
    cx = rep.counterexample
    # the reported triple is a genuine violation
    X, Y, i = cx["X"], cx["Y"], cx["i"]
    assert bad(X) + bad(Y) > brute_single_best(bad, X, Y, i)


def test_check_exc_single_empty_dom_errors():
    with pytest.raises(ValueError, match="empty"):
        check_exc_single(SetFn(2, [None] * 4))


def test_real_mode_comparison_tolerates_noise(rank_u24):
    noisy = SetFn(4, [v + 1e-13 * (m % 3) for m, v in enumerate(rank_u24.values)],
                  mode="real")
    assert check_exc_single(noisy).passed
    assert check_exc_multi(noisy, bounded=True).passed


# --- find_multi_exchange -------------------------------------------------------


def test_multi_exchange_spec_example(rank_u24):
    w = find_multi_exchange(rank_u24, [1, 2], [3, 4], [1, 2])
    assert w.moved == (3, 4) and w.lhs == 4 and w.rhs == 4


def test_multi_exchange_empty_I():
    f = SetFn.constant(3, 2)
    w = find_multi_exchange(f, [1], [2, 3], [])
    assert w.moved == () and w.lhs == w.rhs == 4


def test_multi_exchange_forced_single_J():
    f = weighted_basis_valuation(uniform_matroid(2, 1), (0, 1))
    w = find_multi_exchange(f, [1], [2], [1])
    assert w.moved == (2,) and w.rhs == 1 == w.lhs


def test_multi_exchange_tie_break_smallest():
    # constant function: J = () always ties at the max; smallest wins
    f = SetFn.constant(4, 0)
    w = find_multi_exchange(f, [1, 2], [3, 4], [1])
    assert w.moved == ()


def test_multi_exchange_preconditions(rank_u24):
    with pytest.raises(ValueError):
        find_multi_exchange(rank_u24, [1, 2], [3], [3])  # I not in X \ Y
    f = SetFn(2, [None, 0, 0, None])
    with pytest.raises(ValueError):
        find_multi_exchange(f, [1, 2], [1], [2])  # X outside dom


@settings(max_examples=120)
@given(small_tables, st.booleans(), st.randoms(use_true_random=False))
def test_multi_exchange_matches_oracle(values, bounded, rng):
    f = SetFn(4, values)
    xm, ym = random_dom_pair(f, rng)
    im = (xm & ~ym) & rng.getrandbits(4)
    X, Y, I = elements_of(xm), elements_of(ym), elements_of(im)
    w = find_multi_exchange(f, X, Y, I, bounded=bounded)
    best = brute_multi_best(f, X, Y, I, bounded)
    lhs = f(X) + f(Y)
    if w is None:
        assert best is NEG_INF or best < lhs
    else:
        assert w.rhs == best
        # witness really evaluates to its reported rhs
        J = set(w.moved)
        rhs = ext_add(f_at(f, (set(X) - set(I)) | J), f_at(f, (set(Y) - J) | set(I)))
        assert rhs == w.rhs


@settings(max_examples=100)
@given(small_tables, st.randoms(use_true_random=False))
def test_bounded_weaker_than_unbounded(values, rng):
    """Monotone strengthening: v_unbounded >= v_bounded, and a bounded
    witness is a valid unbounded one."""
    f = SetFn(4, values)
    xm, ym = random_dom_pair(f, rng)
    im = (xm & ~ym) & rng.getrandbits(4)
    X, Y, I = elements_of(xm), elements_of(ym), elements_of(im)
    wb = find_multi_exchange(f, X, Y, I, bounded=True)
    wu = find_multi_exchange(f, X, Y, I, bounded=False)
    if wb is not None:
        assert wu is not None
        assert wu.rhs >= wb.rhs >= wb.lhs
        assert len(wb.moved) <= len(I)


# --- check_exc_multi ------------------------------------------------------------


def test_check_exc_multi_passes_corpus_sample(corpus_by_id):
    for iid in ("n4_uniform_r2", "n5_laminar", "n6_wbasis_k4", "n4_assignment"):
        rep = check_exc_multi(corpus_by_id[iid].fn, bounded=True)
        assert rep.passed and rep.regime == "exhaustive", iid
        assert sum(rep.witness_histogram.values()) == rep.triples_checked


def test_check_exc_multi_constant_all_empty_witnesses():
    rep = check_exc_multi(SetFn.constant(3, 1), bounded=True)
    assert rep.passed
    assert set(rep.witness_histogram) == {0}


def test_check_exc_multi_fails_mutant_both_flags(rank_u24):
    bad = rank_u24.with_value([1, 2], 5)
    assert not check_exc_multi(bad, bounded=True).passed
    assert not check_exc_multi(bad, bounded=False).passed


def test_check_exc_multi_sampled_deterministic(corpus_by_id):
    f = corpus_by_id["n8_wbasis_uniform_r4"].fn
    a = check_exc_multi(f, samples=500, seed=42)
    b = check_exc_multi(f, samples=500, seed=42)
    assert a == b
    assert a.regime == "sampled" and a.seed == 42
    assert a.triples_checked == 500


def test_check_exc_multi_auto_regime(corpus_by_id):
    # exhaustive up to n = EXHAUSTIVE_N_LIMIT = 7, sampled above
    f = corpus_by_id["n3_uniform_r1"].fn
    rep = check_exc_multi(f, samples=7, seed=5)
    failing, counts, triples = _multi_pass_margin(f)[True]
    assert rep.regime == "exhaustive" and rep.seed is None
    assert rep.passed and failing is None and rep.triples_checked == triples == sum(counts)
    f = corpus_by_id["n8_wbasis_partition"].fn
    rep = check_exc_multi(f, samples=50, seed=3)
    failing, counts, triples = _multi_pass_margin(f, 50, 3)[True]
    assert rep.regime == "sampled" and rep.seed == 3 and rep.triples_checked == triples == 50
    assert rep.passed and failing is None
    assert rep.witness_histogram == {k: c for k, c in enumerate(counts) if c}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(-5, 5)), min_size=8, max_size=8)
       .filter(lambda vs: any(v is not None for v in vs)))
def test_corollary1_verdicts_agree(values):
    """Checker agreement on arbitrary small tables."""
    f = SetFn(3, values)
    v1 = check_exc_single(f).verdict
    v2 = check_exc_multi(f, bounded=False).verdict
    v3 = check_exc_multi(f, bounded=True).verdict
    assert v1 == v2 == v3


def test_specialization_single_element(corpus_by_id):
    """|I| = 1 multiple exchange reduces exactly to the single exchange."""
    f = corpus_by_id["n5_partition"].fn
    import random
    rng = random.Random(5)
    for _ in range(300):
        xm, ym = random_dom_pair(f, rng)
        xonly = xm & ~ym
        if not xonly:
            continue
        X, Y = elements_of(xm), elements_of(ym)
        i = elements_of(xonly)[rng.randrange(xonly.bit_count())]
        ws = find_single_exchange(f, X, Y, i)
        wm = find_multi_exchange(f, X, Y, [i], bounded=True)
        assert ws.rhs == wm.rhs
        if ws.kind == "drop":
            assert wm.moved == ()
        else:
            assert wm.moved == (ws.j,)


# --- check_m_concave -------------------------------------------------------------


def test_m_concave_weighted_basis(corpus_by_id):
    assert check_m_concave(corpus_by_id["n6_wbasis_uniform"].fn).passed


def test_m_concave_rejects_full_domain(rank_u24):
    rep = check_m_concave(rank_u24)
    assert not rep.passed
    assert rep.counterexample["reason"] == "domain not equi-cardinal"


def test_m_concave_rejects_bad_equicardinal():
    # dom = all 2-subsets of {1..4} but values break the swap inequality
    f = weighted_basis_valuation(uniform_matroid(4, 2), (0, 0, 0, 0))
    bad = f.with_value([1, 2], 3).with_value([3, 4], 3)
    rep = check_m_concave(bad)
    assert not rep.passed


def test_lift_of_corpus_instances_is_m_concave(corpus_by_id):
    for iid in ("n3_laminar", "n4_uniform_r2", "n5_assignment", "n7_wbasis_uniform_r3"):
        assert check_m_concave(lift(corpus_by_id[iid].fn)).passed, iid


def test_m_concave_witness_sizes_match(corpus_by_id):
    """Equi-cardinal domains force |J| = |I| in every multi witness."""
    import random
    f = corpus_by_id["n6_wbasis_k4"].fn
    rng = random.Random(9)
    for _ in range(200):
        xm, ym = random_dom_pair(f, rng)
        im = (xm & ~ym) & rng.getrandbits(f.n)
        w = find_multi_exchange(f, elements_of(xm), elements_of(ym),
                                elements_of(im), bounded=True)
        assert w is not None and len(w.moved) == im.bit_count()


# --- size-comparison witnesses -------------------------------------------------


def test_exchange_leq_example():
    f = matroid_rank_fn(uniform_matroid(3, 2))
    w = exchange_leq(f, [1], [2, 3], 1)
    assert w.j == 2 and w.lhs == 3 and w.rhs == 3


def test_exchange_leq_constant_smallest_j():
    f = SetFn.constant(4, 0)
    assert exchange_leq(f, [1, 2], [3, 4], 1).j == 3


def test_exchange_leq_forced(corpus_by_id):
    f = weighted_basis_valuation(uniform_matroid(2, 1), (0, 1))
    assert exchange_leq(f, [1], [2], 1).j == 2


def test_exchange_leq_preconditions(rank_u24):
    with pytest.raises(ValueError, match=r"\|X\| <= \|Y\|"):
        exchange_leq(rank_u24, [1, 2], [3], 1)


def test_augment_lt_example():
    f = matroid_rank_fn(uniform_matroid(3, 2))
    w = augment_lt(f, [], [1, 2])
    assert w.j == 1 and w.lhs == 2 and w.rhs == 2


def test_augment_lt_constant():
    f = SetFn.constant(2, 0)
    w = augment_lt(f, [], [1])
    assert w.j == 1 and w.lhs == w.rhs == 0


def test_augment_lt_laminar(corpus_by_id):
    f = corpus_by_id["n5_laminar"].fn
    assert augment_lt(f, [2], [1, 3, 4]) is not None


def test_augment_lt_preconditions(rank_u24):
    with pytest.raises(ValueError, match="<"):
        augment_lt(rank_u24, [1, 2], [3, 4])


# --- lift ----------------------------------------------------------------------


def test_lift_spec_example():
    f = SetFn(2, [None, 0, 1, 3])
    lifted = lift(f)
    assert lifted.n == 3
    assert lifted([1, 3]) == 0
    assert lifted([2, 3]) == 1
    assert lifted([1, 2]) == 3
    assert lifted([3]) is NEG_INF
    assert lifted([1, 2, 3]) is NEG_INF
    assert {m.bit_count() for m in lifted.dom_masks} == {2}


def test_lift_equicardinal_unchanged(corpus_by_id):
    f = corpus_by_id["n4_wbasis_uniform"].fn
    assert lift(f) == f


def test_lift_cap_error():
    vals = [None] * (1 << 13)
    vals[0] = 0
    vals[(1 << 13) - 1] = 1
    f = SetFn(13, vals)
    with pytest.raises(ValueError, match="hard cap"):
        lift(f)  # 13 + 13 = 26 > 24


def test_lift_domain_count_identity(corpus_by_id):
    import math
    for iid in ("n3_assignment", "n4_laminar", "n5_uniform_r2"):
        f = corpus_by_id[iid].fn
        s, r = f.dom_size_range()
        lifted = lift(f)
        expected = sum(math.comb(r - s, r - m.bit_count()) for m in f.dom_masks)
        assert len(lifted.dom_masks) == expected, iid


# --- classical matroid exchange ----------------------------------------------


def test_base_exchange_examples():
    m = uniform_matroid(4, 2)
    assert matroid_base_multi_exchange(m, [1, 2], [3, 4], [1]) == (3,)
    assert matroid_base_multi_exchange(m, [1, 2], [3, 4], []) == ()
    assert matroid_base_multi_exchange(m, [1, 2], [3, 4], [1, 2]) == (3, 4)


def test_base_exchange_postconditions(corpus_by_id):
    import random
    m = corpus_by_id["n6_wbasis_k4"].matroid
    rng = random.Random(3)
    bases = m.bases
    for _ in range(150):
        xm = bases[rng.randrange(len(bases))]
        ym = bases[rng.randrange(len(bases))]
        im = (xm & ~ym) & rng.getrandbits(m.n)
        X, Y, I = elements_of(xm), elements_of(ym), elements_of(im)
        J = matroid_base_multi_exchange(m, X, Y, I)
        assert len(J) == len(I)
        jm = mask_of(J, m.n)
        left = (xm & ~im) | jm
        right = (ym & ~jm) | im
        assert left in bases and right in bases


def test_base_exchange_rejects_non_bases():
    m = uniform_matroid(4, 2)
    with pytest.raises(ValueError, match="bases"):
        matroid_base_multi_exchange(m, [1], [3, 4], [1])


# --- contexts ------------------------------------------------------------------


def test_exchange_context_partitions():
    ctx = ExchangeContext.make(5, [1, 2, 3], [3, 4], [1])
    assert ctx.c_mask == mask_of([3], 5)
    assert ctx.x0_mask == mask_of([1, 2], 5)
    assert ctx.y0_mask == mask_of([4], 5)
    assert ctx.x_mask == ctx.c_mask | ctx.x0_mask
    assert ctx.y_mask == ctx.c_mask | ctx.y0_mask
    assert ctx.x0_mask & ctx.y0_mask == 0
    with pytest.raises(ValueError):
        ExchangeContext.make(5, [1, 2], [3], [3])


@settings(max_examples=80)
@given(st.integers(0, 31), st.integers(0, 31), st.randoms(use_true_random=False))
def test_exchange_context_consistency(xm, ym, rng):
    im = (xm & ~ym) & rng.getrandbits(5)
    ctx = ExchangeContext(5, xm, ym, im)
    assert ctx.x_mask == (ctx.c_mask | ctx.x0_mask)
    assert ctx.y_mask == (ctx.c_mask | ctx.y0_mask)
    assert ctx.x0_mask & ctx.y0_mask == 0
    assert ctx.i_mask & ~ctx.x0_mask == 0


@pytest.mark.parametrize("regime", [None, "exhaustive", "sampled"])
@pytest.mark.parametrize("samples", [0, -5, True, 2.5])
def test_exc_multi_refuses_samples_below_one(rank_u24, corpus_by_id, regime, samples):
    """``samples=0`` used to PASS sampled with no triple checked. The
    regime follows n: ``rank_u24`` (None) and n = 7 run exhaustively,
    n = 8 sampled; the count is refused in both."""
    f = {None: rank_u24, "exhaustive": corpus_by_id["n7_wbasis_partition"].fn,
         "sampled": corpus_by_id["n8_wbasis_partition"].fn}[regime]
    assert f.n == {None: 4, "exhaustive": 7, "sampled": 8}[regime]
    with pytest.raises(ValueError, match="samples must be an int >= 1"):
        check_exc_multi(f, samples=samples)
