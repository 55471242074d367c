import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from mconcave import (
    NEG_INF,
    ExchangeContext,
    Falsification,
    PriceVector,
    SetFn,
    build_restrictions,
    check_conjugate_submodular,
    check_cross_submodular,
    check_strong_quotient,
    conjugate,
    conjugate_sized,
    elements_of,
    ext_add,
    fenchel_gap,
    find_multi_exchange,
    max_over,
    random_table,
    restrict_by_size,
)
from mconcave.duality import _empty_restriction
from test_grid_engine import ref_box_quotient, ref_box_submodular

# --- oracle: conjugate by plain subset enumeration ---------------------------


def brute_conjugate(f, p):
    best = NEG_INF
    best_set = None
    universe = range(1, f.n + 1)
    for r in range(f.n + 1):
        for sub in combinations(universe, r):
            v = f(sub)
            if v is NEG_INF:
                continue
            v = v - sum(p.entries[e - 1] for e in sub)
            if best is NEG_INF or v > best:
                best = v
                best_set = sub
    return best, best_set


tables_n3 = st.lists(st.one_of(st.none(), st.integers(-6, 6)),
                     min_size=8, max_size=8).filter(
    lambda vs: any(v is not None for v in vs))
prices_n3 = st.lists(st.integers(-4, 4), min_size=3, max_size=3).map(
    lambda es: PriceVector(tuple(es)))


# --- conjugate ----------------------------------------------------------------


def test_conjugate_example():
    c = conjugate(SetFn.constant(2, 0), PriceVector((1, -1)))
    assert c.value == 1 and c.argmax == (2,)


def test_conjugate_zero_price_is_max():
    f = SetFn(2, [4, None, -1, 2])
    c = conjugate(f, PriceVector.zero(2))
    assert c.value == 4 and c.argmax == ()


def test_conjugate_singleton_dom():
    f = SetFn(2, [7, None, None, None])
    for p in product(range(-2, 3), repeat=2):
        assert conjugate(f, PriceVector(p)).value == 7


def test_conjugate_smallest_argmax_tie():
    # f == 0 and p == 0: every subset ties; smallest bitmask wins
    c = conjugate(SetFn.constant(3, 0), PriceVector.zero(3))
    assert c.argmax_mask == 0


def test_conjugate_requires_nonempty_dom():
    with pytest.raises(ValueError, match="empty"):
        conjugate(SetFn(1, [None, None]), PriceVector.zero(1))


@settings(max_examples=150)
@given(tables_n3, prices_n3)
def test_conjugate_matches_oracle(values, p):
    f = SetFn(3, values)
    c = conjugate(f, p)
    best, _ = brute_conjugate(f, p)
    assert c.value == best
    # the reported argmax attains the value
    assert f(c.argmax) - p(c.argmax) == c.value


@settings(max_examples=80)
@given(tables_n3, prices_n3, st.integers(1, 3))
def test_conjugate_monotone_nonincreasing(values, p, k):
    f = SetFn(3, values)
    higher = PriceVector(tuple(e + (1 if j == k - 1 else 0)
                               for j, e in enumerate(p.entries)))
    assert conjugate(f, higher).value <= conjugate(f, p).value


@settings(max_examples=80)
@given(tables_n3, prices_n3, prices_n3)
def test_conjugate_midpoint_convexity(values, p, q):
    # even-sum pairs: 2 g((p+q)/2) <= g(p) + g(q)
    f = SetFn(3, values)
    q = PriceVector(tuple(b + ((a + b) % 2) for a, b in zip(p.entries, q.entries)))
    mid = PriceVector(tuple((a + b) // 2 for a, b in zip(p.entries, q.entries)))
    assert 2 * conjugate(f, mid).value <= conjugate(f, p).value + conjugate(f, q).value


# --- conjugate_sized ------------------------------------------------------------


def test_conjugate_sized_equals_plain_at_full_size(rank_u24):
    for p in (PriceVector((1, -1, 0, 2)), PriceVector.zero(4)):
        assert conjugate_sized(rank_u24, 4, p).value == conjugate(rank_u24, p).value


def test_conjugate_sized_example():
    c = conjugate_sized(SetFn.constant(2, 0), 1, PriceVector((-1, -1)))
    assert c.value == 1  # the size-2 subset worth 2 is excluded


def test_conjugate_sized_zero_cap():
    f = SetFn(2, [5, 9, 9, 9])
    assert conjugate_sized(f, 0, PriceVector((7, 7))).value == 5


def test_conjugate_sized_infeasible():
    f = SetFn(2, [None, None, None, 3])
    with pytest.raises(ValueError, match="feasible"):
        conjugate_sized(f, 1, PriceVector.zero(2))


@settings(max_examples=60)
@given(tables_n3, prices_n3, st.integers(1, 3))
def test_conjugate_sized_monotone_in_cap(values, p, k):
    f = SetFn(3, values)
    smaller = restrict_by_size(f, k - 1)
    if not smaller.dom_masks:
        return
    assert conjugate_sized(f, k, p).value >= conjugate_sized(f, k - 1, p).value


# --- grid inequality checkers -----------------------------------------------


def test_submodular_equal_pair_trivial(rank_u24):
    # a one-point box: the pair (p, p) for the plain conjugate and 5 caps
    rep = check_conjugate_submodular(rank_u24, box=(1, 1))
    assert rep.passed and rep.triples_checked == 6


def test_submodular_small_grid_pass():
    f = SetFn.constant(2, 0)
    rep = check_conjugate_submodular(f, box=(-3, 3))
    assert rep.passed and rep.triples_checked > 0
    assert rep == ref_box_submodular(f, -3, 3)


def test_submodular_comparable_pair_equality(rank_u24):
    p = PriceVector((2, 2, 2, 2))
    q = PriceVector((0, 1, 0, 1))  # q <= p: join/meet are p and q
    g = lambda v: conjugate(rank_u24, v).value
    assert g(p) + g(q) == g(p.join(q)) + g(p.meet(q))


def test_submodular_box_pass(rank_u24):
    rep = check_conjugate_submodular(rank_u24)
    assert rep.passed and rep.regime == "exhaustive"


def test_submodular_sampled_pass(corpus_by_id):
    f = corpus_by_id["n5_laminar"].fn
    rep = check_conjugate_submodular(f, box=(-3, 3), samples=400, seed=11)
    # n=5 box has 16807 points > exhaustive limit -> sampled
    assert rep.passed and rep.regime == "sampled" and rep.seed == 11


def test_submodular_real_mode_uses_tolerant_path():
    f = SetFn(2, [0.0, 1.5, 0.25, 1.75], mode="real")
    rep = check_conjugate_submodular(f, samples=300, seed=2)
    assert rep.passed and rep.regime == "sampled"


SUPERMODULAR = [0, 0, 0, 2]  # f({1,2}) rewards the pair: not exchange-valid


def test_submodular_detects_violation():
    f = SetFn(2, SUPERMODULAR)
    rep = check_conjugate_submodular(f)
    assert not rep.passed
    cx = rep.counterexample
    p, q = PriceVector(tuple(cx["p"])), PriceVector(tuple(cx["q"]))
    k = cx.get("k")
    g = f if k is None else restrict_by_size(f, k)
    lhs = brute_conjugate(g, p.join(q))[0] + brute_conjugate(g, p.meet(q))[0]
    rhs = brute_conjugate(g, p)[0] + brute_conjugate(g, q)[0]
    assert lhs > rhs


def test_cross_submodular_full_cap_reduces_to_plain(rank_u24):
    rep = check_cross_submodular(rank_u24, 4)
    assert rep.passed


def test_cross_submodular_box_pass(rank_u24):
    for k in range(0, 5):
        assert check_cross_submodular(rank_u24, k).passed


def test_cross_submodular_sampled(corpus_by_id):
    f = corpus_by_id["n6_laminar"].fn
    rep = check_cross_submodular(f, 3, samples=300, seed=4)
    assert rep.passed and rep.regime == "sampled"


def test_cross_submodular_detects_violation():
    f = SetFn(2, SUPERMODULAR)
    rep = check_cross_submodular(f, 2)
    assert not rep.passed


def test_strong_quotient_box_pass(rank_u24):
    for k in range(0, 5):
        assert check_strong_quotient(rank_u24, k).passed


def test_strong_quotient_unit_bump(corpus_by_id):
    f = corpus_by_id["n4_laminar"].fn
    q = PriceVector((0, 1, -1, 2))
    p = PriceVector((0, 2, -1, 2))  # q + unit at element 2
    for k in range(1, 5):
        fk = restrict_by_size(f, k)
        lhs = conjugate(f, p).value - conjugate(f, q).value
        rhs = conjugate(fk, p).value - conjugate(fk, q).value
        assert lhs <= rhs


def test_strong_quotient_explicit_grid(rank_u24):
    rep = check_strong_quotient(rank_u24, 2, box=(-1, 1))
    assert rep.passed and rep == ref_box_quotient(rank_u24, 2, -1, 1)


def test_strong_quotient_sampled(corpus_by_id):
    f = corpus_by_id["n6_uniform_r3"].fn
    rep = check_strong_quotient(f, 2, samples=300, seed=8)
    assert rep.passed and rep.regime == "sampled"


# --- restrictions -------------------------------------------------------------


def test_build_restrictions_spec_tables(rank_u24):
    ctx = ExchangeContext.make(4, [1, 2], [3, 4], [1])
    t = build_restrictions(rank_u24, ctx)
    # ground set {3,4} reindexed to {1,2}; J local masks 0..3
    assert t.y_side.values == (2, 2, 2, 1)
    assert t.x_side.values == (1, 2, 2, 2)
    assert t.x_side_sized.values == (1, 2, 2, NEG_INF)


def test_build_restrictions_empty_I_keeps_empty_set(rank_u24):
    ctx = ExchangeContext.make(4, [1, 2], [3, 4], [])
    t = build_restrictions(rank_u24, ctx)
    assert 0 in t.x_side_sized.dom_masks  # J = {} stays feasible
    assert t.x_side_sized.values[0] == rank_u24([1, 2])


def test_build_restrictions_degenerate_y0(rank_u24):
    ctx = ExchangeContext.make(4, [1, 2], [2], [1])
    t = build_restrictions(rank_u24, ctx)
    assert t.x_side.n == 0 and t.y_side.n == 0
    assert t.x_side.values == (rank_u24([2]),)
    assert t.y_side.values == (rank_u24([1, 2]),)


def test_build_restrictions_flags_empty_domain():
    # dom = {{1,2},{3}} only; X={1,2}, Y={3}, I={1} leaves x_side empty
    f = SetFn(3, [None, None, None, 0, None, None, None, None]).with_value([3], 0)
    ctx = ExchangeContext.make(3, [1, 2], [3], [1])
    with pytest.raises(Falsification, match="x_side"):
        build_restrictions(f, ctx)


def _materialized_empty(f, ctx):
    """The emptiness rule on materialized tables: the first of x_side,
    x_side_sized and y_side with an empty domain, as build_restrictions
    names it, or None."""
    spread = [0]
    for e in elements_of(ctx.y0_mask):
        spread += [g | 1 << (e - 1) for g in spread]
    xbase, ybase = ctx.x_mask & ~ctx.i_mask, ctx.y_mask | ctx.i_mask
    m = ctx.y0_mask.bit_count()
    x_side = SetFn(m, [f.values[xbase | g] for g in spread])
    y_side = SetFn(m, [f.values[ybase & ~g] for g in spread])
    sides = (("x_side", x_side), ("x_side_sized", restrict_by_size(x_side, len(ctx.I))),
             ("y_side", y_side))
    for name, fn in sides:
        if not fn.dom_masks:
            return f"{name} restriction has empty domain for X={ctx.X}, Y={ctx.Y}, I={ctx.I}"
    return None


def test_empty_restriction_matches_materialized_tables():
    """The helper the lemmas_2_8 suite runs names the same side, with the
    same message, as the materialized tables and build_restrictions."""
    named = set()
    for seed in range(120):
        f = random_table(3 + seed % 3, seed, neg_inf_prob=0.4 + 0.1 * (seed % 4))
        for xm in f.dom_masks:
            for ym in f.dom_masks:
                for im in range(1 << f.n):
                    if im & ~(xm & ~ym):
                        continue
                    ctx = ExchangeContext(f.n, xm, ym, im)
                    want = _materialized_empty(f, ctx)
                    assert _empty_restriction(f, xm, ym, im) == want
                    if want is None:
                        build_restrictions(f, ctx)
                        continue
                    named.add(want.split()[0])
                    with pytest.raises(Falsification) as exc:
                        build_restrictions(f, ctx)
                    assert str(exc.value) == want
    assert named == {"x_side", "x_side_sized", "y_side"}


def test_restriction_route_matches_bounded_search(corpus_by_id):
    """max over bounded J of the pair sum equals max(x_sized + y_side)."""
    import random
    f = corpus_by_id["n5_graphic"].fn
    rng = random.Random(2)
    dom = f.dom_masks
    for _ in range(100):
        xm = dom[rng.randrange(len(dom))]
        ym = dom[rng.randrange(len(dom))]
        im = (xm & ~ym) & rng.getrandbits(5)
        ctx = ExchangeContext(5, xm, ym, im)
        t = build_restrictions(f, ctx)
        route = max_over(ext_add(a, b) for a, b in
                         zip(t.x_side_sized.values, t.y_side.values))
        w = find_multi_exchange(f, elements_of(xm), elements_of(ym),
                                elements_of(im), bounded=True)
        direct = w.rhs if w is not None else NEG_INF
        # the witness maximum is the route maximum whenever either is finite
        assert route == direct or (route is NEG_INF and direct is NEG_INF)


# --- fenchel -------------------------------------------------------------------


def test_fenchel_zero_pair_closed_form():
    f = SetFn.constant(1, 0)
    res = fenchel_gap(f, f)
    assert res.primal == 0 and res.dual == 0 and res.gap == 0
    assert res.attaining_q == PriceVector((0,))
    assert res.certified and not res.boundary
    # dual objective is |q| off the origin
    for q in (-1, 1):
        qv = PriceVector((q,))
        val = conjugate(f, qv).value + conjugate(f, -qv).value
        assert val == abs(q)


def test_fenchel_disjoint_domains():
    f1 = SetFn(1, [0, None])
    f2 = SetFn(1, [None, 0])
    res = fenchel_gap(f1, f2)
    assert res.primal is NEG_INF
    assert res.gap is None and res.attaining_q is None
    assert res.boundary  # dual decreases toward the box edge
    assert not res.certified


def test_fenchel_restriction_pair_bounds_target(corpus_by_id):
    f = corpus_by_id["n4_partition"].fn
    ctx = ExchangeContext.make(4, [1, 3], [2, 4], [1])
    t = build_restrictions(f, ctx)
    res = fenchel_gap(t.x_side_sized, t.y_side)
    assert res.certified and res.gap == 0
    assert res.dual >= f([1, 3]) + f([2, 4])


def test_fenchel_requires_matching_shape():
    with pytest.raises(ValueError, match="ground sets"):
        fenchel_gap(SetFn.constant(1, 0), SetFn.constant(2, 0))
    with pytest.raises(ValueError, match="mode"):
        fenchel_gap(SetFn.constant(1, 0), SetFn.constant(1, 0.0, mode="real"))


def test_fenchel_real_mode_not_certified():
    f = SetFn.constant(1, 0.0, mode="real")
    res = fenchel_gap(f, f)
    assert not res.certified
    assert res.gap == 0.0


def test_fenchel_explicit_box_boundary_flag():
    # force a box too small to reach the attaining point
    f1 = SetFn(1, [0, 5])   # g1(q) = max(0, 5 - q)
    f2 = SetFn(1, [0, None])
    # primal = max(f1+f2) = 0 at {}; attaining q needs q >= 5
    res = fenchel_gap(f1, f2, box=2)
    assert res.boundary and res.gap > 0
    res = fenchel_gap(f1, f2, box=6)
    assert res.certified and res.attaining_q.entries == (5,)


def test_fenchel_box_must_be_a_nonnegative_int():
    f = SetFn.constant(2, 0)
    for box in (-1, True, False, 2.0, "2"):
        with pytest.raises(ValueError, match="box"):
            fenchel_gap(f, f, box=box)
    res = fenchel_gap(f, f, box=0)
    assert res.certified and res.box == 0 and res.boundary


def test_fenchel_to_dict_roundtrips_json():
    import json
    res = fenchel_gap(SetFn.constant(2, 1), SetFn.constant(2, 0))
    d = json.loads(json.dumps(res.to_dict()))
    assert d["gap"] == 0 and d["box"] == res.box


@settings(max_examples=60)
@given(tables_n3, tables_n3, prices_n3)
def test_weak_duality_everywhere(v1, v2, q):
    """g1(q) + g2(-q) dominates the primal for every q, any tables."""
    f1, f2 = SetFn(3, v1), SetFn(3, v2)
    primal = max_over(ext_add(a, b) for a, b in zip(f1.values, f2.values))
    dual_at_q = conjugate(f1, q).value + conjugate(f2, -q).value
    assert primal is NEG_INF or dual_at_q >= primal


# --- bound of the restricted dual ----------------------------------------------


def test_lemma6_bound_at_zero(corpus_by_id):
    f = corpus_by_id["n4_uniform_r2"].fn
    ctx = ExchangeContext.make(4, [1, 2], [3, 4], [1])
    t = build_restrictions(f, ctx)
    z = PriceVector.zero(2)
    lhs = conjugate(t.x_side_sized, z).value + conjugate(t.y_side, z).value
    assert lhs >= f([1, 2]) + f([3, 4])


# --- exact arithmetic above int64 ----------------------------------------------


def test_grid_check_exact_above_int64():
    f = SetFn(2, [0, 2**63, 1, 2])
    rep = check_conjugate_submodular(f)
    assert rep == ref_box_submodular(f, -3, 3)


def test_fenchel_exact_above_int64():
    f = SetFn(1, [0, 2**62])
    res = fenchel_gap(f, f, box=1)
    assert res.primal == res.dual == 2**63
    assert res.gap == 0 and res.certified


# --- arguments that would fake a verdict -------------------------------------


GRID_CHECKS = [
    lambda f, **kw: check_conjugate_submodular(f, **kw),
    lambda f, **kw: check_cross_submodular(f, f.n, **kw),
    lambda f, **kw: check_strong_quotient(f, f.n, **kw),
]


@pytest.mark.parametrize("check", GRID_CHECKS)
@pytest.mark.parametrize("iid", ["n3_assignment", "n6_assignment"])
@pytest.mark.parametrize("box", [(3, -3), (1, 0), (True, 3), (-3, 3.0), (0, 1, 2), [4],
                                 "03", (0, 2**32 - 1), (-2**40, 2**40)])
def test_grid_checks_refuse_a_bad_box(corpus_by_id, iid, check, box):
    """An empty box swept exhaustively used to PASS with no pair checked;
    sampled, it raised ``randrange``'s empty-range error."""
    with pytest.raises(ValueError, match="box must be a pair of ints"):
        check(corpus_by_id[iid].fn, box=box)


def test_grid_checks_accept_a_list_box_and_the_widest_box(corpus_by_id):
    f = corpus_by_id["n6_assignment"].fn
    assert check_conjugate_submodular(f, box=[-3, 3], samples=50) == \
        check_conjugate_submodular(f, box=(-3, 3), samples=50)
    rep = check_cross_submodular(f, 3, box=(0, 2**32 - 2), samples=20)
    assert rep.regime == "sampled" and rep.triples_checked == 20


@pytest.mark.parametrize("check", GRID_CHECKS)
@pytest.mark.parametrize("iid", ["n3_assignment", "n6_assignment"])
@pytest.mark.parametrize("samples", [0, -5, True, 2.5, "10"])
def test_grid_checks_refuse_samples_below_one(corpus_by_id, iid, check, samples):
    """``samples=0`` used to PASS with no pair checked; the rule is
    ``SuiteConfig``'s, in either regime."""
    with pytest.raises(ValueError, match="samples must be an int >= 1"):
        check(corpus_by_id[iid].fn, samples=samples)
