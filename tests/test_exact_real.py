"""Real tables against scalar ``Fraction`` loops, the oracle of exactness.

A real table is drawn as decimals: each finite value m / 10^p with up to
12 places, given to ``SetFn`` as the nearest float, some entries NEG_INF.
The loops here read the decimals as ``Fraction``s and never see a float.
For the single exchange, both bounds of the multiple exchange and the
equi-cardinal exchange of the lift, the verdict and the first
counterexample (its ``lhs`` the float nearest the exact sum) must equal
the loops'.

The exchange suites are unchanged by scaling a table, so each of them
must give f the verdict it gives the int table D * f, D the least common
denominator. The grid suite is not: it reads conjugates at integer
prices, which are prices in D * Z for D * f, so f = [0, 0, 0, 5.5] FAILs
it where [0, 0, 0, 11] PASSes on the default box. Its verdict is held
against an exact box loop instead. ``conjugate`` at integer prices is
held against the ``Fraction`` maximum and the batched kernel.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mconcave import (
    NEG_INF,
    PriceVector,
    SetFn,
    check_conjugate_submodular,
    check_exc_multi,
    check_exc_single,
    check_m_concave,
    conjugate,
    lift,
    random_mnat_concave,
)
from mconcave.cli import SuiteConfig, _instance_reports
from mconcave.duality import _Conjugates
from test_grid_engine import plain_conjugate, ref_box_submodular

EXCHANGE_SUITES = ("exc_single", "exc_multi_bounded", "exc_multi_unbounded", "corollary1",
                   "m_concave_lift", "lemmas_2_8")


@st.composite
def decimal_tables(draw):
    """(n, the exact values as Fractions or None, the SetFn of their
    floats). Values are drawn freely, or as an M-natural-concave int
    table over 10^p, so that some tables pass, with one entry raised by
    10^-12 or not, which breaks a tie that a tolerance would keep."""
    n = draw(st.sampled_from([0, 1, 2, 2, 3, 3, 3]))
    places = draw(st.integers(0, 12))
    if draw(st.booleans()):
        base = random_mnat_concave(n, draw(st.integers(0, 2**32)))
        exact = [None if v is NEG_INF else Fraction(v, 10**places) for v in base.values]
        bumped = draw(st.sampled_from([None] + [m for m, v in enumerate(exact) if v is not None]))
        if bumped is not None:
            exact[bumped] += Fraction(1, 10**12)
    else:
        blank = draw(st.sampled_from([0.0, 0.2, 0.5]))
        cells = st.tuples(st.floats(0, 1), st.integers(-10**6, 10**6),
                          st.integers(0, places))
        exact = [None if u < blank else Fraction(m, 10**p)
                 for u, m, p in draw(st.lists(cells, min_size=1 << n, max_size=1 << n))]
    if all(v is None for v in exact):
        exact[0] = Fraction(0)
    return n, exact, SetFn(n, [None if v is None else float(v) for v in exact], "real")


def _elements(mask):
    return [j + 1 for j in range(mask.bit_length()) if mask >> j & 1]


def _add(a, b):
    return None if a is None or b is None else a + b


def _submasks(d):
    """The submasks of d in ascending order."""
    return [m for m in range(d + 1) if m & ~d == 0]


def single_loop(n, F, drop=True):
    """The first (X, Y, i) in lex order whose exchange options (the drop
    when ``drop``, then the swaps) all fall below f(X) + f(Y), as a
    counterexample, or None."""
    dom = [m for m in range(1 << n) if F[m] is not None]
    for xm, ym in product(dom, dom):
        lhs = F[xm] + F[ym]
        for ib in (1 << b for b in range(n) if (xm & ~ym) >> b & 1):
            options = [_add(F[xm ^ ib], F[ym | ib])] if drop else []
            options += [_add(F[xm ^ ib | jb], F[(ym | ib) ^ jb])
                        for jb in (1 << b for b in range(n) if (ym & ~xm) >> b & 1)]
            if not any(v is not None and lhs <= v for v in options):
                return {"X": _elements(xm), "Y": _elements(ym), "i": ib.bit_length(),
                        "lhs": float(lhs)}
    return None


def multi_loop(n, F, bounded):
    """The first (X, Y, I) in lex order with no J inside Y \\ X (|J| <= |I|
    when ``bounded``) where f((X\\I) | J) + f((Y\\J) | I) >= f(X) + f(Y)."""
    dom = [m for m in range(1 << n) if F[m] is not None]
    for xm, ym in product(dom, dom):
        lhs = F[xm] + F[ym]
        for im in _submasks(xm & ~ym):
            sums = [_add(F[xm & ~im | jm], F[(ym | im) & ~jm]) for jm in _submasks(ym & ~xm)
                    if not bounded or jm.bit_count() <= im.bit_count()]
            if not any(v is not None and lhs <= v for v in sums):
                return {"X": _elements(xm), "Y": _elements(ym), "I": _elements(im),
                        "lhs": float(lhs)}
    return None


def lifted(n, F):
    """The lift of F: r - s padding elements, and the sets of size r."""
    sizes = [m.bit_count() for m in range(1 << n) if F[m] is not None]
    s, r = min(sizes), max(sizes)
    nh = n + r - s
    return nh, [F[z & ((1 << n) - 1)] if z.bit_count() == r else None for z in range(1 << nh)]


@settings(max_examples=200, deadline=None)
@given(decimal_tables())
def test_exchange_checks_match_fraction_loops(table):
    n, F, f = table
    assert f.exact == tuple(NEG_INF if v is None else v * f.scale for v in F)
    checks = [(check_exc_single(f), single_loop(n, F)),
              (check_exc_multi(f, bounded=True), multi_loop(n, F, True)),
              (check_exc_multi(f, bounded=False), multi_loop(n, F, False)),
              (check_m_concave(lift(f)), single_loop(*lifted(n, F), drop=False))]
    for report, counter in checks:
        assert report.passed == (counter is None)
        assert report.counterexample == counter


@settings(max_examples=100, deadline=None)
@given(decimal_tables())
def test_exchange_suites_match_the_scaled_int_table(table):
    n, F, f = table
    scale = math.lcm(*(v.denominator for v in F if v is not None))
    g = SetFn(n, [None if v is None else int(v * scale) for v in F])
    cfg = SuiteConfig(suites=EXCHANGE_SUITES)
    assert [r.verdict for r in _instance_reports((0, "f", f, cfg))] == \
        [r.verdict for r in _instance_reports((0, "f", g, cfg))]


@settings(max_examples=40, deadline=None)
@given(decimal_tables().filter(lambda table: table[0] <= 2))
def test_grid_box_matches_the_exact_loop(table):
    _, _, f = table
    fast, slow = check_conjugate_submodular(f), ref_box_submodular(f, -3, 3)
    assert (fast.verdict, fast.counterexample) == (slow.verdict, slow.counterexample)


def test_conjugate_of_a_real_table_is_exact():
    """Float subtraction of the shown values would give 2^-52 here."""
    f = SetFn(1, [0.0, 1.0000000000000002], "real")
    assert conjugate(f, PriceVector((1,))).value == 2e-16
    with pytest.raises(ValueError, match="not integer"):
        conjugate(f, PriceVector((0.5,)))


@settings(max_examples=60, deadline=None)
@given(decimal_tables(), st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_conjugate_matches_the_batched_kernel_and_the_fraction_max(table, prices):
    n, exact, f = table
    p = PriceVector(prices[:n])
    got = conjugate(f, p)
    want = max(v - p.total(m) for m, v in enumerate(exact) if v is not None)
    kernel = int(plain_conjugate(_Conjugates(f), np.array([p.entries], dtype=np.int64))[0])
    assert got.value == float(want) == kernel / f.scale
    assert got.argmax_mask == min(m for m, v in enumerate(exact)
                                  if v is not None and v - p.total(m) == want)
