import json

import pytest
from hypothesis import given, settings, strategies as st

import mconcave
from mconcave import (
    HARD_CAP,
    NEG_INF,
    FormatError,
    PriceVector,
    SetFn,
    check_conjugate_submodular,
    check_exc_multi,
    effective_domain,
    elements_of,
    ext_add,
    ext_leq,
    fenchel_gap,
    graphic_matroid,
    load,
    mask_of,
    max_over,
    mutate,
    partition_matroid,
    restrict_by_size,
    store,
    tilt,
    uniform_matroid,
)
from mconcave.cli import SuiteConfig, falsify_campaign
from mconcave.core import price_sums, submasks_ascending, submasks_by_size

ext_values = st.one_of(st.just(NEG_INF), st.integers(-50, 50))


# --- extended arithmetic ----------------------------------------------------

def test_ext_add_absorbs():
    assert ext_add(NEG_INF, 5) is NEG_INF
    assert ext_add(5, NEG_INF) is NEG_INF
    assert ext_add(NEG_INF, NEG_INF) is NEG_INF
    assert ext_add(2, 3) == 5


def test_neg_inf_ordering():
    assert NEG_INF <= NEG_INF
    assert not NEG_INF < NEG_INF
    assert NEG_INF < -10**9
    assert NEG_INF <= 0
    assert not (0 <= NEG_INF)
    assert 3 > NEG_INF


def test_max_over_empty_is_neg_inf():
    assert max_over([]) is NEG_INF
    assert max_over([NEG_INF, NEG_INF]) is NEG_INF
    assert max_over([NEG_INF, 1, -4]) == 1


@given(ext_values)
def test_max_over_singleton(v):
    assert max_over([v]) is v or max_over([v]) == v


@given(ext_values, ext_values)
def test_ext_add_commutative(a, b):
    assert ext_add(a, b) == ext_add(b, a)


@given(ext_values, ext_values, ext_values)
def test_ext_add_associative(a, b, c):
    assert ext_add(ext_add(a, b), c) == ext_add(a, ext_add(b, c))


def test_ext_leq():
    assert ext_leq(NEG_INF, NEG_INF)
    assert ext_leq(NEG_INF, 0)
    assert not ext_leq(0, NEG_INF)
    assert ext_leq(1, 1)
    assert not ext_leq(2, 1)
    # real mode tolerates magnitude-scaled noise
    assert ext_leq(1.0 + 1e-12, 1.0, mode="real")
    assert not ext_leq(1.1, 1.0, mode="real")


# --- bitmask helpers --------------------------------------------------------

def test_mask_roundtrip():
    assert mask_of([1, 3], 4) == 0b101
    assert elements_of(0b101) == (1, 3)
    assert mask_of([], 4) == 0
    with pytest.raises(ValueError):
        mask_of([5], 4)
    with pytest.raises(ValueError):
        mask_of([0], 4)


def test_submask_enumerations():
    asc = submasks_ascending(0b101)
    assert asc == (0, 0b1, 0b100, 0b101)
    sized = submasks_by_size(0b1101)
    # ordered by size, then element-lex: {} {1} {3} {4} {1,3} {1,4} {3,4} {1,3,4}
    assert [elements_of(m) for m, _ in sized] == [
        (), (1,), (3,), (4,), (1, 3), (1, 4), (3, 4), (1, 3, 4)]
    assert [s for _, s in sized] == [0, 1, 1, 1, 2, 2, 2, 3]


@given(st.lists(st.integers(-9, 9), min_size=0, max_size=6))
def test_price_sums_match_naive(entries):
    n = len(entries)
    sums = price_sums(entries, n)
    for m in range(1 << n):
        assert sums[m] == sum(entries[j] for j in range(n) if m >> j & 1)


# --- SetFn ------------------------------------------------------------------

def test_setfn_validation():
    with pytest.raises(ValueError):
        SetFn(2, [0, 1, 2])  # wrong length
    with pytest.raises(ValueError):
        SetFn(HARD_CAP + 1, [])
    with pytest.raises(ValueError):
        SetFn(1, [0.5, 0], mode="int")
    with pytest.raises(ValueError):
        SetFn(1, [True, 0])
    with pytest.raises(ValueError):
        SetFn(2, [0] * 4, mode="float")


def test_setfn_none_is_neg_inf():
    f = SetFn(1, [None, 3])
    assert f([]) is NEG_INF
    assert f([1]) == 3
    assert f.dom_masks == (1,)


def test_effective_domain():
    assert effective_domain(SetFn.constant(2, 0)) == [(), (1,), (2,), (1, 2)]
    assert effective_domain(SetFn(1, [None, 0])) == [(1,)]
    assert effective_domain(SetFn(2, [None] * 4)) == []


def test_dom_size_range():
    assert SetFn(2, [None, 0, 1, 3]).dom_size_range() == (1, 2)
    assert SetFn(2, [None] * 4).dom_size_range() is None


def test_with_value():
    f = SetFn.constant(2, 0)
    g = f.with_value([1, 2], 5)
    assert g([1, 2]) == 5 and f([1, 2]) == 0


# --- tilt -------------------------------------------------------------------

def test_tilt_example():
    # f == 0 on n=2, p=(1,-1): values on {}, {1}, {2}, {1,2} are 0,-1,1,0
    f = tilt(SetFn.constant(2, 0), PriceVector((1, -1)))
    assert f.values == (0, -1, 1, 0)


def test_tilt_zero_and_neg_inf():
    f = SetFn(2, [4, None, -1, 2])
    assert tilt(f, PriceVector.zero(2)) == f
    assert tilt(f, PriceVector((7, 7)))([1]) is NEG_INF


def test_tilt_mismatch_errors():
    f = SetFn.constant(2, 0)
    with pytest.raises(ValueError):
        tilt(f, PriceVector((1,)))
    with pytest.raises(ValueError):
        tilt(f, PriceVector((0.5, 0.0)))


@settings(max_examples=60)
@given(st.lists(st.one_of(st.none(), st.integers(-20, 20)), min_size=8, max_size=8),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_tilt_roundtrip(values, p_entries):
    f = SetFn(3, values)
    p = PriceVector(tuple(p_entries))
    assert tilt(tilt(f, p), -p) == f


# --- restrict_by_size -------------------------------------------------------

def test_restrict_by_size_example():
    f = restrict_by_size(SetFn.constant(2, 0), 1)
    assert f.values == (0, 0, 0, NEG_INF)


def test_restrict_by_size_edges(rank_u24):
    assert restrict_by_size(rank_u24, 4) == rank_u24
    only_empty = restrict_by_size(rank_u24, 0)
    assert only_empty.dom_masks == (0,)
    with pytest.raises(ValueError):
        restrict_by_size(rank_u24, -1)


@settings(max_examples=60)
@given(st.lists(st.one_of(st.none(), st.integers(-9, 9)), min_size=16, max_size=16),
       st.integers(0, 4))
def test_restrict_by_size_dom(values, k):
    f = SetFn(4, values)
    g = restrict_by_size(f, k)
    assert set(g.dom_masks) == {m for m in f.dom_masks if m.bit_count() <= k}
    for m in g.dom_masks:
        assert g.values[m] == f.values[m]


# --- PriceVector ------------------------------------------------------------

def test_price_vector_basics():
    p = PriceVector((2, -1, 3))
    assert p([]) == 0
    assert p([1, 3]) == 5
    assert p.join(PriceVector((0, 0, 9))).entries == (2, 0, 9)
    assert p.meet(PriceVector((0, 0, 9))).entries == (0, -1, 3)
    assert (-p).entries == (-2, 1, -3)
    assert PriceVector.unit(3, 2).entries == (0, 1, 0)
    assert PriceVector((1, 1)).dominates(PriceVector((0, 1)))
    assert not PriceVector((1, 0)).dominates(PriceVector((0, 1)))
    assert PriceVector((1, 2)).mode == "int"
    assert PriceVector((1.0, 2)).mode == "real"


@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.integers(0, 15), st.integers(0, 15))
def test_price_vector_modularity(entries, m1, m2):
    p = PriceVector(tuple(entries))
    assert p.total(m1 | m2) + p.total(m1 & m2) == p.total(m1) + p.total(m2)


# --- serialization ----------------------------------------------------------

def test_store_load_roundtrip_int(tmp_path, rank_u24):
    path = tmp_path / "f.json"
    store(rank_u24, path)
    assert load(path) == rank_u24


def test_store_load_roundtrip_real(tmp_path):
    f = SetFn(2, [0.25, None, -1.5, 3.0], mode="real")
    path = tmp_path / "f.json"
    store(f, path)
    assert load(path) == f


def test_load_null_is_neg_inf(tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"n": 1, "mode": "int", "values": [null, 2]}')
    f = load(path)
    assert f([]) is NEG_INF and f([1]) == 2


@pytest.mark.parametrize("payload, fragment", [
    ('{"n": 2, "mode": "int", "values": [0, 0, 0]}', "4 entries"),
    ('{"n": 25, "mode": "int", "values": []}', "hard cap"),
    ('{"n": 1, "mode": "buggy", "values": [0, 0]}', "mode"),
    ('{"n": 1, "mode": "int", "values": [0.5, 0]}', r"values\[0\]"),
    ('{"n": 1, "mode": "int", "values": [true, 0]}', r"values\[0\]"),
    ('{"n": 1, "values": [0, 0]}', "mode"),
    ('[1, 2]', "object"),
    ('{"n": 2, "mode": "real", "values": [0.0, NaN, 1.0, 2.0]}', r"values\[1\]: not a finite"),
    ('{"n": 1, "mode": "real", "values": [0.0, Infinity]}', r"values\[1\]: not a finite"),
    ('{"n": 1, "mode": "real", "values": [-Infinity, 0.0]}', r"values\[0\]: not a finite"),
    (json.dumps({"n": 2, "mode": "real", "values": [0.0, 2.0**1022, 2.0**1022, -2.0**1022]}),
     r"values\[1\]: \|value\| exceeds 2\^1020"),
])
def test_load_rejects_malformed(tmp_path, payload, fragment):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(FormatError, match=fragment):
        load(path)


def test_load_reports_syntax_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1,\n  "mode": }')
    with pytest.raises(FormatError, match="line 2"):
        load(path)


def test_store_writes_documented_format(tmp_path):
    f = SetFn(1, [None, 7])
    path = tmp_path / "f.json"
    store(f, path)
    obj = json.loads(path.read_text())
    assert obj == {"n": 1, "mode": "int", "values": [None, 7]}


# --- counts and exports -------------------------------------------------------


_ZERO2 = SetFn.constant(2, 0)
COUNT_SITES = {
    "check_exc_multi samples": lambda v: check_exc_multi(_ZERO2, samples=v),
    "grid samples": lambda v: check_conjugate_submodular(_ZERO2, samples=v),
    "SuiteConfig jobs": lambda v: SuiteConfig(jobs=v),
    "falsify trials": lambda v: falsify_campaign(v, 0),
    "falsify keep_near": lambda v: falsify_campaign(10, 0, keep_near=v),
    "fenchel box": lambda v: fenchel_gap(_ZERO2, _ZERO2, box=v),
    "size cap": lambda v: restrict_by_size(_ZERO2, v),
    "uniform n": lambda v: uniform_matroid(v, 0),
    "uniform rank": lambda v: uniform_matroid(3, v),
    "partition cap": lambda v: partition_matroid([[1, 2]], [v]),
    "graphic vertices": lambda v: graphic_matroid(v, []),
    "mutate magnitude": lambda v: mutate(_ZERO2, 0, v),
}


@pytest.mark.parametrize("value", [True, -1])
@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_counts_refuse_bools_and_negatives(site, value):
    """One count rule everywhere; uniform_matroid(3, True) used to build a
    rank table holding True, and mutate(f, s, True) and
    partition_matroid([[1, 2]], [True]) ran."""
    with pytest.raises(ValueError, match="must be an int >= "):
        COUNT_SITES[site](value)


def test_every_export_resolves():
    """A star import fails on a name in ``__all__`` that no longer exists."""
    namespace = {}
    exec("from mconcave import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mconcave.__all__)
