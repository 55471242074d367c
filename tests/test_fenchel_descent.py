"""The steepest-descent dual of ``fenchel_gap`` against the shell scan.

``_scan_dual`` visits the whole box and is the oracle. On M-natural-
concave pairs an uncertified result must equal the scan's in every
field. A certified one may name another minimizer, so it must agree on
primal, dual, gap and certification, and its q* is checked directly:
phi(q*) recomputed with the scalar ``conjugate`` equals the primal, and
q* lies in the box. On other pairs the descent's end point only bounds
the scan's minimum from above.
"""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from mconcave import (
    NEG_INF,
    PriceVector,
    SetFn,
    check_exc_single,
    conjugate,
    default_corpus,
    fenchel_gap,
    random_mnat_concave,
    random_table,
    tilt,
)
from mconcave.cli import FENCHEL_PAIR_N_LIMIT
from mconcave.duality import (
    _CHUNK,
    FenchelResult,
    _box_points,
    _Conjugates,
    _primal,
)

BOXES = (None, 1, 2, 3)


def _shell_points(n, r, cache):
    """Integer points of the box [-r, r]^n with max-norm exactly r, in
    lexicographic order."""
    key = (n, r)
    if key in cache:
        return cache[key]
    if r == 0:
        pts = np.zeros((1, n), dtype=np.int64)
    elif n == 1:
        pts = np.array([[-r], [r]], dtype=np.int64)
    else:
        blocks = []
        for q1 in range(-r, r + 1):
            inner = _box_points(n - 1, -r, r) if abs(q1) == r \
                else _shell_points(n - 1, r, cache)
            col = np.full((len(inner), 1), q1, dtype=np.int64)
            blocks.append(np.hstack([col, inner]))
        pts = np.vstack(blocks)
    cache[key] = pts
    return pts


def _scan_dual(f1, f2, box):
    """The dual by an outward shell scan of the whole box [-box, box]^n
    (n >= 1), stopping at the first q attaining the primal."""
    n = f1.n
    mode = f1.mode
    exact = mode == "int"
    primal = _primal(f1, f2)
    conj1, conj2 = _Conjugates(f1), _Conjugates(f2)
    cache = {}
    best = None
    best_q = None
    best_shell = None
    target = primal if (exact and primal is not NEG_INF) else None

    for r in range(box + 1):
        pts = _shell_points(n, r, cache)
        for start in range(0, len(pts), _CHUNK):
            chunk = pts[start:start + _CHUNK]
            d = conj1.plain(chunk) + conj2.plain(-chunk)
            if target is not None:
                hits = np.nonzero(d == target)[0]
                if len(hits):
                    q = PriceVector(tuple(int(x) for x in chunk[hits[0]]))
                    return FenchelResult(primal, target, 0, q, box, r == box,
                                         True, mode)
            idx = int(np.argmin(d))
            if best is None or d[idx] < best:
                best = d[idx]
                best_q = tuple(chunk[idx])
                best_shell = r

    dual = int(best) if exact else float(best)
    boundary = best_shell == box
    if primal is NEG_INF:
        gap = None
        attaining = None
        certified = False
    else:
        gap = dual - primal
        attaining = PriceVector(tuple(int(x) for x in best_q)) if exact and gap == 0 else None
        certified = exact and gap == 0
    return FenchelResult(primal, dual, gap, attaining, box, boundary, certified, mode)


def _corpus_pairs():
    """Same-n corpus pairs with n <= 5, in ``fenchel`` suite order."""
    eligible = [(i.instance_id, i.fn) for i in default_corpus()
                if i.fn.n <= FENCHEL_PAIR_N_LIMIT]
    return [(eligible[a], eligible[b]) for a in range(len(eligible))
            for b in range(a, len(eligible)) if eligible[a][1].n == eligible[b][1].n]


def _domains_meet(f1, f2):
    return any(a is not NEG_INF and b is not NEG_INF for a, b in zip(f1.values, f2.values))


def _tilted(f1, f2, rng, d=4):
    """The pair moved so its dual minimizer sits near shell d: a seeded p
    with one entry +-d, or the fixed alternating p for disjoint domains."""
    n = f1.n
    if _domains_meet(f1, f2):
        p = [rng.randint(-d, d) for _ in range(n)]
        p[rng.randrange(n)] = d if rng.random() < 0.5 else -d
    else:
        p = [(d // 2) * (-1) ** j for j in range(n)]
    return tilt(f1, PriceVector(tuple(p))), tilt(f2, PriceVector(tuple(-x for x in p)))


def _scaled(f, k):
    return SetFn(f.n, [v if v is NEG_INF else k * v for v in f.values])


def _phi(f1, f2, q):
    return conjugate(f1, q).value + conjugate(f2, -q).value


def assert_matches_scan(f1, f2, box):
    res = fenchel_gap(f1, f2, box=box)
    oracle = _scan_dual(f1, f2, res.box)
    if not oracle.certified:
        assert res.to_dict() == oracle.to_dict()
        return res
    assert (res.primal, res.dual, res.gap, res.certified) == \
        (oracle.primal, oracle.dual, oracle.gap, True)
    q = res.attaining_q
    assert _phi(f1, f2, q) == res.primal
    assert max(map(abs, q.entries)) <= res.box
    assert res.boundary == (max(map(abs, q.entries)) == res.box)
    return res


def test_descent_matches_scan_on_corpus_pairs():
    pairs = _corpus_pairs()
    assert len(pairs) == 85
    rng = random.Random(0)
    disjoint = 0
    for (_, f1), (_, f2) in pairs:
        disjoint += not _domains_meet(f1, f2)
        for g1, g2 in ((f1, f2), _tilted(f1, f2, rng)):
            for box in BOXES:
                assert_matches_scan(g1, g2, box)
    assert disjoint == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32), st.integers(0, 2**32),
       st.sampled_from(BOXES))
def test_descent_matches_scan_on_mnat_concave_pairs(n, s1, s2, box):
    assert_matches_scan(random_mnat_concave(n, s1), random_mnat_concave(n, s2), box)


def _random_pairs(seeds):
    for n in range(1, 5):
        for seed in seeds:
            yield random_table(n, 2 * seed, -3, 3), random_table(n, 2 * seed + 1, -3, 3)


def _exchange_valid(f1, f2):
    return check_exc_single(f1).passed and check_exc_single(f2).passed


def test_descent_matches_scan_on_random_tables():
    """Arbitrary tables: exchange-valid pairs equal the oracle; on the
    others the descent may stop above the box minimum, and a certificate
    is checked directly."""
    for f1, f2 in _random_pairs(range(12)):
        valid = _exchange_valid(f1, f2)
        for box in BOXES:
            if valid:
                assert_matches_scan(f1, f2, box)
                continue
            res = fenchel_gap(f1, f2, box=box)
            oracle = _scan_dual(f1, f2, res.box)
            assert res.primal == oracle.primal and res.dual >= oracle.dual
            if res.certified:
                assert _phi(f1, f2, res.attaining_q) == res.primal


def test_descent_certifies_fewer_non_exchange_pairs_than_the_scan():
    """Off the theorem's hypothesis the descent can stop at a local
    minimum above the primal where the scan finds an attaining point:
    fewer certificates, never a wrong one."""
    counts = {"pairs": 0, "scan": 0, "descent": 0}
    for f1, f2 in _random_pairs(range(60)):
        if _exchange_valid(f1, f2):
            continue
        res = fenchel_gap(f1, f2)
        counts["pairs"] += 1
        counts["scan"] += _scan_dual(f1, f2, res.box).certified
        counts["descent"] += res.certified
    assert counts == {"pairs": 157, "scan": 106, "descent": 92}


def test_descent_certifies_where_the_scan_cannot_finish(corpus_by_id):
    # The box is 6601: the scan would visit up to 13203^4 points.
    p = PriceVector((900, -700, 400, -900))
    g1 = tilt(_scaled(corpus_by_id["n4_laminar"].fn, 250), p)
    g2 = tilt(_scaled(corpus_by_id["n4_partition"].fn, 250), -p)
    res = fenchel_gap(g1, g2)
    assert res.box == 6601
    assert res.certified and res.gap == 0
    assert _phi(g1, g2, res.attaining_q) == res.primal


def test_descent_walks_disjoint_domains_to_the_box_edge(corpus_by_id):
    f1 = _scaled(corpus_by_id["n4_wbasis_uniform"].fn, 250)
    f2 = _scaled(corpus_by_id["n4_wbasis_cycle"].fn, 250)
    res = fenchel_gap(f1, f2)
    assert res.box == 1501
    assert res.primal is NEG_INF and res.gap is None
    assert res.boundary and res.attaining_q is None and not res.certified
