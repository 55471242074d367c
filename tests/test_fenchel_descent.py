"""The steepest-descent dual of ``fenchel_gap`` against the shell scan.

``_scan_dual`` visits the whole box and is the oracle. On M-natural-
concave pairs an uncertified result must equal the scan's in every
field. A certified one may name another minimizer, so it must agree on
primal, dual, gap and certification, and its q* is checked directly:
phi(q*) recomputed with the scalar ``conjugate`` equals the primal, and
q* lies in the box. On other pairs the descent's end point only bounds
the scan's minimum from above.

``ref_descend`` is the unblocked descent, one generator block per sign
of the moves, each filtered to the box, that evaluates both conjugates
afresh at every point. It is the oracle of the blocked ``_descend`` and
its carried gains: the same end point and the same value on every pair.

Metamorphic relations need no oracle: swapping the pair, renaming the
ground set, a tilt by (p, -p) and added constants change ``fenchel_gap``'s
result only as each relation says.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
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
from mconcave import duality
from mconcave.cli import FENCHEL_PAIR_N_LIMIT
from mconcave.core import shown
from mconcave.duality import (
    FenchelResult,
    _box_points,
    _Conjugates,
    _descend,
    _primal,
    _spread,
)
from test_grid_engine import plain_conjugate

BOXES = (None, 1, 2, 3)
_CHUNK = 50_000  # rows per block of the shell scan and of ``ref_moves``


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


def _phi_rows(f1, f2, scale):
    """D * phi(q) = D * (g1(q) + g2(-q)) at price rows, D = ``scale``: each
    side's ``_Conjugates`` column, times its own scale, multiplied up to D."""
    conj1, conj2 = _Conjugates(f1), _Conjugates(f2)
    u1, u2 = scale // f1.scale, scale // f2.scale
    return lambda P: plain_conjugate(conj1, P) * u1 + plain_conjugate(conj2, -P) * u2


def _scan_dual(f1, f2, box):
    """The dual by an outward shell scan of the whole box [-box, box]^n
    (n >= 1), stopping at the first q attaining the primal."""
    n = f1.n
    mode, scale = f1.mode, math.lcm(f1.scale, f2.scale)
    primal = _primal(f1, f2, scale)
    phi = _phi_rows(f1, f2, scale)
    cache = {}
    best = None
    best_q = None
    best_shell = None
    target = None if primal is NEG_INF else primal

    def show(v):
        return shown(f1, v, scale)

    for r in range(box + 1):
        pts = _shell_points(n, r, cache)
        for start in range(0, len(pts), _CHUNK):
            chunk = pts[start:start + _CHUNK]
            d = phi(chunk)
            if target is not None:
                hits = np.nonzero(d == target)[0]
                if len(hits):
                    q = PriceVector(tuple(int(x) for x in chunk[hits[0]]))
                    return FenchelResult(show(primal), show(target), show(0), q, box,
                                         r == box, True, mode)
            idx = int(np.argmin(d))
            if best is None or d[idx] < best:
                best = d[idx]
                best_q = tuple(chunk[idx])
                best_shell = r

    dual = int(best)
    boundary = best_shell == box
    if primal is NEG_INF:
        gap = None
        attaining = None
        certified = False
    else:
        gap = show(dual - primal)
        attaining = PriceVector(tuple(int(x) for x in best_q)) if gap == 0 else None
        certified = gap == 0
    return FenchelResult(show(primal), show(dual), gap, attaining, box, boundary, certified,
                         mode)


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


# --- metamorphic relations ---------------------------------------------------------


def _permuted(f, perm):
    """f with element j + 1 renamed perm[j] + 1: g(sigma(Z)) = f(Z)."""
    values = [NEG_INF] * (1 << f.n)
    for m, v in enumerate(f.values):
        values[sum(1 << perm[j] for j in range(f.n) if m >> j & 1)] = v
    return SetFn(f.n, values, f.mode)


def _fields(res):
    return res.primal, res.dual, res.gap, res.certified


def assert_metamorphic(f1, f2, perm, p, c1, c2):
    """Swapping the pair, renaming the ground set in both tables, and
    tilting by (p, -p) leave primal, dual, gap and certification as they
    are; adding c1 and c2 moves primal and dual by c1 + c2. A tilt moves
    the box, so on disjoint domains, where the dual is the minimum over
    the box of a phi unbounded below, only the primal and the verdict
    stay. Each certified q* is checked with the scalar ``conjugate``."""
    res = fenchel_gap(f1, f2)
    tilted = (tilt(f1, p), tilt(f2, -p))
    shifted = (_mapped(f1, lambda v: v + c1), _mapped(f2, lambda v: v + c2))
    pairs = [(f2, f1), (_permuted(f1, perm), _permuted(f2, perm)), tilted, shifted]
    got = [fenchel_gap(g1, g2) for g1, g2 in pairs]
    for (g1, g2), other in zip(pairs, got):
        if other.certified:
            assert _phi(g1, g2, other.attaining_q) == other.primal
    assert _fields(got[0]) == _fields(got[1]) == _fields(res)
    if res.primal is NEG_INF:
        assert (got[2].primal, got[2].gap, got[2].certified) == (NEG_INF, None, False)
    else:
        assert _fields(got[2]) == _fields(res)
    primal = res.primal if res.primal is NEG_INF else res.primal + c1 + c2
    assert _fields(got[3]) == (primal, res.dual + c1 + c2, res.gap, res.certified)


def test_fenchel_gap_metamorphic_on_corpus_pairs():
    rng = random.Random(11)
    for (_, f1), (_, f2) in _corpus_pairs():
        perm = list(range(f1.n))
        rng.shuffle(perm)
        p = PriceVector(tuple(rng.randint(-4, 4) for _ in range(f1.n)))
        assert_metamorphic(f1, f2, perm, p, rng.randint(-9, 9), rng.randint(-9, 9))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32), st.integers(0, 2**32), st.data())
def test_fenchel_gap_metamorphic_on_mnat_concave_pairs(n, s1, s2, data):
    perm = data.draw(st.permutations(range(n)))
    p = PriceVector(tuple(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))))
    c1, c2 = data.draw(st.integers(-9, 9)), data.draw(st.integers(-9, 9))
    assert_metamorphic(random_mnat_concave(n, s1), random_mnat_concave(n, s2), perm, p, c1, c2)


# --- the blocked descent against the unblocked reference --------------------------


def ref_moves(n):
    """The moves +chi_S by ascending mask S != 0, then -chi_S, in blocks
    of at most ``_CHUNK`` rows."""
    bits = np.arange(n)
    for sign in (1, -1):
        for start in range(1, 1 << n, _CHUNK):
            masks = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
            yield sign * (masks[:, None] >> bits & 1)


def ref_descend(f1, f2, scale, box, target):
    """Steepest descent of phi(q) = g1(q) + g2(-q), both conjugates times
    D = ``scale``, from q = 0 under the moves q +- chi_S that stay inside
    [-box, box]^n. Each step goes to the first strict minimizer in
    ``ref_moves`` order; the descent stops at ``target`` (None: never) or
    where no move lowers phi. Returns the end point as a tuple and phi
    there."""
    phi = _phi_rows(f1, f2, scale)
    q = np.zeros(f1.n, dtype=np.int64)
    value = phi(q[None])[0]
    while value != target:
        step = None
        for moves in ref_moves(f1.n):
            pts = q + moves
            pts = pts[np.abs(pts).max(axis=1) <= box]
            if not len(pts):
                continue
            d = phi(pts)
            i = int(np.argmin(d))
            if d[i] < value:
                value, step = d[i], pts[i]
                if value == target:  # weak duality: nothing lies lower
                    break
        if step is None:
            break
        q = step
    return tuple(int(x) for x in q), value


def _descent_args(f1, f2, box):
    """The arguments ``fenchel_gap`` passes to ``_descend``."""
    scale = math.lcm(f1.scale, f2.scale)
    if box is None:
        spread = _spread(f1) * (scale // f1.scale) + _spread(f2) * (scale // f2.scale)
        box = -(-spread // scale) + 1
    primal = _primal(f1, f2, scale)
    target = None if primal is NEG_INF else primal
    return f1, f2, scale, box, target


def _mapped(f, value, mode="int"):
    return SetFn(f.n, [v if v is NEG_INF else value(v) for v in f.values], mode)


def _oracle_pair(n, seed, kind):
    """Two random tables on n elements, as ``kind``: plain ints, tilted
    apart by a seeded price, real, moved past 2^61 (every block on the
    Python-int path), or split onto disjoint domains."""
    inf = 0 if kind == "disjoint" else 0.2  # disjoint: full domains, split below
    f1, f2 = random_table(n, 2 * seed, -3, 3, inf), random_table(n, 2 * seed + 1, -3, 3, inf)
    rng = random.Random(seed)
    if kind == "tilted":
        p = PriceVector(tuple(rng.randint(-4, 4) for _ in range(n)))
        return tilt(f1, p), tilt(f2, -p)
    if kind == "real":
        return _mapped(f1, lambda v: 0.37 * v + 0.1, "real"), \
            _mapped(f2, lambda v: 0.53 * v - 0.2, "real")
    if kind == "object":
        return _mapped(f1, lambda v: v + (1 << 62)), _mapped(f2, lambda v: v - (1 << 62))
    if kind == "disjoint":
        side = [rng.random() < 0.5 for _ in range(1 << n)]
        side[0], side[-1] = True, False
        return SetFn(n, [v if s else NEG_INF for v, s in zip(f1.values, side)]), \
            SetFn(n, [NEG_INF if s else v for v, s in zip(f2.values, side)])
    return f1, f2


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2**32),
       st.sampled_from(("int", "tilted", "real", "object", "disjoint")),
       st.sampled_from((None, 0, 1, 2, 3)))
def test_blocked_descent_matches_the_reference(n, seed, kind, box):
    if kind == "disjoint" and n == 0:
        n = 1  # one set cannot be split
    args = _descent_args(*_oracle_pair(n, seed, kind), box)
    got, want = _descend(*args), ref_descend(*args)
    assert got == want
    assert type(got[1]) is type(want[1])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32), st.sampled_from((1, 2, 3)))
def test_blocked_descent_matches_the_reference_at_the_int64_bound(n, seed, box):
    """Values just under 2^61, where the exact path of a block depends on
    the prices it holds. A block of both signs, out-of-box moves included,
    may take the Python-int path where the reference's one-sign block
    stayed in int64: the end point and value agree, their types may not,
    and ``fenchel_gap`` returns an int either way."""
    edge = (1 << 61) - 2 * n * box
    f1, f2 = _oracle_pair(n, seed, "int")
    args = _descent_args(_mapped(f1, lambda v: v + edge), _mapped(f2, lambda v: v - edge), box)
    (q, value), (ref_q, ref_value) = _descend(*args), ref_descend(*args)
    assert q == ref_q and int(value) == int(ref_value)


def _count_move_gains(monkeypatch):
    """A spy on ``duality._move_gains``: the list of the block lengths of
    the move-gain tables formed, one entry a table."""
    move_gains, blocks = duality._move_gains, []

    def counted(n, start, stop, *args):
        blocks.append(stop - start)
        return move_gains(n, start, stop, *args)

    monkeypatch.setattr(duality, "_move_gains", counted)
    return blocks


@pytest.mark.parametrize("rows", [1, 7])
def test_block_boundaries_leave_fenchel_gap_unchanged(rows, monkeypatch):
    """A budget of one block row, then of seven, splits every step into
    many blocks, each forming its own move-gain table, and ``fenchel_gap``
    returns what it does by default."""
    rng = random.Random(5)
    pairs = [(f1, f2) for (_, f1), (_, f2) in _corpus_pairs()]
    pairs += [_tilted(f1, f2, rng) for f1, f2 in pairs] + list(_random_pairs(range(6)))
    want = [fenchel_gap(f1, f2).to_dict() for f1, f2 in pairs]
    blocks = _count_move_gains(monkeypatch)
    for (f1, f2), expected in zip(pairs, want):
        gains = len(f1.dom_masks) + len(f2.dom_masks)
        monkeypatch.setattr(duality, "_DESCENT_BYTES", 16 * (gains + f1.n) * rows)
        assert fenchel_gap(f1, f2).to_dict() == expected
    assert max(blocks) == rows


def test_one_block_descent_forms_its_move_gains_once(corpus_by_id, monkeypatch):
    """Under the default budget one block holds every move for n <= 5, so
    each descent forms one move-gain table of all 2(2^n - 1) moves however
    many steps it takes: the scaled disjoint pair ends on the edge of its
    box of 1,501, at least 1,501 steps from q = 0."""
    f1 = _scaled(corpus_by_id["n4_wbasis_uniform"].fn, 250)
    f2 = _scaled(corpus_by_id["n4_wbasis_cycle"].fn, 250)
    rng = random.Random(7)
    pairs = [(g1, g2) for (_, g1), (_, g2) in _corpus_pairs()]
    pairs += [_tilted(g1, g2, rng) for g1, g2 in pairs]
    blocks = _count_move_gains(monkeypatch)
    res = fenchel_gap(f1, f2)
    assert res.box == 1501 and res.boundary and blocks == [30]
    for g1, g2 in pairs:
        blocks.clear()
        fenchel_gap(g1, g2)
        assert blocks == [2 * ((1 << g1.n) - 1)]


def _traced_peak(run):
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_descent_memory_is_bounded_at_n12():
    """A full-domain n = 12 pair, certified one move from q = 0, peaks at
    a few MiB, where one block of all 8,190 moves would hold 258 MiB."""
    n = 12
    f = SetFn(n, [-(m.bit_count() - 3) ** 2 for m in range(1 << n)])
    p = PriceVector((-1, -1) + (0,) * (n - 2))
    g1, g2 = tilt(f, p), tilt(f, -p)
    res, peak = _traced_peak(lambda: fenchel_gap(g1, g2))
    assert res.certified and res.attaining_q.entries == (1, 1) + (0,) * (n - 2)
    assert peak < 16 << 20


def test_descent_memory_is_bounded_on_a_sparse_n18_pair():
    """Two domain sets a side at n = 18: the first step scans all 2^19 - 2
    moves, which as one int64 table would take 72 MiB, and the blocks and
    the cached one keep the peak at a few MiB. The end point is the
    reference's."""
    n = 18
    v1, v2 = [NEG_INF] * (1 << n), [NEG_INF] * (1 << n)
    v1[0], v1[1], v2[0], v2[1] = 0, 2, 0, -2
    f1, f2 = SetFn(n, v1), SetFn(n, v2)
    res, peak = _traced_peak(lambda: fenchel_gap(f1, f2))
    assert res.certified and res.attaining_q.entries == (2,) + (0,) * (n - 1)
    assert peak < 16 << 20
    args = _descent_args(f1, f2, None)
    assert _descend(*args) == ref_descend(*args)
