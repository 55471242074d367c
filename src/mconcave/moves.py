"""The array kernel of the multiple exchange: blocks of triples (X, Y, I)
as int64 mask arrays, and every move J inside Y \\ X of each, in the order
of ``submasks_by_size`` (by size, then by the lexicographic order of the
element tuple).

``exchange`` decides both bounds of the multiple exchange from one gather
of f((X\\I) | J) + f((Y\\J) | I), and reads the restriction facts of
``lemmas_2_8`` from the same moves. A move set J is the canonical rank
pattern of its size m = |Y \\ X| deposited onto the set bits of Y \\ X; the
deposit is monotone, so it keeps the order. Every function that allocates
takes ``budget``, the bytes that the arrays of one block may take together
(``exchange._BATCH_BYTES``), and blocks over the triples, and over the
moves too when 2^m moves alone exceed it.
"""

import functools
import math
import random

import numpy as np

from .core import NEG_INF, _holds, _Replay

# Int tables the array kernels hold in int64: every |value| < 2^60.
# NEG_INF becomes -2^62, so a finite sum of two values lies above
# _BULK_FLOOR = -2^61, any sum with NEG_INF below it, and two NEG_INFs add
# up to -2^63, the int64 minimum.
_BULK_SAFE = 1 << 60
_BULK_NEG = -(1 << 62)
_BULK_FLOOR = -(1 << 61)


def value_table(f, budget):
    """f for the array kernels: (at, neg, floor). ``at(masks)`` is f at an
    int64 array of masks, with NEG_INF as ``neg``, and a value, or a sum
    of two, is finite iff it is > ``floor``. Int tables use int64 with
    neg = _BULK_NEG and floor = _BULK_FLOOR while every |value| <
    _BULK_SAFE, and Python ints (``dtype=object``) above that, with
    neg = NEG_INF, which absorbs a sum without turning an int into a
    float; real tables use float64 with neg = -inf. On both, floor = -inf.
    ``neg`` is a 0-d array of the table's dtype. The table is dense while
    it fits in ``budget``, else a sorted search over the domain."""
    dom = f.dom_masks
    fin = [f.values[m] for m in dom]
    if f.mode == "real":
        dtype, floor, neg = np.float64, -math.inf, -math.inf
    elif max(map(abs, fin)) < _BULK_SAFE:
        dtype, floor, neg = np.int64, _BULK_FLOOR, _BULK_NEG
    else:
        dtype, floor, neg = object, -math.inf, NEG_INF
    neg = np.array(neg, dtype=dtype)
    if 8 << f.n <= budget:
        table = np.full(1 << f.n, neg, dtype=dtype)
        table[list(dom)] = fin
        return table.take, neg, floor
    dm = np.array(dom, dtype=np.int64)
    fv = np.array(fin, dtype=dtype)

    def at(masks):
        pos = np.minimum(np.searchsorted(dm, masks), len(dm) - 1)
        return np.where(dm[pos] == masks, fv[pos], neg)
    return at, neg, floor


def attains(lhs, rhs, floor, mode):
    """Elementwise: rhs is finite and lhs <= rhs, by ``leq_for(mode)``."""
    fin = rhs > floor
    return fin & _holds(lhs, np.where(fin, rhs, lhs), mode)


def deposit(idx, d, n):
    """Bit r of ``idx`` moved to the r-th lowest set bit of ``d``,
    elementwise with broadcasting: for idx < 2^|d|, the idx-th submask of
    d in ascending order. The deposit is monotone, so it keeps the order
    of idx."""
    out = np.zeros(np.broadcast_shapes(idx.shape, d.shape), dtype=np.int64)
    for b in range(n):
        has = (d >> b) & 1
        out |= (idx & has) << b
        idx = idx >> has
    return out


def ranked(m, j0, j1):
    """Ranks j0 .. j1 - 1 of the submasks of (1 << m) - 1 in the order of
    ``submasks_by_size``: (masks, sizes) as int64 arrays."""
    first, starts = _rank_tables(m)
    rank = np.arange(j0, j1, dtype=np.int64)
    size = np.searchsorted(first, rank, side="right") - 1
    rank -= first[size]
    left = size.copy()
    masks = np.zeros_like(rank)
    for e in range(m):
        take = starts[e][left]
        hit = rank < take
        masks |= hit.astype(np.int64) << e
        rank -= np.where(hit, 0, take)
        left -= hit
    return masks, size


@functools.cache
def _rank_tables(m):
    """For ``ranked``: the rank of the first submask of each size, and at
    [e, left] the count of sets of ``left`` elements from e .. m - 1 that
    start with e, comb(m - 1 - e, left - 1), 0 at left = 0."""
    first = np.cumsum([0] + [math.comb(m, s) for s in range(m + 1)])
    starts = np.array([[0] + [math.comb(m - 1 - e, k) for k in range(m)] for e in range(m)],
                      dtype=np.int64).reshape(m, m + 1)
    return first, starts


@functools.cache
def by_size(m):
    """All submasks of (1 << m) - 1 in the order of ``submasks_by_size``."""
    out = ranked(m, 0, 1 << m)
    for a in out:
        a.setflags(write=False)
    return out


def moves(at, xm, ym, im, n, budget):
    """The moves J inside Y \\ X of the triples (X, Y, I), given as int64
    mask arrays, in the order of ``submasks_by_size``. Yields
    (rows, a, b, size, k) per block: ``rows`` indexes triples with one
    m = |Y \\ X|, and for a block of their moves a = f((X\\I) | J) and
    b = f((Y\\J) | I) have shape (len(rows), len(size)); ``size`` holds the
    |J| of the block's moves and k the |I| of its triples. A triple's
    blocks come in the order of its moves."""
    xb = xm & ~im
    yb = ym | im
    y0 = ym & ~xm
    m = np.bitwise_count(y0)
    k = np.bitwise_count(im)
    # Triples by m, and by Y \ X within one m, so that a block deposits
    # each of its Y \ X once.
    order = np.argsort((m.astype(np.int64) << n) | y0)
    cuts = np.flatnonzero(np.diff(m[order])) + 1
    # Bytes per (triple, move) of the live int64 temporaries.
    fit = max(1, budget // 64)
    for rows in np.split(order, cuts):
        if not len(rows):
            continue
        mr = int(m[rows[0]])
        width = min(1 << mr, fit)
        step = max(1, fit // width)
        for j0 in range(0, 1 << mr, width):
            if width == 1 << mr:
                pattern, size = by_size(mr)
            else:
                pattern, size = ranked(mr, j0, min(j0 + width, 1 << mr))
            for t0 in range(0, len(rows), step):
                sub = rows[t0:t0 + step]
                fresh = np.diff(y0[sub], prepend=-1) != 0
                spread = deposit(pattern[None, :], y0[sub][fresh, None], n)
                moved = spread[np.cumsum(fresh) - 1]
                yield (sub, at(xb[sub, None] ^ moved), at(yb[sub, None] ^ moved),
                       size, k[sub])


def multi_best(at, neg, xm, ym, im, n, budget):
    """The best move of each triple: ((best, size) bounded, (best, size)
    unbounded), where best is the maximum of f((X\\I) | J) + f((Y\\J) | I)
    over J inside Y \\ X (with |J| <= |I| when bounded) and size the
    smallest |J| attaining it, which is the size ``_best_multi`` reports."""
    outs = [(np.full(len(xm), neg), np.zeros(len(xm), dtype=np.int64)) for _ in range(2)]
    for rows, a, b, size, k in moves(at, xm, ym, im, n, budget):
        s = a + b
        for (best, at_size), sums in zip(outs[::-1], (s, np.where(size <= k[:, None], s, neg))):
            pick = sums.argmax(axis=1)
            top = np.take_along_axis(sums, pick[:, None], axis=1)[:, 0]
            up = top > best[rows]
            best[rows[up]] = top[up]
            at_size[rows[up]] = size[pick[up]]
    return outs


def restriction_sides(at, floor, xm, ym, im, n, budget):
    """For each triple (X, Y, I), whether its restrictions have a nonempty
    domain: (x_side, x_side_sized, y_side), some finite f((X\\I) | J), some
    with |J| <= |I|, and some finite f((Y\\J) | I), over J inside Y \\ X."""
    sides = [np.zeros(len(xm), dtype=bool) for _ in range(3)]
    for rows, a, b, size, k in moves(at, xm, ym, im, n, budget):
        finite = a > floor
        for side, hit in zip(sides, (finite, finite & (size <= k[:, None]), b > floor)):
            side[rows] |= hit.any(axis=1)
    return sides


def exhaustive_triples(dm, n, budget):
    """Every triple (X, Y, I) with X, Y in the domain ``dm`` and I inside
    X \\ Y, in lex order, as blocks of (xm, ym, im) arrays."""
    for r0, r1, c0, c1 in pair_blocks(len(dm), max(1, budget // 64)):
        xm = np.repeat(dm[r0:r1], c1 - c0)
        ym = np.tile(dm[c0:c1], r1 - r0)
        for p, _, im in triples(xm & ~ym, n, budget):
            yield xm[p], ym[p], im


def sampled_triples(dm, n, samples, seed, budget):
    """``samples`` seeded triples in blocks of (xm, ym, im) arrays: triple t
    is X, Y = dm[randrange(|dom|)] twice, then I = (X \\ Y) &
    getrandbits(n), replayed from one ``random.Random(seed)``."""
    replay = _Replay(random.Random(seed))
    runs = [(2, len(dm), len(dm).bit_length()), (1, 1 << n, n)]
    # A sample takes at most five words (a randrange rejects fewer than
    # half of them), and the replay keeps about 64 bytes per word; the
    # block of triples takes the other half of the budget.
    step = max(1, budget // (2 * 5 * 64))
    for start in range(0, samples, step):
        xy, bits = replay.take(min(step, samples - start), runs)
        xm, ym = dm[xy[:, 0]], dm[xy[:, 1]]
        yield xm, ym, xm & ~ym & bits[:, 0]


def pair_blocks(size, lim):
    """The pairs of range(size)^2 in row-major order, in blocks of at most
    ``lim`` pairs (r0, r1, c0, c1): whole rows r0 .. r1 - 1, or a piece
    c0 .. c1 - 1 of row r0, so that a block's pairs in row-major order are
    rows[r0:r1] x cols[c0:c1]."""
    if size <= lim:
        for r0 in range(0, size, lim // size):
            yield r0, min(r0 + lim // size, size), 0, size
        return
    for r in range(size):
        for c0 in range(0, size, lim):
            yield r, r + 1, c0, min(c0 + lim, size)


def triples(d, n, budget):
    """Every (pair, I) with I inside d[pair], pairs in order and I
    ascending, in blocks of (pair, rank, im) arrays: ``rank`` is the
    position of I among the submasks of d[pair]."""
    counts = np.left_shift(1, np.bitwise_count(d).astype(np.int64))
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    # Bytes per triple of the arrays a block of triples makes on its way
    # through ``moves``, besides its blocks of moves.
    step = max(1, budget // 256)
    for t0 in range(0, total, step):
        t = np.arange(t0, min(t0 + step, total), dtype=np.int64)
        p = np.searchsorted(ends, t, side="right")
        rank = t - (ends[p] - counts[p])
        yield p, rank, deposit(rank, d[p], n)
