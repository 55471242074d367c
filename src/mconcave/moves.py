"""The array kernel of the multiple exchange: blocks of triples (X, Y, I)
as int64 mask arrays, and every move J inside Y \\ X of each, in the order
of ``submasks_by_size`` (by size, then by the lexicographic order of the
element tuple). Minus infinity is a number in every array here, the
``neg`` of ``encoding``, low enough that every exchange comparison with
it in a term fails; ``encoding`` also picks the narrowest exact dtype
(int16, int32, int64, then Python ints), for ``value_table`` and the
campaign's decider alike.

The triples and their moves depend on the domain alone, so ``moves``
gives masks, (X\\I) | J and (Y\\J) | I, and its callers gather the
values: ``multi_best`` and ``restriction_sides`` for one table, and
``exchange``, which keeps one domain's blocks of masks for the next
table on it (``exchange._domain_plan``) and builds the falsification
campaign's plan, once per n over the full cube, from the same blocks.
``exchange`` decides the multiple exchange, both bounds, from one gather
of f((X\\I) | J) + f((Y\\J) | I). Where its interval table of
``lemmas_2_8``'s restriction facts does not fit (n > 12), it reads them
from the same moves, where J = {} leaves them open.
A move set J is the canonical rank pattern of its
size m = |Y \\ X| with bit r moved to the r-th lowest set bit of Y \\ X,
which keeps the order: one int64 matrix product of those m bits with the
(m, moves) 0/1 bit matrix of the patterns, exact as each entry sums
distinct powers of two below 2^HARD_CAP (integer, so no BLAS). Every
function that enumerates takes ``budget``, the bytes that the arrays of
one block may take together (``exchange._BATCH_BYTES``), and blocks over
the triples, budget / _TRIPLE_BYTES of them enumerated or sampled, and
over the moves too when 2^m moves alone exceed it; ``multi_best`` reads
the blocks it is given.
"""

import functools
import math
import random

import numpy as np

from .core import _draws

# Bytes per triple of the arrays a block of triples makes on its way
# through ``moves``, besides its blocks of moves.
_TRIPLE_BYTES = 256


def encoding(m):
    """(neg, dtype) for values with |value| <= m: neg = -4m - 4 for minus
    infinity, and the narrowest of int16, int32 and int64 that holds
    2 * neg (m < 2^12, 2^28 and 2^60), else ``object``. A finite sum of two
    values is >= -2m and a sum with neg is <= -3m - 4; every compared side
    lies in [-5m - 4, 5m + 4] and every sum in [2 * neg, 2m], so none wraps."""
    neg = -4 * m - 4
    return neg, next((t for t in (np.int16, np.int32, np.int64) if 2 * neg >= np.iinfo(t).min),
                     object)


@functools.lru_cache(maxsize=1)
def value_table(f, budget):
    """f's exact table (``f.exact``) for the array kernels: (at, neg).
    ``at(masks)`` is f at an int64 array of masks, in the ``encoding`` of
    M = max |value|: f(X) - neg > b - f(Y) for every finite b, so
    f(X) - a <= b - f(Y) fails wherever a or b is ``neg``. ``neg`` is a
    read-only 0-d array of the table's dtype. The table is dense while it
    fits in ``budget``, else a sorted search over the domain. The last
    table's is cached, for the exchange suites of one instance."""
    dom = f.dom_masks
    fin = [f.exact[m] for m in dom]
    neg = np.array(*encoding(max(map(abs, fin))))
    neg.flags.writeable = False
    if neg.itemsize << f.n <= budget:
        table = np.full(1 << f.n, neg, dtype=neg.dtype)
        table[list(dom)] = fin
        return table.take, neg
    dm = np.array(dom, dtype=np.int64)
    fv = np.array(fin, dtype=neg.dtype)

    def at(masks):
        pos = np.minimum(np.searchsorted(dm, masks), len(dm) - 1)
        return np.where(dm[pos] == masks, fv[pos], neg)
    return at, neg


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
    """Ranks j0 .. j1 - 1 (below 2^m) of the submasks of (1 << m) - 1 in the
    order of ``submasks_by_size``: (bits, sizes) as int64 arrays, bits the
    0/1 matrix with m rows whose column w holds the bits of rank j0 + w."""
    first, starts = _rank_tables(m)
    rank = np.arange(j0, min(j1, 1 << m), dtype=np.int64)
    size = np.searchsorted(first, rank, side="right") - 1
    rank -= first[size]
    left = size.copy()
    bits = np.zeros((m, len(rank)), dtype=np.int64)
    for e in range(m):
        take = starts[e][left]
        bits[e] = hit = rank < take
        rank -= np.where(hit, 0, take)
        left -= hit
    return bits, size


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
    """All of ``ranked(m, ...)``, read-only."""
    out = ranked(m, 0, 1 << m)
    for a in out:
        a.setflags(write=False)
    return out


def moves(xm, ym, im, budget):
    """The moves J inside Y \\ X of the triples (X, Y, I), given as int64
    mask arrays, in the order of ``submasks_by_size``. Yields
    (rows, a, b, size, k) per block: ``rows`` indexes triples with one
    m = |Y \\ X|, and for a block of their moves the int64 masks
    a = (X\\I) | J and b = (Y\\J) | I have shape (len(rows), len(size));
    ``size`` holds the |J| of the block's moves and k the |I| of its
    triples. A triple's blocks come in the order of its moves. Nothing
    here reads f: the masks depend on the triples alone."""
    xb = xm & ~im
    yb = ym | im
    y0 = ym & ~xm
    m = np.bitwise_count(y0)
    k = np.bitwise_count(im)
    order = np.argsort(m, kind="stable")
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
            bits, size = by_size(mr) if width == 1 << mr else ranked(mr, j0, j0 + width)
            for t0 in range(0, len(rows), step):
                sub = rows[t0:t0 + step]
                # The m lowest set bits of each Y \ X; J sums those its pattern picks.
                y, low = y0[sub], np.empty((len(sub), mr), dtype=np.int64)
                for r in range(mr):
                    low[:, r] = y & -y
                    y = y ^ low[:, r]
                moved = low @ bits
                yield sub, xb[sub, None] ^ moved, yb[sub, None] ^ moved, size, k[sub]


def multi_best(at, neg, count, blocks):
    """The best move of each of ``count`` triples, from the blocks of
    ``moves`` over them: ((best, size) bounded, (best, size) unbounded),
    where best is the maximum of f((X\\I) | J) + f((Y\\J) | I) over J
    inside Y \\ X (with |J| <= |I| when bounded) and size the smallest |J|
    attaining it, which is the size ``_best_multi`` reports. One pass
    over the blocks gives both: a block's bounded pick is its unbounded one
    but in the rows where that has |J| > |I|, picked again from the same
    sums with the moves past |I| masked. A pick joins its best where it
    beats it, and moves come by size."""
    bests = [(np.full(count, neg), np.zeros(count, dtype=np.int64)) for _ in range(2)]
    for rows, a, b, size, k in blocks:
        s = at(a) + at(b)
        free = bound = _top(s)
        past = np.flatnonzero(size[free[1]] > k)
        if len(past):
            bound = [v.copy() for v in free]
            bound[0][past], bound[1][past] = _top(np.where(size <= k[past, None], s[past], neg))
        for (best, at_size), (top, pick) in zip(bests, (bound, free)):
            up = top > best[rows]
            best[rows[up]], at_size[rows[up]] = top[up], size[pick[up]]
    return bests


def _top(s):
    """The maximum of each row of s and its first position."""
    pick = s.argmax(axis=1)
    return s[np.arange(len(s)), pick], pick


def restriction_sides(at, neg, xm, ym, im, budget):
    """For each triple (X, Y, I), whether its restrictions have a nonempty
    domain: (x_side, x_side_sized, y_side), some finite f((X\\I) | J), some
    with |J| <= |I|, and some finite f((Y\\J) | I), over J inside Y \\ X."""
    sides = [np.zeros(len(xm), dtype=bool) for _ in range(3)]
    for rows, a, b, size, k in moves(xm, ym, im, budget):
        finite = at(a) != neg
        for side, hit in zip(sides, (finite, finite & (size <= k[:, None]), at(b) != neg)):
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
    getrandbits(n), drawn by ``core._draws`` from one ``random.Random(seed)``."""
    rng = random.Random(seed)
    runs = [(2, len(dm), len(dm).bit_length()), (1, 1 << n, n)]
    # A sample's three draws take at most 132 bytes while ``_draws`` runs
    # (108 as Python ints in its list, 24 in its int64 row), less than the
    # _TRIPLE_BYTES a triple of ``triples`` takes through ``moves``, so a
    # sampled block is as long as theirs.
    step = max(1, budget // _TRIPLE_BYTES)
    for start in range(0, samples, step):
        xy, bits = _draws(rng, min(step, samples - start), runs)
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
    step = max(1, budget // _TRIPLE_BYTES)
    for t0 in range(0, total, step):
        t = np.arange(t0, min(t0 + step, total), dtype=np.int64)
        p = np.searchsorted(ends, t, side="right")
        rank = t - (ends[p] - counts[p])
        yield p, rank, deposit(rank, d[p], n)
