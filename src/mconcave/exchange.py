"""Exchange-axiom decision procedures, witness finders, and the lifting
of a set function with mixed domain sizes to an equi-cardinal one.

All checkers enumerate bitmasks directly and return VerificationReports;
the single-exchange sweep runs batched in numpy, in the lex order below,
and ``_bulk_decide`` decides many small tables at once for the
falsification campaign.
Pairs (X, Y) with X or Y outside the effective domain satisfy every
exchange inequality vacuously (the left side is NEG_INF), so loops run
over dom x dom. Enumeration order and tie-breaking are fixed so that
reports and witnesses are reproducible byte for byte:

* single exchange: the drop option first, then swaps by ascending j;
* multiple exchange: candidate sets J by ascending size, then by
  lexicographic order of the element tuple;
* reported counterexamples are the first violation in lexicographic
  (X, Y, i) or (X, Y, I) order.

Sampled triples are the ``random.Random(seed)`` draws, replayed in bulk
by ``core._Replay`` with the scalar calls' values.
"""

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .core import (
    HARD_CAP,
    NEG_INF,
    Falsification,
    SetFn,
    _holds,
    _Replay,
    _require_int,
    elements_of,
    leq_for,
    mask_of,
    submasks_ascending,
    submasks_by_size,
)
from .reporting import failed_report, passed_report

# check_exc_multi runs exhaustively up to this ground-set size, sampled above.
EXHAUSTIVE_N_LIMIT = 7

DEFAULT_SAMPLES = 10_000

# Sampled multiple-exchange triples replayed at once.
_MULTI_CHUNK = 1024

# Bytes of the temporaries of one block of the single-exchange sweep, and
# of all the arrays of one block of the bulk decider.
_BATCH_BYTES = 1 << 19
# Int tables sweep in int64 while every |value| < 2^61, so every difference
# of two values, and every sentinel, fits in it.
_INT64_SAFE = 1 << 61

# Tables the bulk decider takes: int mode, a nonempty domain and every
# |value| < 2^60. NEG_INF becomes -2^62, so a finite sum of two values lies
# above _BULK_FLOOR = -2^61, any sum with NEG_INF below it, and two NEG_INFs
# add up to -2^63, the int64 minimum.
_BULK_SAFE = 1 << 60
_BULK_NEG = -(1 << 62)
_BULK_FLOOR = -(1 << 61)
# Single-exchange triples in the bulk gate's first block; each block is four
# times the last, and tables drop out after the block where they fail.
_BULK_FIRST = 32


@dataclass(frozen=True)
class ExchangeContext:
    """A triple (X, Y, I) with I inside X \\ Y, kept as bitmasks."""

    n: int
    x_mask: int
    y_mask: int
    i_mask: int

    @classmethod
    def make(cls, n, X, Y, I):
        xm = mask_of(X, n)
        ym = mask_of(Y, n)
        im = mask_of(I, n)
        if im & ~(xm & ~ym):
            raise ValueError("I must be a subset of X \\ Y")
        return cls(n, xm, ym, im)

    @property
    def c_mask(self):
        return self.x_mask & self.y_mask

    @property
    def x0_mask(self):
        return self.x_mask & ~self.y_mask

    @property
    def y0_mask(self):
        return self.y_mask & ~self.x_mask

    @property
    def X(self):
        return elements_of(self.x_mask)

    @property
    def Y(self):
        return elements_of(self.y_mask)

    @property
    def I(self):
        return elements_of(self.i_mask)


@dataclass(frozen=True)
class ExchangeWitness:
    """Certificate that an exchange inequality holds: lhs <= rhs.

    kind is "drop" (element removed, nothing taken), "swap" (one element
    exchanged; for augmenting witnesses the convention is X+j / Y-j), or
    "multi" (a set J exchanged against I). ``moved`` holds the elements
    taken from Y \\ X: () for drop, (j,) for swap, J for multi.
    """

    kind: str
    moved: tuple
    lhs: object
    rhs: object

    @property
    def j(self):
        if len(self.moved) != 1:
            raise ValueError(f"witness of kind {self.kind!r} has no single j")
        return self.moved[0]


def _require_nonempty_dom(f):
    if not f.dom_masks:
        raise ValueError("the effective domain is empty")


def _ext_or_none(v):
    return None if v is NEG_INF else v


# ---------------------------------------------------------------------------
# Single-element exchange.


def find_single_exchange(f, X, Y, i):
    """Best single-exchange move for (X, Y, i): the drop option
    f(X-i) + f(Y+i) against every swap f(X-i+j) + f(Y+i-j), j in Y \\ X.

    Returns the maximizing option as a witness when it attains at least
    f(X) + f(Y), else None. Ties prefer drop, then the smallest j.
    """
    xm = mask_of(X, f.n)
    ym = mask_of(Y, f.n)
    im = mask_of([i], f.n)
    if not (im & xm & ~ym):
        raise ValueError(f"i={i} must lie in X \\ Y")
    vals = f.values
    lhs = vals[xm] + vals[ym] if vals[xm] is not NEG_INF and vals[ym] is not NEG_INF else NEG_INF

    best = NEG_INF
    best_kind = "drop"
    best_moved = ()
    a = vals[xm ^ im]
    b = vals[ym | im]
    if a is not NEG_INF and b is not NEG_INF:
        best = a + b
    rest = ym & ~xm
    while rest:
        jb = rest & -rest
        rest ^= jb
        a = vals[(xm ^ im) | jb]
        if a is NEG_INF:
            continue
        b = vals[(ym | im) ^ jb]
        if b is NEG_INF:
            continue
        cand = a + b
        if best is NEG_INF or cand > best:
            best = cand
            best_kind = "swap"
            best_moved = (jb.bit_length(),)
    if lhs is NEG_INF or (best is not NEG_INF and leq_for(f.mode)(lhs, best)):
        return ExchangeWitness(best_kind, best_moved, lhs, best)
    return None


def _sweep_report(f, suite, instance_id, failing, triples):
    if failing is None:
        return passed_report(suite, instance_id, triples=triples)
    xm, ym, i = failing
    counter = {
        "X": list(elements_of(xm)),
        "Y": list(elements_of(ym)),
        "i": i,
        "lhs": _ext_or_none(f.values[xm] + f.values[ym]),
    }
    return failed_report(suite, instance_id, counter, triples=triples)


def _batched_sweep(f, drop):
    """The exhaustive single-exchange sweep over (X, Y, i) in lex order:
    each triple passes on the drop option (when ``drop``) or on some swap
    that attains f(X) + f(Y). Returns (failing, triples): the first
    (xm, ym, i) that does not, or None, and the count of triples through
    it (all of them on a PASS).

    The sweep runs move-major in numpy. For a move (i, j), X with i in X,
    j not in X and Y with i not in Y, j in Y, the inequality
    f(X) + f(Y) <= f(X-i+j) + f(Y+i-j) depends on X and on Y through one
    vector each, so it is tested for all such X and Y as one outer
    comparison; the drop (i, -) likewise. Element i takes the rows X
    containing i and the columns Y without it; its first failing (X, Y)
    in row-major order, taken over every i by (X, Y, i), is the first
    failing triple.
    """
    real = f.mode == "real"
    vals = f.values
    dom = f.dom_masks
    fin = [vals[m] for m in dom]
    # Unreachable options: NaN fails every real comparison; in int mode the
    # test is fx - a <= b - fy, which the sentinels +-blank always fail.
    # Ints with some |v| >= 2^61 run on Python ints, where a difference of
    # two values can pass +-2^62.
    if real:
        dtype, blank = np.float64, np.nan
    elif max(map(abs, fin)) < _INT64_SAFE:
        dtype, blank = np.int64, _INT64_SAFE << 1
    else:
        dtype, blank = object, math.inf
    dm = np.array(dom, dtype=np.int64)
    fv = np.array(fin, dtype=dtype)
    n = f.n

    def lookup(masks, valid):
        pos = np.minimum(np.searchsorted(dm, masks), len(dm) - 1)
        return pos, valid & (dm[pos] == masks)

    best = None
    for i in range(n):
        bi = 1 << i
        has_i = (dm & bi) != 0
        rows = np.flatnonzero(has_i)
        cols = np.flatnonzero(~has_i)
        if best is not None:
            rows = rows[rows <= best[0]]
        if not len(rows) or not len(cols):
            continue
        xr, yc = dm[rows], dm[cols]
        # One move per row: the swaps i -> j, then the drop as j = nothing.
        js = np.array([1 << k for k in range(n) if k != i] + [0] * drop, dtype=np.int64)
        js = js[:, None]
        xpos, xok = lookup((xr ^ bi) | js, (xr & js) == 0)
        ypos, yok = lookup((yc | bi) & ~js, (yc & js) == js)
        fx, fy = fv[rows], fv[cols]
        if real:
            a = np.where(xok, fv[xpos], blank)
            b = np.where(yok, fv[ypos], blank)
        else:
            a = np.where(xok, fx - fv[xpos], blank)
            b = np.where(yok, fv[ypos] - fy, -blank)
        moves = len(a)
        # Bytes per (move, X, Y) of a block: the int comparison's bools; in
        # real mode the sum rhs and up to three float temporaries of _holds.
        step = max(1, _BATCH_BYTES // max(1, moves * len(cols) * (32 if real else 1)))
        for r0 in range(0, len(rows), step):
            blk = slice(r0, r0 + step)
            if real:
                ok = _holds(fx[blk, None] + fy[None, :], a[:, blk, None] + b[:, None, :], "real")
            else:
                ok = a[:, blk, None] <= b[:, None, :]
            ok = ok.any(axis=0)
            if not ok.all():
                r, c = divmod(int(np.argmin(ok)), len(cols))
                cand = (int(rows[r0 + r]), int(cols[c]), i)
                if best is None or cand < best:
                    best = cand
                break

    # A row X holds |X \ Y| triples per column Y: the sum over k in X of
    # the count of domain sets without k.
    bits = (dm[:, None] >> np.arange(n)) & 1
    without = len(dom) - bits.sum(axis=0)
    if best is None:
        return None, int(bits.sum(axis=0) @ without)
    x, y, i = best
    xm, ym = dom[x], dom[y]
    triples = int(bits[:x].sum(axis=0) @ without)
    triples += sum((xm & ~t).bit_count() for t in dom[:y])
    triples += (xm & ~ym & ((1 << i) - 1)).bit_count() + 1
    return (xm, ym, i + 1), triples


def check_exc_single(f, instance_id=""):
    """Exhaustively test the single-element exchange inequality over all
    (X, Y, i); FAIL carries the first violating triple in lex order."""
    _require_nonempty_dom(f)
    return _sweep_report(f, "exc_single", instance_id, *_batched_sweep(f, True))


# ---------------------------------------------------------------------------
# Multiple exchange.


def _best_multi(vals, xm, ym, im, bounded):
    """Maximum of f((X\\I) | J) + f((Y\\J) | I) over J inside Y \\ X
    (capped at |I| when bounded), with the fixed tie order.

    Returns (best, best_jmask, best_size); best is NEG_INF when no J
    yields a finite sum.
    """
    xb = xm & ~im
    yb = ym | im
    bound = im.bit_count() if bounded else HARD_CAP
    best = NEG_INF
    best_j = 0
    best_size = -1
    for jm, size in submasks_by_size(ym & ~xm):
        if size > bound:
            break
        a = vals[xb | jm]
        if a is NEG_INF:
            continue
        b = vals[yb & ~jm]
        if b is NEG_INF:
            continue
        s = a + b
        if best is NEG_INF or s > best:
            best = s
            best_j = jm
            best_size = size
    return best, best_j, best_size


def find_multi_exchange(f, X, Y, I, bounded=True):
    """Best multiple-exchange move for (X, Y, I).

    Enumerates J inside Y \\ X (restricted to |J| <= |I| when bounded),
    maximizing f((X\\I) u J) + f((Y\\J) u I). Returns a "multi" witness
    when the maximum attains at least f(X) + f(Y), else None. Ties prefer
    the smallest |J|, then the lexicographically first element tuple.
    """
    ctx = ExchangeContext.make(f.n, X, Y, I)
    if f.values[ctx.x_mask] is NEG_INF or f.values[ctx.y_mask] is NEG_INF:
        raise ValueError("X and Y must lie in the effective domain")
    lhs = f.values[ctx.x_mask] + f.values[ctx.y_mask]
    best, best_j, _ = _best_multi(f.values, ctx.x_mask, ctx.y_mask, ctx.i_mask, bounded)
    if best is not NEG_INF and leq_for(f.mode)(lhs, best):
        return ExchangeWitness("multi", elements_of(best_j), lhs, best)
    return None


def check_exc_multi(f, bounded=True, *, samples=DEFAULT_SAMPLES, seed=0, instance_id=""):
    """Verify the multiple exchange inequality for all (X, Y, I):
    exhaustively up to n = EXHAUSTIVE_N_LIMIT, over ``samples`` seeded
    triples above.

    The report carries a histogram of witness sizes |J| and, on FAIL, the
    first violating triple encountered.
    """
    _require_nonempty_dom(f)
    _require_int("samples", samples, 1)
    if f.n <= EXHAUSTIVE_N_LIMIT:
        failing, counts, triples = _multi_pass_margin(f, bounded)
        regime, seed = "exhaustive", None
    else:
        failing, counts, triples = _sampled_multi(f, bounded, samples, seed)
        regime = "sampled"
    suite = "exc_multi_bounded" if bounded else "exc_multi_unbounded"
    hist = {size: c for size, c in enumerate(counts) if c}
    if failing is None:
        return passed_report(suite, instance_id, histogram=hist, triples=triples,
                             regime=regime, seed=seed)
    xm, ym, im = failing
    counter = {
        "X": list(elements_of(xm)),
        "Y": list(elements_of(ym)),
        "I": list(elements_of(im)),
        "lhs": _ext_or_none(f.values[xm] + f.values[ym]),
    }
    return failed_report(suite, instance_id, counter, histogram=hist,
                         triples=triples, regime=regime, seed=seed)


def _multi_pass_margin(f, bounded=True):
    """The exhaustive multiple-exchange loop over (X, Y, I) in lex order.

    Returns (failing, counts, triples): the first violating (xm, ym, im)
    or None, the histogram of witness sizes as a list (counts[k] passing
    triples had |J| = k), and the count of triples checked. (The name
    is the one the benchmark's trace point looks up.)
    """
    vals = f.values
    leq = leq_for(f.mode)
    dom = f.dom_masks
    counts = [0] * (f.n + 1)
    for xm in dom:
        fx = vals[xm]
        for ym in dom:
            lhs = fx + vals[ym]
            for im in submasks_ascending(xm & ~ym):
                best, _, size = _best_multi(vals, xm, ym, im, bounded)
                if best is NEG_INF or not leq(lhs, best):
                    return (xm, ym, im), counts, sum(counts) + 1
                counts[size] += 1
    return None, counts, sum(counts)


def _sampled_multi(f, bounded, samples, seed):
    """The sampled counterpart over ``samples`` seeded triples: returns
    (failing, counts, triples) as ``_multi_pass_margin`` does. Triple t is
    X, Y = dom[randrange(|dom|)] twice, then I = (X \\ Y) & getrandbits(n),
    replayed in chunks of ``_MULTI_CHUNK`` triples."""
    vals = f.values
    leq = leq_for(f.mode)
    dom = f.dom_masks
    ndom = len(dom)
    counts = [0] * (f.n + 1)
    replay = _Replay(random.Random(seed))
    runs = [(2, ndom, ndom.bit_length()), (1, 1 << f.n, f.n)]
    for start in range(0, samples, _MULTI_CHUNK):
        xy, bits = replay.take(min(_MULTI_CHUNK, samples - start), runs)
        for t, ((x, y), (b,)) in enumerate(zip(xy.tolist(), bits.tolist()), start):
            xm = dom[x]
            ym = dom[y]
            im = xm & ~ym & b
            best, _, size = _best_multi(vals, xm, ym, im, bounded)
            if best is NEG_INF or not leq(vals[xm] + vals[ym], best):
                return (xm, ym, im), counts, t + 1
            counts[size] += 1
    return None, counts, samples


# ---------------------------------------------------------------------------
# Many small tables at once: the single-exchange gate and the bounded
# multiple exchange of the falsification campaign.


@functools.cache
def _bulk_index(n):
    """Every bounded exchange triple (X, Y, I) over the full cube 2^n, as
    indices into the w * w pair sums f(A) + f(B) at A * w + B of a table
    row of w = 2^n + 1 entries: the 2^n values, then a NEG_INF column.

    Returns (mlhs, moves, starts, singles). Triple k has f(X) + f(Y) at
    mlhs[k], and its moves J with |J| <= |I| are the segment of ``moves``
    from starts[k] to the next start (or the end). The first ``singles``
    triples, in lex order, are those with |I| = 1: the single exchange,
    whose moves are the drop (J = {}) and the swaps (J = {j}). The others
    follow in lex order.
    """
    w = (1 << n) + 1
    triples = ([], [])  # (lhs, moves) with |I| = 1, then the others
    for xm in range(1 << n):
        for ym in range(1 << n):
            for im in submasks_ascending(xm & ~ym):
                k = im.bit_count()
                moves = [(xm & ~im | jm) * w + ((ym | im) & ~jm)
                         for jm, size in submasks_by_size(ym & ~xm) if size <= k]
                triples[k != 1].append((xm * w + ym, moves))
    ordered = triples[0] + triples[1]
    sizes = [len(moves) for _, moves in ordered]
    arrays = (
        np.array([lhs for lhs, _ in ordered], dtype=np.intp),
        np.array([m for _, moves in ordered for m in moves], dtype=np.intp),
        np.cumsum([0] + sizes[:-1], dtype=np.intp),
    )
    for a in arrays:
        a.setflags(write=False)
    return (*arrays, len(triples[0]))


def _bulk_decide(tables):
    """What the falsification campaign needs of each table, decided for
    the tables of each ground-set size at once: (passed, holds) with
    ``passed`` = ``check_exc_single(f).passed`` and, when it passes,
    ``holds`` = whether the bounded multiple exchange holds (False: a
    counterexample), else None. Only the best move of a triple counts, so
    no tie order is needed. Raises ValueError for a table outside the
    bulk arithmetic: not int mode, an empty domain, or some
    |value| >= _BULK_SAFE.
    """
    by_n = {}
    for k, f in enumerate(tables):
        fin = [v for v in f.values if v is not NEG_INF]
        if not (f.mode == "int" and fin and max(fin) < _BULK_SAFE and min(fin) > -_BULK_SAFE):
            raise ValueError(f"table {k} ({f!r}) is outside the bulk decider")
        at, rows = by_n.setdefault(f.n, ([], []))
        at.append(k)
        rows.append([_BULK_NEG if v is NEG_INF else v for v in f.values] + [_BULK_NEG])
    out = [None] * len(tables)
    for n, (at, rows) in by_n.items():
        index = _bulk_index(n)
        vals = np.array(rows, dtype=np.int64)
        passed = _bulk_gate(vals, *index)
        holds = iter(_bulk_multi(vals[passed], *index[:3]).tolist())
        for k, ok in zip(at, passed.tolist()):
            out[k] = (True, next(holds)) if ok else (False, None)
    return out


def _bulk_gate(vals, mlhs, moves, starts, singles):
    """Which rows of ``vals`` pass the single exchange, the first
    ``singles`` triples of the index: every triple with X and Y in the
    domain has a move >= f(X) + f(Y). Blocks of triples grow fourfold, and
    rows leave after the block where they fail; a block's arrays together
    stay under _BATCH_BYTES (a single-exchange triple has at most n
    moves)."""
    w = vals.shape[1]
    n = (w - 1).bit_length() - 1
    alive = np.arange(len(vals))
    start, block = 0, _BULK_FIRST
    while start < singles and len(alive):
        live = vals[alive]
        fit = max(1, _BATCH_BYTES // (8 * (2 * n + 3) * len(alive)))
        stop = min(start + block, start + fit, singles)
        lo, hi = starts[start], starts[stop]  # the |I| = 0 triples follow
        xa, xb = np.divmod(mlhs[start:stop], w)
        ma, mb = np.divmod(moves[lo:hi], w)
        lhs = live[:, xa] + live[:, xb]
        best = live[:, ma]
        best += live[:, mb]
        best = np.maximum.reduceat(best, starts[start:stop] - lo, axis=1)
        ok = (best >= lhs) | (lhs <= _BULK_FLOOR)
        alive = alive[ok.all(axis=1)]
        start, block = stop, block * 4
    passed = np.zeros(len(vals), dtype=bool)
    passed[alive] = True
    return passed


def _bulk_multi(vals, mlhs, moves, starts):
    """Which rows of ``vals`` pass the bounded multiple exchange: every
    triple with X and Y in the domain has a move >= f(X) + f(Y). A
    block's arrays together stay under _BATCH_BYTES."""
    holds = np.ones(len(vals), dtype=bool)
    w = vals.shape[1]
    step = max(1, _BATCH_BYTES // (8 * (w * w + len(moves) + 2 * len(mlhs))))
    for r0 in range(0, len(vals), step):
        blk = vals[r0:r0 + step]
        pairs = (blk[:, :, None] + blk[:, None, :]).reshape(len(blk), w * w)
        lhs = pairs[:, mlhs]
        best = np.maximum.reduceat(pairs[:, moves], starts, axis=1)
        holds[r0:r0 + step] = ((best >= lhs) | (lhs <= _BULK_FLOOR)).all(axis=1)
    return holds


# ---------------------------------------------------------------------------
# Equi-cardinal exchange (valuated-matroid style).


def check_m_concave(f, instance_id=""):
    """PASS iff the effective domain is equi-cardinal and for every
    X, Y in it and i in X \\ Y some j in Y \\ X satisfies
    f(X) + f(Y) <= f(X-i+j) + f(Y+i-j)."""
    _require_nonempty_dom(f)
    sizes = {m.bit_count() for m in f.dom_masks}
    if len(sizes) > 1:
        counter = {"reason": "domain not equi-cardinal",
                   "sizes": sorted(sizes)}
        return failed_report("m_concave", instance_id, counter)
    return _sweep_report(f, "m_concave", instance_id, *_batched_sweep(f, False))


# ---------------------------------------------------------------------------
# Size-comparison witnesses (swap at |X| <= |Y|, augment at |X| < |Y|).
# Both presuppose a function that already passed the single exchange
# check; suites gate them accordingly.


def exchange_leq(f, X, Y, i):
    """For |X| <= |Y| and i in X \\ Y, find the smallest j in Y \\ X with
    f(X) + f(Y) <= f(X-i+j) + f(Y+i-j). Never a drop witness; None when
    no j works (a falsification for exchange-valid input)."""
    xm = mask_of(X, f.n)
    ym = mask_of(Y, f.n)
    im = mask_of([i], f.n)
    if f.values[xm] is NEG_INF or f.values[ym] is NEG_INF:
        raise ValueError("X and Y must lie in the effective domain")
    if xm.bit_count() > ym.bit_count():
        raise ValueError("requires |X| <= |Y|")
    if not (im & xm & ~ym):
        raise ValueError(f"i={i} must lie in X \\ Y")
    return _first_swap(f, f.values[xm] + f.values[ym], xm ^ im, ym | im, ym & ~xm)


def augment_lt(f, X, Y):
    """For |X| < |Y|, find the smallest j in Y \\ X with
    f(X) + f(Y) <= f(X+j) + f(Y-j); witness uses the X+j / Y-j swap
    convention. None when no j works."""
    xm = mask_of(X, f.n)
    ym = mask_of(Y, f.n)
    if f.values[xm] is NEG_INF or f.values[ym] is NEG_INF:
        raise ValueError("X and Y must lie in the effective domain")
    if xm.bit_count() >= ym.bit_count():
        raise ValueError("requires |X| < |Y|")
    return _first_swap(f, f.values[xm] + f.values[ym], xm, ym, ym & ~xm)


def _first_swap(f, lhs, xb, yb, rest):
    """The first swap j in ``rest`` (by ascending j) with
    lhs <= f(xb + j) + f(yb - j), as a witness; None when no j works."""
    vals = f.values
    leq = leq_for(f.mode)
    while rest:
        jb = rest & -rest
        rest ^= jb
        a = vals[xb | jb]
        if a is NEG_INF:
            continue
        b = vals[yb ^ jb]
        if b is not NEG_INF and leq(lhs, a + b):
            return ExchangeWitness("swap", (jb.bit_length(),), lhs, a + b)
    return None


# ---------------------------------------------------------------------------
# Lifting to an equi-cardinal function with padding elements.


def lift(f):
    """Pad the ground set with r - s dummy elements (r, s the max and min
    domain sizes) and keep only subsets of size exactly r:

        lifted(Z) = f(Z & N) when |Z| = r, NEG_INF otherwise.

    The result has an equi-cardinal domain of size r.
    """
    _require_nonempty_dom(f)
    s, r = f.dom_size_range()
    nh = f.n + (r - s)
    if nh > HARD_CAP:
        raise ValueError(f"lifted ground-set size {nh} exceeds hard cap {HARD_CAP}")
    base = (1 << f.n) - 1
    vals = [NEG_INF] * (1 << nh)
    fvals = f.values
    for z in range(1 << nh):
        if z.bit_count() == r:
            vals[z] = fvals[z & base]
    return SetFn(nh, vals, f.mode)


def matroid_base_multi_exchange(m, X, Y, I):
    """Classical multiple exchange for matroid bases X, Y and I in X \\ Y:
    returns J inside Y \\ X with |J| = |I| such that (X\\I) u J and
    (Y\\J) u I are both bases.

    Implemented through the bounded multiple-exchange search on the
    indicator valuation of the basis family; failure to find J would
    falsify the classical theorem and raises Falsification.
    """
    ind = m.basis_indicator
    xm = mask_of(X, m.n)
    ym = mask_of(Y, m.n)
    if ind.values[xm] is NEG_INF or ind.values[ym] is NEG_INF:
        raise ValueError("X and Y must be bases")
    w = find_multi_exchange(ind, X, Y, I, bounded=True)
    if w is None:
        raise Falsification(
            f"no exchangeable subset for bases X={tuple(X)}, Y={tuple(Y)}, I={tuple(I)}"
        )
    return w.moved
