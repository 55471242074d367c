"""Exchange-axiom decision procedures, witness finders, and the lifting
of a set function with mixed domain sizes to an equi-cardinal one.

All checkers enumerate bitmasks directly and return VerificationReports.
The single exchange, its equi-cardinal form and the swap and augment
facts of ``lemmas_2_8`` are one batched sweep over exchange rules
(``_rule_sweep``), in the lex order below, on f as ``moves.value_table``
holds it; the multiple exchange (both bounds from one pass) and the
restriction facts of ``lemmas_2_8`` run on the array kernel of
``moves``; and ``_bulk_decide`` decides many small tables at once for the
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
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    HARD_CAP,
    NEG_INF,
    Falsification,
    SetFn,
    _require_int,
    elements_of,
    leq_for,
    mask_of,
    submasks_ascending,
    submasks_by_size,
)
from .moves import (
    _BULK_FLOOR,
    _BULK_NEG,
    _BULK_SAFE,
    attains,
    exhaustive_triples,
    multi_best,
    pair_blocks,
    restriction_sides,
    sampled_triples,
    triples,
    value_table,
)
from .reporting import failed_report, passed_report

# check_exc_multi runs exhaustively up to this ground-set size, sampled above.
EXHAUSTIVE_N_LIMIT = 7

DEFAULT_SAMPLES = 10_000

# Bytes of the temporaries of one block of the exchange sweep, and of all
# the arrays of one block of the bulk decider.
_BATCH_BYTES = 1 << 19

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


def _rule_sweep(f, rules):
    """The first (x, y, r) in lex order, x and y indices into
    ``f.dom_masks`` and r into ``rules``, where rule r applies to (X, Y)
    and none of its moves attains f(X) + f(Y); None when there is none.

    A rule (out, ins, sizes) applies where X holds the element bit ``out``
    (0: nothing leaves X), Y does not, and ``sizes(|X|, |Y|)`` holds
    (None: always). Its moves are the bits j in ``ins`` with j in Y \\ X,
    or j = 0, the drop; move j attains where
    f(X) + f(Y) <= f(X-out+j) + f(Y+out-j). Both sides of a move depend on
    X and on Y through one vector each, so a rule is decided for all its
    (X, Y) as one outer comparison, in blocks of rows whose temporaries
    stay under _BATCH_BYTES, and rows past the first failure so far are
    skipped.
    """
    at, neg, floor = value_table(f, _BATCH_BYTES)
    dm = np.array(f.dom_masks, dtype=np.int64)
    fv = at(dm)
    size = np.bitwise_count(dm)
    # int64 tables test f(X) - a <= b - f(Y), which a missing a or b
    # (neg = -2^62) always fails; Python ints and reals test the sums.
    diff = fv.dtype == np.int64
    best = None
    for r, (out, ins, sizes) in enumerate(rules):
        rows = np.flatnonzero(dm & out == out)
        cols = np.flatnonzero(dm & out == 0)
        if best is not None:
            rows = rows[rows <= best[0]]
        if not len(rows) or not len(cols):
            continue
        xr, yc = dm[rows], dm[cols]
        js = np.array(ins, dtype=np.int64)[:, None]
        a = np.where(xr & js == 0, at((xr ^ out) | js), neg)
        b = np.where(yc & js == js, at((yc | out) ^ js), neg)
        fx, fy = fv[rows], fv[cols]
        if diff:
            a, b = fx - a, b - fy
        # Bytes per (move, X, Y) of a block: the int64 comparison's bools,
        # else the sums and the temporaries of ``attains``.
        step = max(1, _BATCH_BYTES // max(1, len(js) * len(cols) * (1 if diff else 40)))
        for r0 in range(0, len(rows), step):
            blk = slice(r0, r0 + step)
            if diff:
                ok = a[:, blk, None] <= b[:, None, :]
            else:
                ok = attains(fx[blk, None] + fy, a[:, blk, None] + b[:, None, :], floor, f.mode)
            ok = ok.any(axis=0)
            if sizes is not None:
                ok |= ~sizes(size[rows[blk], None], size[cols])
            if not ok.all():
                x, y = divmod(int(np.argmin(ok)), len(cols))
                cand = (int(rows[r0 + x]), int(cols[y]), r)
                if best is None or cand < best:
                    best = cand
                break
    return best


def _swap_rules(n, sizes=None, drop=False):
    """Rule i of ``_rule_sweep`` for each element bit i: X gives up i, Y
    any other element, or nothing when ``drop``."""
    return [(1 << i, [1 << j for j in range(n) if j != i] + [0] * drop, sizes)
            for i in range(n)]


def _single_sweep(f, drop):
    """The exhaustive single-exchange sweep over (X, Y, i) in lex order:
    each triple passes on the drop option (when ``drop``) or on some swap
    that attains f(X) + f(Y). Returns (failing, triples): the first
    (xm, ym, i) that does not, or None, and the count of triples through
    it (all of them on a PASS)."""
    n = f.n
    dom = f.dom_masks
    best = _rule_sweep(f, _swap_rules(n, drop=drop))
    # A row X holds |X \ Y| triples per column Y: the sum over k in X of
    # the count of domain sets without k.
    bits = (np.array(dom, dtype=np.int64)[:, None] >> np.arange(n)) & 1
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
    return _sweep_report(f, "exc_single", instance_id, *_single_sweep(f, True))


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
    return exc_multi_reports(f, samples=samples, seed=seed, instance_id=instance_id)[bounded]


def exc_multi_reports(f, *, samples=DEFAULT_SAMPLES, seed=0, instance_id=""):
    """``check_exc_multi`` for both bounds from one pass over the triples:
    {True: the bounded report, False: the unbounded one}."""
    _require_nonempty_dom(f)
    _require_int("samples", samples, 1)
    if f.n <= EXHAUSTIVE_N_LIMIT:
        regime, samples, seed = "exhaustive", None, None
    else:
        regime = "sampled"
    reports = {}
    for bounded, (failing, counts, triples) in _multi_pass_margin(f, samples, seed).items():
        suite = "exc_multi_bounded" if bounded else "exc_multi_unbounded"
        hist = {size: c for size, c in enumerate(counts) if c}
        if failing is None:
            reports[bounded] = passed_report(suite, instance_id, histogram=hist,
                                             triples=triples, regime=regime, seed=seed)
            continue
        xm, ym, im = failing
        counter = {
            "X": list(elements_of(xm)),
            "Y": list(elements_of(ym)),
            "I": list(elements_of(im)),
            "lhs": _ext_or_none(f.values[xm] + f.values[ym]),
        }
        reports[bounded] = failed_report(suite, instance_id, counter, histogram=hist,
                                         triples=triples, regime=regime, seed=seed)
    return reports


def _multi_pass_margin(f, samples=None, seed=None):
    """Both multiple-exchange passes over the triples (X, Y, I) at once:
    all of them in lex order when ``samples`` is None, else ``samples``
    triples drawn from ``seed``.

    Returns {bounded: (failing, counts, triples)} for bounded True and
    False: the first violating (xm, ym, im) or None, the histogram of
    witness sizes as a list (counts[k] passing triples had |J| = k), and
    the count of triples checked. The bounded best is at most the
    unbounded one, so the bounded FAIL never comes later, and the pass
    stops at the unbounded FAIL. (The name is the one the benchmark's
    trace point looks up.)
    """
    n = f.n
    at, neg, floor = value_table(f, _BATCH_BYTES)
    dm = np.array(f.dom_masks, dtype=np.int64)
    if samples is None:
        blocks = exhaustive_triples(dm, n, _BATCH_BYTES)
    else:
        blocks = sampled_triples(dm, n, samples, seed, _BATCH_BYTES)
    counts = {True: np.zeros(n + 1, dtype=np.int64), False: np.zeros(n + 1, dtype=np.int64)}
    out = {}
    seen = 0
    for xm, ym, im in blocks:
        lhs = at(xm) + at(ym)
        bests = multi_best(at, neg, xm, ym, im, n, _BATCH_BYTES)
        for bounded, (best, size) in zip((True, False), bests):
            if bounded in out:
                continue
            fail = ~attains(lhs, best, floor, f.mode)
            t = int(fail.argmax()) if fail.any() else len(fail)
            counts[bounded] += np.bincount(size[:t], minlength=n + 1)
            if t < len(fail):
                out[bounded] = ((int(xm[t]), int(ym[t]), int(im[t])),
                                counts[bounded].tolist(), seen + t + 1)
        seen += len(xm)
        if False in out:
            break
    for bounded in (True, False):
        out.setdefault(bounded, (None, counts[bounded].tolist(), seen))
    return out


def _lemma_facts(f):
    """The facts the proof uses, on every (X, Y) in dom x dom in row-major
    order: a swap for each i in X \\ Y by ascending i when |X| <= |Y|, an
    augmenting swap when |X| < |Y|, then nonempty restrictions for each I
    inside X \\ Y in ascending order. A pair holds
    [|X| <= |Y|] * |X \\ Y| + [|X| < |Y|] + 2^|X \\ Y| facts.

    Returns (counter, checked): the counterexample of the first fact that
    fails, or None, and the count of facts through it (all of them when
    none fails). The swap and augment facts are rules of ``_rule_sweep``;
    the restriction facts, checked on the pairs before its first failure,
    read which sides of a triple's moves are finite from ``moves.moves``.
    """
    n = f.n
    dom = f.dom_masks
    failing = _rule_sweep(f, _swap_rules(n, operator.le)
                          + [(0, [1 << j for j in range(n)], operator.lt)])
    at, _, floor = value_table(f, _BATCH_BYTES)
    dm = np.array(dom, dtype=np.int64)
    stop = len(dm) ** 2 if failing is None else failing[0] * len(dm) + failing[1]
    checked = 0
    # About 64 bytes per pair, a quarter of the budget; ``triples`` and
    # ``restriction_sides`` block the rest.
    for r0, r1, c0, c1 in pair_blocks(len(dm), max(1, _BATCH_BYTES // 256)):
        cut = stop - (r0 * len(dm) + c0)
        if cut <= 0:
            break
        xs = np.repeat(dm[r0:r1], c1 - c0)[:cut]
        ys = np.tile(dm[c0:c1], r1 - r0)[:cut]
        kx, ky = np.bitwise_count(xs), np.bitwise_count(ys)
        d = xs & ~ys
        nd = np.bitwise_count(d).astype(np.int64)
        head = (kx <= ky) * nd + (kx < ky)  # the swap and augment facts
        facts = head + (1 << nd)
        for p, rank, im in triples(d, n, _BATCH_BYTES):
            x_side, x_sized, y_side = restriction_sides(at, floor, xs[p], ys[p], im, n,
                                                        _BATCH_BYTES)
            empty = ~(x_sized & y_side)
            if empty.any():
                t = int(empty.argmax())
                q, im = int(p[t]), int(im[t])
                name = ("x_side" if not x_side[t] else "x_side_sized" if not x_sized[t]
                        else "y_side")
                checked += int(facts[:q].sum() + head[q] + rank[t]) + 1
                return {"X": list(elements_of(int(xs[q]))), "Y": list(elements_of(int(ys[q]))),
                        "fact": "restriction_domains_nonempty", "I": list(elements_of(im)),
                        "detail": _empty_side(name, int(xs[q]), int(ys[q]), im)}, checked
        checked += int(facts.sum())
    if failing is None:
        return None, checked
    x, y, r = failing
    xm, ym = dom[x], dom[y]
    if r < n:
        fact = {"fact": "swap_at_leq_size", "i": r + 1}
        checked += (xm & ~ym & ((1 << r) - 1)).bit_count()
    else:
        fact = {"fact": "augment_at_lt_size"}
        checked += (xm & ~ym).bit_count()
    return {"X": list(elements_of(xm)), "Y": list(elements_of(ym)), **fact}, checked + 1


def _empty_side(name, xm, ym, im):
    """The message that restriction ``name`` of (X, Y, I) has an empty
    domain."""
    return (f"{name} restriction has empty domain for X={elements_of(xm)}, "
            f"Y={elements_of(ym)}, I={elements_of(im)}")


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
    return _sweep_report(f, "m_concave", instance_id, *_single_sweep(f, False))


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
