"""Exchange-axiom decision procedures, witness finders, and the lifting
of a set function with mixed domain sizes to an equi-cardinal one.

Checkers return VerificationReports. One batched sweep
(``_exchange_sweep``), in the lex order below, on f as
``moves.value_table`` holds it, gives two verdicts: the single exchange,
which on an equi-cardinal domain is its drop-free form, and the swap and
augment facts of ``lemmas_2_8``. The equi-cardinal exchange of the lift,
decided on f (``_lift_sweep``), is their AND; the last table's sweep is
kept (``_sweeps``), as are its multiple-exchange reports
(``exc_multi_reports``). The restriction facts of ``lemmas_2_8``
depend on the domain alone: one lookup per pair in a table
of least domain-set sizes over the intervals of the cube
(``_least_sizes``) while its 4^n bytes fit _INTERVAL_BYTES. The triples
(X, Y, I) and their moves J have one enumeration, the array kernel of
``moves``: the multiple exchange (both bounds from one pass) and, above
that size, the restriction facts read its blocks for one table, and
``_bulk_decide`` decides many small value rows of the falsification
campaign at once on the masks of its blocks over the full cube 2^n
(``_bulk_plan``, one per n). Of this work only the gathers of f at X, Y,
(X\\I) | J and (Y\\J) | I read the values: the triples, the masks of
their moves and the restriction facts depend on dom f alone. So the last
domain keeps (``_domain_plan``) its exhaustive triples with their move
masks where those arrays fit _BATCH_BYTES (every repeated domain of the
default corpus; above, they stream as they are built, and sampled
triples are never kept), and its restriction scan where the sweep
reports no failing fact; the next table on the domain reads them.
``_best_multi`` is the scalar search of one triple, for the witness
finders.
Every decision reads ``f.exact``, the int table D * f, and compares
with ``<=``; counterexamples and witnesses show values through
``core.shown``.
Pairs (X, Y) with X or Y outside the effective domain satisfy every
exchange inequality vacuously (the left side is NEG_INF), so loops run
over dom x dom. Enumeration order and tie-breaking are fixed so that
reports and witnesses are reproducible byte for byte:

* single exchange: the drop option first, then swaps by ascending j;
* multiple exchange: candidate sets J by ascending size, then by
  lexicographic order of the element tuple;
* reported counterexamples are the first violation in lexicographic
  (X, Y, i) or (X, Y, I) order.

Sampled triples are the ``random.Random(seed)`` draws, taken by
``core._draws`` from ``getrandbits`` with the scalar calls' values.
"""

import functools
import math
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .core import (
    HARD_CAP,
    NEG_INF,
    SetFn,
    _require_int,
    elements_of,
    mask_of,
    shown,
    submasks_by_size,
)
from .moves import (
    deposit,
    encoding,
    exhaustive_triples,
    moves,
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
# the arrays of one piece of the bulk decider.
_BATCH_BYTES = 1 << 19

# Bytes of the interval table of ``_lemma_facts``, one int8 per entry: its
# 4^n entries fit up to n = 12. Above, the restriction facts read the moves.
_INTERVAL_BYTES = 1 << 24

# The bulk decider's bound on |value|: its ``moves.encoding`` is at most int64.
_BULK_SAFE = 1 << 60


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
    def y0_mask(self):
        return self.y_mask & ~self.x_mask


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
    vals = f.exact
    lhs = vals[xm] + vals[ym]
    # The drop and the swaps are the moves J = {} and J = {j} of I = {i}.
    best, best_j, _ = _best_multi(vals, xm, ym, im, True)
    if lhs is NEG_INF or (best is not NEG_INF and lhs <= best):
        return ExchangeWitness("swap" if best_j else "drop", elements_of(best_j),
                               shown(f, lhs), shown(f, best))
    return None


def _sweep_report(f, suite, instance_id, failing, triples):
    if failing is None:
        return passed_report(suite, instance_id, triples=triples)
    xm, ym, i = failing
    # Masks of lift(f) carry padding bits above n; lift(f)(Z) = f(Z & N).
    base = (1 << f.n) - 1
    counter = {
        "X": list(elements_of(xm)),
        "Y": list(elements_of(ym)),
        "i": i,
        "lhs": _ext_or_none(shown(f, f.exact[xm & base] + f.exact[ym & base])),
    }
    return failed_report(suite, instance_id, counter, triples=triples)


def _exchange_sweep(f, order=None):
    """[single, facts]: the first (x, y, r) in lex order where each
    verdict fails, or None, both read from one set of comparisons. x and y
    index the domain sets that ``order`` picks from ``f.dom_masks``
    (default: all of them, ascending).

    Rule r < n has X give up element bit r where Y does not hold it, rule
    n (the augment X + j, Y - j) nothing; move j in Y \\ X attains where
    f(X) + f(Y) <= f(X-r+j) + f(Y+r-j). The single verdict holds rule
    r < n where a move or the drop, the move of nothing, attains; the
    facts verdict, the swap and augment facts of ``lemmas_2_8``, holds
    rule r where a move attains or |X| + [r = n] > |Y|. A move's sides
    depend on X and on Y through one vector each: the Y sides are built
    once per chunk of as many rules as fit _BATCH_BYTES at n + 3 bools per
    (rule, X, Y), else of one rule on the rows and columns it applies to,
    and the X sides per block of rows, compared one move at a time, so
    that one sweep stays within twice the budget. Rows past the first
    failure so far of every verdict are skipped. Where a rule does not
    apply, its X side is ``low``, below every compared side
    (``moves.encoding``), or its Y side -low, above every one: it holds.
    """
    n = f.n
    at, neg = value_table(f, _BATCH_BYTES)
    dm = np.array(f.dom_masks, dtype=np.int64)
    if order is not None:
        dm = dm[order]
    fv = at(dm)
    size = np.bitwise_count(dm)
    low = np.array(5 * int(neg) // 4 - 1, dtype=neg.dtype)
    width = max(1, _BATCH_BYTES // ((n + 3) * len(dm) ** 2))
    js = np.append(np.left_shift(1, np.arange(n, dtype=np.int64)), 0)[:, None, None]  # drop: 0
    best = [None, None]
    for c0 in range(0, n + 1, width):
        rule = np.arange(c0, min(c0 + width, n + 1))
        out = np.where(rule < n, np.left_shift(1, rule), 0)[:, None]
        xin, yout = dm & out == out, dm & out == 0  # where each rule applies
        live = [0, 1] if c0 < n else [1]  # the augment is the facts' alone
        rows, cols = np.flatnonzero(xin.any(axis=0)), np.flatnonzero(yout.any(axis=0))
        if all(best[k] is not None for k in live):
            rows = rows[rows <= max(best[k][0] for k in live)]
        xin, yout = xin[:, rows], yout[:, cols]
        # f(X) - a <= b - f(Y), which fails wherever a or b is neg. The Y
        # sides go in groups of moves, their int64 masks in a quarter budget.
        b = np.empty((n + 1, len(rule), 1, len(cols)), dtype=neg.dtype)
        group = max(1, _BATCH_BYTES // (128 * len(rule) * max(1, len(cols))))
        for j0 in range(0, n + 1, group):
            jb = js[j0:j0 + group]
            b[j0:j0 + group, :, 0] = np.where(yout, np.where(dm[cols] & jb == jb,
                                                             at((dm[cols] | out) ^ jb), neg)
                                              - fv[cols], -low)
        kx, ky = size[rows] + (rule == n)[:, None], size[cols]
        # A block takes four bools per (rule, X, Y). No row holding j attains
        # move j, so it compares the moves not all its rows hold; the full
        # set alone compares all, as a rule holds where it does not apply.
        step = max(1, _BATCH_BYTES // (len(rule) * 4 * max(1, len(cols))))
        held = np.bitwise_and.reduceat(dm[rows], np.arange(0, len(rows), step)).tolist()
        for r0 in range(0, len(rows), step):
            blk = slice(r0, r0 + step)
            xs = dm[rows[blk]]
            moved = np.where(xs & js == 0, at((xs ^ out) | js), neg)
            a = np.where(xin[:, blk], fv[rows[blk]] - moved, low)[..., None]
            ok = np.zeros((len(rule), len(xs), len(cols)), dtype=bool)
            for j in [j for j in range(n) if not held[r0 // step] >> j & 1] or range(n):
                ok |= a[j] <= b[j]
            for k in list(live):
                holds = a[n] <= b[n] if k == 0 else kx[:, blk, None] > ky
                holds |= ok
                if not holds.all():
                    bad = holds.transpose(1, 2, 0)  # lex order (x, y, rule)
                    x, y, q = np.unravel_index(np.argmin(bad), bad.shape)
                    cand = (int(rows[r0 + x]), int(cols[y]), int(rule[q]))
                    if best[k] is None or cand < best[k]:
                        best[k] = cand
                    live.remove(k)
            if not live:
                break
    return best


def _sweep_count(f, best, dm=None, a=None, t=0):
    """(failing, triples) of a single-exchange sweep in lex order whose
    first failure ``_exchange_sweep`` gave as ``best`` (x, y, r), or None: the
    failing (xm, ym, i) and the count of triples through it, all of them
    for None.

    The swept sets are those of f's lift with ``t`` pads (bits
    n .. n + t - 1): domain set ``dm[x]`` stands for the C(t, a[x]) sets
    X u P, P any a[x] of the pads, and ``dm`` goes in their order of the
    numbers (P, X); the defaults, f's domain and no pads, sweep f itself.
    Rule r < n fails at i = r + 1 in X \\ Y, the augment r = n at the
    first pad of P \\ Q, with P and Q the lowest pads. A lifted set holds
    |Zx \\ Zy| triples per column, so an element k adds L - c_k per row
    that holds it, with L the lifted domain's size and c_k the count of
    its sets that hold k.
    """
    n = f.n
    if dm is None:
        dm = np.array(f.dom_masks, dtype=np.int64)
        a = np.zeros(len(dm), dtype=np.int64)
    # X stands for C(t, a) lifted sets, C(t - 1, a - 1) of them with a given pad.
    sets = np.array([math.comb(t, k) for k in range(t + 1)], dtype=np.int64)[a]
    size = int(sets.sum())
    bits = (dm[:, None] >> np.arange(n)) & 1
    c = sets @ bits  # c_k of each element of N
    cp = int(np.array([0] + [math.comb(t - 1, k) for k in range(t)])[a].sum())  # c_k of a pad
    total = int(c @ (size - c)) + t * cp * (size - cp)
    if best is None:
        return None, total
    x, y, rule = best
    xm, ym, ax, by = int(dm[x]), int(dm[y]), int(a[x]), int(a[y])
    rows = bits @ (size - c) + a * (size - cp)  # the triples of each X u P
    cols = np.bitwise_count(xm & ~dm).astype(np.int64)  # |X \ Y| per Y
    starts = np.searchsorted(a, np.arange(t + 2)).tolist()
    # Rows before: P below the lowest ax pads, any subset of them but all.
    triples = sum(math.comb(ax, k) * int(rows[starts[k]:starts[k + 1]].sum())
                  for k in range(ax))
    triples += int(rows[starts[ax]:x].sum())
    # Columns before, each Y u Q holding |X \ Y| + |P \ Q| of the triples.
    low = min(ax, by)
    for k in range(by):
        span = slice(starts[k], starts[k + 1])
        triples += math.comb(by, k) * int(cols[span].sum())
        triples += (span.stop - span.start) * (ax * math.comb(by, k)
                                               - low * (math.comb(by - 1, k - 1) if k else 0))
    triples += int(cols[starts[by]:y].sum()) + (y - starts[by]) * max(0, ax - by)
    # The triples of the pair before rule r: those of X \ Y below r.
    triples += (xm & ~ym & ((1 << rule) - 1)).bit_count() + 1
    i = rule + 1 if rule < n else n + by + 1
    return (xm | ((1 << ax) - 1) << n, ym | ((1 << by) - 1) << n, i), triples


@functools.lru_cache(maxsize=1)
def _sweeps(f):
    """((failing, triples) of the single exchange, the first failing swap or
    augment fact of ``lemmas_2_8``) of the last table, from one sweep."""
    _require_nonempty_dom(f)
    single, facts = _exchange_sweep(f)
    return _sweep_count(f, single), facts


def check_exc_single(f, instance_id=""):
    """Exhaustively test the single-element exchange inequality over all
    (X, Y, i); FAIL carries the first violating triple in lex order."""
    return _sweep_report(f, "exc_single", instance_id, *_sweeps(f)[0])


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
    vals = f.exact
    if vals[ctx.x_mask] is NEG_INF or vals[ctx.y_mask] is NEG_INF:
        raise ValueError("X and Y must lie in the effective domain")
    lhs = vals[ctx.x_mask] + vals[ctx.y_mask]
    best, best_j, _ = _best_multi(vals, ctx.x_mask, ctx.y_mask, ctx.i_mask, bounded)
    if best is not NEG_INF and lhs <= best:
        return ExchangeWitness("multi", elements_of(best_j), shown(f, lhs), shown(f, best))
    return None


def check_exc_multi(f, bounded=True, *, samples=DEFAULT_SAMPLES, seed=0, instance_id=""):
    """Verify the multiple exchange inequality for all (X, Y, I):
    exhaustively up to n = EXHAUSTIVE_N_LIMIT, over ``samples`` seeded
    triples above.

    The report carries a histogram of witness sizes |J| and, on FAIL, the
    first violating triple encountered.
    """
    return exc_multi_reports(f, samples=samples, seed=seed, instance_id=instance_id)[bounded]


@functools.lru_cache(maxsize=1)
def exc_multi_reports(f, *, samples=DEFAULT_SAMPLES, seed=0, instance_id=""):
    """``check_exc_multi`` for both bounds from one pass over the triples, as
    a read-only {True: the bounded report, False: the unbounded one}, kept
    for the last call so that the two bounds of one table share the pass."""
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
            "lhs": _ext_or_none(shown(f, f.exact[xm] + f.exact[ym])),
        }
        reports[bounded] = failed_report(suite, instance_id, counter, histogram=hist,
                                         triples=triples, regime=regime, seed=seed)
    return MappingProxyType(reports)


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
    at, neg = value_table(f, _BATCH_BYTES)
    if samples is None:
        blocks = _exhaustive_plan(f)
    else:
        dm = np.array(f.dom_masks, dtype=np.int64)
        blocks = ((xm, ym, im, moves(xm, ym, im, _BATCH_BYTES))
                  for xm, ym, im in sampled_triples(dm, n, samples, seed, _BATCH_BYTES))
    counts = {True: np.zeros(n + 1, dtype=np.int64), False: np.zeros(n + 1, dtype=np.int64)}
    out = {}
    seen = 0
    for xm, ym, im, mv in blocks:
        lhs = at(xm) + at(ym)
        bests = multi_best(at, neg, len(xm), mv)
        for bounded, (best, size) in zip((True, False), bests):
            if bounded in out:
                continue
            # lhs is finite (X, Y lie in the domain): a best with neg fails.
            fail = lhs > best
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


@functools.lru_cache(maxsize=1)
def _domain_plan(n, dom):
    """What the exchange suites read of the domain ``dom`` (f.dom_masks)
    alone, kept for the last domain: a dict that gets, once computed,
    "triples", the blocks of ``_exhaustive_plan``, and "facts", the
    restriction scan of ``_lemma_facts`` over every pair."""
    return {}


def _exhaustive_plan(f):
    """Every triple (X, Y, I) of f's domain in lex order with its moves, as
    blocks (xm, ym, im, moves): ``moves.exhaustive_triples`` and, for each
    block, the blocks of ``moves.moves``. Where the plan's arrays, at most
    40 bytes a triple and 16 a move, fit _BATCH_BYTES, it is built whole,
    kept read-only in ``_domain_plan`` and read from there by the next
    table on the domain; else its blocks stream as they are built."""
    plan = _domain_plan(f.n, f.dom_masks)
    if "triples" in plan:
        return plan["triples"]
    dm = np.array(f.dom_masks, dtype=np.int64)
    blocks = ((xm, ym, im, moves(xm, ym, im, _BATCH_BYTES))
              for xm, ym, im in exhaustive_triples(dm, f.n, _BATCH_BYTES))
    # 2^|X \ Y| triples a pair, and 2^|Y \ X| moves each.
    n_triples, n_moves = (np.left_shift(1, np.bitwise_count(d), dtype=np.int64).sum()
                          for d in (dm[:, None] & ~dm, dm[:, None] ^ dm))
    if 40 * n_triples + 16 * n_moves > _BATCH_BYTES:
        return blocks
    plan["triples"] = tuple((xm, ym, im, tuple(mv)) for xm, ym, im, mv in blocks)
    for xm, ym, im, mv in plan["triples"]:
        for arr in (xm, ym, im, *(a for block in mv for a in block)):
            arr.setflags(write=False)
    return plan["triples"]


def _lemma_facts(f, failing):
    """The facts the proof uses, on every (X, Y) in dom x dom in row-major
    order: a swap for each i in X \\ Y by ascending i when |X| <= |Y|, an
    augmenting swap when |X| < |Y|, then nonempty restrictions for each I
    inside X \\ Y in ascending order. A pair holds
    [|X| <= |Y|] * |X \\ Y| + [|X| < |Y|] + 2^|X \\ Y| facts.

    Returns (counter, checked): the counterexample of the first fact that
    fails, or None, and the count of facts through it (all of them when
    none fails). The swap and augment facts are rules of
    ``_exchange_sweep``, whose first failure (or None) ``failing`` gives.
    The restriction facts, checked on the pairs before it, depend on the
    domain alone (``_restriction_scan``); where ``failing`` is None, their
    scan covers every pair and is kept in ``_domain_plan``.
    """
    parts = _domain_plan(f.n, f.dom_masks)
    scan = parts.get("facts") if failing is None else None
    if scan is None:
        scan = _restriction_scan(f, failing)
        if failing is None:
            parts["facts"] = scan
    hit, checked = scan
    if hit is not None:
        xm, ym, im, side = hit
        return {"X": list(elements_of(xm)), "Y": list(elements_of(ym)),
                "fact": "restriction_domains_nonempty", "I": list(elements_of(im)),
                "detail": _empty_side(side, xm, ym, im)}, checked
    if failing is None:
        return None, checked
    x, y, r = failing
    xm, ym = f.dom_masks[x], f.dom_masks[y]
    fact = {"fact": "swap_at_leq_size", "i": r + 1} if r < f.n else {"fact": "augment_at_lt_size"}
    # The facts of the pair before rule r: the swaps of X \ Y below r.
    checked += (xm & ~ym & ((1 << r) - 1)).bit_count()
    return {"X": list(elements_of(xm)), "Y": list(elements_of(ym)), **fact}, checked + 1


def _restriction_scan(f, failing):
    """(hit, checked) of the restriction facts of ``_lemma_facts`` on the
    pairs before ``failing`` (all of them for None): hit the first failing
    one as (xm, ym, im, side), or None, and checked the count of facts
    through it, or of all the pairs' facts. They ask for domain sets in
    intervals of the cube: one lookup per pair in the table of
    ``_least_sizes`` while its 4^n entries fit _INTERVAL_BYTES
    (``_interval_first``), else the moves of ``moves.moves``
    (``_moves_first``).
    """
    n = f.n
    dm = np.array(f.dom_masks, dtype=np.int64)
    if 4 ** n <= _INTERVAL_BYTES:
        first = functools.partial(_interval_first, *_least_sizes(n, dm), n)
    else:
        first = functools.partial(_moves_first, *value_table(f, _BATCH_BYTES), n,
                                  len(dm) == 1 << n)
    stop = len(dm) ** 2 if failing is None else failing[0] * len(dm) + failing[1]
    checked = 0
    # About 64 bytes per pair, a quarter of the budget; ``first`` blocks
    # the rest.
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
        hit = first(xs, ys, d)
        if hit is not None:
            q, rank, im, side = hit
            checked += int(facts[:q].sum() + head[q] + rank) + 1
            return (int(xs[q]), int(ys[q]), im, side), checked
        checked += int(facts.sum())
    return None, checked


def _least_sizes(n, dm):
    """The interval table of the restriction facts over the domain sets
    ``dm``: (table, quad), quad[M] the sum of 4^i over i in M.

    An index of ``table`` is a number in base 4 with one digit per element
    for an interval [A, U]: 0 outside U, 1 in U \\ A, 2 in A. There the
    table holds the least |Z| over domain sets Z in [A, U], n + 1 where
    there is none: a digit 1 is the min of the interval without the
    element (digit 0) and with it (digit 2). A digit 3 is the max of its
    digits 0 and 2, so that the restriction facts of a pair (X, Y), over
    every S inside X \\ Y, are one entry (``_interval_first``). The min
    passes all come before the max passes, which take the max of mins."""
    quad = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        quad[1 << i:2 << i] = quad[:1 << i] + 4 ** i
    table = np.full(4 ** n, n + 1, dtype=np.int8)
    table[2 * quad[dm]] = np.bitwise_count(dm)
    views = [table.reshape(-1, 4, 4 ** i) for i in range(n)]
    for v in views:
        np.minimum(v[:, 0], v[:, 2], out=v[:, 1])
    for v in views:
        np.maximum(v[:, 0], v[:, 2], out=v[:, 3])
    return table, quad


def _interval_first(table, quad, n, xs, ys, d):
    """The first failing restriction fact of the pairs (xs, ys), d = X \\ Y,
    from the table of ``_least_sizes``: (pair, rank of I, I, side), or None.

    The x side of (X, Y, I) is the interval [X \\ I, (X \\ I) u (Y \\ X)],
    the y side [(X n Y) u I, Y u I]. With S = (X \\ Y) \\ I on the x side and
    S = I on the y side, both are [(X n Y) u S, (X n Y) u S u (Y \\ X)]. A
    set there of size at most |X| settles x_side_sized for one I and
    y_side for another, so every fact of the pair holds iff each S has one:
    the entry of digits 1 on Y \\ X, 2 on X n Y and 3 on X \\ Y is at most
    |X|. The first pair where it is not scans its I in ascending order."""
    kx = np.bitwise_count(xs)
    bad = table[2 * quad[xs] + quad[xs ^ ys]] > kx
    if not bad.any():
        return None
    p = int(bad.argmax())
    x, y, k = int(xs[p]), int(ys[p]), int(kx[p])
    im = deposit(np.arange(1 << int(d[p]).bit_count()), d[p], n)
    base = quad[y & ~x]
    xl = table[base + 2 * quad[x & ~im]]
    yl = table[base + 2 * quad[x & y | im]]
    t = int(((xl > k) | (yl > n)).argmax())
    side = "x_side" if xl[t] > n else "x_side_sized" if xl[t] > k else "y_side"
    return p, t, int(im[t]), side


def _moves_first(at, neg, n, full, xs, ys, d):
    """The first failing restriction fact of the pairs (xs, ys), d = X \\ Y,
    read from the moves J inside Y \\ X (``moves.restriction_sides``):
    (pair, rank of I, I, side), or None. J = {} settles a triple whose
    f(X\\I) and f(Y | I) are finite, which on a ``full`` domain is every
    triple."""
    for p, rank, im in () if full else triples(d, n, _BATCH_BYTES):
        rest = np.flatnonzero((at(xs[p] & ~im) == neg) | (at(ys[p] | im) == neg))
        if not len(rest):
            continue
        p, rank, im = p[rest], rank[rest], im[rest]
        x_side, x_sized, y_side = restriction_sides(at, neg, xs[p], ys[p], im, _BATCH_BYTES)
        empty = ~(x_sized & y_side)
        if empty.any():
            t = int(empty.argmax())
            side = ("x_side" if not x_side[t] else "x_side_sized" if not x_sized[t]
                    else "y_side")
            return int(p[t]), int(rank[t]), int(im[t]), side
    return None


def _empty_side(name, xm, ym, im):
    """The message that restriction ``name`` of (X, Y, I) has an empty
    domain."""
    return (f"{name} restriction has empty domain for X={elements_of(xm)}, "
            f"Y={elements_of(ym)}, I={elements_of(im)}")


# ---------------------------------------------------------------------------
# Many small tables at once: the single-exchange gate and the bounded
# multiple exchange of the falsification campaign.


@functools.cache
def _bulk_plan(n):
    """Every exchange triple (X, Y, I) of the full cube 2^n with its moves
    |J| <= |I|, as the masks to gather from a value row: (gate, rest),
    each a tuple of blocks (x, y, a, b) of read-only int64 arrays. A block
    holds triples with one count of moves: x and y are their masks, and
    a[t] and b[t] the masks (X\\I) | J and (Y\\J) | I of triple t's moves,
    from ``moves.moves`` over the full cube. ``gate`` holds the
    |I| = 1 triples, the single exchange, whose moves are the drop and the
    swaps; ``rest`` the others. Blocks come by ascending count of moves."""
    groups = ({}, {})
    for xm, ym, im in exhaustive_triples(np.arange(1 << n, dtype=np.int64), n, _BATCH_BYTES):
        # ``moves`` splits a triple's moves over blocks past budget // 64 of
        # them; the plan needs each triple's moves in one block.
        for rows, a, b, size, k in moves(xm, ym, im, max(_BATCH_BYTES, 64 << n)):
            for kv in set(k.tolist()):
                t, keep = k == kv, size <= kv
                groups[kv != 1].setdefault(int(keep.sum()), []).append(
                    (xm[rows[t]], ym[rows[t]], a[t][:, keep], b[t][:, keep]))
    # Each width's parts leave ``groups`` as they are joined, so that the
    # build never holds the whole plan twice.
    plan = tuple(tuple(tuple(np.concatenate(parts) for parts in zip(*blocks.pop(w)))
                       for w in sorted(blocks)) for blocks in groups)
    for block in plan[0] + plan[1]:
        for arr in block:
            arr.setflags(write=False)
    return plan


def _bulk_decide(vals, m):
    """The campaign's verdicts on a matrix of value rows (f's 2^n values, one
    n) in ``moves.encoding(m)``: an array of two bool rows, ``passed``
    (``check_exc_single(f).passed``) and ``holds`` (passed and the bounded
    multiple exchange holds). Only the best move of a triple counts, so no
    tie order is needed; f(X) + f(Y) < -2m only where X or Y is outside the
    domain. Raises ValueError for m >= _BULK_SAFE, another dtype, rows not
    of 2^n values, an empty domain, or a value neither neg nor in [-m, m]."""
    neg, dtype = encoding(m)
    w = vals.shape[1]
    fin = vals != neg
    if not (m < _BULK_SAFE and vals.dtype == dtype and w and w & (w - 1) == 0
            and fin.any(axis=1).all() and (~fin | (vals >= -m) & (vals <= m)).all()):
        raise ValueError("a row is outside the bulk decider")
    verdicts = np.zeros((2, len(vals)), dtype=bool)
    # One column per live row, so that a gather copies whole rows.
    alive, live = np.arange(len(vals)), np.ascontiguousarray(vals.T)
    # The gate, then the bounded multiple exchange on the rows that pass
    # it (a triple with |I| = 1 has exactly the single exchange's moves).
    for verdict, blocks in zip(verdicts, _bulk_plan(w.bit_length() - 1)):
        for x, y, a, b in blocks:
            t0 = 0
            while t0 < len(x) and len(alive):
                # About six values a row per move of a piece.
                t = slice(t0, t0 + max(1, _BATCH_BYTES // (6 * live[0].nbytes * a.shape[1])))
                lhs = live[x[t]] + live[y[t]]
                best = live[a[t]]
                best += live[b[t]]
                ok = ((best.max(axis=1) >= lhs) | (lhs < -2 * m)).all(axis=0)
                if not ok.all():
                    alive, live = alive[ok], live[:, ok]
                t0 = t.stop
        verdict[alive] = True
    return verdicts


def _bulk_bound(row, k):
    """The largest |value| of row ``k`` (f's 2^n values, NEG_INF for minus
    infinity). Raises ValueError for a row that ``_bulk_decide`` refuses in
    every encoding or with a value neither an int nor NEG_INF (a float, a bool)."""
    fin = [v for v in row if v is not NEG_INF]
    if (set(map(type, fin)) == {int} and len(row) == 1 << (len(row).bit_length() - 1)
            and (top := max(map(abs, fin))) < _BULK_SAFE):
        return top
    raise ValueError(f"row {k} is outside the bulk decider")


# ---------------------------------------------------------------------------
# Equi-cardinal exchange (valuated-matroid style).


def check_m_concave(f, instance_id=""):
    """PASS iff the effective domain is equi-cardinal and for every
    X, Y in it and i in X \\ Y some j in Y \\ X satisfies
    f(X) + f(Y) <= f(X-i+j) + f(Y+i-j)."""
    sizes = {m.bit_count() for m in f.dom_masks}
    if len(sizes) > 1:
        counter = {"reason": "domain not equi-cardinal",
                   "sizes": sorted(sizes)}
        return failed_report("m_concave", instance_id, counter)
    # No X - i lies in an equi-cardinal domain, so the drop never attains.
    return replace(check_exc_single(f, instance_id), suite="m_concave")


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
    if f.exact[xm] is NEG_INF or f.exact[ym] is NEG_INF:
        raise ValueError("X and Y must lie in the effective domain")
    if xm.bit_count() > ym.bit_count():
        raise ValueError("requires |X| <= |Y|")
    if not (im & xm & ~ym):
        raise ValueError(f"i={i} must lie in X \\ Y")
    return _first_swap(f, f.exact[xm] + f.exact[ym], xm ^ im, ym | im, ym & ~xm)


def augment_lt(f, X, Y):
    """For |X| < |Y|, find the smallest j in Y \\ X with
    f(X) + f(Y) <= f(X+j) + f(Y-j); witness uses the X+j / Y-j swap
    convention. None when no j works."""
    xm = mask_of(X, f.n)
    ym = mask_of(Y, f.n)
    if f.exact[xm] is NEG_INF or f.exact[ym] is NEG_INF:
        raise ValueError("X and Y must lie in the effective domain")
    if xm.bit_count() >= ym.bit_count():
        raise ValueError("requires |X| < |Y|")
    return _first_swap(f, f.exact[xm] + f.exact[ym], xm, ym, ym & ~xm)


def _first_swap(f, lhs, xb, yb, rest):
    """The first swap j in ``rest`` (by ascending j) with
    lhs <= f(xb + j) + f(yb - j) on f's exact table, as a witness; None
    when no j works."""
    vals = f.exact
    while rest:
        jb = rest & -rest
        rest ^= jb
        a = vals[xb | jb]
        if a is NEG_INF:
            continue
        b = vals[yb ^ jb]
        if b is not NEG_INF and lhs <= a + b:
            return ExchangeWitness("swap", (jb.bit_length(),), shown(f, lhs), shown(f, a + b))
    return None


# ---------------------------------------------------------------------------
# Lifting to an equi-cardinal function with padding elements.


def lift(f):
    """Pad the ground set with r - s dummy elements (r, s the max and min
    domain sizes) and keep only subsets of size exactly r:

        lifted(Z) = f(Z & N) when |Z| = r, NEG_INF otherwise.

    The result has an equi-cardinal domain of size r.
    """
    nh = f.n + _lift_pads(f)
    r = f.dom_size_range()[1]
    base = (1 << f.n) - 1
    vals = [NEG_INF] * (1 << nh)
    fvals = f.values
    for z in range(1 << nh):
        if z.bit_count() == r:
            vals[z] = fvals[z & base]
    return SetFn(nh, vals, f.mode)


def _lift_pads(f):
    """t = r - s, the padding elements of ``lift(f)``; ValueError for an
    empty domain or where the lift would pass HARD_CAP."""
    _require_nonempty_dom(f)
    s, r = f.dom_size_range()
    if f.n + r - s > HARD_CAP:
        raise ValueError(f"lifted ground-set size {f.n + r - s} exceeds hard cap {HARD_CAP}")
    return r - s


def _lift_sweep(f):
    """The single-exchange sweep of lift(f), which ``check_m_concave(lift(f))``
    reports, decided on f without building the lift, in the lifted order
    where a verdict of f's sweep (``_sweeps``) fails.

    A domain set of lift(f) is X u P, P any a = r - |X| of the t = r - s
    pads (bits n .. n + t - 1); the sets go in the order of the numbers
    (P, X). Take a pair (X u P, Y u Q). An i in X \\ Y may drop (swap for
    a pad of Q \\ P) where Q \\ P is nonempty; a pad i in P \\ Q then
    passes (pad for pad), else needs the augment X + j, Y - j. With P and
    Q the lowest a and b pads, Q \\ P is nonempty exactly where
    |X| > |Y|, and a pair that fails at any P and Q fails at those. So
    lift(f) is M-concave iff on f each i in X \\ Y swaps, or drops where
    |X| > |Y|, and the augment holds where |X| < |Y| (the lifting theorem:
    Murota, Discrete Convex Analysis, §6.1). Rule i holds iff
    (swap or drop) and (swap or |X| > |Y|): the single verdict of
    ``_exchange_sweep`` and its facts verdict, whose augment is the
    lift's. The first failure is the earlier of theirs in the order of
    (r - |X|, X), which is the lifted order of the lowest pads, and
    ``_sweep_count`` counts the lifted triples through it.
    """
    t = _lift_pads(f)  # refuse what ``lift`` refuses before sweeping
    r = f.dom_size_range()[1]
    dm = np.array(f.dom_masks, dtype=np.int64)
    a = r - np.bitwise_count(dm).astype(np.int64)  # the pads of each X
    order = np.lexsort((dm, a))
    (single, _), facts = _sweeps(f)
    best = min(filter(None, _exchange_sweep(f, order)), default=None) if single or facts else None
    return _sweep_count(f, best, dm[order], a[order], t)
