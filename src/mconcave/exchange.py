"""Exchange-axiom decision procedures, witness finders, and the lifting
of a set function with mixed domain sizes to an equi-cardinal one.

All checkers enumerate bitmasks directly and return VerificationReports.
Pairs (X, Y) with X or Y outside the effective domain satisfy every
exchange inequality vacuously (the left side is NEG_INF), so loops run
over dom x dom. Enumeration order and tie-breaking are fixed so that
reports and witnesses are reproducible byte for byte:

* single exchange: the drop option first, then swaps by ascending j;
* multiple exchange: candidate sets J by ascending size, then by
  lexicographic order of the element tuple;
* reported counterexamples are the first violation in lexicographic
  (X, Y, i) or (X, Y, I) order.
"""

import random
from dataclasses import dataclass

from .core import (
    HARD_CAP,
    NEG_INF,
    Falsification,
    SetFn,
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


def _single_sweep(f, suite, instance_id, drop):
    """The exhaustive single-exchange loop over (X, Y, i) in lex order:
    each triple passes on the drop option (when ``drop``) or on the first
    swap that attains f(X) + f(Y); FAIL carries the first that does not."""
    vals = f.values
    leq = leq_for(f.mode)
    dom = f.dom_masks
    triples = 0
    for xm in dom:
        fx = vals[xm]
        for ym in dom:
            d = xm & ~ym
            if not d:
                continue
            lhs = fx + vals[ym]
            yonly = ym & ~xm
            while d:
                ib = d & -d
                d ^= ib
                triples += 1
                xmi = xm ^ ib
                ymi = ym | ib
                if drop:
                    a = vals[xmi]
                    if a is not NEG_INF:
                        b = vals[ymi]
                        if b is not NEG_INF and leq(lhs, a + b):
                            continue
                e = yonly
                while e:
                    jb = e & -e
                    e ^= jb
                    a = vals[xmi | jb]
                    if a is NEG_INF:
                        continue
                    b = vals[ymi ^ jb]
                    if b is not NEG_INF and leq(lhs, a + b):
                        break
                else:
                    counter = {
                        "X": list(elements_of(xm)),
                        "Y": list(elements_of(ym)),
                        "i": ib.bit_length(),
                        "lhs": _ext_or_none(lhs),
                    }
                    return failed_report(suite, instance_id, counter, triples=triples)
    return passed_report(suite, instance_id, triples=triples)


def check_exc_single(f, instance_id=""):
    """Exhaustively test the single-element exchange inequality over all
    (X, Y, i); FAIL carries the first violating triple in lex order."""
    _require_nonempty_dom(f)
    return _single_sweep(f, "exc_single", instance_id, drop=True)


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


def check_exc_multi(f, bounded=True, *, regime=None, samples=DEFAULT_SAMPLES,
                    seed=0, instance_id=""):
    """Verify the multiple exchange inequality for all (X, Y, I), either
    exhaustively or over ``samples`` seeded triples. The default regime is
    exhaustive up to n = EXHAUSTIVE_N_LIMIT, sampled above.

    The report carries a histogram of witness sizes |J| and, on FAIL, the
    first violating triple encountered.
    """
    _require_nonempty_dom(f)
    if regime is None:
        regime = "exhaustive" if f.n <= EXHAUSTIVE_N_LIMIT else "sampled"
    if regime == "exhaustive":
        failing, counts, triples, _ = _multi_pass_margin(f, bounded)
        seed = None
    elif regime == "sampled":
        failing, counts, triples = _sampled_multi(f, bounded, samples, seed)
    else:
        raise ValueError(f"unknown regime {regime!r}")
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

    Returns (failing, counts, triples, margin): the first violating
    (xm, ym, im) or None, the histogram of witness sizes as a list
    (counts[k] passing triples had |J| = k), the count of triples checked,
    and the minimum of best - lhs over the passing triples (None when
    there are none).
    """
    vals = f.values
    leq = leq_for(f.mode)
    dom = f.dom_masks
    counts = [0] * (f.n + 1)
    margin = None
    for xm in dom:
        fx = vals[xm]
        for ym in dom:
            lhs = fx + vals[ym]
            for im in submasks_ascending(xm & ~ym):
                best, _, size = _best_multi(vals, xm, ym, im, bounded)
                if best is NEG_INF or not leq(lhs, best):
                    return (xm, ym, im), counts, sum(counts) + 1, margin
                counts[size] += 1
                gap = best - lhs
                if margin is None or gap < margin:
                    margin = gap
    return None, counts, sum(counts), margin


def _sampled_multi(f, bounded, samples, seed):
    """The sampled counterpart over ``samples`` seeded triples: returns
    (failing, counts, triples) as ``_multi_pass_margin`` does."""
    vals = f.values
    leq = leq_for(f.mode)
    dom = f.dom_masks
    ndom = len(dom)
    counts = [0] * (f.n + 1)
    rng = random.Random(seed)
    for t in range(samples):
        xm = dom[rng.randrange(ndom)]
        ym = dom[rng.randrange(ndom)]
        im = (xm & ~ym) & rng.getrandbits(f.n) if f.n else 0
        best, _, size = _best_multi(vals, xm, ym, im, bounded)
        if best is NEG_INF or not leq(vals[xm] + vals[ym], best):
            return (xm, ym, im), counts, t + 1
        counts[size] += 1
    return None, counts, samples


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
    return _single_sweep(f, "m_concave", instance_id, drop=False)


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
