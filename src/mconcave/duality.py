"""Conjugate evaluation and the duality-side verification path: grid
submodularity checks, the restricted functions induced by an exchange
context, and the Fenchel dual by steepest descent.

``conjugate`` is the scalar route and the tests' oracle. Box sweeps,
sampled pairs and the Fenchel dual use one batched kernel,
``vals - P @ ind`` over the effective domain, which returns every size
cap in one pass. It is exact: int64 while max|f| + n*max|p| < 2^61 (a
slack summing two conjugates cannot wrap), Python numbers
(``dtype=object``) above that bound.

The box regime decides the three grid inequalities on unit squares and
unit steps. On a product of chains a function is submodular iff every
unit square is (Topkis, Operations Research 26, 1978; Murota, Discrete
Convex Analysis, 2003, ch. 7); the strong quotient says that the excess
e = gk - g of a capped conjugate gk over the plain one g is
nondecreasing, which holds iff it holds on every unit step; and the two
give cross-submodularity, gk(p ^ q) + g(p v q) = g(p ^ q) + g(p v q) +
e(p ^ q) <= g(p) + g(q) + e(p) = gk(p) + g(q). Every pair of the box is
compared only when a local test fails, to name the first violated pair.

The Fenchel dual phi(q) = g1(q) + g2(-q) is minimized by steepest
descent from q = 0 under the moves q +- chi_S, S nonempty, inside the
box. For M-natural-concave f1 and f2 both conjugates are L-natural
convex, and so is phi, also restricted to the box; a point no move
lowers is then a global minimum (Murota, Discrete Convex Analysis, 2003,
ch. 7-8), reached in about ||q*||_inf steps (Kolmogorov and Shioura,
Discrete Optimization 6, 2009). A point where phi equals the primal
certifies on any input by weak duality. Where f1 or f2 is not
M-natural concave, the end point only bounds the box minimum from
above; the tests keep a scan of the whole box as the oracle.

The sampled grid regime draws its pairs from ``random.Random(seed)``
without calling it per value: ``core._Replay`` takes the Mersenne
Twister words from the rng in bulk and decodes them in numpy with
CPython's rules (top ``m.bit_length()`` bits of a word, rejected while
>= m), a chunk of samples at a time, the chunk bounded in bytes. The
submodular draw mixes two widths (2n prices, then the cap index), so its
rejections are resolved in stream order. The cross and quotient checks
of every size cap draw the same 2n prices from the same seed, so one
draw and one conjugate table serve them all, each cap reading its own
column. The samples, and so the reports, are those of the scalar
``randint``/``randrange`` loops, which the tests keep as the oracle.
"""

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    NEG_INF,
    Falsification,
    PriceVector,
    SetFn,
    _holds,
    _Replay,
    _require_int,
    elements_of,
    ext_add,
    max_over,
    price_sums,
    restrict_by_size,
    submasks_ascending,
)
from .exchange import (
    DEFAULT_SAMPLES,
    ExchangeContext,
    _empty_side,
    _require_nonempty_dom,
)
from .reporting import failed_report, passed_report

DEFAULT_BOX = (-3, 3)

# Grids up to this many points are decided exhaustively (the box regime).
EXHAUSTIVE_GRID_LIMIT = 7**4


@dataclass(frozen=True)
class ConjugateEval:
    """Value and argmax of max_Z { f(Z) - p(Z) }; the argmax is the
    smallest bitmask among maximizers."""

    price: PriceVector
    value: object
    argmax_mask: int

    @property
    def argmax(self):
        return elements_of(self.argmax_mask)


def conjugate(f, p):
    """Exact maximum of f(Z) - p(Z) over all 2^n subsets."""
    _require_nonempty_dom(f)
    if p.n != f.n:
        raise ValueError(f"price vector has {p.n} entries, function has n={f.n}")
    sums = price_sums(p.entries, f.n)
    vals = f.values
    best = None
    best_mask = 0
    for m in f.dom_masks:
        v = vals[m] - sums[m]
        if best is None or v > best:
            best = v
            best_mask = m
    return ConjugateEval(p, best, best_mask)


def conjugate_sized(f, k, p):
    """Conjugate of the size-capped function: subsets larger than k are
    excluded from the maximum."""
    capped = restrict_by_size(f, k)
    if not capped.dom_masks:
        raise ValueError(f"no feasible subset of size <= {k}")
    return conjugate(capped, p)


def _require_cap(f, k):
    """A size cap k under which f keeps a feasible subset, else ValueError."""
    _require_int("size cap", k, 0)
    if k < f.dom_size_range()[0]:
        raise ValueError(f"no feasible subset of size <= {k}")


def _feasible_caps(f):
    """Size caps k for which the size-capped conjugate is defined."""
    s, _ = f.dom_size_range()
    return range(s, f.n + 1)


# ---------------------------------------------------------------------------
# Batched conjugates and the grid-inequality engine.

_INT64_SAFE = 1 << 61   # |conjugate| bound that keeps int64 slacks exact
_BLOCK_ROWS = 8         # box rows per join/meet pass
_SAMPLE_CHUNK = 256     # sampled pairs of four price rows evaluated at once
_SAMPLE_BYTES = 1 << 21  # one chunk's gains, at about 16 bytes a row per domain set


class _Conjugates:
    """Batched conjugates of f under every size cap. Called on a
    (rows, n) integer price array it returns a (rows, caps) table whose
    column c is max { f(Z) - p(Z) : Z in dom f, |Z| <= s + c }, s the
    smallest domain size; the last column is the plain conjugate. The
    domain is sorted by size, so one pass takes the maximum per size and
    then a running maximum over sizes."""

    def __init__(self, f):
        dom = sorted(f.dom_masks, key=int.bit_count)
        sizes = [m.bit_count() for m in dom]
        self.n = f.n
        self.starts = [i for i, z in enumerate(sizes) if i == 0 or z != sizes[i - 1]]
        present = [sizes[i] for i in self.starts]
        self.cols = np.searchsorted(present, range(sizes[0], f.n + 1), side="right") - 1
        self.ind = np.array(dom, dtype=np.int64) >> np.arange(f.n)[:, None] & 1
        self.vals = [f.values[m] for m in dom]
        self.magnitude = max(abs(v) for v in self.vals)
        dtype = np.int64 if f.mode == "int" else np.float64
        self.fast = np.array(self.vals, dtype) if self.magnitude < _INT64_SAFE else None

    def _gains(self, P):
        if self.fast is not None and \
                self.magnitude + self.n * int(np.abs(P).max(initial=0)) < _INT64_SAFE:
            return self.fast - P @ self.ind
        return np.array(self.vals, dtype=object) - P.astype(object) @ self.ind.astype(object)

    def __call__(self, P):
        per_size = np.maximum.reduceat(self._gains(P), self.starts, axis=1)
        return np.maximum.accumulate(per_size, axis=1)[:, self.cols]

    def plain(self, P):
        """The plain conjugate alone, without the per-size pass."""
        return self._gains(P).max(axis=1)


def _box_points(n, lo, hi):
    side = np.arange(lo, hi + 1, dtype=np.int64)
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*([side] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


_SUBMODULAR, _CROSS, _QUOTIENT = range(3)


@lru_cache(maxsize=1)
def _box_sweeps(f, lo, hi):
    """Every grid inequality of f over the integer box [lo, hi]^n, as
    (first, checked), indexed [kind][c] for the cap column c of
    ``_Conjugates``: the first violated pair (p, q) in row order, or
    None, and the pairs counted up to and including the failing row.
    Kinds: submodular over pairs j >= i, cross over all ordered pairs
    (sized at p, plain at q), strong quotient over pairs p_j <= p_i.

    The box is a product of chains, so a column is submodular iff every
    unit square is (Topkis, Operations Research 26, 1978; Murota,
    Discrete Convex Analysis, 2003, ch. 7), and the excess e = sized -
    plain is nondecreasing iff every unit step is. Both together give
    cross-submodularity: gk(p ^ q) + g(p v q) = g(p ^ q) + g(p v q) +
    e(p ^ q) <= g(p) + g(q) + e(p) = gk(p) + g(q). When both hold, every
    cell passes and the counts are the pairs each kind covers, with
    N = w^n points of side w: N(N+1)/2, N^2 and (w(w+1)/2)^n. Otherwise
    ``_all_pairs`` compares every pair to name the first violation."""
    pts = _box_points(f.n, lo, hi)
    g = np.ascontiguousarray(_Conjugates(f)(pts).T)
    w = hi - lo + 1
    if not _unit_steps_hold(g, f.n, w):
        return _all_pairs(g, pts, lo, hi)
    npts = len(pts)
    counts = [npts * (npts + 1) // 2, npts * npts, (w * (w + 1) // 2) ** f.n]
    checked = np.repeat(np.array(counts, dtype=np.int64)[:, None], len(g), axis=1)
    return [[None] * len(g) for _ in range(3)], checked


def _unit_steps_hold(g, n, w):
    """Whether every cap column of the (caps, w^n) box table g has
    g(p + chi_i) + g(p + chi_j) >= g(p) + g(p + chi_i + chi_j) on each
    unit square, and its excess over the plain (last) column does not
    drop along any unit step. Second differences of values below 2^61
    stay inside int64."""
    cube = g.reshape((len(g),) + (w,) * n)
    excess = cube - cube[-1]
    for i in range(n):
        if (np.diff(excess, axis=i + 1) < 0).any():
            return False
        step = np.diff(cube, axis=i + 1)
        for j in range(i + 1, n):
            if (np.diff(step, axis=j + 1) > 0).any():
                return False
    return True


def _all_pairs(g, pts, lo, hi):
    """``_box_sweeps``'s result by comparing every pair of the box, in one
    pass over blocks of rows of the lexicographically ordered points
    ``pts`` (the box is closed under join and meet, so both are grid
    indices); g is the (caps, len(pts)) table of ``_Conjugates``."""
    npts, n = pts.shape
    digits = [(pts[:, c] - lo) * (hi - lo + 1) ** (n - 1 - c) for c in range(n)]
    plain, idx = g[-1], np.arange(npts)
    excess = g - plain  # sized minus plain: the quotient compares it at p and q
    first = [[None] * len(g) for _ in range(3)]
    checked = np.zeros((3, len(g)), dtype=np.int64)
    for a in range(0, npts, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, npts)
        zero = np.zeros((b - a, npts), dtype=np.int64)
        joins = sum((np.maximum(d[a:b, None], d) for d in digits), zero)
        meets = sum((np.minimum(d[a:b, None], d) for d in digits), zero)
        upper, below = idx[a:] >= idx[a:b, None], meets == idx
        through = [np.cumsum(npts - idx[a:b]), npts * np.arange(1, b - a + 1),
                   np.cumsum(below.sum(axis=1))]
        plain_joins = plain[joins]
        for c, gc in enumerate(g):  # one cap column at a time keeps temporaries small
            gi, gm = gc[a:b, None], gc[meets]
            for kind, offset, bad in (
                    (_SUBMODULAR, a, (gc[joins[:, a:]] + gm[:, a:] > gi + gc[a:]) & upper),
                    (_CROSS, 0, gm + plain_joins > gi + plain),
                    (_QUOTIENT, 0, (excess[c, a:b, None] < excess[c]) & below)):
                if first[kind][c] is not None:
                    continue
                hit = np.flatnonzero(bad.any(axis=1))
                r = hit[0] if len(hit) else b - a - 1
                checked[kind, c] += through[kind][r]
                if len(hit):
                    j = offset + int(np.argmax(bad[r]))
                    first[kind][c] = (pts[a + r].tolist(), pts[j].tolist())
        if all(x is not None for row in first for x in row):
            break
    return first, checked


def _box_report(f, lo, hi, checks, instance_id):
    """Report for ``checks``, (inequality, kind, k) in checking order,
    read from the shared box sweep; k=None is the plain conjugate."""
    first, checked = _box_sweeps(f, lo, hi)
    s, _ = f.dom_size_range()
    total = 0
    for inequality, kind, k in checks:
        c = (f.n if k is None else min(k, f.n)) - s
        total += int(checked[kind, c])
        if first[kind][c] is not None:
            p, q = first[kind][c]  # copied: the sweep result is cached
            counter = {"inequality": inequality, "p": list(p), "q": list(q)}
            if k is not None:
                counter["k"] = k
            return failed_report("duality_grid", instance_id, counter, triples=total)
    return passed_report("duality_grid", instance_id, triples=total)


def _chunk(f, rows):
    """Samples per chunk at ``rows`` price rows a sample: at most the rows
    of ``_SAMPLE_CHUNK`` four-row samples, fewer past ``_SAMPLE_BYTES``."""
    fit = _SAMPLE_BYTES // (16 * len(f.dom_masks))
    return max(1, min(4 * _SAMPLE_CHUNK, fit) // rows)


def _sampled_report(f, samples, caps, draw, tests, seed, instance_id, per_sample=1):
    """Report over ``samples`` seeded pairs, drawn and evaluated in chunks
    of ``_chunk(f, 4)``. ``draw(count)`` returns the next ``count``
    samples as arrays: p and q, (count, n), and the index into ``caps`` of
    each sample's size cap. ``tests(plain, sized)`` gets the plain and
    capped conjugates at p, q, p v q, p ^ q (row 0..3, one column per
    sample) and returns (inequality, uses_k, holds) in checking order; the
    first failing sample is reported, with ``per_sample`` pairs counted
    through it."""
    conj = _Conjugates(f)
    s, _ = f.dom_size_range()
    cap_cols = np.array([min(k, f.n) - s for k in caps])
    chunk = _chunk(f, 4)
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        p, q, c = draw(count)
        g = conj(np.concatenate([p, q, np.maximum(p, q), np.minimum(p, q)]))
        g = g.reshape(4, count, -1)
        checks = tests(g[:, :, -1], g[:, np.arange(count), cap_cols[c]])
        failures = [(int(np.argmin(ok)), t, inequality, uses_k)
                    for t, (inequality, uses_k, ok) in enumerate(checks) if not ok.all()]
        if failures:
            i, _, inequality, uses_k = min(failures)
            counter = {"inequality": inequality, "p": p[i].tolist(), "q": q[i].tolist()}
            if uses_k:
                counter["k"] = caps[c[i]]
            return failed_report("duality_grid", instance_id, counter,
                                 triples=per_sample * (start + i + 1),
                                 regime="sampled", seed=seed)
    return passed_report("duality_grid", instance_id, triples=per_sample * samples,
                         regime="sampled", seed=seed)


def _price_run(n, lo, hi):
    """The replay run of the 2n ``randint(lo, hi)`` draws of one pair, as
    values minus lo."""
    width = hi - lo + 1
    return 2 * n, width, width.bit_length()


def _box_or_sample_policy(f, box, samples):
    """"box" or "sampled" for the grid checks of f on ``box``, after
    checking ``samples`` and ``box``, which every regime does."""
    _require_int("samples", samples, 1)
    # The box sweep compares exactly, so real mode falls through to the
    # tolerance-aware sampled path. A sampled draw takes one 32-bit word
    # per try, so a box side holds fewer than 2^32 values.
    if not (isinstance(box, (tuple, list)) and len(box) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in box)
            and 0 <= box[1] - box[0] < (1 << 32) - 1):
        raise ValueError(f"box must be a pair of ints lo <= hi with hi - lo < 2^32 - 1, "
                         f"got {box!r}")
    lo, hi = box
    if f.mode == "int" and (hi - lo + 1) ** f.n <= EXHAUSTIVE_GRID_LIMIT:
        return "box"
    return "sampled"


def check_conjugate_submodular(f, *, box=DEFAULT_BOX, seed=0, samples=DEFAULT_SAMPLES,
                               instance_id=""):
    """Submodularity of the conjugate on the integer box, both for the
    plain conjugate and for every feasible size cap.

    The box is swept exhaustively when small enough, otherwise
    ``samples`` seeded pairs are drawn (the size cap is sampled alongside
    the pair).
    """
    _require_nonempty_dom(f)
    kind = _box_or_sample_policy(f, box, samples)
    caps = list(_feasible_caps(f))
    lo, hi = box
    if kind == "box":
        checks = [("submodular", _SUBMODULAR, None)]
        checks += [("submodular_sized", _SUBMODULAR, k) for k in caps]
        return _box_report(f, lo, hi, checks, instance_id)

    replay = _Replay(random.Random(seed))
    runs = [_price_run(f.n, lo, hi), (1, len(caps), len(caps).bit_length())]

    def draw(count):  # p, q, then the cap index
        pq, c = replay.take(count, runs)
        return pq[:, :f.n] + lo, pq[:, f.n:] + lo, c[:, 0]

    def tests(g, gk):
        return [("submodular", False, _holds(g[2] + g[3], g[0] + g[1], f.mode)),
                ("submodular_sized", True, _holds(gk[2] + gk[3], gk[0] + gk[1], f.mode))]

    return _sampled_report(f, samples, caps, draw, tests, seed, instance_id, per_sample=2)


def _cross_and_quotient(f, caps, *, box=DEFAULT_BOX, seed=0, samples=DEFAULT_SAMPLES,
                        instance_id="", checks=(0, 1)):
    """The (cross_submodular, strong_quotient) reports of f for each size
    cap in ``caps``, each what the check of that one cap gives, or of the
    ``checks`` alone (0: cross, 1: quotient) in that order. Sampled, one
    draw serves both checks of every cap: the 2n prices of a sample are p
    then q for the cross check, and element by element the larger and
    smaller of each pair for the quotient's p >= q, so each chunk
    evaluates the conjugates once, at p, q, p v q, p ^ q for the cross
    check and at the quotient's two points, and each cap reads its first
    failing sample in its own column."""
    _require_nonempty_dom(f)
    for k in caps:
        _require_cap(f, k)
    kind = _box_or_sample_policy(f, box, samples)
    lo, hi = box
    names = [(("cross_submodular", _CROSS), ("strong_quotient", _QUOTIENT))[c] for c in checks]
    if kind == "box":
        return [tuple(_box_report(f, lo, hi, [(name, sweep, k)], instance_id)
                      for name, sweep in names) for k in caps]

    s, _ = f.dom_size_range()
    cols = [min(k, f.n) - s for k in caps]
    conj, replay = _Conjugates(f), _Replay(random.Random(seed))
    first = {}  # (check, cap index) -> the FAIL report at its first failing sample
    heights = [(4, 2)[c] for c in checks]
    chunk = _chunk(f, sum(heights))
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        pq = replay.take(count, [_price_run(f.n, lo, hi)])[0] + lo
        p, q = pq[:, :f.n], pq[:, f.n:]
        up, down = np.maximum(pq[:, ::2], pq[:, 1::2]), np.minimum(pq[:, ::2], pq[:, 1::2])
        points = [(p, q, np.maximum(p, q), np.minimum(p, q)), (up, down)]
        g = conj(np.concatenate([x for c in checks for x in points[c]]))
        g = np.split(g.reshape(-1, count, g.shape[1]), np.cumsum(heights)[:-1])
        for t, (check, h) in enumerate(zip(checks, g)):
            plain, sized = h[:, :, -1:], h[:, :, cols]
            if check == 0:
                ok = _holds(sized[3] + plain[2], sized[0] + plain[1], f.mode)
            else:
                ok = _holds(plain[0] - plain[1], sized[0] - sized[1], f.mode)
            a, b = points[check][:2]
            for c in np.flatnonzero(~ok.all(axis=0)):
                if (t, c) not in first:
                    i = int(np.argmin(ok[:, c]))
                    counter = {"inequality": names[t][0], "p": a[i].tolist(),
                               "q": b[i].tolist(), "k": caps[c]}
                    first[t, c] = failed_report("duality_grid", instance_id, counter,
                                                triples=start + i + 1, regime="sampled",
                                                seed=seed)
        if len(first) == len(checks) * len(caps):
            break
    passed = passed_report("duality_grid", instance_id, triples=samples, regime="sampled",
                           seed=seed)
    return [tuple(first.get((t, c), passed) for t in range(len(checks)))
            for c in range(len(caps))]


def check_cross_submodular(f, k, *, box=DEFAULT_BOX, seed=0, samples=DEFAULT_SAMPLES,
                           instance_id=""):
    """Mixed submodularity between the size-capped and plain conjugates:
    sized(p) + plain(q) >= sized(p ^ q) + plain(p v q) over box pairs."""
    return _cross_and_quotient(f, [k], box=box, seed=seed, samples=samples,
                               instance_id=instance_id, checks=(0,))[0][0]


def check_strong_quotient(f, k, *, box=DEFAULT_BOX, seed=0, samples=DEFAULT_SAMPLES,
                          instance_id=""):
    """Monotone quotient relation on comparable pairs p >= q:
    sized(p) - sized(q) >= plain(p) - plain(q)."""
    return _cross_and_quotient(f, [k], box=box, seed=seed, samples=samples,
                               instance_id=instance_id, checks=(1,))[0][0]


# ---------------------------------------------------------------------------
# Restrictions induced by an exchange context.


@dataclass(frozen=True)
class RestrictionTriple:
    """The two sides of a multiple exchange as functions of the adopted
    set J on the ground set Y \\ X (reindexed 1..|Y0|, ascending):

        x_side(J)       = f((X \\ I) u J)
        x_side_sized(J) = x_side(J) with |J| capped at |I|
        y_side(J)       = f((Y \\ J) u I)
    """

    x_side: SetFn
    x_side_sized: SetFn
    y_side: SetFn
    ctx: ExchangeContext


def build_restrictions(f, ctx):
    """Materialize the three restricted functions for an exchange context.

    X and Y must lie in the effective domain. All three domains are
    provably nonempty for exchange-valid functions; an empty one raises
    Falsification.
    """
    if f.values[ctx.x_mask] is NEG_INF or f.values[ctx.y_mask] is NEG_INF:
        raise ValueError("X and Y must lie in the effective domain")
    empty = _empty_restriction(f, ctx.x_mask, ctx.y_mask, ctx.i_mask)
    if empty is not None:
        raise Falsification(empty)
    y0 = ctx.y0_mask
    bits = [1 << (e - 1) for e in elements_of(y0)]
    m = len(bits)
    spread = [0]
    for b in bits:
        spread += [g | b for g in spread]
    xbase = ctx.x_mask & ~ctx.i_mask
    ybase = ctx.y_mask | ctx.i_mask
    fvals = f.values
    x_side = SetFn(m, [fvals[xbase | g] for g in spread], f.mode)
    y_side = SetFn(m, [fvals[ybase & ~g] for g in spread], f.mode)
    x_sized = restrict_by_size(x_side, ctx.i_mask.bit_count())
    return RestrictionTriple(x_side, x_sized, y_side, ctx)


def _empty_restriction(f, xm, ym, im):
    """None when the three restrictions of (X, Y, I) all have a nonempty
    domain, else the message naming the first empty one of x_side,
    x_side_sized and y_side. Scans J inside Y \\ X and stops as soon as
    all three are known nonempty."""
    vals = f.values
    xbase = xm & ~im
    ybase = ym | im
    k = im.bit_count()
    x_side = x_sized = y_side = False
    for g in submasks_ascending(ym & ~xm):
        if not x_sized and vals[xbase | g] is not NEG_INF:
            x_side = True
            x_sized = g.bit_count() <= k
        if not y_side and vals[ybase & ~g] is not NEG_INF:
            y_side = True
        if x_sized and y_side:
            return None
    name = "x_side" if not x_side else "x_side_sized" if not x_sized else "y_side"
    return _empty_side(name, xm, ym, im)


# ---------------------------------------------------------------------------
# Fenchel gap.


@dataclass(frozen=True)
class FenchelResult:
    """Outcome of the primal/dual comparison for a pair of functions.

    Either certified (int mode, phi reached the primal exactly at
    ``attaining_q``) or the descent's end point, uncertified, without
    ``attaining_q``. gap is dual - primal (None when the primal is
    NEG_INF); boundary is set when the reported dual point touches the
    search box. Without a certificate that signals that the box may be
    too small; a certified result is exact wherever its point lies.
    """

    primal: object
    dual: object
    gap: object
    attaining_q: PriceVector | None
    box: int
    boundary: bool
    certified: bool
    mode: str

    def to_dict(self):
        return {
            "primal": None if self.primal is NEG_INF else self.primal,
            "dual": None if self.dual is NEG_INF else self.dual,
            "gap": self.gap,
            "attaining_q": list(self.attaining_q.entries) if self.attaining_q else None,
            "box": self.box,
            "boundary": self.boundary,
            "certified": self.certified,
            "mode": self.mode,
        }


def _spread(f):
    finite = [f.values[m] for m in f.dom_masks]
    return max(finite) - min(finite)


_CHUNK = 50_000


def _primal(f1, f2):
    return max_over(ext_add(a, b) for a, b in zip(f1.values, f2.values))


def _moves(n):
    """The moves +chi_S by ascending mask S != 0, then -chi_S, in blocks
    of at most ``_CHUNK`` rows."""
    bits = np.arange(n)
    for sign in (1, -1):
        for start in range(1, 1 << n, _CHUNK):
            masks = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
            yield sign * (masks[:, None] >> bits & 1)


def _descend(conj1, conj2, box, target):
    """Steepest descent of phi(q) = g1(q) + g2(-q) from q = 0 under the
    moves q +- chi_S that stay inside [-box, box]^n. Each step goes to
    the first strict minimizer in ``_moves`` order; the descent stops at
    ``target`` (None: never) or where no move lowers phi. Returns the
    end point as a tuple and phi there."""
    q = np.zeros(conj1.n, dtype=np.int64)
    value = (conj1.plain(q[None]) + conj2.plain(-q[None]))[0]
    while value != target:
        step = None
        for moves in _moves(conj1.n):
            pts = q + moves
            pts = pts[np.abs(pts).max(axis=1) <= box]
            if not len(pts):
                continue
            d = conj1.plain(pts) + conj2.plain(-pts)
            i = int(np.argmin(d))
            if d[i] < value:
                value, step = d[i], pts[i]
                if value == target:  # weak duality: nothing lies lower
                    break
        if step is None:
            break
        q = step
    return tuple(int(x) for x in q), value


def fenchel_gap(f1, f2, box=None):
    """Primal max of f1 + f2 against the minimum of the dual
    phi(q) = g1(q) + g2(-q) over the integer box [-L, L]^n.

    The box defaults to spread(f1) + spread(f2) + 1, which contains an
    attaining point whenever one exists; an explicit ``box`` must be an
    int >= 0. A steepest descent from q = 0 (see the module docstring)
    has two outcomes:

    - in int mode, phi(q) reaches the primal: certified, with
      ``attaining_q = q`` (weak duality makes this a certificate for any
      input);
    - otherwise the end point, uncertified and without ``attaining_q``:
      phi there is the box minimum when f1 and f2 are M-natural concave,
      and an upper bound on it for other inputs. Real mode always ends
      here, with a float ``dual`` on integer prices: a weak-duality
      report.

    ``boundary`` marks a result point on the box edge: on an uncertified
    result the box may be too small; a certified one is exact anyway.
    """
    if f1.n != f2.n:
        raise ValueError(f"ground sets differ: {f1.n} vs {f2.n}")
    if f1.mode != f2.mode:
        raise ValueError(f"mode mismatch: {f1.mode!r} vs {f2.mode!r}")
    _require_nonempty_dom(f1)
    _require_nonempty_dom(f2)
    if box is not None:
        _require_int("box", box, 0)
    mode = f1.mode
    primal = _primal(f1, f2)
    if box is None:
        spread_sum = _spread(f1) + _spread(f2)
        box = int(np.ceil(spread_sum)) + 1 if mode == "real" else spread_sum + 1

    target = primal if mode == "int" and primal is not NEG_INF else None
    q, dual = _descend(_Conjugates(f1), _Conjugates(f2), box, target)
    dual = int(dual) if mode == "int" else float(dual)
    boundary = max(map(abs, q), default=0) == box
    if target is not None and dual == target:
        return FenchelResult(primal, dual, 0, PriceVector(q), box, boundary, True, mode)
    gap = None if primal is NEG_INF else dual - primal
    return FenchelResult(primal, dual, gap, None, box, boundary, False, mode)
