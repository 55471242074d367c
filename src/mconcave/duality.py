"""Conjugate evaluation and the duality-side verification path: grid
submodularity checks, the restricted functions induced by an exchange
context, and the Fenchel dual by steepest descent.

``conjugate`` is the scalar route and the tests' oracle; it is exact, a
loop over D * f at integer prices. Box sweeps and sampled pairs use one
batched kernel, ``vals - ind @ P.T`` over the effective domain, which
returns every size cap in one pass. It reads the exact table D * f
(``SetFn.exact``) with D folded into ``ind``, so
each column is D times a conjugate at integer prices, and every
inequality compares with ``<=``. The kernel is exact too, with S =
max|D * f| + D*n*max|p|. While S < 2^24 it runs in float32: every
product, partial sum and difference is an integer with |value| <= S <
2^24, which float32 holds exactly, so the product is exact in any BLAS
summation order (the corpus, whose largest S on the default box is
32). The same argument gives float64 while S < 2^53. Either float tier
works on one |dom| x rows gains array, and only the caps x rows table is
cast to int64. int64 runs while S < 2^61, where a slack of two
conjugates cannot wrap (real tables read as decimals: thirds have D =
10^16), and Python ints (``dtype=object``) above. The Fenchel descent
carries its own gains and has no float tier (below).

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
Discrete Optimization 6, 2009). The gains G, D*f1(Z) - D*q(Z) and
D*f2(Z) + D*q(Z), are linear in q: phi(q + m) is the sum of both sides'
maxima of G + T[m], T[m, Z] = +-D*|S & Z| for m = +-chi_S, and a step
adds one row of T to G. For n <= 7 one move-gain table T of every move,
formed once a descent, fits a byte budget; past it a step forms T in
blocks. All is int64 while max|D*f| + D*n*(box + 1) < 2^61, else Python
ints. A point where phi equals the primal certifies by weak duality.
Where f1 or f2 is not M-natural concave, the end point only bounds the
box minimum from above; a scan of the whole box is the tests' oracle.

Both regimes read one table that writes each grid inequality once, as
(lhs, rhs) over a capped and the plain conjugate at a pair's p, q,
p v q and p ^ q, and one builder turns their first violations into
reports. The sampled regime is one pass over the checks it is given. It
draws its pairs from ``random.Random(seed)`` by ``core._draws``, a
byte-bounded chunk of samples at a time: 2n prices and then, for the
submodular check, the cap index. The cross and quotient checks of every
size cap draw the same 2n prices from the same seed, so one draw and one
conjugate table serve them all, each cap reading its own column. The
samples, and so the reports, are those of the scalar
``randint``/``randrange`` loops, which the tests keep as the oracle.
"""

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    NEG_INF,
    Falsification,
    PriceVector,
    SetFn,
    _draws,
    _require_int,
    max_over,
    price_sums,
    restrict_by_size,
    shown,
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
    """Value and argmax of max_Z { f(Z) - p(Z) } at the price vector p
    passed to ``conjugate``; the argmax is the smallest bitmask among
    maximizers."""

    value: object
    argmax_mask: int


def conjugate(f, p):
    """Exact maximum of f(Z) - p(Z) over all 2^n subsets at integer
    prices p: decided on D * f (``f.exact``) against D * p, and shown
    through ``core.shown``."""
    _require_nonempty_dom(f)
    if p.n != f.n:
        raise ValueError(f"price vector has {p.n} entries, function has n={f.n}")
    if p.mode != "int":
        raise ValueError(f"price vector {p.entries} is not integer")
    sums = price_sums([e * f.scale for e in p.entries], f.n)
    vals = f.exact
    best = None
    best_mask = 0
    for m in f.dom_masks:
        v = vals[m] - sums[m]
        if best is None or v > best:
            best = v
            best_mask = m
    return ConjugateEval(shown(f, best), best_mask)


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
    """Batched conjugates of f under every size cap, times D = ``f.scale``.
    Called on a (rows, n) integer price array it returns a (rows, caps)
    table whose column c is D * max { f(Z) - p(Z) : Z in dom f,
    |Z| <= s + c }, s the smallest domain size; the last column is the
    plain conjugate. The table is the transpose of a contiguous
    (caps, rows) array, which ``_box_sweeps`` reads as it is. The gains
    are domain-major, (|dom|, rows), over the domain sorted by size, so
    each size's maximum is one contiguous slice reduction, followed by a
    running maximum over sizes."""

    def __init__(self, f):
        dom = sorted(f.dom_masks, key=int.bit_count)
        sizes = [m.bit_count() for m in dom]
        self.n = f.n
        self.scale = f.scale
        starts = [i for i, z in enumerate(sizes) if i == 0 or z != sizes[i - 1]]
        self.spans = list(zip(starts, starts[1:] + [len(dom)]))
        present = [sizes[i] for i in starts]
        self.cols = np.searchsorted(present, range(sizes[0], f.n + 1), side="right") - 1
        ind = np.array(dom, dtype=np.int64)[:, None] >> np.arange(f.n) & 1
        self.vals = [f.exact[m] for m in dom]
        self.magnitude = max(abs(v) for v in self.vals)
        fits = max(self.magnitude, self.scale) < _INT64_SAFE
        self.ind = (ind if fits else ind.astype(object)) * self.scale
        self.fast = np.array(self.vals, np.int64) if fits else None
        # (bound on S, values, ind) per float tier, narrowest first.
        tiers = ((1 << 24, np.float32), (1 << 53, np.float64)) if fits else ()
        self.floats = [(bound, self.fast.astype(t), self.ind.astype(t)) for bound, t in tiers]

    def _gains(self, P):
        """D * (f(Z) - p(Z)) as a (|dom|, rows) array, Z in the size-sorted
        domain and p the rows of P, in the narrowest exact tier."""
        top = self.n * self.scale * int(np.abs(P).max(initial=0))
        if self.fast is None or self.magnitude + top >= _INT64_SAFE:
            return (np.array(self.vals, dtype=object)[:, None]
                    - self.ind.astype(object) @ P.astype(object).T)
        for bound, vals, ind in self.floats:
            if self.magnitude + top < bound:  # every product, sum and difference is exact
                # A contiguous copy: OpenBLAS is slow, and erratic under load, on a P.T view.
                gains = ind @ P.T.astype(vals.dtype, order="C")
                return np.subtract(vals[:, None], gains, out=gains)
        return self.fast[:, None] - self.ind @ P.T

    def __call__(self, P):
        gains = self._gains(P)
        per_size = np.empty((len(self.spans), len(P)), gains.dtype)
        for row, (a, b) in zip(per_size, self.spans):
            np.max(gains[a:b], axis=0, out=row)
        np.maximum.accumulate(per_size, axis=0, out=per_size)
        table = per_size[self.cols]
        return (table if table.dtype == object else table.astype(np.int64, copy=False)).T


def _box_points(n, lo, hi):
    side = np.arange(lo, hi + 1, dtype=np.int64)
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*([side] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


_SUBMODULAR, _CROSS, _QUOTIENT = range(3)
_NAMES = ("submodular_sized", "cross_submodular", "strong_quotient")
_P, _Q, _JOIN, _MEET = range(4)

# Each grid inequality once, as (lhs, rhs) with lhs <= rhs required, from
# ``s``, a size-capped column, and ``g``, the plain one, each indexed by
# the point of a pair: _P, _Q, _JOIN (p v q) or _MEET (p ^ q). The
# submodular check of the plain conjugate reads it as its capped column.
# The quotient holds on pairs q <= p.
_INEQUALITIES = (
    lambda s, g: (s[_JOIN] + s[_MEET], s[_P] + s[_Q]),
    lambda s, g: (s[_MEET] + g[_JOIN], s[_P] + g[_Q]),
    lambda s, g: (g[_P] - g[_Q], s[_P] - s[_Q]),
)


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
    g = _Conjugates(f)(pts).T  # (caps, points), contiguous
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
    idx = np.arange(npts)
    first = [[None] * len(g) for _ in range(3)]
    checked = np.zeros((3, len(g)), dtype=np.int64)
    for a in range(0, npts, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, npts)
        zero = np.zeros((b - a, npts), dtype=np.int64)
        at = (idx[a:b, None], idx, sum((np.maximum(d[a:b, None], d) for d in digits), zero),
              sum((np.minimum(d[a:b, None], d) for d in digits), zero))
        # The pairs of each kind: q from p on, every q, and q <= p.
        pairs = (idx >= at[_P], np.broadcast_to(True, zero.shape), at[_MEET] == idx)
        through = [np.cumsum(m.sum(axis=1)) for m in pairs]
        plain = [g[-1][x] for x in at]
        for c, gc in enumerate(g):  # one cap column at a time keeps temporaries small
            sized = [gc[x] for x in at]
            for kind, inequality in enumerate(_INEQUALITIES):
                if first[kind][c] is not None:
                    continue
                lhs, rhs = inequality(sized, plain)
                bad = (lhs > rhs) & pairs[kind]
                hit = np.flatnonzero(bad.any(axis=1))
                r = hit[0] if len(hit) else b - a - 1
                checked[kind, c] += through[kind][r]
                if len(hit):
                    first[kind][c] = (pts[a + r].tolist(), pts[np.argmax(bad[r])].tolist())
        if all(x is not None for row in first for x in row):
            break
    return first, checked


def _chunk(f, rows):
    """Samples per chunk at ``rows`` price rows a sample: at most the rows
    of ``_SAMPLE_CHUNK`` four-row samples, fewer past ``_SAMPLE_BYTES``."""
    fit = _SAMPLE_BYTES // (16 * len(f.dom_masks))
    return max(1, min(4 * _SAMPLE_CHUNK, fit) // rows)


def _sampled(f, kinds, caps, lo, hi, seed, samples):
    """The checks of ``kinds`` over ``samples`` pairs drawn from
    ``random.Random(seed)``, in chunks of ``_chunk``, as ``_grid_report``
    reads them: a list per kind of (kind, k, first violated pair or None,
    pairs counted through it), one for _SUBMODULAR, one per cap in
    ``caps`` for the others.

    A sample draws 2n prices: p then q, and for the quotient, element by
    element, the larger and the smaller of each pair, its p >= q. Each
    chunk evaluates the conjugates once, at p, q, p v q and p ^ q for the
    submodular and cross checks and at the quotient's p and q, the only
    points its inequality reads. The submodular check then draws an index
    into ``caps`` and compares the plain column and that cap's column,
    two pairs a sample; its first failing sample names the plain
    conjugate before the cap. The others compare every cap's column,
    and each cap keeps its own first failing sample."""
    n, width = f.n, hi - lo + 1
    runs = [(2 * n, width, width.bit_length())]
    if _SUBMODULAR in kinds:
        runs.append((1, len(caps), len(caps).bit_length()))
    s, _ = f.dom_size_range()
    cap_cols = np.array([min(k, n) - s for k in caps])
    plain_then_cap = np.stack([np.full(len(caps), -1), cap_cols], axis=1)
    conj, rng = _Conjugates(f), random.Random(seed)
    # Per kind: (checks, pairs a sample).
    shapes = [(1, 2) if kind == _SUBMODULAR else (len(caps), 1) for kind in kinds]
    found = [{} for _ in kinds]  # per kind: check -> its entry at the first failing sample
    chunk = _chunk(f, sum(2 if kind == _QUOTIENT else 4 for kind in kinds))
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        draws = _draws(rng, count, runs)
        points = []
        for kind in kinds:
            if kind == _QUOTIENT:
                a, b = draws[0][:, ::2] + lo, draws[0][:, 1::2] + lo
                points.append((np.maximum(a, b), np.minimum(a, b)))
            else:
                p, q = draws[0][:, :n] + lo, draws[0][:, n:] + lo
                points.append((p, q, np.maximum(p, q), np.minimum(p, q)))
        table = conj(np.concatenate([x for rows in points for x in rows]))
        table, row = table.reshape(-1, count, table.shape[1]), 0
        for t, (kind, rows, (checks, per_sample)) in enumerate(zip(kinds, points, shapes)):
            h, row = table[row:row + len(rows)], row + len(rows)
            if kind == _SUBMODULAR:  # the plain column, then the drawn cap's
                sized = h[:, np.arange(count)[:, None], plain_then_cap[draws[1][:, 0]]]
            else:  # a check per cap, on its own column
                sized = h[:, :, cap_cols]
            lhs, rhs = _INEQUALITIES[kind](sized, h[:, :, -1:])
            ok = lhs <= rhs
            if ok.all():
                continue
            ok = ok.reshape(count, checks, per_sample)
            for c in np.flatnonzero(~ok.all(axis=(0, 2))):
                if c not in found[t]:
                    i, j = divmod(int(np.argmin(ok[:, c])), per_sample)
                    k = caps[c] if kind != _SUBMODULAR else caps[draws[1][i, 0]] if j else None
                    found[t][c] = (kind, k, (rows[0][i].tolist(), rows[1][i].tolist()),
                                   per_sample * (start + i + 1))
        if all(len(d) == checks for d, (checks, _) in zip(found, shapes)):
            break
    return [[d.get(c, (kind, None, None, per_sample * samples)) for c in range(checks)]
            for kind, d, (checks, per_sample) in zip(kinds, found, shapes)]


def _box_checks(f, kinds, caps, lo, hi):
    """``_sampled``'s checks read from the cached box sweep, where
    _SUBMODULAR checks the plain conjugate and then every cap in ``caps``."""
    first, checked = _box_sweeps(f, lo, hi)
    s, _ = f.dom_size_range()
    out = []
    for kind in kinds:
        ks = [None] + caps if kind == _SUBMODULAR else caps
        cols = [min(f.n if k is None else k, f.n) - s for k in ks]
        out.append([(kind, k, first[kind][c], int(checked[kind, c])) for k, c in zip(ks, cols)])
    return out


def _grid_checks(f, kinds, caps, box, seed, samples):
    """The checks of ``kinds`` on f over ``box``, and the report fields of
    their regime: the box is swept when it has at most
    ``EXHAUSTIVE_GRID_LIMIT`` points, and sampled when larger."""
    _require_int("samples", samples, 1)
    # A box side holds fewer than 2^32 values, and its prices are int64.
    if not (isinstance(box, (tuple, list)) and len(box) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in box)
            and 0 <= box[1] - box[0] < (1 << 32) - 1
            and -(1 << 63) < box[0] and box[1] < 1 << 63):
        raise ValueError(f"box must be a pair of ints lo <= hi with hi - lo < 2^32 - 1 "
                         f"and -2^63 < lo, hi < 2^63, got {box!r}")
    lo, hi = box
    if (hi - lo + 1) ** f.n <= EXHAUSTIVE_GRID_LIMIT:
        return _box_checks(f, kinds, caps, lo, hi), {}
    return _sampled(f, kinds, caps, lo, hi, seed, samples), {"regime": "sampled", "seed": seed}


def _grid_report(checks, instance_id, regime):
    """The report of ``checks``, (kind, k, first violated pair or None,
    pairs counted) in checking order, k=None for the plain conjugate: the
    first violation, with the pairs of every check up to and including it."""
    total = 0
    for kind, k, pair, pairs in checks:
        total += pairs
        if pair is not None:
            counter = {"inequality": "submodular" if k is None else _NAMES[kind],
                       "p": list(pair[0]), "q": list(pair[1])}  # copied: the box sweep is cached
            if k is not None:
                counter["k"] = k
            return failed_report("duality_grid", instance_id, counter, triples=total, **regime)
    return passed_report("duality_grid", instance_id, triples=total, **regime)


def check_conjugate_submodular(f, *, box=DEFAULT_BOX, seed=0, samples=DEFAULT_SAMPLES,
                               instance_id=""):
    """Submodularity of the conjugate on the integer box, both for the
    plain conjugate and for every feasible size cap.

    The box is swept exhaustively when small enough, otherwise
    ``samples`` seeded pairs are drawn (the size cap is sampled alongside
    the pair).
    """
    _require_nonempty_dom(f)
    checks, regime = _grid_checks(f, (_SUBMODULAR,), list(_feasible_caps(f)), box, seed,
                                  samples)
    return _grid_report(checks[0], instance_id, regime)


def _cross_and_quotient(f, caps, *, box=DEFAULT_BOX, seed=0, samples=DEFAULT_SAMPLES,
                        instance_id="", kinds=(_CROSS, _QUOTIENT)):
    """The reports of ``kinds`` (cross_submodular, then strong_quotient)
    of f for each size cap in ``caps``, as a tuple per cap, each what the
    check of that one cap gives. Sampled, one draw and one conjugate table
    a chunk serve every cap and both checks."""
    _require_nonempty_dom(f)
    for k in caps:
        _require_cap(f, k)
    checks, regime = _grid_checks(f, kinds, caps, box, seed, samples)
    return [tuple(_grid_report([check], instance_id, regime) for check in per_cap)
            for per_cap in zip(*checks)]


def check_cross_submodular(f, k, *, box=DEFAULT_BOX, seed=0, samples=DEFAULT_SAMPLES,
                           instance_id=""):
    """Mixed submodularity between the size-capped and plain conjugates:
    sized(p) + plain(q) >= sized(p ^ q) + plain(p v q) over box pairs."""
    return _cross_and_quotient(f, [k], box=box, seed=seed, samples=samples,
                               instance_id=instance_id, kinds=(_CROSS,))[0][0]


def check_strong_quotient(f, k, *, box=DEFAULT_BOX, seed=0, samples=DEFAULT_SAMPLES,
                          instance_id=""):
    """Monotone quotient relation on comparable pairs p >= q:
    sized(p) - sized(q) >= plain(p) - plain(q)."""
    return _cross_and_quotient(f, [k], box=box, seed=seed, samples=samples,
                               instance_id=instance_id, kinds=(_QUOTIENT,))[0][0]


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
    spread = submasks_ascending(ctx.y0_mask)
    m = ctx.y0_mask.bit_count()
    xbase = ctx.x_mask & ~ctx.i_mask
    ybase = ctx.y_mask | ctx.i_mask
    fvals = f.values
    x_side = SetFn(m, [fvals[xbase | g] for g in spread], f.mode)
    y_side = SetFn(m, [fvals[ybase & ~g] for g in spread], f.mode)
    x_sized = restrict_by_size(x_side, ctx.i_mask.bit_count())
    for name, side in (("x_side", x_side), ("x_side_sized", x_sized), ("y_side", y_side)):
        if not side.dom_masks:
            raise Falsification(_empty_side(name, ctx.x_mask, ctx.y_mask, ctx.i_mask))
    return RestrictionTriple(x_side, x_sized, y_side, ctx)


# ---------------------------------------------------------------------------
# Fenchel gap.


@dataclass(frozen=True)
class FenchelResult:
    """Outcome of the primal/dual comparison for a pair of functions.

    Either certified (phi reached the primal exactly at ``attaining_q``)
    or the descent's end point, uncertified, without ``attaining_q``. gap
    is dual - primal (None when the primal is NEG_INF); boundary is set
    when the reported dual point touches the search box. Without a
    certificate that signals that the box may be too small; a certified
    result is exact wherever its point lies. The values are decided
    exactly and shown as the tables show theirs: ints in int mode, the
    nearest floats in real mode.
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
    finite = [f.exact[m] for m in f.dom_masks]
    return max(finite) - min(finite)


_DESCENT_BYTES = 1 << 21  # move gains and their sums, 16 bytes each: one block for n <= 7


def _primal(f1, f2, scale):
    """D * max(f1 + f2) for D = ``scale``, a multiple of both tables' scales."""
    u1, u2 = scale // f1.scale, scale // f2.scale
    return max_over(a * u1 + b * u2 for a, b in zip(f1.exact, f2.exact)
                    if a is not NEG_INF and b is not NEG_INF)


def _move_gains(n, start, stop, zm, coef):
    """Rows start:stop of the moves +chi_S by ascending mask S != 0, then -chi_S:
    the masks S, the first minus row, and the move gains +-coef_Z * |S & Z|."""
    half = (1 << n) - 1
    masks, minus = np.arange(start, stop, dtype=np.int64) % half + 1, max(0, half - start)
    table = np.bitwise_count(masks[:, None] & zm) * coef
    np.negative(table[minus:], out=table[minus:])
    return masks, minus, table


def _descend(f1, f2, scale, box, target):
    """Steepest descent of D * phi, D = ``scale``, from q = 0 to the first
    strict minimizer among the moves in ``_move_gains`` order (a move off
    [-box, box]^n scores phi(q)), on carried gains (module docstring),
    until ``target`` (None: never) or no move lowers phi. Returns the end
    point as a tuple and D * phi there."""
    n, total, cut = f1.n, 2 * ((1 << f1.n) - 1), len(f1.dom_masks)
    vals = [f.exact[m] * (scale // f.scale) for f in (f1, f2) for m in f.dom_masks]
    rows = max(1, _DESCENT_BYTES // (16 * (len(vals) + n)))
    top = max(max(map(abs, vals)) + scale * n * (box + 1), scale)  # coef holds D itself
    dtype = np.int64 if top < _INT64_SAFE else object
    gains = np.array(vals, dtype)
    zm = np.array(f1.dom_masks + f2.dom_masks, dtype=np.int64)
    coef = np.array([-scale] * cut + [scale] * (len(vals) - cut), dtype)
    whole = _move_gains(n, 0, total, zm, coef) if 0 < total <= rows else None
    q, sides = [0] * n, np.array([0, cut])
    value = gains[:cut].max() + gains[cut:].max()
    while value != target:
        step, hi, lo = None, 0, 0
        if box in q or -box in q:  # bits where a move leaves the box
            hi, lo = (sum(1 << j for j, x in enumerate(q) if x == e) for e in (box, -box))
        for start in range(0, total, rows):
            masks, minus, t = whole or _move_gains(n, start, min(start + rows, total), zm, coef)
            d = np.maximum.reduceat(gains + t, sides, axis=1)
            d = d[:, 0] + d[:, 1]
            if hi or lo:
                d[masks & np.where(np.arange(len(d)) < minus, hi, lo) != 0] = value
            i = int(d.argmin())
            if d[i] < value:
                value, step = d[i], (t[i], int(masks[i]), 1 if i < minus else -1)
                if value == target:  # weak duality: nothing lies lower
                    break
        if step is None:
            break
        gains += step[0]
        q = [x + step[2] * (step[1] >> j & 1) for j, x in enumerate(q)]
    return tuple(q), value


def fenchel_gap(f1, f2, box=None):
    """Primal max of f1 + f2 against the minimum of the dual
    phi(q) = g1(q) + g2(-q) over the integer box [-L, L]^n.

    The box defaults to spread(f1) + spread(f2) + 1, which contains an
    attaining point whenever one exists; an explicit ``box`` must be an
    int >= 0. A steepest descent from q = 0 (see the module docstring)
    has two outcomes:

    - phi(q) reaches the primal: certified, with ``attaining_q = q``
      (weak duality makes this a certificate for any input);
    - otherwise the end point, uncertified and without ``attaining_q``:
      phi there is the box minimum when f1 and f2 are M-natural concave,
      and an upper bound on it for other inputs. The dual is taken at
      integer prices only, so a real pair may end here with a gap.

    Both tables are read exactly, over D, the least common multiple of
    their scales; the default box is ceil(spread / D) + 1 of the exact
    spread sum.

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
    scale = math.lcm(f1.scale, f2.scale)
    primal = _primal(f1, f2, scale)
    if box is None:
        spread = _spread(f1) * (scale // f1.scale) + _spread(f2) * (scale // f2.scale)
        box = -(-spread // scale) + 1
    target = None if primal is NEG_INF else primal
    q, dual = _descend(f1, f2, scale, box, target)
    dual = int(dual)
    boundary = max(map(abs, q), default=0) == box
    certified = dual == target
    gap = None if primal is NEG_INF else shown(f1, dual - primal, scale)
    return FenchelResult(shown(f1, primal, scale), shown(f1, dual, scale), gap,
                         PriceVector(q) if certified else None, box, boundary, certified,
                         f1.mode)
