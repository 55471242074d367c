"""Conjugate evaluation and the duality-side verification path: grid
submodularity checks, the restricted functions induced by an exchange
context, and exact integer Fenchel-gap certification.

``conjugate`` is the scalar route, used for caller-supplied grids and as
the tests' oracle. Box sweeps, sampled pairs and Fenchel dual scans use
one batched kernel, ``vals - P @ ind`` over the effective domain, which
returns every size cap in one pass. It is exact: int64 while
max|f| + n*max|p| < 2^61 (a slack summing two conjugates cannot wrap),
Python numbers (``dtype=object``) above that bound.
"""

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .core import (
    NEG_INF,
    REAL_EPS,
    Falsification,
    PriceVector,
    SetFn,
    elements_of,
    ext_add,
    leq_for,
    max_over,
    price_sums,
    restrict_by_size,
)
from .exchange import DEFAULT_SAMPLES, ExchangeContext, _ext_or_none
from .reporting import failed_report, passed_report

DEFAULT_BOX = (-3, 3)

# Grids up to this many points get the exhaustive all-pairs treatment.
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
    if not f.dom_masks:
        raise ValueError("the effective domain is empty")
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


def integer_grid(n, lo=-3, hi=3):
    """All integer price vectors in [lo, hi]^n, lexicographic order."""
    return tuple(PriceVector(q) for q in product(range(lo, hi + 1), repeat=n))


def _feasible_caps(f):
    """Size caps k for which the size-capped conjugate is defined."""
    s, _ = f.dom_size_range()
    return range(s, f.n + 1)


# ---------------------------------------------------------------------------
# Batched conjugates and the grid-inequality engine.

_INT64_SAFE = 1 << 61   # |conjugate| bound that keeps int64 slacks exact
_BLOCK_ROWS = 8         # box rows per join/meet pass
_SAMPLE_CHUNK = 256     # sampled pairs evaluated at once


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


def _holds(lhs, rhs, mode):
    """``leq_for(mode)`` elementwise over arrays."""
    if mode == "int":
        return lhs <= rhs
    return lhs <= rhs + REAL_EPS * np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))


def _box_points(n, lo, hi):
    side = np.arange(lo, hi + 1, dtype=np.int64)
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*([side] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


_SUBMODULAR, _CROSS, _QUOTIENT = range(3)


@lru_cache(maxsize=1)
def _box_sweeps(f, lo, hi):
    """Every grid inequality of f over the integer box [lo, hi]^n, in
    one pass over blocks of rows of the lexicographically ordered points
    (the box is closed under join and meet, so both are grid indices).

    Returns (first, checked), indexed [kind][c] for the cap column c of
    ``_Conjugates``: the first violated pair (p, q) in row order, or
    None, and the pairs counted up to and including the failing row.
    Kinds: submodular over pairs j >= i, cross over all ordered pairs
    (sized at p, plain at q), strong quotient over pairs p_j <= p_i."""
    pts = _box_points(f.n, lo, hi)
    npts = len(pts)
    digits = [(pts[:, c] - lo) * (hi - lo + 1) ** (f.n - 1 - c) for c in range(f.n)]
    g = np.ascontiguousarray(_Conjugates(f)(pts).T)
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


def _sampled_report(f, samples, draw, tests, seed, instance_id, per_sample=1):
    """Report over ``samples`` seeded pairs. ``draw()`` makes one sample
    (p, q, k) with exactly the rng calls of a scalar loop; chunks of
    ``_SAMPLE_CHUNK`` samples are evaluated at once. ``tests(plain,
    sized)`` gets the plain and cap-k conjugates at p, q, p v q, p ^ q
    (row 0..3, one column per sample) and returns (inequality, uses_k,
    holds) in checking order; the first failing sample is reported, with
    ``per_sample`` pairs counted through it."""
    conj = _Conjugates(f)
    s, _ = f.dom_size_range()
    for start in range(0, samples, _SAMPLE_CHUNK):
        drawn = [draw() for _ in range(min(_SAMPLE_CHUNK, samples - start))]
        p, q = (np.array([d[i] for d in drawn], dtype=np.int64).reshape(len(drawn), f.n)
                for i in (0, 1))
        cols = [min(d[2], f.n) - s for d in drawn]
        g = conj(np.concatenate([p, q, np.maximum(p, q), np.minimum(p, q)]))
        g = g.reshape(4, len(drawn), -1)
        checks = tests(g[:, :, -1], g[:, np.arange(len(drawn)), cols])
        failures = [(int(np.argmin(ok)), t, inequality, uses_k)
                    for t, (inequality, uses_k, ok) in enumerate(checks) if not ok.all()]
        if failures:
            i, _, inequality, uses_k = min(failures)
            counter = {"inequality": inequality, "p": drawn[i][0], "q": drawn[i][1]}
            if uses_k:
                counter["k"] = drawn[i][2]
            return failed_report("duality_grid", instance_id, counter,
                                 triples=per_sample * (start + i + 1),
                                 regime="sampled", seed=seed)
    return passed_report("duality_grid", instance_id, triples=per_sample * max(samples, 0),
                         regime="sampled", seed=seed)


def _explicit_pairs_check(f, grid_vectors, checker):
    """Generic path for caller-supplied grids (joins/meets may leave the
    grid, so conjugates are memoized per price vector)."""
    memo = {}

    def g(p, k=None):
        key = (p.entries, k)
        if key not in memo:
            memo[key] = (conjugate(f, p) if k is None else conjugate_sized(f, k, p)).value
        return memo[key]

    return checker(g)


def _box_or_sample_policy(f, grid, box):
    # The box sweep compares exactly, so real-mode default grids fall
    # through to the tolerance-aware sampled path.
    lo, hi = box
    if grid is not None:
        return "explicit", None
    npoints = (hi - lo + 1) ** f.n
    if f.mode == "int" and npoints <= EXHAUSTIVE_GRID_LIMIT:
        return "box", (lo, hi)
    return "sampled", (lo, hi)


def check_conjugate_submodular(f, grid=None, *, box=DEFAULT_BOX, seed=0,
                               samples=DEFAULT_SAMPLES, instance_id=""):
    """Submodularity of the conjugate on a price grid, both for the plain
    conjugate and for every feasible size cap.

    With ``grid=None`` the integer box is swept exhaustively when small
    enough, otherwise ``samples`` seeded pairs are drawn (the size cap is
    sampled alongside the pair).
    """
    if not f.dom_masks:
        raise ValueError("the effective domain is empty")
    leq = leq_for(f.mode)
    caps = list(_feasible_caps(f))
    kind, lohi = _box_or_sample_policy(f, grid, box)

    if kind == "explicit":
        vectors = list(grid)
        checked = 0
        for k, tag in [(None, "submodular")] + [(k, "submodular_sized") for k in caps]:
            def run(g):
                nonlocal checked
                for a in range(len(vectors)):
                    for b in range(a, len(vectors)):
                        p, q = vectors[a], vectors[b]
                        checked += 1
                        lhs = g(p.join(q), k) + g(p.meet(q), k)
                        if not leq(lhs, g(p, k) + g(q, k)):
                            counter = {"inequality": tag, "p": list(p.entries),
                                       "q": list(q.entries)}
                            if k is not None:
                                counter["k"] = k
                            return counter
                return None
            counter = _explicit_pairs_check(f, vectors, run)
            if counter:
                return failed_report("duality_grid", instance_id, counter,
                                     triples=checked)
        return passed_report("duality_grid", instance_id, triples=checked)

    lo, hi = lohi
    if kind == "box":
        checks = [("submodular", _SUBMODULAR, None)]
        checks += [("submodular_sized", _SUBMODULAR, k) for k in caps]
        return _box_report(f, lo, hi, checks, instance_id)

    rng = random.Random(seed)

    def draw():
        return ([rng.randint(lo, hi) for _ in range(f.n)],
                [rng.randint(lo, hi) for _ in range(f.n)], caps[rng.randrange(len(caps))])

    def tests(g, gk):
        return [("submodular", False, _holds(g[2] + g[3], g[0] + g[1], f.mode)),
                ("submodular_sized", True, _holds(gk[2] + gk[3], gk[0] + gk[1], f.mode))]

    return _sampled_report(f, samples, draw, tests, seed, instance_id, per_sample=2)


def check_cross_submodular(f, k, grid=None, *, box=DEFAULT_BOX, seed=0,
                           samples=DEFAULT_SAMPLES, instance_id=""):
    """Mixed submodularity between the size-capped and plain conjugates:
    sized(p) + plain(q) >= sized(p ^ q) + plain(p v q) over grid pairs."""
    if not f.dom_masks:
        raise ValueError("the effective domain is empty")
    if not restrict_by_size(f, k).dom_masks:
        raise ValueError(f"no feasible subset of size <= {k}")
    leq = leq_for(f.mode)
    kind, lohi = _box_or_sample_policy(f, grid, box)

    if kind == "explicit":
        vectors = list(grid)
        fk = restrict_by_size(f, k)
        checked = 0
        counter = None
        for p in vectors:
            for q in vectors:
                checked += 1
                lhs = conjugate(fk, p.meet(q)).value + conjugate(f, p.join(q)).value
                if not leq(lhs, conjugate(fk, p).value + conjugate(f, q).value):
                    counter = {"inequality": "cross_submodular", "k": k,
                               "p": list(p.entries), "q": list(q.entries)}
                    break
            if counter:
                break
        if counter:
            return failed_report("duality_grid", instance_id, counter, triples=checked)
        return passed_report("duality_grid", instance_id, triples=checked)

    lo, hi = lohi
    if kind == "box":
        return _box_report(f, lo, hi, [("cross_submodular", _CROSS, k)], instance_id)

    rng = random.Random(seed)

    def draw():
        return ([rng.randint(lo, hi) for _ in range(f.n)],
                [rng.randint(lo, hi) for _ in range(f.n)], k)

    def tests(g, gk):
        return [("cross_submodular", True, _holds(gk[3] + g[2], gk[0] + g[1], f.mode))]

    return _sampled_report(f, samples, draw, tests, seed, instance_id)


def check_strong_quotient(f, k, grid=None, *, box=DEFAULT_BOX, seed=0,
                          samples=DEFAULT_SAMPLES, instance_id=""):
    """Monotone quotient relation on comparable pairs p >= q:
    sized(p) - sized(q) >= plain(p) - plain(q)."""
    if not f.dom_masks:
        raise ValueError("the effective domain is empty")
    if not restrict_by_size(f, k).dom_masks:
        raise ValueError(f"no feasible subset of size <= {k}")
    leq = leq_for(f.mode)
    kind, lohi = _box_or_sample_policy(f, grid, box)

    if kind == "explicit":
        vectors = list(grid)
        fk = restrict_by_size(f, k)
        checked = 0
        for p in vectors:
            for q in vectors:
                if not p.dominates(q):
                    continue
                checked += 1
                lhs = conjugate(f, p).value - conjugate(f, q).value
                rhs = conjugate(fk, p).value - conjugate(fk, q).value
                if not leq(lhs, rhs):
                    counter = {"inequality": "strong_quotient", "k": k,
                               "p": list(p.entries), "q": list(q.entries)}
                    return failed_report("duality_grid", instance_id, counter,
                                         triples=checked)
        return passed_report("duality_grid", instance_id, triples=checked)

    lo, hi = lohi
    if kind == "box":
        return _box_report(f, lo, hi, [("strong_quotient", _QUOTIENT, k)], instance_id)

    rng = random.Random(seed)

    def draw():  # p >= q: the larger of two draws per element goes to p
        pairs = [sorted((rng.randint(lo, hi), rng.randint(lo, hi))) for _ in range(f.n)]
        return [b for _, b in pairs], [a for a, _ in pairs], k

    def tests(g, gk):
        return [("strong_quotient", True, _holds(g[0] - g[1], gk[0] - gk[1], f.mode))]

    return _sampled_report(f, samples, draw, tests, seed, instance_id)


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
    for name, fn in (("x_side", x_side), ("x_side_sized", x_sized), ("y_side", y_side)):
        if not fn.dom_masks:
            raise Falsification(
                f"{name} restriction has empty domain for X={ctx.X}, Y={ctx.Y}, I={ctx.I}"
            )
    return RestrictionTriple(x_side, x_sized, y_side, ctx)


# ---------------------------------------------------------------------------
# Fenchel gap.


@dataclass(frozen=True)
class FenchelResult:
    """Outcome of the primal/dual comparison for a pair of functions.

    gap is dual - primal (None when the primal is NEG_INF); boundary is
    set when the best dual point touches the search box, which signals
    that the box may be too small. ``certified`` means int mode with an
    exactly attained gap of zero.
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


_CHUNK = 50_000


def fenchel_gap(f1, f2, box=None):
    """Primal max of f1 + f2 against the dual scan of g1(q) + g2(-q) over
    the integer box [-L, L]^n.

    The box defaults to spread(f1) + spread(f2) + 1, which contains an
    attaining point whenever one exists. Points are scanned shell by
    shell outward from the origin; in int mode the scan stops at the
    first q attaining the primal (weak duality makes it the minimum).
    In real mode the result is a weak-duality report only (best dual
    found, no attainment certificate).
    """
    if f1.n != f2.n:
        raise ValueError(f"ground sets differ: {f1.n} vs {f2.n}")
    if f1.mode != f2.mode:
        raise ValueError(f"mode mismatch: {f1.mode!r} vs {f2.mode!r}")
    if not f1.dom_masks or not f2.dom_masks:
        raise ValueError("the effective domain is empty")
    n = f1.n
    mode = f1.mode
    primal = max_over(ext_add(a, b) for a, b in zip(f1.values, f2.values))
    if box is None:
        spread_sum = _spread(f1) + _spread(f2)
        box = int(np.ceil(spread_sum)) + 1 if mode == "real" else spread_sum + 1
    exact = mode == "int"

    if n == 0:
        dual = f1.values[0] + f2.values[0]
        gap = None if primal is NEG_INF else dual - primal
        return FenchelResult(primal, dual, gap, PriceVector(()), box, False,
                             exact and gap == 0, mode)

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


def check_lemma6_bound(f, ctx, *, box=3, samples=DEFAULT_SAMPLES, seed=0,
                       instance_id=""):
    """For the restricted pair of an exchange context, every integer q in
    the box satisfies sized_x_conj(q) + y_conj(-q) >= f(X) + f(Y)."""
    triple = build_restrictions(f, ctx)
    target = f.values[ctx.x_mask] + f.values[ctx.y_mask]
    m = triple.y_side.n
    leq = leq_for(f.mode)
    npoints = (2 * box + 1) ** m
    exhaustive = npoints <= 100_000
    rng = random.Random(seed)
    checked = 0

    def qs():
        if exhaustive:
            yield from product(range(-box, box + 1), repeat=m)
        else:
            for _ in range(samples):
                yield tuple(rng.randint(-box, box) for _ in range(m))

    for q in qs():
        qv = PriceVector(q)
        checked += 1
        lhs = conjugate(triple.x_side_sized, qv).value + conjugate(triple.y_side, -qv).value
        if not leq(target, lhs):
            counter = {"q": list(q), "bound": _ext_or_none(target), "value": lhs,
                       "X": list(ctx.X), "Y": list(ctx.Y), "I": list(ctx.I)}
            return failed_report("lemma6_bound", instance_id, counter,
                                 triples=checked,
                                 regime="exhaustive" if exhaustive else "sampled",
                                 seed=None if exhaustive else seed)
    return passed_report("lemma6_bound", instance_id, triples=checked,
                         regime="exhaustive" if exhaustive else "sampled",
                         seed=None if exhaustive else seed)
