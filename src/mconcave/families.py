"""Instance families with known exchange structure, plus adversarial
mutators for negative controls.

The closed-form constructors (matroid ranks, weighted basis valuations,
laminar sums, assignment valuations) are the test corpus: each output is
known to satisfy the single-element exchange property, and the weighted
basis valuations additionally have equi-cardinal domains. Rejection
sampling of random tables is kept only as a small-n diversity supplement
because valid tables become vanishingly rare from n = 4 on.
"""

import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import HARD_CAP, NEG_INF, PriceVector, SetFn, _below, _require_int, elements_of, mask_of


class Matroid:
    """Matroid on {1..n} realized as a dense rank table.

    ``kind`` records the constructing family ("uniform", "partition",
    "graphic"); ``params`` the constructor arguments. Rank axioms are
    verified exhaustively at construction.
    """

    def __init__(self, n, kind, params, rank_table):
        self.n = n
        self.kind = kind
        self.params = params
        self.rank_table = tuple(rank_table)
        self._validate()

    def _validate(self):
        """The local rank axioms, which imply the global ones: r({}) = 0,
        unit increase r(X) <= r(X+i) <= r(X) + 1, and
        r(X+i) + r(X+j) >= r(X) + r(X+i+j) for i < j outside X. The first
        violation is reported in order of X, then i (then j)."""
        rt = self.rank_table
        if len(rt) != 1 << self.n:
            raise ValueError("rank table must have 2^n entries")
        if rt[0] != 0:
            raise ValueError("rank of the empty set must be 0")
        r = np.array(rt, dtype=np.int64)
        masks = np.arange(1 << self.n)
        bad = []
        for i in range(self.n):
            x = masks[(masks & 1 << i) == 0]
            step = r[x | 1 << i] - r[x]
            bad += [(int(x[k]), i) for k in np.flatnonzero((step < 0) | (step > 1))[:1]]
        if bad:
            m, i = min(bad)
            raise ValueError(f"rank not monotone with unit steps at {elements_of(m)} + {i + 1}")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                x = masks[(masks & (1 << i | 1 << j)) == 0]
                xi, xj = x | 1 << i, x | 1 << j
                fail = r[xi] + r[xj] < r[x] + r[xi | xj]
                bad += [(int(x[k]), i, j) for k in np.flatnonzero(fail)[:1]]
        if bad:
            m, i, j = min(bad)
            raise ValueError(f"rank not submodular at {elements_of(m | 1 << i)}, "
                             f"{elements_of(m | 1 << j)}")

    @cached_property
    def full_rank(self):
        return self.rank_table[(1 << self.n) - 1]

    @cached_property
    def bases(self):
        """Basis bitmasks in ascending order."""
        r = self.full_rank
        return tuple(
            m for m in range(1 << self.n)
            if m.bit_count() == r and self.rank_table[m] == r
        )

    def __repr__(self):
        return f"Matroid(n={self.n}, kind={self.kind!r}, rank={self.full_rank})"


def uniform_matroid(n, r):
    """U(r, n): every set of size at most r is independent."""
    _require_int("n", n, 0)
    _require_int("rank", r, 0)
    if r > n:
        raise ValueError(f"rank {r} outside 0..{n}")
    table = [min(m.bit_count(), r) for m in range(1 << n)]
    return Matroid(n, "uniform", {"n": n, "r": r}, table)


def partition_matroid(blocks, caps):
    """Blocks partition the ground set; at most caps[k] elements per block."""
    if len(blocks) != len(caps):
        raise ValueError("one cap per block required")
    n = sum(len(b) for b in blocks)
    seen = set()
    for b in blocks:
        for e in b:
            if e in seen:
                raise ValueError(f"element {e} appears in two blocks")
            seen.add(e)
    if seen != set(range(1, n + 1)):
        raise ValueError("blocks must partition 1..n with consecutive elements")
    for c in caps:
        _require_int("cap", c, 0)
    block_masks = [mask_of(b, n) for b in blocks]
    table = [
        sum(min((m & bm).bit_count(), c) for bm, c in zip(block_masks, caps))
        for m in range(1 << n)
    ]
    params = {"blocks": [sorted(b) for b in blocks], "caps": list(caps)}
    return Matroid(n, "partition", params, table)


def graphic_matroid(num_vertices, edges):
    """Ground set = edge list (parallel edges allowed) on <= 6 vertices;
    rank of an edge subset is its spanning-forest size."""
    _require_int("num_vertices", num_vertices, 0)
    if num_vertices > 6:
        raise ValueError("graphic matroids are kept to <= 6 vertices")
    n = len(edges)
    for u, v in edges:
        if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
            raise ValueError(f"edge ({u},{v}) has endpoints outside 1..{num_vertices}")
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) not supported")
    table = []
    for m in range(1 << n):
        parent = list(range(num_vertices + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        size = 0
        for idx in range(n):
            if m >> idx & 1:
                ru, rv = find(edges[idx][0]), find(edges[idx][1])
                if ru != rv:
                    parent[ru] = rv
                    size += 1
        table.append(size)
    params = {"num_vertices": num_vertices, "edges": [tuple(e) for e in edges]}
    return Matroid(n, "graphic", params, table)


def matroid_rank_fn(m):
    """The rank function as a full-domain set function (int mode)."""
    return SetFn(m.n, list(m.rank_table), "int")


def weighted_basis_valuation(m, w):
    """w(B) on bases of the matroid, NEG_INF elsewhere; the domain is
    equi-cardinal by construction."""
    if not isinstance(w, PriceVector):
        w = PriceVector(w)
    if w.n != m.n:
        raise ValueError(f"weights have {w.n} entries, matroid has n={m.n}")
    if w.mode != "int":
        raise ValueError("integer weights required for the int-mode corpus")
    bases = m.bases
    if not bases:
        raise ValueError("matroid has no basis")
    vals = [NEG_INF] * (1 << m.n)
    for b in bases:
        vals[b] = w.total(b)
    return SetFn(m.n, vals, "int")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaminarSpec:
    """A laminar family over {1..n} with a concave table per member.

    tables[k] has length |members[k]| + 1 and nonincreasing differences;
    the induced function is X -> sum_k tables[k][|X & members[k]|].
    """

    n: int
    members: tuple
    tables: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(tuple(sorted(m)) for m in self.members))
        object.__setattr__(self, "tables", tuple(tuple(t) for t in self.tables))
        if len(self.members) != len(self.tables):
            raise ValueError("one table per member required")
        masks = [mask_of(m, self.n) for m in self.members]
        for a in range(len(masks)):
            for b in range(a + 1, len(masks)):
                inter = masks[a] & masks[b]
                if inter and inter != masks[a] and inter != masks[b]:
                    raise ValueError(
                        f"members {self.members[a]} and {self.members[b]} "
                        "neither nested nor disjoint"
                    )
        for mem, tab in zip(self.members, self.tables):
            if len(tab) != len(mem) + 1:
                raise ValueError(f"table for {mem} must have {len(mem) + 1} entries")
            diffs = [tab[k + 1] - tab[k] for k in range(len(tab) - 1)]
            if any(d2 > d1 for d1, d2 in zip(diffs, diffs[1:])):
                raise ValueError(f"table for {mem} is not concave: {tab}")


def laminar_concave_fn(spec):
    """Sum of concave functions of |X & A| over a laminar family (full
    domain). Real tables are summed exactly, as ``_exact_weights`` reads
    them, and each sum is given as its nearest float."""
    masks = [mask_of(m, spec.n) for m in spec.members]
    mode, tables = _exact_weights(spec.tables)
    vals = [
        sum(tab[(m & am).bit_count()] for am, tab in zip(masks, tables))
        for m in range(1 << spec.n)
    ]
    return SetFn(spec.n, vals if mode == "int" else map(float, vals), mode)


def _exact_weights(rows):
    """("int", rows) when every weight is an int; else ("real", rows with
    each weight read as its shortest round-trip decimal, a Fraction), so
    that sums of them are exact, as ``SetFn`` reads a real table."""
    if all(isinstance(v, int) for row in rows for v in row):
        return "int", rows
    from fractions import Fraction
    return "real", [[Fraction(repr(v)) for v in row] for row in rows]


def assignment_valuation(weights):
    """Best assignment of a subset of items to slots, each slot used at
    most once; weights[i][s] is the value of item i+1 in slot s.

    The optimum is found by exhaustive search over partial assignments
    (corpus scale keeps this module oracle-free). Real weights are summed
    exactly, as in ``laminar_concave_fn``.
    """
    n = len(weights)
    if n == 0:
        return SetFn(0, [0], "int")
    slots = len(weights[0])
    for i, row in enumerate(weights):
        if len(row) != slots:
            raise ValueError(f"weights row {i} has {len(row)} entries, expected {slots}")
        for v in row:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0:
                raise ValueError(f"weights[{i}] contains non-finite or negative {v!r}")
    mode, weights = _exact_weights(weights)

    def best(items, used):
        if not items:
            return 0
        head, tail = items[0], items[1:]
        value = best(tail, used)  # leave head unassigned
        for s in range(slots):
            if not used >> s & 1:
                value = max(value, weights[head][s] + best(tail, used | 1 << s))
        return value

    vals = []
    for m in range(1 << n):
        items = [j for j in range(n) if m >> j & 1]
        vals.append(best(tuple(items), 0))
    return SetFn(n, vals if mode == "int" else map(float, vals), mode)


# ---------------------------------------------------------------------------
# Negative controls.


def mutate(f, seed, magnitude, toggle_neg_inf=False):
    """Perturb one uniformly chosen entry of an int-mode function.

    Without the toggle, a finite entry moves by +-magnitude. With
    ``toggle_neg_inf`` the entry is chosen among all 2^n and flipped:
    finite -> NEG_INF, NEG_INF -> 0. Deterministic per seed.
    """
    if f.mode != "int":
        raise ValueError("mutation is defined for int-mode functions")
    _require_int("magnitude", magnitude, 0)
    return SetFn(f.n, _draw_mutation(random.Random(seed), f.values, f.dom_masks, magnitude,
                                     toggle_neg_inf), "int")


def _draw_mutation(rng, values, dom, magnitude, toggle_neg_inf=False, neg=NEG_INF):
    """``mutate``'s values of the table ``values`` with domain ``dom``,
    drawn from ``rng`` (``core._below``), with ``neg`` for NEG_INF."""
    vals = list(values)
    if toggle_neg_inf:
        idx = _below(rng, len(vals))
        vals[idx] = 0 if vals[idx] == neg else neg
    else:
        if not dom:
            raise ValueError("no finite entry to perturb")
        idx = dom[_below(rng, len(dom))]
        vals[idx] += magnitude if _below(rng, 2) else -magnitude
    return vals


def random_table(n, seed, lo=-5, hi=5, neg_inf_prob=0.2):
    """Arbitrary int-mode table: each entry NEG_INF with the given
    probability, otherwise uniform in [lo, hi], and one entry drawn finite
    when none is. Deterministic per seed."""
    _require_int("n", n, 0)
    if n > HARD_CAP:
        raise ValueError(f"ground-set size {n} exceeds hard cap {HARD_CAP}")
    return SetFn(n, _draw_table(random.Random(seed), n, lo, hi, neg_inf_prob), "int")


def _draw_table(rng, n, lo=-5, hi=5, neg_inf_prob=0.2, neg=NEG_INF):
    """``random_table``'s values, drawn from ``rng`` with ``neg`` for
    NEG_INF, by ``core._below``'s rule run inline: no frame per value."""
    width = hi - lo + 1
    if width < 1:
        raise ValueError(f"empty range below {width}")
    k, random, bits = width.bit_length(), rng.random, rng.getrandbits
    vals = []
    for _ in range(1 << n):
        if random() < neg_inf_prob:
            vals.append(neg)
            continue
        while (r := bits(k)) >= width:
            pass
        vals.append(lo + r)
    if vals.count(neg) == len(vals):
        vals[_below(rng, len(vals))] = lo + _below(rng, width)
    return vals


def random_mnat_concave(n, seed, lo=-3, hi=3, neg_inf_prob=0.15):
    """Rejection-sample a random table until it passes the single-element
    exchange check. Supplement only: practical for n <= 3 (with the
    defaults, none of 200,000 draws at n = 4 passes)."""
    from .exchange import check_exc_single

    if n > 3:
        raise ValueError("rejection sampling is only viable for n <= 3")
    rng = random.Random(seed)
    for _ in range(200_000):
        f = random_table(n, rng.randrange(2**63), lo, hi, neg_inf_prob)
        if check_exc_single(f).passed:
            return f
    raise RuntimeError("no valid table found in 200000 tries")


# ---------------------------------------------------------------------------
# The fixed verification corpus. Full-domain families stop at n = 6 so the
# lifted equi-cardinal check stays exhaustively feasible; n = 7 and 8 are
# covered by weighted basis valuations, whose domains are single-size.


@dataclass(frozen=True)
class CorpusInstance:
    instance_id: str
    family: str
    params: dict = field(compare=False)
    fn: SetFn
    matroid: Matroid | None = None


def _laminar(n, members, tables):
    return laminar_concave_fn(LaminarSpec(n, tuple(members), tuple(tables)))


def default_corpus():
    """The deterministic instance corpus used by the verification suites."""
    out = []

    def add(instance_id, family, params, fn, matroid=None):
        out.append(CorpusInstance(instance_id, family, params, fn, matroid))

    def add_rank(instance_id, matroid):
        add(instance_id, f"{matroid.kind}_rank", dict(matroid.params),
            matroid_rank_fn(matroid), matroid)

    def add_wbasis(instance_id, matroid, w):
        params = dict(matroid.params)
        params["weights"] = list(w)
        add(instance_id, f"{matroid.kind}_basis", params,
            weighted_basis_valuation(matroid, w), matroid)

    # n = 3
    add_rank("n3_uniform_r1", uniform_matroid(3, 1))
    add_rank("n3_uniform_r2", uniform_matroid(3, 2))
    add_rank("n3_partition", partition_matroid([[1, 2], [3]], [1, 1]))
    add_rank("n3_graphic_triangle", graphic_matroid(3, [(1, 2), (2, 3), (1, 3)]))
    add("n3_laminar", "laminar",
        {"members": [[1, 2, 3], [1]], "tables": [(0, 2, 3, 3), (0, 1)]},
        _laminar(3, [[1, 2, 3], [1]], [(0, 2, 3, 3), (0, 1)]))
    add("n3_assignment", "assignment", {"weights": [[3, 1], [2, 2], [0, 4]]},
        assignment_valuation([[3, 1], [2, 2], [0, 4]]))
    add_wbasis("n3_wbasis_uniform", uniform_matroid(3, 2), (1, 0, 2))
    add_wbasis("n3_wbasis_triangle",
               graphic_matroid(3, [(1, 2), (2, 3), (1, 3)]), (1, 2, 3))

    # n = 4
    add_rank("n4_uniform_r2", uniform_matroid(4, 2))
    add_rank("n4_partition", partition_matroid([[1, 2], [3, 4]], [1, 1]))
    add_rank("n4_graphic_cycle",
             graphic_matroid(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))
    add("n4_laminar", "laminar",
        {"members": [[1], [1, 2], [1, 2, 3, 4]],
         "tables": [(0, 2), (0, 3, 4), (0, 3, 5, 6, 6)]},
        _laminar(4, [[1], [1, 2], [1, 2, 3, 4]],
                 [(0, 2), (0, 3, 4), (0, 3, 5, 6, 6)]))
    add("n4_assignment", "assignment",
        {"weights": [[4, 1], [2, 3], [1, 1], [0, 5]]},
        assignment_valuation([[4, 1], [2, 3], [1, 1], [0, 5]]))
    add_wbasis("n4_wbasis_uniform", uniform_matroid(4, 2), (0, 1, 2, 3))
    add_wbasis("n4_wbasis_cycle",
               graphic_matroid(4, [(1, 2), (2, 3), (3, 4), (4, 1)]), (2, 1, 0, 1))

    # n = 5
    add_rank("n5_uniform_r2", uniform_matroid(5, 2))
    add_rank("n5_partition", partition_matroid([[1, 2, 3], [4, 5]], [2, 1]))
    add_rank("n5_graphic",
             graphic_matroid(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]))
    add("n5_laminar", "laminar",
        {"members": [[1, 2], [3, 4, 5], [1, 2, 3, 4, 5]],
         "tables": [(0, 2, 3), (0, 2, 3, 3), (0, 1, 2, 3, 3, 3)]},
        _laminar(5, [[1, 2], [3, 4, 5], [1, 2, 3, 4, 5]],
                 [(0, 2, 3), (0, 2, 3, 3), (0, 1, 2, 3, 3, 3)]))
    add("n5_assignment", "assignment",
        {"weights": [[3, 0], [1, 2], [2, 2], [0, 4], [1, 1]]},
        assignment_valuation([[3, 0], [1, 2], [2, 2], [0, 4], [1, 1]]))
    add_wbasis("n5_wbasis_uniform", uniform_matroid(5, 3), (1, 0, 2, 1, 3))

    # n = 6
    add_rank("n6_uniform_r3", uniform_matroid(6, 3))
    add_rank("n6_partition", partition_matroid([[1, 2], [3, 4], [5, 6]], [1, 1, 1]))
    add_rank("n6_graphic_k4",
             graphic_matroid(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]))
    add("n6_laminar", "laminar",
        {"members": [[1], [1, 2], [1, 2, 3], [4, 5, 6]],
         "tables": [(0, 1), (0, 2, 3), (0, 2, 4, 5), (0, 3, 4, 4)]},
        _laminar(6, [[1], [1, 2], [1, 2, 3], [4, 5, 6]],
                 [(0, 1), (0, 2, 3), (0, 2, 4, 5), (0, 3, 4, 4)]))
    add("n6_assignment", "assignment",
        {"weights": [[2, 1, 0], [1, 3, 1], [0, 1, 4], [2, 2, 2], [3, 0, 1], [1, 1, 1]]},
        assignment_valuation(
            [[2, 1, 0], [1, 3, 1], [0, 1, 4], [2, 2, 2], [3, 0, 1], [1, 1, 1]]))
    add_wbasis("n6_wbasis_uniform", uniform_matroid(6, 3), (0, 2, 1, 3, 1, 2))
    add_wbasis("n6_wbasis_k4",
               graphic_matroid(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
               (1, 1, 2, 0, 3, 1))

    # n = 7: equi-cardinal domains only (keeps the lift check exhaustive).
    add_wbasis("n7_wbasis_uniform_r3", uniform_matroid(7, 3), (2, 0, 1, 3, 1, 2, 0))
    add_wbasis("n7_wbasis_uniform_r4_flat", uniform_matroid(7, 4), (0,) * 7)
    add_wbasis("n7_wbasis_partition",
               partition_matroid([[1, 2, 3], [4, 5], [6, 7]], [1, 1, 1]),
               (1, 0, 2, 1, 3, 0, 2))
    add_wbasis("n7_wbasis_graphic",
               graphic_matroid(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3), (2, 4)]),
               (1, 2, 0, 1, 3, 1, 0))

    # n = 8: equi-cardinal domains only.
    add_wbasis("n8_wbasis_uniform_r4", uniform_matroid(8, 4), (1, 0, 2, 1, 0, 3, 1, 2))
    add_wbasis("n8_wbasis_uniform_r3", uniform_matroid(8, 3), (0, 1, 1, 2, 0, 1, 2, 1))
    add_wbasis("n8_wbasis_partition",
               partition_matroid([[1, 2], [3, 4], [5, 6], [7, 8]], [1, 1, 1, 1]),
               (2, 0, 1, 1, 0, 2, 1, 3))
    add_wbasis("n8_wbasis_graphic",
               graphic_matroid(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1),
                                   (1, 4), (2, 5)]),
               (1, 0, 2, 1, 1, 0, 2, 1))

    return out
