"""Instance families with known exchange structure, plus adversarial
mutators for negative controls.

The closed-form constructors (matroid ranks, weighted basis valuations,
laminar sums, assignment valuations) are the test corpus: each output is
known to satisfy the single-element exchange property, and the weighted
basis valuations additionally have equi-cardinal domains. Rejection
sampling of random tables is kept only as a small-n diversity supplement
because valid tables become vanishingly rare from n = 4 on.

A family spec is the JSON object of a config's ``families``; one reader,
``build_instance``, checks its fields (``_FAMILY_FIELDS``) and builds it.
The default corpus is a list of such specs.
"""

import json
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import HARD_CAP, NEG_INF, PriceVector, SetFn, _below, _require_int, elements_of, mask_of


class Matroid:
    """Matroid on {1..n} realized as a dense rank table.

    ``kind`` records the constructing family ("uniform", "partition",
    "graphic"). Rank axioms are verified exhaustively at construction.
    """

    def __init__(self, n, kind, rank_table):
        self.n = n
        self.kind = kind
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
    return Matroid(n, "uniform", table)


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
    return Matroid(n, "partition", table)


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
    return Matroid(n, "graphic", table)


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
    vals = list(f.values)
    entry, vals[entry] = _draw_mutation(random.Random(seed), f.values, f.dom_masks, magnitude,
                                        toggle_neg_inf)
    return SetFn(f.n, vals, "int")


def _draw_mutation(rng, values, dom, magnitude, toggle_neg_inf=False, neg=NEG_INF):
    """``mutate``'s change to the table ``values`` with domain ``dom``, as
    (entry, value), drawn from ``rng`` (``core._below``), with ``neg`` for
    NEG_INF."""
    if toggle_neg_inf:
        idx = _below(rng, len(values))
        return idx, 0 if values[idx] == neg else neg
    if not dom:
        raise ValueError("no finite entry to perturb")
    idx = dom[_below(rng, len(dom))]
    return idx, values[idx] + (magnitude if _below(rng, 2) else -magnitude)


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
# Family specs -> instances: the one reader of the default corpus, a config's
# ``families`` and ``gen --config``.

MASK64 = (1 << 64) - 1  # seeds and sub-seeds are 64-bit words


@dataclass(frozen=True)
class CorpusInstance:
    instance_id: str
    family: str
    params: dict = field(compare=False)
    fn: SetFn
    matroid: Matroid | None = None


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(test):
    return lambda value: isinstance(value, (list, tuple)) and all(map(test, value))


# The JSON shape of each family-spec field: a test and what it expects.
_SHAPES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (_is_int, "an int"),
    "number": (_is_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "ints": (_list_of(_is_int), "a list of ints"),
    "numbers": (_list_of(_is_number), "a list of numbers"),
    "int lists": (_list_of(_list_of(_is_int)), "a list of lists of ints"),
    "int pairs": (_list_of(lambda v: _list_of(_is_int)(v) and len(v) == 2),
                  "a list of pairs of ints"),
    "number lists": (_list_of(_list_of(_is_number)), "a list of lists of numbers"),
}

# The fields each family (and matroid kind) reads; a "?" marks an optional
# field.
_FAMILY_FIELDS = {
    "matroid_rank": {"matroid": "object"},
    "weighted_basis": {"matroid": "object", "weights": "numbers"},
    "laminar": {"n": "int", "members": "int lists", "tables": "number lists"},
    "assignment": {"weights": "number lists"},
    "random": {"n": "int", "seed?": "int", "lo?": "int", "hi?": "int",
               "neg_inf_prob?": "number"},
    "mutated": {"base": "object", "seed?": "int", "magnitude?": "int",
                "toggle_neg_inf?": "bool"},
}
_MATROID_FIELDS = {
    "uniform": {"n": "int", "r": "int"},
    "partition": {"blocks": "int lists", "caps": "ints"},
    "graphic": {"num_vertices": "int", "edges": "int pairs"},
}


def _check_fields(spec, where, fields):
    for key, shape in fields.items():
        name = key.rstrip("?")
        if name not in spec:
            if key.endswith("?"):
                continue
            raise ValueError(f"{where} is missing field {name!r}")
        test, expected = _SHAPES[shape]
        if not test(spec[name]):
            raise ValueError(f"{where}: field {name!r} must be {expected}, "
                             f"got {spec[name]!r}")


def _read_spec(spec, index, tag, schemas):
    """``spec[tag]``, a key of ``schemas``, after checking that ``spec``
    holds every field that key's schema requires, each of its shape."""
    _check_fields(spec, f"family spec {index}", {tag: "str"})
    value = spec[tag]
    if value not in schemas:
        raise ValueError(f"family spec {index}: unknown {tag} {value!r}")
    _check_fields(spec, f"family spec {index} ({value})", schemas[value])
    return value


def _build_matroid(spec, index):
    kind = _read_spec(spec, index, "kind", _MATROID_FIELDS)
    if kind == "uniform":
        return uniform_matroid(spec["n"], spec["r"])
    if kind == "partition":
        return partition_matroid(spec["blocks"], spec["caps"])
    return graphic_matroid(spec["num_vertices"], spec["edges"])


def build_instance(spec, index, master_seed):
    """Build one corpus instance from a config dict, after checking the
    fields its family reads (``_FAMILY_FIELDS``). Seeded constructors
    (random, mutated) derive their seed from the master seed and the
    instance index unless the dict pins one; the seed used is recorded."""
    family = _read_spec(spec, index, "family", _FAMILY_FIELDS)
    instance_id = spec.get("id", f"{family}_{index}")
    meta = {k: v for k, v in spec.items() if k not in ("family", "id")}
    if family in ("matroid_rank", "weighted_basis"):
        m = _build_matroid(spec["matroid"], index)
        fn = matroid_rank_fn(m) if family == "matroid_rank" else \
            weighted_basis_valuation(m, spec["weights"])
        return CorpusInstance(instance_id, family, meta, fn, m)
    if family == "laminar":
        ls = LaminarSpec(spec["n"], spec["members"], spec["tables"])
        return CorpusInstance(instance_id, family, meta, laminar_concave_fn(ls))
    if family == "assignment":
        return CorpusInstance(instance_id, family, meta, assignment_valuation(spec["weights"]))
    seed = spec.get("seed", (master_seed ^ index) & MASK64)
    if family == "random":
        fn = random_table(spec["n"], seed, spec.get("lo", -5), spec.get("hi", 5),
                          spec.get("neg_inf_prob", 0.2))
        return CorpusInstance(instance_id, family, dict(meta, seed=seed), fn)
    base = build_instance(spec["base"], index, master_seed)
    fn = mutate(base.fn, seed, spec.get("magnitude", 1), spec.get("toggle_neg_inf", False))
    return CorpusInstance(instance_id, family, dict(meta, seed=seed, base_id=base.instance_id), fn)


def build_corpus(specs, master_seed):
    """The instances of a list of family specs, in order (``build_instance``),
    after checking that each names a file of its own: its id is a string,
    neither empty, "." nor "..", without a slash or backslash, and no
    earlier spec's."""
    out, seen = [], set()
    for index, spec in enumerate(specs):
        _check_fields(spec, f"family spec {index}", {"id?": "str"})
        inst = build_instance(spec, index, master_seed)
        iid = inst.instance_id
        if iid in ("", ".", "..") or "/" in iid or "\\" in iid:
            raise ValueError(f"family spec {index}: id {iid!r} is not a file name")
        if iid in seen:
            raise ValueError(f"family spec {index}: id {iid!r} repeats an earlier spec's")
        seen.add(iid)
        out.append(inst)
    return out


# ---------------------------------------------------------------------------
# The fixed verification corpus. Full-domain families stop at n = 6 so the
# lifted equi-cardinal check stays exhaustively feasible; n = 7 and 8 are
# covered by weighted basis valuations, whose domains are single-size. The
# specs are the JSON a config's ``families`` holds, one per row in corpus
# order. Kept as text: as Python literals they add about 0.8 MiB to the
# peak memory of compiling this module.

_DEFAULT_SPECS = json.loads("""[
    {"family": "matroid_rank", "id": "n3_uniform_r1", "matroid": {"kind": "uniform", "n": 3, "r": 1}},
    {"family": "matroid_rank", "id": "n3_uniform_r2", "matroid": {"kind": "uniform", "n": 3, "r": 2}},
    {"family": "matroid_rank", "id": "n3_partition", "matroid": {"kind": "partition", "blocks": [[1, 2], [3]], "caps": [1, 1]}},
    {"family": "matroid_rank", "id": "n3_graphic_triangle", "matroid": {"kind": "graphic", "num_vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]}},
    {"family": "laminar", "id": "n3_laminar", "n": 3, "members": [[1, 2, 3], [1]], "tables": [[0, 2, 3, 3], [0, 1]]},
    {"family": "assignment", "id": "n3_assignment", "weights": [[3, 1], [2, 2], [0, 4]]},
    {"family": "weighted_basis", "id": "n3_wbasis_uniform", "matroid": {"kind": "uniform", "n": 3, "r": 2}, "weights": [1, 0, 2]},
    {"family": "weighted_basis", "id": "n3_wbasis_triangle", "matroid": {"kind": "graphic", "num_vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]}, "weights": [1, 2, 3]},
    {"family": "matroid_rank", "id": "n4_uniform_r2", "matroid": {"kind": "uniform", "n": 4, "r": 2}},
    {"family": "matroid_rank", "id": "n4_partition", "matroid": {"kind": "partition", "blocks": [[1, 2], [3, 4]], "caps": [1, 1]}},
    {"family": "matroid_rank", "id": "n4_graphic_cycle", "matroid": {"kind": "graphic", "num_vertices": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}},
    {"family": "laminar", "id": "n4_laminar", "n": 4, "members": [[1], [1, 2], [1, 2, 3, 4]], "tables": [[0, 2], [0, 3, 4], [0, 3, 5, 6, 6]]},
    {"family": "assignment", "id": "n4_assignment", "weights": [[4, 1], [2, 3], [1, 1], [0, 5]]},
    {"family": "weighted_basis", "id": "n4_wbasis_uniform", "matroid": {"kind": "uniform", "n": 4, "r": 2}, "weights": [0, 1, 2, 3]},
    {"family": "weighted_basis", "id": "n4_wbasis_cycle", "matroid": {"kind": "graphic", "num_vertices": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}, "weights": [2, 1, 0, 1]},
    {"family": "matroid_rank", "id": "n5_uniform_r2", "matroid": {"kind": "uniform", "n": 5, "r": 2}},
    {"family": "matroid_rank", "id": "n5_partition", "matroid": {"kind": "partition", "blocks": [[1, 2, 3], [4, 5]], "caps": [2, 1]}},
    {"family": "matroid_rank", "id": "n5_graphic", "matroid": {"kind": "graphic", "num_vertices": 4, "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4]]}},
    {"family": "laminar", "id": "n5_laminar", "n": 5, "members": [[1, 2], [3, 4, 5], [1, 2, 3, 4, 5]], "tables": [[0, 2, 3], [0, 2, 3, 3], [0, 1, 2, 3, 3, 3]]},
    {"family": "assignment", "id": "n5_assignment", "weights": [[3, 0], [1, 2], [2, 2], [0, 4], [1, 1]]},
    {"family": "weighted_basis", "id": "n5_wbasis_uniform", "matroid": {"kind": "uniform", "n": 5, "r": 3}, "weights": [1, 0, 2, 1, 3]},
    {"family": "matroid_rank", "id": "n6_uniform_r3", "matroid": {"kind": "uniform", "n": 6, "r": 3}},
    {"family": "matroid_rank", "id": "n6_partition", "matroid": {"kind": "partition", "blocks": [[1, 2], [3, 4], [5, 6]], "caps": [1, 1, 1]}},
    {"family": "matroid_rank", "id": "n6_graphic_k4", "matroid": {"kind": "graphic", "num_vertices": 4, "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]}},
    {"family": "laminar", "id": "n6_laminar", "n": 6, "members": [[1], [1, 2], [1, 2, 3], [4, 5, 6]], "tables": [[0, 1], [0, 2, 3], [0, 2, 4, 5], [0, 3, 4, 4]]},
    {"family": "assignment", "id": "n6_assignment", "weights": [[2, 1, 0], [1, 3, 1], [0, 1, 4], [2, 2, 2], [3, 0, 1], [1, 1, 1]]},
    {"family": "weighted_basis", "id": "n6_wbasis_uniform", "matroid": {"kind": "uniform", "n": 6, "r": 3}, "weights": [0, 2, 1, 3, 1, 2]},
    {"family": "weighted_basis", "id": "n6_wbasis_k4", "matroid": {"kind": "graphic", "num_vertices": 4, "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]}, "weights": [1, 1, 2, 0, 3, 1]},
    {"family": "weighted_basis", "id": "n7_wbasis_uniform_r3", "matroid": {"kind": "uniform", "n": 7, "r": 3}, "weights": [2, 0, 1, 3, 1, 2, 0]},
    {"family": "weighted_basis", "id": "n7_wbasis_uniform_r4_flat", "matroid": {"kind": "uniform", "n": 7, "r": 4}, "weights": [0, 0, 0, 0, 0, 0, 0]},
    {"family": "weighted_basis", "id": "n7_wbasis_partition", "matroid": {"kind": "partition", "blocks": [[1, 2, 3], [4, 5], [6, 7]], "caps": [1, 1, 1]}, "weights": [1, 0, 2, 1, 3, 0, 2]},
    {"family": "weighted_basis", "id": "n7_wbasis_graphic", "matroid": {"kind": "graphic", "num_vertices": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [1, 3], [2, 4]]}, "weights": [1, 2, 0, 1, 3, 1, 0]},
    {"family": "weighted_basis", "id": "n8_wbasis_uniform_r4", "matroid": {"kind": "uniform", "n": 8, "r": 4}, "weights": [1, 0, 2, 1, 0, 3, 1, 2]},
    {"family": "weighted_basis", "id": "n8_wbasis_uniform_r3", "matroid": {"kind": "uniform", "n": 8, "r": 3}, "weights": [0, 1, 1, 2, 0, 1, 2, 1]},
    {"family": "weighted_basis", "id": "n8_wbasis_partition", "matroid": {"kind": "partition", "blocks": [[1, 2], [3, 4], [5, 6], [7, 8]], "caps": [1, 1, 1, 1]}, "weights": [2, 0, 1, 1, 0, 2, 1, 3]},
    {"family": "weighted_basis", "id": "n8_wbasis_graphic", "matroid": {"kind": "graphic", "num_vertices": 6, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1], [1, 4], [2, 5]]}, "weights": [1, 0, 2, 1, 1, 0, 2, 1]}
]""")


def default_corpus():
    """The deterministic instance corpus used by the verification suites:
    the family specs above, in the format of a config's ``families``,
    built as ``gen --config`` builds them (``build_corpus``)."""
    return build_corpus(_DEFAULT_SPECS, 0)
