"""Extended-real values, dense set-function tables, and price vectors.

Everything downstream evaluates set functions f: 2^{1..n} -> R u {-oo}.
A set function is stored as a dense table indexed by subset bitmask
(bit j-1 <-> element j), so every operation in this package is an
explicit exponential enumeration; the hard cap on n keeps that honest.

Minus infinity is the absorbing singleton ``NEG_INF`` (a tagged object,
never a numeric sentinel), so integer-mode arithmetic stays exact and
absorption can never be confused with a large negative number.

Every decision is exact. A real table is decided as the int table D * f
(``SetFn.exact``, over ``SetFn.scale`` = D), each finite value read as
its shortest round-trip decimal; a value of a real table is shown as
the float nearest to its exact value over D (``shown``).
"""

import functools
import json
import math
from itertools import combinations

import numpy as np

HARD_CAP = 24

MODES = ("int", "real")


class Falsification(Exception):
    """A checked mathematical statement failed on a concrete input."""


class FormatError(ValueError):
    """Malformed set-function file; the message carries field context."""


class _NegInf:
    """Absorbing minus infinity. Compares below every finite number."""

    __slots__ = ()

    def __repr__(self):
        return "NEG_INF"

    def __reduce__(self):
        # Keep singleton identity across pickling (worker processes).
        return (_get_neg_inf, ())

    def __add__(self, other):
        if isinstance(other, (int, float, _NegInf)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __lt__(self, other):
        if other is self:
            return False
        if isinstance(other, (int, float)):
            return True
        return NotImplemented

    def __le__(self, other):
        if other is self or isinstance(other, (int, float)):
            return True
        return NotImplemented

    def __gt__(self, other):
        if other is self or isinstance(other, (int, float)):
            return False
        return NotImplemented

    def __ge__(self, other):
        if other is self:
            return True
        if isinstance(other, (int, float)):
            return False
        return NotImplemented


NEG_INF = _NegInf()


def _get_neg_inf():
    return NEG_INF


def ext_add(a, b):
    """Extended addition: any NEG_INF operand absorbs the sum."""
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    return a + b


def max_over(vals):
    """Maximum of an iterable of extended values; empty input yields NEG_INF."""
    finite = [v for v in vals if v is not NEG_INF]
    return max(finite) if finite else NEG_INF


def shown(f, v, scale=None):
    """An exact value v = D * x of table f, D = ``scale`` (by default
    ``f.scale``), as f shows x: v itself in int mode, the float nearest to
    v / D in real mode; NEG_INF stays."""
    if v is NEG_INF or f.mode == "int":
        return v
    return v / (f.scale if scale is None else scale)


def _require_int(name, value, floor):
    """The count rule: an int (not a bool) >= floor, else ValueError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < floor:
        raise ValueError(f"{name} must be an int >= {floor}, got {value!r}")


# ---------------------------------------------------------------------------
# Bitmask helpers. Subsets cross the public API as iterables of elements
# (1-based); everything internal is a bitmask with bit j-1 <-> element j.

def mask_of(subset, n):
    """Bitmask of an iterable of elements from {1..n}."""
    m = 0
    for e in subset:
        if not isinstance(e, int) or isinstance(e, bool) or not 1 <= e <= n:
            raise ValueError(f"element {e!r} outside ground set 1..{n}")
        m |= 1 << (e - 1)
    return m


def elements_of(mask):
    """Sorted tuple of elements in a bitmask."""
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


@functools.lru_cache(maxsize=1 << 12)
def submasks_ascending(mask):
    """All submasks of ``mask`` in ascending numeric order (cached for the
    last 4,096 masks)."""
    subs = [0]
    while mask:
        bit = mask & -mask
        mask ^= bit
        subs += [s | bit for s in subs]
    return tuple(subs)


@functools.lru_cache(maxsize=1 << 12)
def submasks_by_size(mask):
    """Submasks of ``mask`` as (submask, size), ordered by size then by the
    lexicographic order of the element tuple (cached for the last 4,096
    masks)."""
    bits = [1 << (e - 1) for e in elements_of(mask)]
    out = []
    for size in range(len(bits) + 1):
        out += [(sum(combo), size) for combo in combinations(bits, size)]
    return tuple(out)


def price_sums(entries, n):
    """Table of sum(entries[j-1] for j in Z) over all 2^n bitmasks Z."""
    sums = [0]
    for pj in entries[:n]:  # the masks with bit j set follow the 2^j below
        sums += [s + pj for s in sums]
    return sums


# ---------------------------------------------------------------------------
# Seeded draws by CPython's rules, without its per-value frames.


def _below(rng, m):
    """``rng.randrange(m)`` by CPython's rule (``_randbelow_with_getrandbits``):
    with k = m.bit_length(), ``getrandbits(k)`` again while the value is
    >= m. So ``randint(a, b)`` is a + _below(rng, b - a + 1) and
    ``choice(seq)`` is seq[_below(rng, len(seq))], with the same values and
    generator state, and without their Python frames.

    ``rng`` may also be ``_random.Random``, the C base class of
    ``random.Random``: ``getrandbits`` and ``random`` are the base's own
    methods, and ``random.Random.seed(int)`` is the base's ``seed`` after
    Python-level type checks, plus a reset of ``gauss_next``, which only
    ``gauss`` reads. So a seeded ``_random.Random`` draws what a
    ``random.Random`` seeded alike draws, without a Python frame per seed."""
    if m < 1:
        raise ValueError(f"empty range below {m}")
    k = m.bit_length()
    while (r := rng.getrandbits(k)) >= m:
        pass
    return r


@functools.cache
def _mt_init():
    """MT19937 after ``init_genrand(19650218)``, where every seed starts."""
    mt = [19650218]
    for i in range(1, 624):
        mt.append((1812433253 * (mt[-1] ^ mt[-1] >> 30) + i) & 0xFFFFFFFF)
    return tuple(map(np.uint32, mt))


def _seed_words(seeds, k):
    """The first k[j] words (``getrandbits(32)``) of ``random.Random(s)``
    for each seed s = seeds[j] in [0, 2^64), k a non-increasing array of
    heights in [1, 227], one per seed, or one int for all: a uint32 array
    flat and its row offsets off, word i of seed j at flat[off[i] + j], row
    i holding the seeds whose height passes i, a prefix. Rows start full,
    so the first min(k) rows are flat[:min(k) * len(seeds)] as a (min(k),
    len(seeds)) array.

    ``seed(s)`` is MT19937's ``init_by_array`` (Matsumoto & Nishimura, ACM
    TOMACS 8, 1998) on s's little-endian 32-bit words: a serial chain of
    about 1,870 steps, run for all seeds at once in in-place uint32 ufuncs,
    which wrap as the C code does. Pass 1 runs to its wrap, then again in
    lockstep with pass 2, so only state rows 0..k are held, row r for the
    seeds whose output r - 1 reads it: output i >= 2 is twisted and tempered
    into row i, over the seeds that read it, as pass 2 reaches row 397 + i;
    outputs 0 and 1 wait for row 1, which pass 2 writes last."""
    init, n = _mt_init(), len(seeds)
    heights = np.broadcast_to(np.asarray(k, np.int64), (n,))
    top = int(heights.max(initial=1))
    reads = n - np.searchsorted(heights[::-1], np.arange(top), side="right")  # of output i
    off = np.cumsum(np.r_[0, n, reads])  # row r >= 1 holds reads[r - 1] seeds
    flat = np.empty(off[-1], np.uint32)
    rows = [flat[off[r]:off[r + 1]] for r in range(top + 1)]
    seeds = np.asarray(seeds, np.uint64)
    lo, hi = seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    terms = (np.where(hi > 0, hi + np.uint32(1), lo), lo)  # key[j] + j at even and odd rows
    del hi  # each (n,) row held adds to a falsify batch's peak
    chain, tmp = np.empty((2, n), np.uint32), np.empty((2, n), np.uint32)
    factor = np.array([1664525, 1566083941], np.uint32)  # passes 1 and 2
    mult = np.empty((2, n), np.uint32)  # a whole row each: broadcasting costs twice the product
    mult[0], mult[1] = factor
    x, q, t, u = *chain, *tmp

    def step(prev, last, term, out, op=np.add, mul=factor[0]):
        np.right_shift(prev, 30, out=out)
        np.bitwise_xor(out, prev, out=out)
        np.multiply(out, mul, out=out)
        op(np.bitwise_xor(out, last, out=out), term, out=out)

    def emit(i, lower, far):  # output i from rows i, i + 1 and 397 + i, into row i
        c = reads[i]
        row, lower, far, t, u = rows[i][:c], lower[:c], far[:c], tmp[0, :c], tmp[1, :c]
        np.bitwise_or(np.bitwise_and(row, 0x80000000, out=t),
                      np.bitwise_and(lower, 0x7FFFFFFF, out=u), out=t)
        np.multiply(np.bitwise_and(t, 1, out=u), 0x9908B0DF, out=u)
        np.bitwise_xor(np.right_shift(t, 1, out=t), u, out=t)
        np.bitwise_xor(t, far, out=t)
        np.bitwise_xor(t, np.right_shift(t, 11, out=u), out=t)
        np.bitwise_xor(t, np.bitwise_and(np.left_shift(t, 7, out=u), 0x9D2C5680, out=u), out=t)
        np.bitwise_xor(t, np.bitwise_and(np.left_shift(t, 15, out=u), 0xEFC60000, out=u), out=t)
        np.bitwise_xor(t, np.right_shift(t, 18, out=u), out=row)

    step(np.full(n, init[0]), init[1], lo, x)
    first = x.copy()
    for r in range(2, 624):
        step(x, init[r], terms[r & 1], t)
        x, t = t, x
    one = np.empty(n, np.uint32)
    step(x, first, terms[0], one)  # pass 1 wraps to row 1
    x, t = chain[0], tmp[0]
    x[:], q[:] = first, one
    del first
    keep = {}  # the rows that outputs 0 and 1 read once row 1 is known
    for r in range(2, 624):
        np.right_shift(chain, 30, out=tmp)
        np.bitwise_xor(tmp, chain, out=tmp)
        np.multiply(tmp, mult, out=tmp)
        np.add(np.bitwise_xor(t, init[r], out=x), terms[r & 1], out=x)
        np.subtract(np.bitwise_xor(u, x, out=q), r, out=q)
        if r <= top:
            rows[r][:] = q[:len(rows[r])]
        if r in (2, 397, 398):
            keep[r] = q.copy()
        elif 399 <= r < 397 + top:
            emit(r - 397, rows[r - 396], q)
    step(q, one, 1, rows[1], np.subtract, factor[1])  # pass 2 wraps to row 1
    rows[0][:] = 0x80000000
    emit(0, rows[1], keep[397])
    if top > 1:
        emit(1, keep[2], keep[398])
    return flat, off


def _words_below(words, cols, pos, m):
    """``_below(rng, m)`` for each generator j in ``cols`` whose words are
    ``words[pos[j]:, j]`` (``_seed_words``), m <= 2^32 an int or one int below
    2^32 per column, as int64. A draw of b <= 32 bits is a word's top b bits;
    m = 2^32 draws ``getrandbits(33)``, w0 | (w1 >> 31) << 32. ``pos`` moves
    past the words drawn; a generator out of words ends past ``len(words)``."""
    k, out, live = len(words), np.zeros(len(cols), np.int64), np.arange(len(cols))
    m = np.broadcast_to(m, cols.shape)
    wide = int(m.max(initial=0)) >> 32  # 1 for m = 2^32: two words a draw
    shift = np.maximum(32 - np.frexp(m.astype(float))[1], 0)  # 32 - m.bit_length()
    while live.size:
        c = cols[live]
        p = pos[c]
        pos[c] = p + 1 + wide
        r = words[np.minimum(p, k - 1), c].astype(np.int64) >> shift[live]
        if wide:
            r |= (words[np.minimum(p + 1, k - 1), c].astype(np.int64) >> 31) << 32
        done = (end := p + 1 + wide > k) | (r < m[live])
        out[live[done]] = np.where(end, 0, r)[done]
        live = live[~done]
    return out


def _words_random(words, cols, pos):
    """``rng.random()`` for each generator of ``_words_below``: two words
    a, b give ((a >> 5) * 2^26 + (b >> 6)) * 2^-53."""
    p = pos[cols]
    pos[cols] = p + 2
    a, b = (words[np.minimum(i, len(words) - 1), cols] for i in (p, p + 1))
    return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)


def _draws(rng, samples, runs):
    """The next ``samples`` samples from ``rng``, each made of ``runs`` in
    stream order. A run (count, bound, bits) is ``count`` draws of
    ``getrandbits(bits)``, each taken again while it is >= bound, by
    ``_below``'s rule: ``randrange(m)`` is (count, m, m.bit_length()),
    ``getrandbits(k)`` is (count, 2**k, k). ``rng`` stops where those
    scalar calls leave it. Returns one int64 array of shape
    (samples, count) per run. When every bound is at most 256 the values
    reach numpy as ``bytes``, at well under half the cost of converting
    the list of Python ints."""
    bits, out = rng.getrandbits, []
    append = out.append
    sample = [(bound, k) for count, bound, k in runs for _ in range(count)]
    for _ in range(samples):
        for bound, k in sample:
            while (r := bits(k)) >= bound:
                pass
            append(r)
    counts = [count for count, _, _ in runs]
    if all(bound <= 256 for _, bound, _ in runs):  # every value fits a byte
        rows = np.frombuffer(bytes(out), np.uint8).astype(np.int64)
    else:
        rows = np.array(out, dtype=np.int64)
    rows = rows.reshape(samples, sum(counts))
    return np.split(rows, np.cumsum(counts[:-1]), axis=1)


# ---------------------------------------------------------------------------


class SetFn:
    """Total set function on {1..n} as a dense 2^n table of extended values.

    ``values[m]`` is the value of the subset with bitmask m. ``mode`` is
    "int" (exact integers, the default for every verification suite) or
    "real" (finite floats). Every check reads ``exact``, the Python ints
    D * f with NEG_INF kept, over ``scale`` = D: an int table is its own
    exact form (D = 1); a real table reads each finite value as its
    shortest round-trip decimal, and D is the least common denominator.
    Instances are immutable after construction; ``None`` entries are
    accepted as a convenience alias for NEG_INF.
    """

    __slots__ = ("n", "mode", "values", "exact", "scale", "dom_masks")

    def __init__(self, n, values, mode="int"):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"ground-set size must be a nonnegative int, got {n!r}")
        if n > HARD_CAP:
            raise ValueError(f"ground-set size {n} exceeds hard cap {HARD_CAP}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        vals = list(values)
        if len(vals) != 1 << n:
            raise ValueError(f"expected 2^{n} = {1 << n} entries, got {len(vals)}")
        for i, v in enumerate(vals):
            if v is None or v is NEG_INF:
                vals[i] = NEG_INF
            elif isinstance(v, bool):
                raise ValueError(f"values[{i}]: bool is not a numeric value")
            elif mode == "int":
                if not isinstance(v, int):
                    raise ValueError(f"values[{i}]: int mode requires exact ints, got {v!r}")
            elif isinstance(v, (int, float)):
                try:
                    vals[i] = float(v)
                except OverflowError:  # an int beyond the float range
                    vals[i] = math.inf
                if not math.isfinite(vals[i]):
                    raise ValueError(f"values[{i}]: not a finite number: {v!r}")
                if abs(vals[i]) > 2.0**1020:  # so that sums of a few values stay finite
                    raise ValueError(f"values[{i}]: |value| exceeds 2^1020: {v!r}")
            else:
                raise ValueError(f"values[{i}]: not a number: {v!r}")
        self.n = n
        self.mode = mode
        self.values = tuple(vals)
        if mode == "int":
            self.exact, self.scale = self.values, 1
        else:
            from fractions import Fraction
            fracs = [v if v is NEG_INF else Fraction(repr(v)) for v in self.values]
            self.scale = math.lcm(*(v.denominator for v in fracs if v is not NEG_INF))
            self.exact = tuple(v if v is NEG_INF else v.numerator * (self.scale // v.denominator)
                               for v in fracs)
        self.dom_masks = tuple(m for m, v in enumerate(self.values) if v is not NEG_INF)

    @classmethod
    def constant(cls, n, value, mode="int"):
        return cls(n, [value] * (1 << n), mode)

    def __call__(self, subset):
        """Value at a subset given as an iterable of elements."""
        return self.values[mask_of(subset, self.n)]

    def with_value(self, subset, value):
        """Copy with one entry replaced (subset given as elements)."""
        m = mask_of(subset, self.n)
        vals = list(self.values)
        vals[m] = value
        return SetFn(self.n, vals, self.mode)

    def dom_size_range(self):
        """(min, max) subset size over the effective domain; None if empty."""
        if not self.dom_masks:
            return None
        sizes = [m.bit_count() for m in self.dom_masks]
        return (min(sizes), max(sizes))

    def __eq__(self, other):
        if not isinstance(other, SetFn):
            return NotImplemented
        return (self.n, self.mode, self.values) == (other.n, other.mode, other.values)

    def __hash__(self):
        return hash((self.n, self.mode, self.values))

    def __repr__(self):
        return f"SetFn(n={self.n}, mode={self.mode!r}, |dom|={len(self.dom_masks)})"


def tilt(f, p):
    """f[-p]: subtract the price of each subset; the domain is unchanged."""
    if p.n != f.n:
        raise ValueError(f"price vector has {p.n} entries, function has n={f.n}")
    sums = price_sums(p.entries, f.n)
    vals = [v if v is NEG_INF else v - sums[m] for m, v in enumerate(f.values)]
    return SetFn(f.n, vals, f.mode)


def restrict_by_size(f, k):
    """Force every subset larger than k to NEG_INF (size-cap penalty)."""
    _require_int("size cap", k, 0)
    vals = [v if m.bit_count() <= k else NEG_INF for m, v in enumerate(f.values)]
    return SetFn(f.n, vals, f.mode)


# ---------------------------------------------------------------------------


class PriceVector:
    """Vector indexed by the ground set; p(Z) = sum of entries over Z
    (``total``). Entries are ints in int mode and floats otherwise (mode
    is inferred from the entries).
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        ent = tuple(entries)
        for e in ent:
            if not isinstance(e, (int, float)) or isinstance(e, bool):
                raise ValueError(f"price entry {e!r} is not a number")
        self.entries = ent

    @property
    def n(self):
        return len(self.entries)

    @property
    def mode(self):
        return "int" if all(isinstance(e, int) for e in self.entries) else "real"

    def total(self, mask):
        """p(Z) for a subset given as a bitmask."""
        s = 0
        while mask:
            bit = mask & -mask
            mask ^= bit
            s += self.entries[bit.bit_length() - 1]
        return s

    def __neg__(self):
        return PriceVector(tuple(-e for e in self.entries))

    def __eq__(self, other):
        if not isinstance(other, PriceVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"PriceVector({self.entries!r})"


# ---------------------------------------------------------------------------
# Serialization. File format: {"n": int, "mode": "int"|"real",
# "values": [number|null, ...]} with exactly 2^n entries; index i holds the
# value of the subset whose bitmask is i.


def store(f, path):
    """Write a set function as JSON; NEG_INF entries become null."""
    obj = {
        "n": f.n,
        "mode": f.mode,
        "values": [None if v is NEG_INF else v for v in f.values],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def loads_setfn(obj, context="<data>"):
    """Build a SetFn from a decoded JSON object, with field diagnostics."""
    if not isinstance(obj, dict):
        raise FormatError(f"{context}: expected a JSON object")
    for field in ("n", "mode", "values"):
        if field not in obj:
            raise FormatError(f"{context}: missing field {field!r}")
    if not isinstance(obj["values"], list):
        raise FormatError(f"{context}: field 'values' must be an array")
    try:
        return SetFn(obj["n"], obj["values"], obj["mode"])
    except ValueError as e:
        raise FormatError(f"{context}: {e}") from e


def load(path):
    """Read a set function file; raises FormatError with context on issues.

    Deserialized functions may have an empty effective domain; checkers
    reject those, so callers should inspect ``dom_masks`` when in doubt.
    A real value is the float the literal parses to, so a literal that
    the parse changes by more than float rounding is refused: one with a
    nonzero magnitude below 2^-1022, where floats are subnormal or 0.
    """
    def parse_float(text):
        value = float(text)
        if abs(value) < 2.0**-1022 and text.lower().partition("e")[0].strip("-0."):
            raise FormatError(f"{path}: {text} is nonzero and below 2^-1022 in magnitude, "
                              f"which a float does not hold to its precision")
        return value

    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh, parse_float=parse_float)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    return loads_setfn(obj, context=str(path))
