"""Extended-real values, dense set-function tables, and price vectors.

Everything downstream evaluates set functions f: 2^{1..n} -> R u {-oo}.
A set function is stored as a dense table indexed by subset bitmask
(bit j-1 <-> element j), so every operation in this package is an
explicit exponential enumeration; the hard cap on n keeps that honest.

Minus infinity is the absorbing singleton ``NEG_INF`` (a tagged object,
never a numeric sentinel), so integer-mode arithmetic stays exact and
absorption can never be confused with a large negative number.
"""

import json
import math
from itertools import combinations
from operator import le as _int_le

import numpy as np

HARD_CAP = 24

# Comparison slack in real mode, scaled by magnitude (exact in int mode).
REAL_EPS = 1e-9

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
    best = NEG_INF
    for v in vals:
        if v is NEG_INF:
            continue
        if best is NEG_INF or v > best:
            best = v
    return best


def ext_leq(a, b, mode="int"):
    """a <= b over extended values, with magnitude-scaled slack in real mode."""
    if a is NEG_INF:
        return True
    if b is NEG_INF:
        return False
    if mode == "int":
        return a <= b
    return a <= b + REAL_EPS * max(1.0, abs(a), abs(b))


def leq_for(mode):
    """Finite-value comparator for hot loops (callers filter NEG_INF)."""
    if mode == "int":
        return _int_le

    def leq(a, b):
        return a <= b + REAL_EPS * max(1.0, abs(a), abs(b))

    return leq


def _holds(lhs, rhs, mode):
    """``leq_for(mode)`` elementwise over arrays."""
    if mode == "int":
        return lhs <= rhs
    return lhs <= rhs + REAL_EPS * np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))


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


_SUBMASKS_ASC: dict[int, tuple[int, ...]] = {}


def submasks_ascending(mask):
    """All submasks of ``mask`` in ascending numeric order (cached)."""
    cached = _SUBMASKS_ASC.get(mask)
    if cached is None:
        subs = [0]
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            subs += [s | bit for s in subs]
        cached = _SUBMASKS_ASC[mask] = tuple(subs)
    return cached


_SUBMASKS_SIZED: dict[int, tuple[tuple[int, int], ...]] = {}


def submasks_by_size(mask):
    """Submasks of ``mask`` as (submask, size), ordered by size then by the
    lexicographic order of the element tuple (cached)."""
    cached = _SUBMASKS_SIZED.get(mask)
    if cached is None:
        bits = [1 << (e - 1) for e in elements_of(mask)]
        out = []
        for size in range(len(bits) + 1):
            for combo in combinations(bits, size):
                sub = 0
                for b in combo:
                    sub |= b
                out.append((sub, size))
        cached = _SUBMASKS_SIZED[mask] = tuple(out)
    return cached


def price_sums(entries, n):
    """Table of sum(entries[j-1] for j in Z) over all 2^n bitmasks Z."""
    sums = [0] * (1 << n)
    for j in range(n):
        bit = 1 << j
        pj = entries[j]
        for m in range(bit):
            sums[bit | m] = sums[m] + pj
    return sums


# ---------------------------------------------------------------------------
# Seeded draws replayed in bulk.


class _Replay:
    """The draws a seeded ``random.Random`` would make, decoded in bulk.

    CPython's ``random.Random`` is MT19937, and every call takes whole
    32-bit output words. ``getrandbits(32 * k)`` takes the next k words,
    the first as its lowest 32 bits, so the words come from ``rng`` in
    bulk and are decoded in numpy. ``randrange(m)`` (and ``randint``) for
    m < 2^32 takes the top ``m.bit_length()`` bits of one word per try and
    rejects while the value is >= m; ``getrandbits(k)`` for k <= 32 is the
    top k bits of one word. ``rng`` is advanced past the words drawn,
    which can run ahead of those decoded, so callers pass a private one.
    """

    def __init__(self, rng):
        self._rng = rng
        self._words = np.empty(0, dtype=np.int64)  # drawn, not yet consumed

    def take(self, samples, runs):
        """The next ``samples`` samples, each made of ``runs`` in stream
        order. A run (count, bound, bits) is ``count`` draws: ``randrange(m)``
        is (count, m, m.bit_length()), ``getrandbits(k)`` is (count, 2**k, k).
        Runs of no draws, or of ``getrandbits(0)``, take no word and yield
        zeros. Returns one int64 array of shape (samples, count) per run."""
        for count, bound, bits in runs:
            if not (count >= 0 and 0 <= bits <= 32 and 1 <= bound <= 1 << bits):
                raise ValueError(f"cannot replay {count} draws below {bound} from {bits} bits")
        live = [run for run in runs if run[0] and run[2]]
        need = int(samples * sum(c * (1 << k) / m for c, m, k in live) * 1.25) + 64
        out = [] if not live else None
        while out is None:
            short = need - len(self._words)
            if short > 0:
                fresh = self._rng.getrandbits(32 * short).to_bytes(4 * short, "little")
                fresh = np.frombuffer(fresh, dtype="<u4").astype(np.int64)
                self._words = np.concatenate([self._words, fresh])
            out = self._decode(samples, live)
            need *= 2
        out = iter(out)
        return [next(out) if count and bits else np.zeros((samples, count), dtype=np.int64)
                for count, _, bits in runs]

    def _decode(self, samples, runs):
        """``take`` from the words at hand; None when they run out. Runs of
        different widths reject different words, so a sample's end depends
        on where it starts: a table of it for every start is chased once per
        sample, then each run's draws are gathered at once."""
        words = self._words
        end = len(words)
        kinds = {}  # (bound, bits) -> top bits of every word, accepted positions, and
        for _, bound, bits in runs:  # rank[i], the accepted words before position i
            if (bound, bits) not in kinds:
                top = words >> (32 - bits)
                ok = top < bound
                rank = np.concatenate([[0], np.cumsum(ok), [end + 1]])
                kinds[bound, bits] = top, np.flatnonzero(ok), rank
        # Position end + 1 stands for "the words ran out" and maps to itself.
        after = np.arange(end + 2)
        for count, bound, bits in runs:
            _, acc, rank = kinds[bound, bits]
            r = rank[after] + count
            after = np.where(r <= len(acc), np.append(acc, end)[np.minimum(r, len(acc)) - 1] + 1,
                             end + 1)
        after = after.tolist()
        starts = [0] * samples
        stop = 0
        for s in range(samples):
            starts[s] = stop
            stop = after[stop]
        if stop > end:
            return None
        at = np.array(starts, dtype=np.int64)
        out = []
        for count, bound, bits in runs:
            top, acc, rank = kinds[bound, bits]
            picked = acc[rank[at][:, None] + np.arange(count)]
            out.append(top[picked])
            at = picked[:, -1] + 1
        self._words = words[stop:]
        return out


# ---------------------------------------------------------------------------


class SetFn:
    """Total set function on {1..n} as a dense 2^n table of extended values.

    ``values[m]`` is the value of the subset with bitmask m. ``mode`` is
    "int" (exact integers, the default for every verification suite) or
    "real" (finite floats, compared with magnitude-scaled slack). Instances are
    immutable after construction; ``None`` entries are accepted as a
    convenience alias for NEG_INF.
    """

    __slots__ = ("n", "mode", "values", "dom_masks")

    def __init__(self, n, values, mode="int"):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"ground-set size must be a nonnegative int, got {n!r}")
        if n > HARD_CAP:
            raise ValueError(f"ground-set size {n} exceeds hard cap {HARD_CAP}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        vals = list(values)
        if len(vals) != 1 << n:
            raise ValueError(f"expected 2^{n} = {1 << n} values, got {len(vals)}")
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


def effective_domain(f):
    """Subsets with finite value, as element tuples in ascending bitmask order."""
    return [elements_of(m) for m in f.dom_masks]


def tilt(f, p):
    """f[-p]: subtract the price of each subset; the domain is unchanged."""
    if p.n != f.n:
        raise ValueError(f"price vector has {p.n} entries, function has n={f.n}")
    if p.mode != f.mode:
        raise ValueError(f"mode mismatch: function is {f.mode!r}, prices are {p.mode!r}")
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
    """Vector indexed by the ground set; p(Z) = sum of entries over Z.

    Supports componentwise join/meet and domination; entries are ints in
    int mode and floats otherwise (mode is inferred from the entries).
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        ent = tuple(entries)
        for e in ent:
            if not isinstance(e, (int, float)) or isinstance(e, bool):
                raise ValueError(f"price entry {e!r} is not a number")
        self.entries = ent

    @classmethod
    def zero(cls, n):
        return cls((0,) * n)

    @classmethod
    def unit(cls, n, k):
        """Unit vector with a single 1 at element k."""
        if not 1 <= k <= n:
            raise ValueError(f"element {k} outside ground set 1..{n}")
        return cls(tuple(1 if j == k - 1 else 0 for j in range(n)))

    @property
    def n(self):
        return len(self.entries)

    @property
    def mode(self):
        return "int" if all(isinstance(e, int) for e in self.entries) else "real"

    def __call__(self, subset):
        """p(Z) for a subset given as an iterable of elements."""
        return self.total(mask_of(subset, self.n))

    def total(self, mask):
        """p(Z) for a subset given as a bitmask."""
        s = 0
        while mask:
            bit = mask & -mask
            mask ^= bit
            s += self.entries[bit.bit_length() - 1]
        return s

    def join(self, other):
        """Componentwise maximum."""
        return PriceVector(tuple(map(max, self.entries, other.entries)))

    def meet(self, other):
        """Componentwise minimum."""
        return PriceVector(tuple(map(min, self.entries, other.entries)))

    def dominates(self, other):
        """True when self >= other componentwise."""
        return all(a >= b for a, b in zip(self.entries, other.entries))

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
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise FormatError(f"{context}: field 'n' must be a nonnegative integer")
    if n > HARD_CAP:
        raise FormatError(f"{context}: n={n} exceeds hard cap {HARD_CAP}")
    mode = obj["mode"]
    if mode not in MODES:
        raise FormatError(f"{context}: field 'mode' must be 'int' or 'real'")
    values = obj["values"]
    if not isinstance(values, list):
        raise FormatError(f"{context}: field 'values' must be an array")
    if len(values) != 1 << n:
        raise FormatError(
            f"{context}: field 'values' must have 2^{n} = {1 << n} entries, got {len(values)}"
        )
    vals = []
    for i, v in enumerate(values):
        if v is None:
            vals.append(NEG_INF)
        elif isinstance(v, bool):
            raise FormatError(f"{context}: values[{i}]: booleans are not numbers")
        elif mode == "int" and not isinstance(v, int):
            raise FormatError(f"{context}: values[{i}]: int mode requires integer entries")
        elif isinstance(v, (int, float)):
            vals.append(v)
        else:
            raise FormatError(f"{context}: values[{i}]: expected number or null")
    try:
        return SetFn(n, vals, mode)
    except ValueError as e:
        raise FormatError(f"{context}: {e}") from e


def load(path):
    """Read a set function file; raises FormatError with context on issues.

    Deserialized functions may have an empty effective domain; checkers
    reject those, so callers should inspect ``dom_masks`` when in doubt.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    return loads_setfn(obj, context=str(path))
