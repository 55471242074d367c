"""The bulk replay of seeded ``random.Random`` draws against the scalar calls.

``core._Replay`` decodes the Mersenne Twister words of a seeded
``random.Random``, drawn in bulk, with CPython's own rules. The scalar ``randint``,
``randrange`` and ``getrandbits`` loops here are the oracle: first for
the decoded arrays, then for whole reports of the three sampled grid
checkers and of the sampled multiple exchange, FAILs included.
"""

import hashlib
import random

import numpy as np
import pytest

from mconcave import (
    NEG_INF,
    SetFn,
    check_conjugate_submodular,
    check_cross_submodular,
    check_exc_multi,
    check_strong_quotient,
    default_corpus,
    mutate,
    random_table,
)
from mconcave.cli import SuiteConfig, run_check
from mconcave.core import _Replay, leq_for
from mconcave.duality import _feasible_caps
from mconcave.exchange import _best_multi, _multi_pass_margin
from test_grid_engine import ref_cross, ref_quotient, ref_submodular

SEEDS = (0, 1, 2**32, 2**63 + 7, 2**64 - 1)
# Chunk sizes of consecutive ``take`` calls on one replay.
CHUNKS = (1, 256, 37)


def below(m, count=1):
    return count, m, m.bit_length()


def replayed(seed, runs):
    """The replay of ``runs`` over CHUNKS, stacked into one list per sample."""
    replay = _Replay(random.Random(seed))
    return [row for size in CHUNKS for row in np.hstack(replay.take(size, runs)).tolist()]


# --- the decoded arrays against the scalar calls -----------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lo, hi", [(-3, 3), (0, 3), (-3, 4), (2, 2), (0, 2**32 - 2)])
def test_randint_run_matches_scalar_draws(seed, lo, hi):
    """One width: width 7, the powers of two 4 and 8 (CPython takes
    m.bit_length() bits, so half the words are rejected), width 1 (a word
    is taken until its top bit is 0) and the widest box, 2^32 - 1."""
    rng = random.Random(seed)
    n = 3
    expected = [[rng.randint(lo, hi) - lo for _ in range(2 * n)] for _ in range(sum(CHUNKS))]
    assert replayed(seed, [below(hi - lo + 1, 2 * n)]) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("width, ncaps", [(7, 1), (7, 4), (7, 5), (7, 8), (7, 7),
                                          (4, 4), (4, 3), (1, 1), (8, 2)])
def test_mixed_widths_match_scalar_draws(seed, width, ncaps):
    """The submodular draw: 2n prices of one width, then a
    ``randrange(len(caps))``, rejection resolved in stream order."""
    rng = random.Random(seed)
    n = 4
    expected = [[rng.randrange(width) for _ in range(2 * n)] + [rng.randrange(ncaps)]
                for _ in range(sum(CHUNKS))]
    assert replayed(seed, [below(width, 2 * n), below(ncaps)]) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ndom, n", [(1, 3), (2, 1), (4, 5), (16, 8), (64, 8), (70, 8),
                                     (1, 0), (5, 24)])
def test_multi_draws_match_scalar_draws(seed, ndom, n):
    """The sampled multiple exchange: two ``randrange(ndom)``, then
    ``getrandbits(n)``, which takes no word at n = 0."""
    rng = random.Random(seed)
    expected = [[rng.randrange(ndom), rng.randrange(ndom), rng.getrandbits(n) if n else 0]
                for _ in range(sum(CHUNKS))]
    assert replayed(seed, [below(ndom, 2), (1, 1 << n, n)]) == expected


@pytest.mark.parametrize("offset", [0, 5, 623, 624, 1000])
def test_replay_starts_where_the_rng_stands(offset):
    """Words already taken from the rng, within or past its first block of
    624, are not replayed."""
    for seed in (0, 12345, 2**63 + 7):
        rng = random.Random(seed)
        for _ in range(offset):
            rng.getrandbits(32)
        expected = random.Random()
        expected.setstate(rng.getstate())
        expected = [[expected.getrandbits(32)] for _ in range(700)]
        assert np.hstack(_Replay(rng).take(700, [(1, 2**32, 32)])).tolist() == expected


def test_runs_that_decode_garbage_are_refused():
    replay = _Replay(random.Random(0))
    for run in [(1, 0, 0), (1, -3, 1), (1, 2**32, 33), (1, 9, 3), (-1, 4, 3)]:
        with pytest.raises(ValueError, match="cannot replay"):
            replay.take(4, [run])


# --- whole reports against the scalar loops --------------------------------------


def _as_real(f):
    return SetFn(f.n, [v if v is NEG_INF else v / 3 for v in f.values], "real")


def _top_heavy(n, seed):
    """A random table with a dominant full set: the plain conjugate is
    modular on a small box, the capped ones are not, so the submodular
    check fails on ``submodular_sized``."""
    f = random_table(n, seed)
    return f.with_value(range(1, n + 1), 1000)


def _grid_inputs():
    corpus = {c.instance_id: c.fn for c in default_corpus()}
    out = [("n5_laminar", corpus["n5_laminar"]),
           ("n6_assignment_mut", mutate(corpus["n6_assignment"], 0, 2))]
    out += [(f"rand{n}", random_table(n, 1000 * n + 3)) for n in (3, 4, 5)]
    out += [(f"top{n}", _top_heavy(n, n)) for n in (3, 5)]
    return out


# Box widths 7, 4 (a power of two), 1 and 61; int mode samples a box only
# above 7^4 points, real mode always.
GRID_BOXES = [(-3, 3), (0, 3), (2, 2), (-30, 30)]


@pytest.mark.parametrize("mode", ["int", "real"])
@pytest.mark.parametrize("instance_id, f", _grid_inputs())
def test_grid_reports_match_scalar_loops(instance_id, f, mode):
    if mode == "real":
        f = _as_real(f)
    caps = list(_feasible_caps(f))
    fast, slow = [], []
    for b, box in enumerate(GRID_BOXES):
        if (box[1] - box[0] + 1) ** f.n <= 7**4 and mode == "int":
            continue  # the box regime
        seed = SEEDS[b % len(SEEDS)] ^ b
        samples = 300 if box != (2, 2) else 20
        fast.append(check_conjugate_submodular(f, box=box, seed=seed, samples=samples))
        slow.append(ref_submodular(f, *box, seed, samples, ""))
        for k in caps + [f.n + 1]:
            fast.append(check_cross_submodular(f, k, box=box, seed=seed, samples=samples))
            slow.append(ref_cross(f, k, *box, seed, samples, ""))
            fast.append(check_strong_quotient(f, k, box=box, seed=seed, samples=samples))
            slow.append(ref_quotient(f, k, *box, seed, samples, ""))
    assert [r.to_json_line() for r in fast] == [r.to_json_line() for r in slow]
    assert fast and all(r.regime == "sampled" for r in fast)


def test_grid_reports_at_n0_match_scalar_loops():
    """At n = 0 a real table samples with no price draws, only the cap."""
    f = SetFn(0, [1.5], "real")
    for seed in SEEDS:
        assert check_conjugate_submodular(f, seed=seed, samples=300) == \
            ref_submodular(f, -3, 3, seed, 300, "")
        assert check_cross_submodular(f, 1, seed=seed, samples=300) == \
            ref_cross(f, 1, -3, 3, seed, 300, "")
        assert check_strong_quotient(f, 0, seed=seed, samples=300) == \
            ref_quotient(f, 0, -3, 3, seed, 300, "")


def test_grid_oracle_inputs_fail_every_inequality():
    """The inputs above reach a FAIL of each of the four inequalities."""
    seen = set()
    for _, f in _grid_inputs():
        reports = [check_conjugate_submodular(f, box=(-3, 3), samples=300)]
        reports += [check(f, k, box=(-3, 3), samples=300) for k in _feasible_caps(f)
                    for check in (check_cross_submodular, check_strong_quotient)]
        seen |= {r.counterexample["inequality"] for r in reports if not r.passed}
    assert seen == {"submodular", "submodular_sized", "cross_submodular", "strong_quotient"}


def ref_sampled_multi(f, bounded, samples, seed):
    """The scalar sampled multiple-exchange loop the replay replaced."""
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


def _with_domain(n, ndom, seed):
    """A random int table on ``ndom`` seeded domain sets."""
    rng = random.Random(seed)
    masks = rng.sample(range(1 << n), ndom)
    return SetFn(n, [rng.randint(-4, 4) if m in masks else NEG_INF for m in range(1 << n)])


def _multi_inputs():
    corpus = {c.instance_id: c.fn for c in default_corpus()}
    f8 = corpus["n8_wbasis_uniform_r4"]
    out = [("n8", f8), ("n8_mut", mutate(f8, 0, 3)), ("n0", SetFn(0, [5]))]
    out += [(f"dom{ndom}_n{n}", _with_domain(n, ndom, ndom + n))
            for n, ndom in [(3, 1), (4, 2), (5, 8), (6, 32), (6, 37)]]
    out += [(f"rand{n}", random_table(n, 7 * n)) for n in (3, 5, 8)]
    return out


@pytest.mark.parametrize("mode", ["int", "real"])
@pytest.mark.parametrize("instance_id, f", _multi_inputs())
def test_sampled_multi_matches_scalar_loop(instance_id, f, mode):
    if mode == "real":
        f = _as_real(f)
    results = []
    for seed in SEEDS:
        passes = _multi_pass_margin(f, 600, seed)
        for bounded in (True, False):
            fast = passes[bounded]
            assert fast == ref_sampled_multi(f, bounded, 600, seed)
            results.append(fast[0] is None)
    if instance_id.startswith(("rand", "n8_mut")):
        assert not all(results)  # FAILs are compared too


# --- no per-value draws left in the sampled regimes --------------------------------


def test_sampled_regimes_make_no_per_value_draws(monkeypatch):
    """With the per-value draws broken (``randint``, ``randrange`` and
    ``getrandbits`` of one word), the sampled grid regime at n = 6 and
    ``check_exc_multi`` at n = 8 still give the reports pinned before the
    replay replaced them; only bulk ``getrandbits(32 * k)`` may run."""
    corpus = {c.instance_id: c.fn for c in default_corpus()}
    grid = [("n6_laminar", corpus["n6_laminar"]),
            ("n6_laminar_mut", mutate(corpus["n6_laminar"], 0, 2))]
    f8 = corpus["n8_wbasis_uniform_r4"]
    tables = (f8, mutate(f8, 0, 3))

    def broken(*args, **kwargs):
        raise AssertionError("a per-value draw was made")

    bulk_bits = random.Random.getrandbits

    def bulk_only(rng, k):
        if k <= 32:
            broken()
        return bulk_bits(rng, k)

    for name in ("randint", "randrange"):
        monkeypatch.setattr(random.Random, name, broken)
    monkeypatch.setattr(random.Random, "getrandbits", bulk_only)
    reports = run_check(grid, SuiteConfig(suites=("duality_grid",), samples=500,
                                          seed=2**63 + 5))
    assert [r.regime for r in reports] == ["sampled", "sampled"]
    text = "".join(r.to_json_line() + "\n" for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "d735c44e3f27b3987d5fa13c7c8c5be06488f2571ac0ff4f24bb7bf6439ab34f"
    reports = [check_exc_multi(g, bounded=b, seed=s, samples=2000)
               for g in tables for b in (True, False) for s in (0, 2**64 - 1)]
    assert {r.regime for r in reports} == {"sampled"}
    text = "".join(r.to_json_line() + "\n" for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "07b27e0e6e0cfb959e2ab8b9e60d490b048e7f5c3a4e9860d5cf631a0375a0ba"
