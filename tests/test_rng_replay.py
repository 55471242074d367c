"""Seeded ``random.Random`` draws in arrays against the scalar calls.

``core._draws`` takes runs of ``getrandbits`` by CPython's own
``randrange`` rule and puts them into arrays. The scalar ``randint``,
``randrange`` and ``getrandbits`` loops here are the oracle: first for
the arrays and the generator state they leave, then for whole reports of
the three sampled grid checkers and of the sampled multiple exchange,
FAILs included.
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
from mconcave import duality
from mconcave.core import _below, _draws
from mconcave.duality import _feasible_caps
from mconcave.exchange import _best_multi, _multi_pass_margin
from test_grid_engine import _as_real, ref_cross, ref_quotient, ref_submodular

SEEDS = (0, 1, 2**32, 2**63 + 7, 2**64 - 1)
# Chunk sizes of consecutive ``_draws`` calls on one generator.
CHUNKS = (1, 256, 37)


def below(m, count=1):
    return count, m, m.bit_length()


def drawn(seed, runs):
    """The draws of ``runs`` over CHUNKS, stacked into one list per sample,
    and the state of the generator after them."""
    rng = random.Random(seed)
    rows = [row for size in CHUNKS for row in np.hstack(_draws(rng, size, runs)).tolist()]
    return rows, rng.getstate()


# --- the arrays against the scalar calls -------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lo, hi", [(-3, 3), (0, 3), (-3, 4), (2, 2), (0, 2**32 - 2)])
def test_randint_run_matches_scalar_draws(seed, lo, hi):
    """One width: width 7, the powers of two 4 and 8 (CPython takes
    m.bit_length() bits, so half the draws are rejected), width 1 (a bit
    is drawn until it is 0) and the widest box, 2^32 - 1."""
    rng = random.Random(seed)
    n = 3
    expected = [[rng.randint(lo, hi) - lo for _ in range(2 * n)] for _ in range(sum(CHUNKS))]
    assert drawn(seed, [below(hi - lo + 1, 2 * n)]) == (expected, rng.getstate())


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
    assert drawn(seed, [below(width, 2 * n), below(ncaps)]) == (expected, rng.getstate())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ndom, n", [(1, 3), (2, 1), (4, 5), (16, 8), (64, 8), (70, 8),
                                     (1, 0), (5, 24)])
def test_multi_draws_match_scalar_draws(seed, ndom, n):
    """The sampled multiple exchange: two ``randrange(ndom)``, then
    ``getrandbits(n)``, which takes no word at n = 0."""
    rng = random.Random(seed)
    expected = [[rng.randrange(ndom), rng.randrange(ndom), rng.getrandbits(n) if n else 0]
                for _ in range(sum(CHUNKS))]
    assert drawn(seed, [below(ndom, 2), (1, 1 << n, n)]) == (expected, rng.getstate())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("runs", [[below(256, 4)], [below(257, 4)],
                                  [below(256, 2), below(257, 4)], [(3, 256, 8), below(7)]],
                         ids=["256", "257", "256-257", "bits8-7"])
def test_byte_and_list_paths_match_scalar_draws(seed, runs):
    """On each side of the byte path: with every bound at most 256 the
    values reach numpy as bytes, and a run of bound 257, whose values
    reach 256, sends the whole draw through the list. Values and the
    generator state equal the scalar ``randrange`` and ``getrandbits``
    loop's."""
    rng = random.Random(seed)
    expected = [[rng.getrandbits(k) if bound == 1 << k else rng.randrange(bound)
                 for count, bound, k in runs for _ in range(count)]
                for _ in range(sum(CHUNKS))]
    assert drawn(seed, runs) == (expected, rng.getstate())
    if any(bound > 256 for _, bound, _ in runs):
        assert max(map(max, expected)) == 256  # a value no byte holds was drawn


@pytest.mark.parametrize("offset", [0, 5, 623, 624, 1000])
def test_replay_starts_where_the_rng_stands(offset):
    """Words already taken from the rng, within or past its first block of
    624, are not drawn again."""
    for seed in (0, 12345, 2**63 + 7):
        rng = random.Random(seed)
        for _ in range(offset):
            rng.getrandbits(32)
        twin = random.Random()
        twin.setstate(rng.getstate())
        expected = [[twin.getrandbits(32)] for _ in range(700)]
        assert np.hstack(_draws(rng, 700, [(1, 2**32, 32)])).tolist() == expected
        assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("m", [1, 2, 3, 11, 2**31, 2**32, 2**32 + 1])
def test_below_draws_as_randrange_randint_and_choice(m):
    """``core._below`` against ``randrange``, ``randint`` and ``choice``
    from the same seed: the same value, and the same generator state after
    every draw, so that no word is taken more or less."""
    seq = range(m)
    scalars = (lambda r: r.randrange(m), lambda r: r.randint(0, m - 1),
               lambda r: r.randint(-7, m - 8) + 7, lambda r: r.choice(seq))
    for seed in SEEDS:
        for scalar in scalars:
            rng, twin = random.Random(seed), random.Random(seed)
            for _ in range(40):
                assert _below(rng, m) == scalar(twin)
                assert rng.getstate() == twin.getstate()


def test_below_refuses_an_empty_range():
    """m < 1 has no value to draw (``getrandbits(0)`` would redraw 0
    forever), and draws no word."""
    rng = random.Random(0)
    state = rng.getstate()
    for m in (0, -1, -5):
        with pytest.raises(ValueError, match="empty range"):
            _below(rng, m)
    assert rng.getstate() == state


# --- whole reports against the scalar loops --------------------------------------


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


# Box widths 7, 4 (a power of two), 1 and 61; a box is sampled only above
# 7^4 points.
GRID_BOXES = [(-3, 3), (0, 3), (2, 2), (-30, 30)]


@pytest.mark.parametrize("mode", ["int", "real"])
@pytest.mark.parametrize("instance_id, f", _grid_inputs())
def test_grid_reports_match_scalar_loops(instance_id, f, mode):
    if mode == "real":
        f = _as_real(f)
    caps = list(_feasible_caps(f))
    fast, slow = [], []
    for b, box in enumerate(GRID_BOXES):
        if (box[1] - box[0] + 1) ** f.n <= 7**4:
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


def test_grid_reports_at_n0_match_scalar_loops(monkeypatch):
    """At n = 0 a table sampled (here below the box limit) draws no
    prices, only the cap."""
    monkeypatch.setattr(duality, "EXHAUSTIVE_GRID_LIMIT", 0)
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
    """The scalar sampled multiple-exchange loop that ``_draws`` replaced."""
    vals = f.exact
    dom = f.dom_masks
    ndom = len(dom)
    counts = [0] * (f.n + 1)
    rng = random.Random(seed)
    for t in range(samples):
        xm = dom[rng.randrange(ndom)]
        ym = dom[rng.randrange(ndom)]
        im = (xm & ~ym) & rng.getrandbits(f.n) if f.n else 0
        best, _, size = _best_multi(vals, xm, ym, im, bounded)
        if best is NEG_INF or not vals[xm] + vals[ym] <= best:
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
    ``choice``), the sampled grid regime at n = 6 and ``check_exc_multi``
    at n = 8 still give the reports pinned before the per-value calls
    were replaced; only ``getrandbits(k)`` may run, the standard that
    ``falsify``'s drawers are held to."""
    corpus = {c.instance_id: c.fn for c in default_corpus()}
    grid = [("n6_laminar", corpus["n6_laminar"]),
            ("n6_laminar_mut", mutate(corpus["n6_laminar"], 0, 2))]
    f8 = corpus["n8_wbasis_uniform_r4"]
    tables = (f8, mutate(f8, 0, 3))

    def broken(*args, **kwargs):
        raise AssertionError("a per-value draw was made")

    for name in ("randint", "randrange", "choice"):
        monkeypatch.setattr(random.Random, name, broken)
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
