import random
from itertools import combinations, permutations

import networkx as nx
import pytest

from mconcave import (
    NEG_INF,
    LaminarSpec,
    Matroid,
    assignment_valuation,
    check_exc_single,
    default_corpus,
    elements_of,
    exchange,
    graphic_matroid,
    laminar_concave_fn,
    matroid_rank_fn,
    mutate,
    partition_matroid,
    random_mnat_concave,
    random_table,
    uniform_matroid,
    weighted_basis_valuation,
)

# --- oracles ----------------------------------------------------------------


def nx_forest_rank(num_vertices, edges, subset):
    """Spanning-forest size of an edge subset, via networkx."""
    g = nx.MultiGraph()
    g.add_nodes_from(range(1, num_vertices + 1))
    g.add_edges_from(edges[i - 1] for i in subset)
    return sum(len(c) - 1 for c in nx.connected_components(g) if len(c) > 1)


def brute_matching(weights, items):
    """Best item->slot matching by enumerating all slot orderings."""
    slots = range(len(weights[0])) if weights else []
    best = 0
    for r in range(len(items) + 1):
        for chosen in combinations(items, r):
            for assignment in permutations(slots, r):
                best = max(best, sum(weights[i - 1][s]
                                     for i, s in zip(chosen, assignment)))
    return best


# --- matroids ---------------------------------------------------------------


def test_uniform_rank_formula():
    f = matroid_rank_fn(uniform_matroid(4, 2))
    for m in range(16):
        assert f.values[m] == min(m.bit_count(), 2)
    assert f([]) == 0


def test_partition_rank_example():
    f = matroid_rank_fn(partition_matroid([[1, 2], [3]], [1, 1]))
    assert f([1, 2, 3]) == 2
    assert f([1, 2]) == 1
    assert f([]) == 0


@pytest.mark.parametrize("num_vertices, edges", [
    (3, [(1, 2), (2, 3), (1, 3)]),
    (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    (3, [(1, 2), (1, 2), (2, 3)]),  # parallel edge
])
def test_graphic_rank_matches_networkx(num_vertices, edges):
    m = graphic_matroid(num_vertices, edges)
    f = matroid_rank_fn(m)
    for mask in range(1 << m.n):
        subset = elements_of(mask)
        assert f.values[mask] == nx_forest_rank(num_vertices, edges, subset)


def test_graphic_rejects_bad_edges():
    with pytest.raises(ValueError):
        graphic_matroid(3, [(1, 1)])
    with pytest.raises(ValueError):
        graphic_matroid(2, [(1, 5)])
    with pytest.raises(ValueError):
        graphic_matroid(7, [(1, 2)])


def test_partition_validation():
    with pytest.raises(ValueError):
        partition_matroid([[1, 2], [2, 3]], [1, 1])  # overlap
    with pytest.raises(ValueError):
        partition_matroid([[1, 3]], [1])  # gap
    with pytest.raises(ValueError):
        partition_matroid([[1, 2]], [1, 1])  # cap count


def test_rank_axiom_validation_rejects_junk():
    with pytest.raises(ValueError, match="monotone"):
        Matroid(2, "junk", [0, 1, 1, 3])
    with pytest.raises(ValueError, match="empty set"):
        Matroid(1, "junk", [1, 1])
    # submodularity violation with valid unit steps:
    # r({1})=r({2})=0 but r({1,2})=1
    with pytest.raises(ValueError, match="submodular"):
        Matroid(2, "junk", [0, 0, 0, 1])


def pairwise_rank_error(n, rt):
    """The exhaustive rank-axiom check over every pair (X, Y), the oracle
    of the local one: the first violation's kind, or None."""
    if rt[0] != 0:
        return "empty set"
    for m in range(1 << n):
        for j in range(n):
            if not m >> j & 1 and not rt[m] <= rt[m | 1 << j] <= rt[m] + 1:
                return f"rank not monotone with unit steps at {elements_of(m)} + {j + 1}"
    for x in range(1 << n):
        for y in range(x, 1 << n):
            if rt[x] + rt[y] < rt[x | y] + rt[x & y]:
                return "submodular"
    return None


def rank_error(n, rt):
    try:
        Matroid(n, "junk", rt)
    except ValueError as e:
        return str(e)
    return None


def sparse_paving(n, k, hyperplanes):
    """min(|X|, k), lowered to k - 1 on the given k-sets: a matroid iff no
    two of them share k - 1 elements, with unit steps either way."""
    return [k - 1 if m in hyperplanes else min(m.bit_count(), k) for m in range(1 << n)]


def test_local_rank_axioms_agree_with_pairwise_check(monkeypatch):
    corpus = []
    validate = Matroid._validate
    monkeypatch.setattr(Matroid, "_validate",
                        lambda m: corpus.append((m.n, m.rank_table)) or validate(m))
    default_corpus()
    monkeypatch.undo()
    assert len(corpus) >= 20
    tables = list(corpus)
    rng = random.Random(3)
    for _ in range(40):
        nv = rng.randint(2, 5)
        edges = [tuple(rng.sample(range(1, nv + 1), 2)) for _ in range(rng.randint(1, 7))]
        tables.append((len(edges), graphic_matroid(nv, edges).rank_table))
    for _ in range(60):
        n = rng.randint(3, 7)
        k = rng.randint(2, n - 1)
        ksets = [m for m in range(1 << n) if m.bit_count() == k]
        hyperplanes = rng.sample(ksets, rng.randint(1, min(len(ksets), 4)))
        tables.append((n, sparse_paving(n, k, set(hyperplanes))))
    for n, rt in tables[:]:
        for _ in range(2):
            bumped = list(rt)
            bumped[rng.randrange(1, 1 << n)] += rng.choice((-1, 1))
            tables.append((n, bumped))
    kinds = set()
    for n, rt in tables:
        want, got = pairwise_rank_error(n, rt), rank_error(n, rt)
        if want is None or want.startswith("rank not monotone"):
            assert got == want, (n, rt)
        else:
            assert got is not None and want in got, (n, rt)
        kinds.add(want and ("monotone" if "monotone" in want else want))
    assert kinds == {None, "monotone", "submodular"}


def test_matroid_bases():
    m = uniform_matroid(4, 2)
    assert len(m.bases) == 6
    assert all(b.bit_count() == 2 for b in m.bases)
    cycle = graphic_matroid(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert len(cycle.bases) == 4  # drop any one edge of the cycle


# --- weighted basis valuations ----------------------------------------------


def test_weighted_basis_example():
    f = weighted_basis_valuation(uniform_matroid(2, 1), (0, 1))
    assert f([1]) == 0 and f([2]) == 1
    assert f([]) is NEG_INF and f([1, 2]) is NEG_INF


def test_weighted_basis_zero_weights_is_indicator():
    m = uniform_matroid(3, 2)
    f = weighted_basis_valuation(m, (0, 0, 0))
    assert set(f.dom_masks) == set(m.bases)
    assert all(f.values[b] == 0 for b in m.bases)


def test_weighted_basis_single_basis():
    f = weighted_basis_valuation(uniform_matroid(2, 2), (5, 7))
    assert f.dom_masks == (0b11,)
    assert f([1, 2]) == 12


def test_weighted_basis_equicardinal(corpus):
    for inst in corpus:
        if inst.family.endswith("_basis"):
            sizes = {m.bit_count() for m in inst.fn.dom_masks}
            assert len(sizes) == 1


# --- laminar ----------------------------------------------------------------


def test_laminar_single_member():
    f = laminar_concave_fn(LaminarSpec(2, ((1, 2),), ((0, 2, 3),)))
    assert f([1]) == 2 and f([1, 2]) == 3 and f([]) == 0


def test_laminar_zero_tables():
    f = laminar_concave_fn(LaminarSpec(3, ((1, 2),), ((0, 0, 0),)))
    assert all(v == 0 for v in f.values)


def test_laminar_nested_sum():
    # members {1} and {1,2}: f({1}) = 3 + 1, f({1,2}) = 3 + 2, f({2}) = 0 + 1
    spec = LaminarSpec(2, ((1,), (1, 2)), ((0, 3), (0, 1, 2)))
    f = laminar_concave_fn(spec)
    assert f([1]) == 4 and f([1, 2]) == 5 and f([2]) == 1


def test_laminar_validation():
    with pytest.raises(ValueError, match="nested nor disjoint"):
        LaminarSpec(3, ((1, 2), (2, 3)), ((0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError, match="concave"):
        LaminarSpec(2, ((1, 2),), ((0, 1, 3),))
    with pytest.raises(ValueError, match="entries"):
        LaminarSpec(2, ((1, 2),), ((0, 1),))


# --- assignment -------------------------------------------------------------


def test_assignment_single_slot():
    f = assignment_valuation([[3], [5]])
    assert f([1, 2]) == 5
    assert f([]) == 0


def test_assignment_matches_brute_force():
    weights = [[4, 1, 0], [2, 3, 1], [1, 1, 5], [0, 2, 2]]
    f = assignment_valuation(weights)
    for mask in range(16):
        assert f.values[mask] == brute_matching(weights, elements_of(mask))


def test_assignment_diagonal():
    weights = [[5, 0, 0], [0, 4, 0], [0, 0, 3]]
    f = assignment_valuation(weights)
    assert f([1, 2, 3]) == 12
    assert f([1, 3]) == 8


def test_assignment_rejects_negative():
    with pytest.raises(ValueError):
        assignment_valuation([[1], [-2]])


def test_real_weights_are_summed_exactly():
    """Summed as floats, 0.1 + 0.2 gave f({1, 2}) = 0.30000000000000004, so
    these modular tables failed the single exchange at X = {1, 2}, Y = {},
    i = 1."""
    for f in (laminar_concave_fn(LaminarSpec(2, [[1], [2]], [[0, 0.1], [0, 0.2]])),
              assignment_valuation([[0.1, 0.0], [0.0, 0.2]])):
        assert f.mode == "real" and f.values == (0.0, 0.1, 0.2, 0.3)
        assert check_exc_single(f).passed


# --- mutation and random tables ----------------------------------------------


def test_mutate_zero_magnitude_is_identity(rank_u24):
    assert mutate(rank_u24, seed=3, magnitude=0) == rank_u24


def test_mutate_deterministic(rank_u24):
    assert mutate(rank_u24, 11, 2) == mutate(rank_u24, 11, 2)
    assert mutate(rank_u24, 11, 2, toggle_neg_inf=True) == \
        mutate(rank_u24, 11, 2, toggle_neg_inf=True)


def test_mutate_breaks_exchange_property(rank_u24):
    # find a seed that bumps f({1,2}) from 2 to 5 and check it gets caught
    target = rank_u24.with_value([1, 2], 5)
    found = None
    for seed in range(4000):
        if mutate(rank_u24, seed, 3) == target:
            found = seed
            break
    assert found is not None
    assert not check_exc_single(mutate(rank_u24, found, 3)).passed


def test_mutate_toggle(rank_u24):
    for seed in range(50):
        g = mutate(rank_u24, seed, 1, toggle_neg_inf=True)
        assert len(g.dom_masks) == len(rank_u24.dom_masks) - 1
        flipped = [m for m in rank_u24.dom_masks if m not in g.dom_masks]
        assert len(flipped) == 1


def test_mutate_requires_int_mode():
    from mconcave import SetFn
    with pytest.raises(ValueError):
        mutate(SetFn.constant(1, 0.0, mode="real"), 0, 1)


def test_random_table_deterministic():
    a = random_table(4, seed=99)
    b = random_table(4, seed=99)
    assert a == b
    assert a.dom_masks  # nonempty dom enforced


def test_random_mnat_concave_passes_check(monkeypatch):
    """n = 3 samples a passing table; n >= 4 is refused before any draw
    (with the defaults no n = 4 draw of 200,000 passes)."""
    f = random_mnat_concave(3, seed=5)
    assert check_exc_single(f).passed
    monkeypatch.setattr(exchange, "check_exc_single",
                        lambda f: pytest.fail("check_exc_single was called"))
    for n in (4, 5):
        with pytest.raises(ValueError, match="n <= 3"):
            random_mnat_concave(n, seed=0)


# --- corpus ------------------------------------------------------------------


def test_corpus_shape(corpus):
    assert len(corpus) >= 30
    ns = {inst.fn.n for inst in corpus}
    assert ns == {3, 4, 5, 6, 7, 8}
    labels = {(inst.family, inst.matroid and inst.matroid.kind) for inst in corpus}
    assert {("matroid_rank", "uniform"), ("matroid_rank", "partition"),
            ("matroid_rank", "graphic"), ("laminar", None), ("assignment", None),
            ("weighted_basis", "uniform")} <= labels
    assert all(inst.fn.mode == "int" for inst in corpus)
    ids = [inst.instance_id for inst in corpus]
    assert len(ids) == len(set(ids))


def test_corpus_deterministic(corpus):
    again = default_corpus()
    assert [i.instance_id for i in again] == [i.instance_id for i in corpus]
    assert [i.fn for i in again] == [i.fn for i in corpus]


def test_every_generator_output_passes_single_exchange(corpus):
    # exhaustive at every corpus size (n <= 8)
    for inst in corpus:
        assert check_exc_single(inst.fn, instance_id=inst.instance_id).passed, \
            inst.instance_id
