"""Packing index: conflict oracles, greedy floor, exact search, budgets."""

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from idealpack import bitops
from idealpack.errors import BudgetExceeded, InvalidParam, RangeExceedsMargin
from idealpack.groups import CayleyGroup, MaterializedSet, Window, ZModGroup, ZWindowGroup
from idealpack.ideals import DensityZeroIdeal, FiniteSetsIdeal, TrivialIdeal
from idealpack.packing import (
    ConflictOracle,
    _exact_hyper,
    _exact_pairs,
    candidate_translators,
    pack_exact,
    pack_greedy,
    pack_profile,
)


def brute_pack(A, ideal, candidates, n):
    """Largest subset of candidates with every n-subset's intersection a member."""
    oracle = ConflictOracle(A, ideal, candidates, n)
    m = len(candidates)
    for size in range(m, n - 1, -1):
        for combo in itertools.combinations(range(m), size):
            if all(not oracle.is_edge(sub) for sub in itertools.combinations(combo, n)):
                return size
    return min(n - 1, m)


position_sets = st.sets(st.integers(min_value=0, max_value=59), min_size=1, max_size=25)


# -- oracle equivalence: fast pair paths vs literal intersection ---------------


@given(position_sets, st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_zwindow_pair_oracle_matches_literal(ps, span):
    g = ZWindowGroup(Window(0, 59, margin=8))
    A = g.set_of(ps)
    candidates = list(range(min(span, 8) + 1))
    fast = ConflictOracle(A, TrivialIdeal(), candidates, 2)
    assert fast._mode == "z-window-pairs"
    for i, j in itertools.combinations(range(len(candidates)), 2):
        bi, _ = g.translate_bits(candidates[i], A.bits)
        bj, _ = g.translate_bits(candidates[j], A.bits)
        # each pair is judged on its own exact core
        core = g.exact_core_mask([candidates[i], candidates[j]])
        literal = (bi & bj & core) != 0
        assert fast.is_edge((i, j)) == literal


@given(st.sets(st.integers(0, 23), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_zmod_pair_oracle_matches_literal(ps):
    g = ZModGroup(24)
    A = g.set_of(ps)
    candidates = list(range(8))
    fast = ConflictOracle(A, TrivialIdeal(), candidates, 2)
    assert fast._mode == "z-mod-pairs"
    for i, j in itertools.combinations(range(8), 2):
        bi, _ = g.translate_bits(i, A.bits)
        bj, _ = g.translate_bits(j, A.bits)
        assert fast.is_edge((i, j)) == ((bi & bj) != 0)


def _zwindow_case(data):
    margin = data.draw(st.integers(0, 12), label="margin")
    g = ZWindowGroup(Window(0, data.draw(st.integers(30, 80), label="hi"), margin=margin))
    A = g.set_of(data.draw(st.sets(st.integers(0, g.size - 1), min_size=1, max_size=20), label="A"))
    # shifts up to the margin, in any order, and a few past the window
    cands = data.draw(st.permutations(range(margin + 1)), label="cands")
    far = data.draw(st.sets(st.integers(g.size - 3, 2 * g.size), max_size=3), label="far")
    return A, TrivialIdeal(), list(cands) + sorted(far)


def _zmod_case(data):
    g = ZModGroup(data.draw(st.integers(1, 30), label="N"))
    A = g.set_of(data.draw(st.sets(st.integers(0, g.size - 1), min_size=1, max_size=6), label="A"))
    cands = data.draw(st.lists(st.integers(-40, 40), unique_by=lambda c: c, max_size=14), label="cands")
    return A, TrivialIdeal(), cands


def _cayley_case(data):
    n = 10
    g = CayleyGroup([[(x + y) % n for y in range(n)] for x in range(n)], 0)
    A = g.set_of(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), label="A"))
    return A, TrivialIdeal(), list(range(n))


def _general_window_case(data):
    g = ZWindowGroup(Window(0, 99, margin=10))
    A = g.set_of(data.draw(st.sets(st.integers(0, 99), min_size=1, max_size=30), label="A"))
    ideals = [FiniteSetsIdeal(cutoff=2), DensityZeroIdeal(lengths=(8, 16), threshold=Fraction(1, 4))]
    ideal = data.draw(st.sampled_from(ideals), label="ideal")
    return A, ideal, list(range(11))


_PAIR_CASES = {
    "z-window-pairs": _zwindow_case,
    "z-mod-pairs": _zmod_case,
    "cayley": _cayley_case,
    "general": _general_window_case,
}


@pytest.mark.parametrize("kind", sorted(_PAIR_CASES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_pair_rows_match_is_edge(kind, data):
    A, ideal, cands = _PAIR_CASES[kind](data)
    m = len(cands)
    bulk = ConflictOracle(A, ideal, cands, 2)
    if kind.endswith("-pairs"):
        assert bulk._mode == kind
    order, rows = bulk.pair_rows()
    ref = ConflictOracle(A, ideal, cands, 2)
    adj = [[False] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        adj[i][j] = adj[j][i] = ref.is_edge((i, j))
    deg = [sum(r) for r in adj]
    assert order == sorted(range(m), key=lambda i: (-deg[i], i))
    for p, i in enumerate(order):
        assert rows[p] == sum(1 << q for q, j in enumerate(order) if adj[i][j])
    assert bulk.edges_evaluated == ref.edges_evaluated


# -- the searches vs frozen copies of their recursive form ----------------------


def _recursive_exact_pairs(oracle, m, node_budget):
    """The pair search as it was before the explicit stack (its recursion
    limit guard dropped: these inputs stay far below the default limit)."""
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if oracle.is_edge((i, j)):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    deg = [a.bit_count() for a in adj]
    order = sorted(range(m), key=lambda i: (-deg[i], i))
    pos_of = [0] * m
    for p, i in enumerate(order):
        pos_of[i] = p
    padj = [0] * m
    for i in range(m):
        row = 0
        for j in bitops.iter_bits(adj[i]):
            row |= 1 << pos_of[j]
        padj[pos_of[i]] = row

    seed: list[int] = []
    seed_mask_p = 0
    for i in range(m):
        p = pos_of[i]
        if not (padj[p] & seed_mask_p):
            seed.append(i)
            seed_mask_p |= 1 << p

    best = list(pos_of[i] for i in seed)
    nodes = 0
    budget_hit = False

    def expand(cur, rem):
        nonlocal best, nodes, budget_hit
        while rem:
            if budget_hit:
                return
            if len(cur) + rem.bit_count() <= len(best):
                return
            nodes += 1
            if nodes > node_budget:
                budget_hit = True
                return
            low = rem & -rem
            p = low.bit_length() - 1
            cur.append(p)
            if len(cur) > len(best):
                best = list(cur)
            expand(cur, rem & ~low & ~padj[p])
            cur.pop()
            rem &= ~low

    expand([], bitops.mask(m))
    return sorted(order[p] for p in best), budget_hit, nodes


def _recursive_exact_hyper(oracle, m, n, node_budget):
    """The hypergraph search as it was before the explicit stack."""
    edges_with = {i: [] for i in range(m)}
    degree = [0] * m
    for combo in itertools.combinations(range(m), n):
        if oracle.is_edge(combo):
            fs = frozenset(combo)
            for i in combo:
                edges_with[i].append(fs)
                degree[i] += 1
    order = sorted(range(m), key=lambda i: (-degree[i], i))

    def feasible(cur_set, i):
        for e in edges_with[i]:
            if e <= cur_set | {i}:
                return False
        return True

    seed: list[int] = []
    for i in range(m):
        if feasible(frozenset(seed), i):
            seed.append(i)

    best = list(seed)
    nodes = 0
    budget_hit = False

    def expand(cur, start_pos):
        nonlocal best, nodes, budget_hit
        for p in range(start_pos, m):
            if budget_hit:
                return
            if len(cur) + (m - p) <= len(best):
                return
            nodes += 1
            if nodes > node_budget:
                budget_hit = True
                return
            i = order[p]
            if feasible(frozenset(cur), i):
                cur.append(i)
                if len(cur) > len(best):
                    best = list(cur)
                expand(cur, p + 1)
                cur.pop()

    expand([], 0)
    return sorted(best), budget_hit, nodes


_BUDGETS = [0, 1, 3, 100, math.inf]


@pytest.mark.parametrize("kind", sorted(_PAIR_CASES))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_pair_search_matches_recursive_form(kind, data):
    A, ideal, cands = _PAIR_CASES[kind](data)
    m = len(cands)
    for budget in _BUDGETS:
        new, old = ConflictOracle(A, ideal, cands, 2), ConflictOracle(A, ideal, cands, 2)
        got = _exact_pairs(new, m, budget)
        want = _recursive_exact_pairs(old, m, budget)
        assert (got, new.edges_evaluated) == (want, old.edges_evaluated)


@given(
    st.integers(6, 16),
    st.sets(st.integers(0, 15), min_size=1, max_size=5),
    st.sampled_from([3, 4]),
)
@settings(max_examples=40, deadline=None)
def test_hyper_search_matches_recursive_form(N, ps, n):
    g = ZModGroup(N)
    A = g.set_of([p % N for p in ps])
    for budget in _BUDGETS:
        new, old = ConflictOracle(A, TrivialIdeal(), range(N), n), ConflictOracle(A, TrivialIdeal(), range(N), n)
        got = _exact_hyper(new, N, n, budget)
        want = _recursive_exact_hyper(old, N, n, budget)
        assert (got, new.edges_evaluated) == (want, old.edges_evaluated)


def test_deep_search_leaves_recursion_limit_alone():
    # translates of {0, 1} conflict exactly when the shifts are adjacent: a
    # path on 3,000 candidates, which the search descends about 1,500 deep
    g = ZWindowGroup(Window(0, 9999, margin=3000))
    A = g.set_of([0, 1])
    limit = sys.getrecursionlimit()
    r = pack_exact(A, TrivialIdeal(), list(range(3000)), 2, node_budget=5000)
    assert sys.getrecursionlimit() == limit
    assert r.value == 1500
    assert r.family == list(range(0, 3000, 2))
    assert r.stats["nodes"] <= 5000 + 1


# -- exact search vs brute force -----------------------------------------------


@given(position_sets)
@settings(max_examples=40, deadline=None)
def test_exact_matches_brute_pairs(ps):
    g = ZWindowGroup(Window(0, 59, margin=8))
    A = g.set_of(ps)
    candidates = list(range(7))
    r = pack_exact(A, TrivialIdeal(), candidates, 2)
    assert r.value == brute_pack(A, TrivialIdeal(), candidates, 2)
    assert r.flag in ("exact", "saturated")


@given(st.sets(st.integers(0, 19), min_size=1, max_size=10))
@settings(max_examples=30, deadline=None)
def test_exact_matches_brute_triples(ps):
    g = ZModGroup(20)
    A = g.set_of(ps)
    candidates = list(range(6))
    r = pack_exact(A, TrivialIdeal(), candidates, 3)
    assert r.value == brute_pack(A, TrivialIdeal(), candidates, 3)


@given(st.sets(st.integers(0, 39), min_size=1, max_size=16))
@settings(max_examples=30, deadline=None)
def test_exact_with_finite_sets_ideal_matches_brute(ps):
    g = ZWindowGroup(Window(0, 39, margin=8))
    A = g.set_of(ps)
    I = FiniteSetsIdeal(cutoff=2)
    candidates = list(range(6))
    r = pack_exact(A, I, candidates, 2)
    assert r.value == brute_pack(A, I, candidates, 2)


# -- structural facts -----------------------------------------------------------


def test_known_values_evens_and_triangular():
    g = ZWindowGroup(Window(0, 9999, margin=16))
    evens = g.set_of(range(0, 10000, 2))
    r = pack_exact(evens, TrivialIdeal(), list(range(10)), 2)
    assert (r.value, r.flag) == (2, "exact")
    assert r.family == [0, 1]

    tri = g.set_of([k * (k + 1) // 2 for k in range(141)])
    r = pack_exact(tri, TrivialIdeal(), list(range(10)), 2)
    assert (r.value, r.flag) == (1, "exact")

    r3 = pack_exact(evens, TrivialIdeal(), list(range(10)), 3)
    assert (r3.value, r3.family) == (4, [0, 1, 2, 3])


@given(position_sets)
@settings(max_examples=25, deadline=None)
def test_value_monotone_in_n(ps):
    g = ZWindowGroup(Window(0, 59, margin=8))
    A = g.set_of(ps)
    candidates = list(range(6))
    reports = pack_profile(A, TrivialIdeal(), [2, 3, 4], candidates, exact=True)
    values = [r.value for r in reports]
    assert values == sorted(values)


@given(position_sets, st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_value_translate_invariant(ps, t):
    # shifting A leaves the conflict pattern alone when nothing truncates
    g = ZWindowGroup(Window(0, 99, margin=16))
    A = g.set_of(ps)
    B = A.translate(t)
    candidates = list(range(5))
    va = pack_exact(A, TrivialIdeal(), candidates, 2).value
    vb = pack_exact(B, TrivialIdeal(), candidates, 2).value
    assert va == vb


def test_greedy_is_certified_floor():
    g = ZWindowGroup(Window(0, 999, margin=32))
    A = g.set_of(range(0, 1000, 3))
    candidates = list(range(12))
    lo = pack_greedy(A, TrivialIdeal(), candidates, 2)
    hi = pack_exact(A, TrivialIdeal(), candidates, 2)
    assert lo.flag in ("lower-bound", "saturated")
    assert lo.value <= hi.value
    # the greedy family really is independent
    oracle = ConflictOracle(A, TrivialIdeal(), candidates, 2)
    idx = {c: i for i, c in enumerate(candidates)}
    for x, y in itertools.combinations(lo.family, 2):
        assert not oracle.is_edge(tuple(sorted((idx[x], idx[y]))))


def test_member_shortcut_saturates():
    g = ZWindowGroup(Window(0, 1999, margin=16))
    A = g.set_of([3, 700])
    I = FiniteSetsIdeal(cutoff=16)
    r = pack_exact(A, I, list(range(10)), 2)
    assert r.flag == "saturated"
    assert r.value == 10 and len(r.family) == 10


def test_floor_reported():
    g = ZWindowGroup(Window(0, 99, margin=8))
    A = g.set_of(range(100))  # everything conflicts with everything
    r = pack_exact(A, TrivialIdeal(), list(range(5)), 3)
    assert r.floor == 2  # n-1 translates can never produce an n-fold conflict
    assert r.value >= r.floor


# -- budgets and guards -----------------------------------------------------------


def test_node_budget_degrades_to_lower_bound():
    g = ZWindowGroup(Window(0, 2999, margin=64))
    A = g.set_of(range(0, 3000, 3))
    r = pack_exact(A, TrivialIdeal(), list(range(50)), 2, node_budget=3)
    assert r.flag == "lower-bound"
    assert r.stats.get("budget_hit") is True
    assert r.value >= 1


def test_exact_cap_on_hypergraph_search():
    g = ZWindowGroup(Window(0, 999, margin=80))
    A = g.set_of(range(0, 1000, 2))
    with pytest.raises(BudgetExceeded):
        pack_exact(A, TrivialIdeal(), list(range(70)), 3)


def test_bad_arity_and_duplicates():
    g = ZWindowGroup(Window(0, 99, margin=8))
    A = g.set_of([1, 2])
    with pytest.raises(InvalidParam):
        pack_exact(A, TrivialIdeal(), [0, 1], 1)
    with pytest.raises(InvalidParam):
        pack_exact(A, TrivialIdeal(), [0, 0, 1], 2)


def test_candidate_translators_respects_margin():
    g = ZWindowGroup(Window(0, 99, margin=4))
    assert candidate_translators(g, shift_range=3) == [0, 1, 2, 3]
    with pytest.raises(RangeExceedsMargin):
        candidate_translators(g, shift_range=9)
    zm = ZModGroup(6)
    assert candidate_translators(zm) == [0, 1, 2, 3, 4, 5]
