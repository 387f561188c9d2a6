"""Packing index: conflict oracles, greedy floor, exact search, budgets."""

import itertools
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from idealpack import bitops, packing
from idealpack.errors import BudgetExceeded, InvalidParam, LengthBudgetTooSmall, ShiftOutOfBudget
from idealpack.groups import CayleyGroup, FreeGroup2, MaterializedSet, Window, ZModGroup, ZWindowGroup
from idealpack.ideals import DensityZeroIdeal, FiniteSetsIdeal, GeneratedIdeal, TrivialIdeal
from idealpack.packing import (
    ConflictOracle,
    _band_cap,
    _band_optimum,
    _components,
    _exact,
    _greedy_indices,
    _walk_family,
    pack_exact,
    pack_greedy,
)
from idealpack.reports import strip_timing
from idealpack.setexpr import parse_set_expr
from test_groups import dihedral_table, symmetric_table


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
    assert fast._mode == "difference-pairs"
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
    assert fast._mode == "difference-pairs"
    for i, j in itertools.combinations(range(8), 2):
        bi, _ = g.translate_bits(i, A.bits)
        bj, _ = g.translate_bits(j, A.bits)
        assert fast.is_edge((i, j)) == ((bi & bj) != 0)


def _literal_edge(A, ideal, shifts):
    """The definition of a conflict: translate A by each shift, intersect,
    keep the exact core of all the shifts and ask the ideal."""
    group = A.group
    inter = group.full_mask
    for g in shifts:
        inter &= group.translate_bits(g, A.bits)[0]
    return not ideal.member(MaterializedSet(group, inter & group.exact_core_mask(shifts)))


_ELEMENT_CARRIERS = [CayleyGroup(*t) for t in (symmetric_table(4), dihedral_table(5), dihedral_table(11))] + [
    ZModGroup(n) for n in (1, 2, 7, 24, 31)
]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_element_pair_table_matches_literal_intersection(data):
    group = data.draw(st.sampled_from(_ELEMENT_CARRIERS), label="group")
    A = group.set_of(data.draw(st.sets(st.integers(0, group.size - 1), max_size=12), label="A"))
    ideal = data.draw(st.one_of(st.just(TrivialIdeal()), st.integers(1, 5).map(FiniteSetsIdeal)),
                      label="ideal")
    if group.kind == "z-mod":
        # any integers, so that two candidates may name one element
        cands = data.draw(st.lists(st.integers(-40, 40), unique=True, max_size=16), label="cands")
    else:
        cands = data.draw(st.permutations(range(group.size)), label="cands")[: data.draw(st.integers(0, 16))]
    if ideal.kind == "finite-sets":
        # finite-sets is not proper on a finite group
        with pytest.raises(InvalidParam):
            _literal_edge(A, ideal, [0, 0])
        with pytest.raises(InvalidParam):
            ConflictOracle(A, ideal, cands, 2)
        return
    m = len(cands)
    edge = [[i != j and _literal_edge(A, ideal, [cands[i], cands[j]]) for j in range(m)] for i in range(m)]
    bulk = ConflictOracle(A, ideal, cands, 2)
    assert bulk._mode == "difference-pairs"
    order, rows, _ = bulk.pair_rows()
    for p, i in enumerate(order):
        assert rows[p] == sum(1 << q for q, j in enumerate(order) if edge[i][j])
    single = ConflictOracle(A, ideal, cands, 2)
    for i, j in itertools.combinations(range(m), 2):
        assert single.is_edge((i, j)) == edge[i][j]


def test_element_pair_table_on_a_large_set():
    # 1200 elements times 600 positions is far past one gather: the table is
    # filled in chunks of elements
    g = ZModGroup(1200)
    A = g.set_of(range(0, 1200, 2))
    cands = [3, -8, 1205, 44, 617, 2, 999, -1]
    oracle = ConflictOracle(A, TrivialIdeal(), cands, 2)
    order, rows, _ = oracle.pair_rows()
    edge = [[i != j and _literal_edge(A, TrivialIdeal(), [g_, h]) for j, h in enumerate(cands)]
            for i, g_ in enumerate(cands)]
    for p, i in enumerate(order):
        assert rows[p] == sum(1 << q for q, j in enumerate(order) if edge[i][j])
    assert edge[0][2] and not edge[0][1]  # A meets dA exactly for even d


def test_window_witness_table_on_a_large_set():
    # 2001 differences times 2501 positions is far past one gather: the
    # witness table is filled in chunks of differences.  Every even
    # difference d has the witness 0; an odd one has only 4999 - d, which
    # lies on a pair's exact core only when one of its shifts is 0.
    g = ZWindowGroup(Window(0, 4999, margin=2000))
    A = g.set_of([*range(0, 5000, 2), 4999])
    cands = [1999, 3, 2000, 0, 1001, 8, 1500, 7]
    oracle = ConflictOracle(A, TrivialIdeal(), cands, 2)
    assert oracle._mode == "difference-pairs"
    order, rows, _ = oracle.pair_rows()

    def literal(b, c):
        inter = g.translate_bits(b, A.bits)[0] & g.translate_bits(c, A.bits)[0]
        return inter & g.exact_core_mask([b, c]) != 0

    edge = [[i != j and literal(b, c) for j, c in enumerate(cands)] for i, b in enumerate(cands)]
    for p, i in enumerate(order):
        assert rows[p] == sum(1 << q for q, j in enumerate(order) if edge[i][j])
    assert edge[0][1] and edge[3][0] and not edge[1][5] and not edge[0][2]


def test_greedy_pair_rows_cached_as_packed_bits():
    # A = {0, 1} on Z_1024 keeps every even shift; the oracle caches the
    # conflict rows the greedy scan reads, each m packed bits, beside one
    # int32 witness per group element
    g = ZModGroup(1024)
    A = g.set_of([0, 1])
    cands = list(range(1024))
    oracle = ConflictOracle(A, TrivialIdeal(), cands, 2)
    assert _greedy_indices(oracle, len(cands), 2) == list(range(0, 1024, 2))
    cache = oracle._row_cache
    assert 0 < len(cache) <= len(cands)
    assert all(isinstance(row, bytes) and len(row) == 1024 // 8 for row in cache.values())
    assert oracle._witness.nbytes == 4 * g.size


def test_packing_report_timing_is_stripped():
    g = CayleyGroup(*symmetric_table(4))
    A = g.set_of([0, 3, 7])
    # the pair search also counts its components and those a cap closed, and
    # gives the graph's bandwidth and the banded DP's milliseconds
    pair_keys = {"rows_ms", "search_ms", "components", "capped", "bandwidth", "dp_ms"}
    for report, keys in ((pack_exact(A, TrivialIdeal(), list(range(24)), 2), pair_keys),
                         (pack_greedy(A, TrivialIdeal(), list(range(24)), 2), {"rows_ms", "search_ms"}),
                         (pack_exact(A, TrivialIdeal(), list(range(8)), 3), {"rows_ms", "search_ms"})):
        payload = report.payload()
        assert set(payload["timing"]) == keys
        assert all(v >= 0 for v in payload["timing"].values())
        assert "timing" not in strip_timing(payload)
    # {0, 3} on Z_12: three 4-cycles of conflicts, each closed at its cap 2
    r = pack_exact(ZModGroup(12).set_of([0, 3]), TrivialIdeal(), list(range(12)), 2)
    assert (r.value, r.flag, r.stats["nodes"]) == (6, "exact", 0)
    assert (r.timing["components"], r.timing["capped"]) == (3, 3)
    # a window has no counting cap: one component, searched whole, closed by
    # the banded DP where its bandwidth is at most 12 ({0, 1}: a path)
    w = ZWindowGroup(Window(0, 99, margin=20))
    r = pack_exact(w.set_of([0, 1]), TrivialIdeal(), list(range(9)), 2)
    assert (r.value, r.flag, r.stats["nodes"]) == (5, "exact", 0)
    assert (r.timing["components"], r.timing["capped"], r.timing["bandwidth"]) == (1, 1, 1)
    timing = pack_exact(w.set_of([0, 13]), TrivialIdeal(), list(range(21)), 2).timing
    assert (timing["components"], timing["capped"], timing["bandwidth"]) == (1, 0, 13)


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
    "element-pairs": _zmod_case,
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
    # Z windows, Z_N and Cayley tables share the per-difference mode
    assert bulk._mode == ("general" if kind == "general" else "difference-pairs")
    order, rows, width = bulk.pair_rows()
    ref = ConflictOracle(A, ideal, cands, 2)
    adj = [[False] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        adj[i][j] = adj[j][i] = ref.is_edge((i, j))
    deg = [sum(r) for r in adj]
    assert order == sorted(range(m), key=lambda i: (-deg[i], i))
    assert width == max((j - i for i, j in itertools.combinations(range(m), 2) if adj[i][j]), default=0)
    for p, i in enumerate(order):
        assert rows[p] == sum(1 << q for q, j in enumerate(order) if adj[i][j])
    assert bulk.edges_evaluated == ref.edges_evaluated


# -- the searches vs frozen copies of their recursive form ----------------------


def _recursive_exact_pairs(oracle, m, node_budget, cap=math.inf):
    """The pair search as it was before the explicit stack (its recursion
    limit guard dropped: these inputs stay far below the default limit),
    closed once its family reaches ``cap``."""
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
            if budget_hit or len(best) >= cap:
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


# node for node where no counting cap applies; the capped carriers are held
# to the recursive form's value and flag below.  Where the bandwidth is
# narrow enough, the recursive form closes at the banded DP's value, which
# the DP tests below hold to the uncapped optimum
@pytest.mark.parametrize("kind", ["general", "z-window-pairs"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_pair_search_matches_recursive_form(kind, data):
    A, ideal, cands = _PAIR_CASES[kind](data)
    m = len(cands)
    order, rows, width = ConflictOracle(A, ideal, cands, 2).pair_rows()
    cap = _band_cap(rows, order, bitops.mask(m), width)
    for budget in _BUDGETS:
        new, old = ConflictOracle(A, ideal, cands, 2), ConflictOracle(A, ideal, cands, 2)
        got = _exact(new, m, budget)
        want = _recursive_exact_pairs(old, m, budget, cap)
        assert (got, new.edges_evaluated) == (want, old.edges_evaluated)


# -- the counting cap and conflict components on exact carriers -------------------

_CAPPED_CARRIERS = (
    [ZModGroup(n) for n in range(1, 41)]
    + [CayleyGroup(*symmetric_table(k)) for k in (3, 4)]
    + [CayleyGroup(*dihedral_table(k)) for k in range(5, 12)]
)


def _capped_case(data, carriers):
    group = data.draw(st.sampled_from(carriers), label="group")
    A = group.set_of(data.draw(st.sets(st.integers(0, group.size - 1), min_size=1, max_size=6), label="A"))
    whole = list(range(group.size))
    cands = data.draw(st.one_of(st.just(whole), st.permutations(whole)), label="order")
    return A, cands[: data.draw(st.integers(0, group.size), label="count")]


def _component_masks(family, order, comp):
    """The family's positions inside the component ``comp``."""
    pos_of = {i: p for p, i in enumerate(order)}
    return sum(1 << pos_of[i] for i in family) & comp


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_capped_pair_search_matches_recursive_form(data):
    A, cands = _capped_case(data, _CAPPED_CARRIERS)
    m = len(cands)
    new, old = ConflictOracle(A, TrivialIdeal(), cands, 2), ConflictOracle(A, TrivialIdeal(), cands, 2)
    assert new.caps_pairs
    family, hit, _ = _exact(new, m, math.inf)
    want, want_hit, _ = _recursive_exact_pairs(old, m, math.inf)
    assert (len(family), hit) == (len(want), want_hit) == (len(want), False)
    # the families agree on every component but one the walk seed closed at
    # its cap
    order, rows, _ = new.pair_rows()
    for comp in _components(rows, bitops.mask(m)):
        got, ref = _component_masks(family, order, comp), _component_masks(want, order, comp)
        if got != ref:
            assert got == _walk_family(rows, comp)
            assert got.bit_count() == new.pair_cap([order[p] for p in bitops.iter_bits(comp)])


@pytest.mark.parametrize("kind", ["cayley", "element-pairs"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_capped_pair_search_keeps_its_budget(kind, data):
    A, ideal, cands = _PAIR_CASES[kind](data)
    m = len(cands)
    seed = _greedy_indices(ConflictOracle(A, ideal, cands, 2), m, 2)
    for budget in (0, 1, 3, 100):
        oracle = ConflictOracle(A, ideal, cands, 2)
        family, hit, nodes = _exact(oracle, m, budget)
        assert hit == (nodes > budget) and nodes <= budget + 1
        assert len(family) >= len(seed)
        assert not any(oracle.is_edge(pair) for pair in itertools.combinations(family, 2))


def test_two_element_sets_on_z_mod_meet_the_closed_form():
    # {0, a} on Z_N: the conflicts are gcd(N, a) cycles of L = N / gcd(N, a)
    # candidates, each holding floor(L / 2).  {0, N - a} has the same
    # differences ±a, so the same conflict rows, caps and search: a runs to
    # N / 2 only
    for N in range(2, 201):
        g = ZModGroup(N)
        for a in range(1, N // 2 + 1):
            r = pack_exact(g.set_of([0, a]), TrivialIdeal(), list(range(N)), 2)
            d = math.gcd(N, a)
            assert (r.value, r.flag) == (d * (N // d // 2), "exact"), (N, a)


def test_components_share_the_node_budget():
    # two or more components whose caps lie above their optimum: searched one
    # after another, the first spent the whole budget and the rest kept their
    # seeds, one below what a search over the whole graph reaches
    for N, elems, budget, reached in ((34, [19, 21, 33], 100, 8), (62, [9, 11, 47, 57], 100, 10),
                                      (66, [20, 28, 44, 50, 54, 60], 100, 8), (96, [10, 18, 74, 84, 88], 1000, 13),
                                      (86, [17, 25, 57, 71], 100, 18)):
        r = pack_exact(ZModGroup(N).set_of(elems), TrivialIdeal(), list(range(N)), 2, node_budget=budget)
        assert r.flag == "lower-bound" and r.value >= reached, (N, elems)


_SMALL_CARRIERS = (
    [ZModGroup(n) for n in range(1, 13)]
    + [CayleyGroup(*symmetric_table(3))]
    + [CayleyGroup(*dihedral_table(k)) for k in (5, 6)]
)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pair_cap_bounds_each_component(data):
    A, cands = _capped_case(data, _SMALL_CARRIERS)
    m = len(cands)
    oracle = ConflictOracle(A, TrivialIdeal(), cands, 2)
    order, rows, _ = oracle.pair_rows()
    comps = _components(rows, bitops.mask(m))
    # the components split the positions, and no conflict leaves one
    assert sum(comps) == bitops.mask(m)
    for comp in comps:
        ps = list(bitops.iter_bits(comp))
        assert all(rows[p] & ~comp == 0 for p in ps)
        best = next(size for size in range(len(ps), 0, -1)
                    if any(all(not rows[p] >> q & 1 for p, q in itertools.combinations(combo, 2))
                           for combo in itertools.combinations(ps, size)))
        assert oracle.pair_cap([order[p] for p in ps]) >= best


_HYPER_TABLES = (symmetric_table(3), dihedral_table(5))


def _hyper_case(data):
    """Z_N with all N candidates, a window with the shifts up to its margin
    in any order, or S3 or D5 with every element in any order."""
    kind = data.draw(st.sampled_from(["z-mod", "window", "cayley"]), label="kind")
    if kind == "z-mod":
        g = ZModGroup(data.draw(st.integers(6, 16), label="N"))
        cands = range(g.size)
    elif kind == "window":
        margin = data.draw(st.integers(2, 11), label="margin")
        g = ZWindowGroup(Window(0, data.draw(st.integers(30, 60), label="hi"), margin=margin))
        cands = data.draw(st.permutations(range(margin + 1)), label="cands")
    else:
        g = CayleyGroup(*data.draw(st.sampled_from(_HYPER_TABLES), label="table"))
        cands = data.draw(st.permutations(range(g.size)), label="cands")
    A = g.set_of(data.draw(st.sets(st.integers(0, g.size - 1), min_size=1, max_size=5), label="A"))
    return A, list(cands)


# the search closes wherever the recursive form closes, on the same family and
# in no more nodes: both meet the same strictly larger families in the same
# order, and narrowing the open positions to those that fit prunes only
# subtrees that cannot beat the incumbent.  Where the recursive form hits its
# budget, the search reaches at least its value, and it keeps the budget as the
# pair search does: the node past it is counted, as its one hit
@given(data=st.data(), n=st.sampled_from([3, 4]))
@settings(max_examples=60, deadline=None)
def test_hyper_search_matches_recursive_form(data, n):
    A, cands = _hyper_case(data)
    m = len(cands)
    for budget in _BUDGETS:
        new, old = ConflictOracle(A, TrivialIdeal(), cands, n), ConflictOracle(A, TrivialIdeal(), cands, n)
        family, hit, nodes = _exact(new, m, budget)
        want, want_hit, want_nodes = _recursive_exact_hyper(old, m, n, budget)
        assert new.edges_evaluated == old.edges_evaluated
        assert hit == (nodes > budget) and nodes <= budget + 1
        if want_hit:
            assert len(family) >= len(want)
        else:
            assert (family, hit) == (want, False) and nodes <= want_nodes
        assert not any(new.is_edge(combo) for combo in itertools.combinations(family, n))
    if m <= 13:  # brute force stays fast; at budget inf the closed reference pins the rest
        assert len(family) == brute_pack(A, TrivialIdeal(), cands, n)


def test_hyper_search_closes_on_its_budget():
    # {4, 12, 14, 18} on Z_20, n = 3: the search closes in 72 nodes, inside a
    # budget of 5,000
    g = ZModGroup(20)
    r = pack_exact(g.set_of([4, 12, 14, 18]), TrivialIdeal(), list(range(20)), 3, node_budget=5000)
    assert (r.value, r.flag, r.stats["nodes"]) == (10, "exact", 72)
    assert r.family == [0, 1, 4, 5, 8, 9, 12, 13, 16, 17]
    # {0, 1, 12} on Z_22 stays below its counting cap of 14; a search of the
    # whole tree takes 19,091 nodes to close, one holding candidate 0 and
    # cut by the link-graph cliques 1,472
    r = pack_exact(ZModGroup(22).set_of([0, 1, 12]), TrivialIdeal(), list(range(22)), 3, node_budget=5000)
    assert (r.value, r.flag, r.stats["nodes"]) == (11, "exact", 1472)
    assert r.family == list(range(11))


def _walk_case(data):
    """Z_N up to 16, S3 or D5, a window with shifts of either sign or none
    negative, or F2 at depth 4; with an ideal proper on that carrier."""
    kind = data.draw(st.sampled_from(["z-mod", "cayley", "window", "window-negative", "free"]), label="kind")
    ideals = [TrivialIdeal()]
    if kind == "z-mod":
        g = ZModGroup(data.draw(st.integers(4, 16), label="N"))
        cands = data.draw(st.lists(st.integers(0, g.size - 1), unique=True, min_size=4, max_size=11), label="cands")
        ideals.append(DensityZeroIdeal(lengths=(4,), threshold=Fraction(1, 4)))
    elif kind == "cayley":
        g = CayleyGroup(*data.draw(st.sampled_from(_HYPER_TABLES), label="table"))
        cands = data.draw(st.permutations(range(g.size)), label="cands")[:11]
    elif kind == "free":
        g = FreeGroup2(4)
        ranks = data.draw(st.lists(st.integers(0, 24), unique=True, min_size=4, max_size=10), label="ranks")
        cands = [g.elem_at(r) for r in ranks]
        ideals.append(FiniteSetsIdeal(cutoff=data.draw(st.integers(1, 4), label="cutoff")))
    else:
        margin = data.draw(st.integers(3, 9), label="margin")
        g = ZWindowGroup(Window(0, data.draw(st.integers(30, 60), label="hi"), margin=margin))
        low = -margin if kind == "window-negative" else 0
        cands = data.draw(st.lists(st.integers(low, margin), unique=True, min_size=4, max_size=11), label="cands")
        ideals += [FiniteSetsIdeal(cutoff=data.draw(st.integers(1, 4), label="cutoff")),
                   DensityZeroIdeal(lengths=(8,), threshold=Fraction(1, 8)),
                   GeneratedIdeal([parse_set_expr("evens")], e_bound=1, shift_range=1, slack=2)]
    # a few elements, whose translates often meet nowhere, or about half the carrier
    sparse = st.sets(st.integers(0, g.size - 1), max_size=12).map(lambda ps: sum(1 << i for i in ps))
    half = st.integers(0, 2**32).map(lambda seed: random.Random(seed).getrandbits(g.size))
    A = MaterializedSet(g, data.draw(st.one_of(sparse, half), label="A"))
    return A, data.draw(st.sampled_from(ideals), label="ideal"), list(cands)


# the walk behind ``hyper_rows`` and the general ``is_edge`` decide every
# combination as the definition does, with the translate cache and without
@pytest.mark.parametrize("cache_limit", [packing._CACHE_BYTE_LIMIT, 0])
@given(data=st.data(), n=st.sampled_from([3, 4]))
@settings(max_examples=80, deadline=None)
def test_hyper_walk_matches_literal_definition(cache_limit, data, n):
    A, ideal, cands = _walk_case(data)
    want = [c for c in itertools.combinations(range(len(cands)), n)
            if _literal_edge(A, ideal, [cands[i] for i in c])]
    with mock.patch.object(packing, "_CACHE_BYTE_LIMIT", cache_limit):
        walk, single = ConflictOracle(A, ideal, cands, n), ConflictOracle(A, ideal, cands, n)
        assert (walk._tcache is None) == (cache_limit == 0)
        order, links = walk.hyper_rows()
        # each edge, read back from each of its keys; a key is an increasing
        # tuple of n-2 positions and lies in some edge
        got = {tuple(sorted(order[q] for q in (*key, u, k)))
               for key, row in links.items() for u, ks in enumerate(row) for k in bitops.iter_bits(ks)}
        assert sorted(got) == want
        assert all(len(key) == n - 2 and list(key) == sorted(set(key)) and any(row) for key, row in links.items())
        assert walk.edges_evaluated == math.comb(len(cands), n)
        assert [c for c in itertools.combinations(range(len(cands)), n) if single.is_edge(c)] == want
    # ``_Open.completing`` reads the table as the edges say: k completes an
    # edge with p and n-2 of the members
    m = len(cands)
    p = data.draw(st.integers(0, m - 1), label="p")
    members = sorted(data.draw(st.sets(st.integers(0, m - 1).filter(lambda q: q != p), max_size=6), label="members"))
    edges = {frozenset(order.index(i) for i in c) for c in want}
    expect = sum(1 << k for k in range(m)
                 if any(frozenset((p, k, *rest)) in edges for rest in itertools.combinations(members, n - 2)
                        if k != p and k not in rest))
    assert packing._Open(links, n, bitops.mask(m)).completing(p, members) == expect


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


# -- the banded DP cap on narrow conflict graphs ---------------------------------


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_band_optimum_matches_brute_force(data):
    w = data.draw(st.integers(0, 6), label="w")
    m = data.draw(st.integers(0, 14), label="m")
    back = [data.draw(st.integers(0, (1 << min(w, t)) - 1), label=f"back{t}") for t in range(m)]
    adj = [0] * m
    for t, b in enumerate(back):
        for k in bitops.iter_bits(b):
            adj[t] |= 1 << (t - 1 - k)
            adj[t - 1 - k] |= 1 << t
    best = max(s.bit_count() for s in range(1 << m) if all(not adj[v] & s for v in bitops.iter_bits(s)))
    assert _band_optimum(back, w) == best


@given(st.sets(st.integers(0, 12), min_size=1, max_size=6), st.integers(0, 28))
@settings(max_examples=60, deadline=None)
def test_narrow_window_search_matches_uncapped_reference(ps, top):
    # conflicts only at differences up to 12: the banded DP caps the search,
    # which must still report the uncapped search's first maximum family
    g = ZWindowGroup(Window(0, 999, margin=28))
    A = g.set_of(ps)
    cands = list(range(top + 1))
    r = pack_exact(A, TrivialIdeal(), cands, 2)
    want, hit, nodes = _recursive_exact_pairs(ConflictOracle(A, TrivialIdeal(), cands, 2), len(cands), math.inf)
    assert (r.family, r.flag in ("exact", "saturated")) == (want, True)
    assert r.stats["nodes"] <= nodes and r.timing["bandwidth"] <= 12


def test_banded_cap_closes_above_the_greedy_seed():
    # {0, 11, 12} on shifts 0..20: the greedy seed holds 6, the optimum 7;
    # the search closes on reaching 7, with the uncapped search's family
    g = ZWindowGroup(Window(0, 999, margin=20))
    A = g.set_of([0, 11, 12])
    cands = list(range(21))
    assert len(_greedy_indices(ConflictOracle(A, TrivialIdeal(), cands, 2), 21, 2)) == 6
    want = _recursive_exact_pairs(ConflictOracle(A, TrivialIdeal(), cands, 2), 21, math.inf)
    assert want == ([1, 3, 6, 9, 11, 16, 19], False, 580)
    r = pack_exact(A, TrivialIdeal(), cands, 2)
    assert (r.family, r.flag, r.stats["nodes"]) == (want[0], "exact", 23)
    assert (r.timing["bandwidth"], r.timing["capped"]) == (12, 1)


def test_banded_cap_closes_spot_on_a_window():
    # {0, 5, 9} on shifts 0..300 conflicts at differences 4, 5 and 9: six
    # blocks of conflict rows, bandwidth 9.  The greedy seed is the optimum
    # 94, so the search closes at no node where the budget ran out before
    g = ZWindowGroup(Window(0, 149_999, margin=300))
    r = pack_exact(g.set_of([0, 5, 9]), TrivialIdeal(), list(range(301)), 2, node_budget=100_000)
    assert (r.value, r.flag, r.stats["nodes"], r.stats["budget_hit"]) == (94, "exact", 0, False)
    assert r.timing["bandwidth"] == 9
    assert r.family == _greedy_indices(ConflictOracle(g.set_of([0, 5, 9]), TrivialIdeal(), list(range(301)), 2), 301, 2)


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
    values = [pack_exact(A, TrivialIdeal(), candidates, n).value for n in (2, 3, 4)]
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


# -- candidate checks, whichever path answers the query --------------------------

_S3 = CayleyGroup(*symmetric_table(3))
_NARROW = ZWindowGroup(Window(0, 100, margin=2))
_EVENS = _NARROW.set_of(range(0, 101, 2))
# (the path a query takes, None for the member shortcut; A, ideal,
# candidates; the error and its message)
_BAD_CANDIDATES = {
    "shortcut": (None, ZWindowGroup(Window(0, 100, margin=1)).empty_set(), TrivialIdeal(), [0, 0, 1],
                 InvalidParam, "must be distinct"),
    "shortcut-z-mod": (None, ZModGroup(12).empty_set(), TrivialIdeal(), list(range(21)),
                       InvalidParam, "must be distinct"),
    "shortcut-cayley": (None, _S3.empty_set(), TrivialIdeal(), [0, 1, 99],
                        InvalidParam, "element index 99 out of range"),
    "z-window-pairs": ("difference-pairs", _EVENS, TrivialIdeal(), list(range(10)),
                       ShiftOutOfBudget, "shift 3 exceeds declared margin 2"),
    "general": ("general", _EVENS, FiniteSetsIdeal(), list(range(10)),
                ShiftOutOfBudget, "shift 3 exceeds declared margin 2"),
    "element-pairs": ("difference-pairs", ZModGroup(12).set_of(range(0, 12, 2)), TrivialIdeal(), list(range(21)),
                      InvalidParam, "must be distinct"),
    "element-pairs-cayley": ("difference-pairs", _S3.set_of([1]), TrivialIdeal(), [0, 1, 99],
                             InvalidParam, "element index 99 out of range"),
    "general-free": ("general", FreeGroup2(3).set_of(["a", "ab"]), TrivialIdeal(), ["a", "b", "a"],
                     InvalidParam, "must be distinct"),
    # the identity is the empty word; "e" is what the CLI parses it from
    "general-free-identity": ("general", FreeGroup2(4).set_of(["a"]), TrivialIdeal(), ["a", "b", "e"],
                              InvalidParam, "'e' is not a reduced word"),
    "general-free-unreduced": ("general", FreeGroup2(4).set_of(["a"]), TrivialIdeal(), ["a", "b", "aA"],
                               InvalidParam, "'aA' is not a reduced word"),
    "shortcut-free": (None, FreeGroup2(4).empty_set(), TrivialIdeal(), ["", "b", "e"],
                      InvalidParam, "'e' is not a reduced word"),
    # no core region remains, so every pair would decide on nothing
    "general-free-too-long": ("general", FreeGroup2(2).full_set(), TrivialIdeal(), ["", "aaa", "bbb"],
                              LengthBudgetTooSmall, "translator length 3 exceeds ball depth 2"),
    "shortcut-free-too-long": (None, FreeGroup2(2).empty_set(), TrivialIdeal(), ["", "aaa"],
                               LengthBudgetTooSmall, "translator length 3 exceeds ball depth 2"),
}


@pytest.mark.parametrize("pack", [pack_exact, pack_greedy])
@pytest.mark.parametrize("case", sorted(_BAD_CANDIDATES))
def test_candidates_checked_on_every_path(case, pack):
    mode, A, ideal, cands, error, message = _BAD_CANDIDATES[case]
    # the path the query takes, as its first two candidates (both valid) show
    if mode is None:
        assert ideal.member(A)
    else:
        assert ConflictOracle(A, ideal, cands[:2], 2)._mode == mode
    with pytest.raises(error, match=message):
        pack(A, ideal, cands, 2)
