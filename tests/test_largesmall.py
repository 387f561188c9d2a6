"""Largeness witnesses and smallness evidence."""

import itertools
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idealpack.errors import (
    BudgetExceeded,
    IdealpackError,
    InvalidParam,
    NotFoundAtScale,
    RangeExceedsMargin,
)
from idealpack import bitops
from idealpack.groups import CayleyGroup, FreeGroup2, MaterializedSet, Window, ZModGroup, ZWindowGroup
from idealpack.ideals import DensityZeroIdeal, FiniteSetsIdeal, TrivialIdeal
from idealpack.largesmall import (
    _OUTCOMES,
    LargeBounds,
    LargenessWitness,
    SmallBounds,
    SmallnessEvidence,
    _gap_steps,
    _general_family_check,
    _hits_by_candidate,
    _hits_by_residual,
    _ZRuns,
    gap_profile,
    is_ideal_small,
    is_large,
    residual_profile,
    spiral_shifts,
)
from idealpack.words import enumerate_ball
from test_groups import dihedral_table, symmetric_table


def test_spiral_shifts():
    assert spiral_shifts(0) == [0]
    assert spiral_shifts(3) == [0, 1, -1, 2, -2, 3, -3]


def test_gap_profile():
    g = ZWindowGroup(Window(0, 99, margin=4))
    assert gap_profile(g.set_of(range(0, 100, 2))) == 2  # consecutive-element distance
    assert gap_profile(g.set_of(range(0, 100, 5))) == 5
    assert gap_profile(g.set_of([50])) == 0  # no consecutive pair
    assert gap_profile(g.full_set()) == 1
    assert gap_profile(g.empty_set()) is None
    # cyclic: the wrap-around distance counts
    zm = ZModGroup(12)
    assert gap_profile(zm.set_of([0, 3])) == 9
    assert gap_profile(zm.set_of([5])) == 12


# -- largeness -----------------------------------------------------------------


def test_evens_large_with_prefix_family():
    g = ZWindowGroup(Window(0, 9999, margin=16))
    evens = g.set_of(range(0, 10000, 2))
    w = is_large(evens, TrivialIdeal(), LargeBounds(max_f=8, shift_range=16))
    assert w.family == [0, 1]
    assert w.residual_size == 0
    assert w.prefix_k == 1


def test_full_set_large_with_singleton():
    g = ZWindowGroup(Window(0, 999, margin=4))
    w = is_large(g.full_set(), TrivialIdeal(), LargeBounds(max_f=4, shift_range=4))
    assert w.family == [0]


def test_sparse_set_not_large():
    g = ZWindowGroup(Window(0, 9999, margin=64))
    pows = g.set_of([2**k for k in range(14)])
    with pytest.raises(NotFoundAtScale) as ei:
        is_large(pows, TrivialIdeal(), LargeBounds(max_f=16, shift_range=64))
    assert ei.value.best_residual_size > 0


def test_large_under_density_ideal_tolerates_sparse_residue():
    # evens shifted into odd positions except a sparse leftover: the residual
    # need not vanish, only fall into the ideal
    g = ZWindowGroup(Window(0, 9999, margin=16))
    holes = {2**k for k in range(14)}
    dented = g.set_of([x for x in range(0, 10000, 2) if x not in holes] )
    ideal = DensityZeroIdeal(lengths=(64, 256, 1024))
    w = is_large(dented, ideal, LargeBounds(max_f=8, shift_range=16))
    assert w.residual_size > 0


def test_large_on_zmod_whole_rotation_pool():
    g = ZModGroup(12)
    thirds = g.set_of([0, 3, 6, 9])
    w = is_large(thirds, TrivialIdeal(), LargeBounds(max_f=6, shift_range=6))
    assert len(w.family) == 3
    assert w.residual_size == 0


# -- smallness -----------------------------------------------------------------


def test_triangular_small_at_modest_scale():
    g = ZWindowGroup(Window(0, 99999, margin=32))
    tri = g.set_of([k * (k + 1) // 2 for k in range(447)])
    ev = is_ideal_small(tri, TrivialIdeal(), SmallBounds(m=2, s=8, inner=LargeBounds(32, 32)))
    assert ev.verdict == "small-at-scale"
    assert ev.counterexample is None
    assert ev.families_tested > 0


def test_evens_not_small():
    g = ZWindowGroup(Window(0, 99999, margin=16))
    evens = g.set_of(range(0, 100000, 2))
    ev = is_ideal_small(evens, TrivialIdeal(), SmallBounds(m=2, s=8, inner=LargeBounds(8, 8)))
    assert ev.verdict == "not-small"
    assert ev.counterexample == [0, 1]  # A u (A+1) covers the window


def test_full_set_not_small():
    g = ZWindowGroup(Window(0, 999, margin=8))
    ev = is_ideal_small(g.full_set(), TrivialIdeal(), SmallBounds(m=2, s=4, inner=LargeBounds(8, 8)))
    assert ev.verdict == "not-small"
    assert ev.counterexample == [0]


def test_smallness_requires_margin():
    g = ZWindowGroup(Window(0, 999, margin=2))
    A = g.set_of([0])
    with pytest.raises(RangeExceedsMargin):
        is_ideal_small(A, TrivialIdeal(), SmallBounds(m=2, s=8, inner=LargeBounds(8, 8)))


def test_zmod_smallness_matches_window_intuition():
    g = ZModGroup(16)
    spread = g.set_of([0, 8])
    ev = is_ideal_small(spread, TrivialIdeal(), SmallBounds(m=3, s=8, inner=LargeBounds(16, 16)))
    assert ev.verdict in ("small-at-scale", "not-small")
    # a set covering half the circle unions with its rotation to everything
    half = g.set_of(range(8))
    ev2 = is_ideal_small(half, TrivialIdeal(), SmallBounds(m=2, s=8, inner=LargeBounds(16, 16)))
    assert ev2.verdict == "not-small"


# -- the run-length paths agree with the bitset loop ---------------------------------
#
# Frozen copies of the bitset code the run-length paths replaced on Z windows:
# the prefix loop of ``_prefix_large`` and the family loop of
# ``is_ideal_small``, with a family checked by translating bitsets.


def _frozen_prefix_large(A, ideal, bounds, region_mask):
    group = A.group
    kmax = min(bounds.shift_range, bounds.max_f - 1)
    if kmax > group.window.margin:
        raise RangeExceedsMargin(f"prefix depth {kmax} exceeds the declared margin {group.window.margin}")
    acc = 0
    eroded = region_mask
    best_size: Optional[int] = None
    best_k = 0
    for k in range(kmax + 1):
        tb, _ = group.translate_bits(k, A.bits)
        acc |= tb
        if k > 0:
            eroded &= group.translate_bits(k, region_mask)[0]
        if eroded == 0:
            break
        residual_bits = eroded & ~acc
        size = residual_bits.bit_count()
        if ideal.member(MaterializedSet(group, residual_bits)):
            return LargenessWitness(list(range(k + 1)), size, ideal.descriptor(), bounds, prefix_k=k)
        if best_size is None or size < best_size:
            best_size, best_k = size, k
    raise NotFoundAtScale(
        f"no covering prefix within k <= {kmax}",
        best_family=list(range(best_k + 1)),
        best_residual_size=best_size,
    )


def _frozen_family_check(A, ideal, F, inner):
    group = A.group
    acc = 0
    for f in F:
        acc |= group.translate_bits(f, A.bits)[0]
    region = group.exact_core_mask(list(F))
    complement_bits = group.full_mask & ~acc
    try:
        w = _frozen_prefix_large(MaterializedSet(group, complement_bits), ideal, inner, region)
        return ("large", w.prefix_k)
    except NotFoundAtScale:
        if ideal.member(MaterializedSet(group, complement_bits & region)):
            return ("hard", 0)
        return ("inconclusive", 0)


def _frozen_is_ideal_small(A, ideal, bounds):
    group = A.group
    needed = max(bounds.s, min(bounds.inner.shift_range, bounds.inner.max_f - 1))
    if needed > group.window.margin:
        raise RangeExceedsMargin(f"smallness bounds need shifts up to {needed}, margin is {group.window.margin}")
    pool = spiral_shifts(bounds.s)
    total = sum(len(list(itertools.combinations(pool, j))) for j in range(1, bounds.m + 1))
    if total > bounds.cap:
        raise BudgetExceeded(f"{total} families exceed the enumeration cap {bounds.cap}")
    tested = worst = 0
    first_inconclusive = None
    for j in range(1, bounds.m + 1):
        for F in itertools.combinations(pool, j):
            tested += 1
            outcome, k = _frozen_family_check(A, ideal, F, bounds.inner)
            if outcome == "large":
                worst = max(worst, k)
            elif outcome == "hard":
                return SmallnessEvidence("not-small", sorted(F), bounds.m, bounds.s, bounds.inner,
                                         tested, worst, ideal.descriptor())
            elif first_inconclusive is None:
                first_inconclusive = sorted(F)
    verdict = "small-at-scale" if first_inconclusive is None else "inconclusive"
    return SmallnessEvidence(verdict, None, bounds.m, bounds.s, bounds.inner, tested, worst,
                             ideal.descriptor(), first_inconclusive=first_inconclusive)


def _outcome(fn):
    """A call's result, or its exception as (type, message, best family, best size)."""
    try:
        return fn()
    except IdealpackError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "best_family", None),
                getattr(exc, "best_residual_size", None))


@st.composite
def clustered_sets(draw, size, reach):
    """Positions on [0, size): copies of a few cluster shapes at random gaps
    (so shapes repeat), plus points within ``reach`` of either edge."""
    shapes = draw(st.lists(st.sets(st.integers(0, 6), min_size=1), min_size=1, max_size=3))
    out = set()
    x = draw(st.integers(0, 12))
    while x < size:
        shape = draw(st.sampled_from(shapes))
        out.update(x + d for d in shape)
        x += max(shape) + draw(st.integers(1, 24))
    out.update(draw(st.sets(st.integers(0, reach), max_size=3)))
    out.update(size - 1 - e for e in draw(st.sets(st.integers(0, reach), max_size=3)))
    return sorted(p for p in out if 0 <= p < size)


_IDEALS = st.one_of(st.just(TrivialIdeal()), st.integers(1, 4).map(FiniteSetsIdeal))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_run_checker_matches_general_check(data):
    # every family of sizes 1..3 over the pool, under the trivial ideal and
    # finite-sets: both ways of ``_ZRuns`` (position rows, a block of
    # families at once; bitsets, one family) against the bitset path
    # windows down to 2 * margin + 1, where a family's core can be shorter
    # than the prefix depth
    size = data.draw(st.integers(9, 160))
    margin = min(8, (size - 1) // 2)
    s = data.draw(st.integers(0, min(4, margin)))
    g = ZWindowGroup(Window(0, size - 1, margin=margin))
    A = g.set_of(data.draw(clustered_sets(size, 2 * s + 4)))
    ideal = data.draw(_IDEALS)
    inner = LargeBounds(max_f=data.draw(st.integers(1, margin + 1)), shift_range=data.draw(st.integers(0, margin)))
    runs = _ZRuns(A, ideal.cardinality_cutoff(g), s, inner)
    pool = spiral_shifts(s)
    for j in (1, 2, 3):
        families = [list(F) for F in itertools.combinations(pool, j)]
        if not families:
            continue
        shifts = np.array(families)
        lo = np.maximum(shifts.max(axis=1), 0)
        hi = size - 1 + np.minimum(shifts.min(axis=1), 0)
        ways = [runs.check(shifts)]
        if A.bits:
            ways.append(runs._check_rows(shifts, lo, hi))
            found = [runs._check_bits(F, a, b) for F, a, b in zip(families, lo.tolist(), hi.tolist())]
            ways.append(tuple(zip(*found)))
        for i, F in enumerate(families):
            want = _general_family_check(A, ideal, F, inner)
            assert want == _frozen_family_check(A, ideal, F, inner), F
            for outcome, ks in ways:
                assert (_OUTCOMES[outcome[i]], int(ks[i])) == want, F


def _weighted_runs(points, weights, lo, hi):
    """{run length: total weight} of the runs of a point set cut to [lo, hi];
    each point carries a weight, and a run takes the weight of its points
    (all points of one run must agree)."""
    out: dict = {}
    run: list = []
    for x in sorted(set(points)) + [None]:
        if run and (x is None or x != run[-1] + 1):
            length = min(run[-1], hi) - max(run[0], lo) + 1
            ws = {weights[y] for y in run}
            assert len(ws) == 1
            if length > 0:
                out[length] = out.get(length, 0) + ws.pop()
            run = []
        if x is not None:
            run.append(x)
    return out


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_cluster_compression_keeps_run_lengths(data):
    # for every family, the weighted runs of FA' on the core are those of FA
    from idealpack.largesmall import _compress

    size = data.draw(st.integers(20, 200))
    s = data.draw(st.integers(0, 4))
    pos = np.array(data.draw(clustered_sets(size, 2 * s + 4)), dtype=np.int64)
    kept, reach, weight = _compress(pos, s, size)
    assert set(kept.tolist()) <= set(pos.tolist())
    cluster = np.searchsorted(reach, kept, side="right") - 1
    for F in itertools.chain.from_iterable(itertools.combinations(spiral_shifts(s), j) for j in (1, 2)):
        lo, hi = max(max(F), 0), size - 1 + min(min(F), 0)
        full = {int(p) + f: 1 for p in pos for f in F}
        compressed = {int(p) + f: int(weight[c]) for p, c in zip(kept, cluster) for f in F}
        assert _weighted_runs(compressed, compressed, lo, hi) == _weighted_runs(full, full, lo, hi), F


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_gap_largeness_matches_bitset_loop(data):
    size = data.draw(st.integers(8, 300))
    margin = data.draw(st.integers(0, (size - 1) // 2))
    g = ZWindowGroup(Window(0, size - 1, margin=margin))
    dens = data.draw(st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.6]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    A = g.set_of(np.flatnonzero(rng.random(size) < dens).tolist())
    ideal = data.draw(st.one_of(_IDEALS, st.just(FiniteSetsIdeal(size))))
    bounds = LargeBounds(max_f=data.draw(st.integers(1, margin + 3)),
                         shift_range=data.draw(st.integers(0, margin + 2)))
    lo = data.draw(st.integers(0, size - 1))
    hi = data.draw(st.integers(lo - 1, size - 1))
    region = data.draw(st.sampled_from([
        g.full_mask,
        ((1 << (hi - lo + 1)) - 1) << lo,
        int(rng.integers(0, 2**62)) & g.full_mask,
        0,
    ]))

    def payload(fn):
        w = fn(A, ideal, bounds, region)
        return (w.family, w.residual_size, w.prefix_k)

    from idealpack.largesmall import _prefix_large

    assert _outcome(lambda: payload(_prefix_large)) == _outcome(lambda: payload(_frozen_prefix_large))
    if region == g.full_mask:
        assert _outcome(lambda: payload(lambda *a: is_large(A, ideal, bounds))) == \
            _outcome(lambda: payload(_frozen_prefix_large))
    # the gap steps themselves, where they apply and the margin allows them
    kmax = min(bounds.shift_range, bounds.max_f - 1)
    steps = _outcome(lambda: _gap_steps(A, ideal, kmax, region))
    if isinstance(steps, list) and kmax <= margin:
        frozen = _outcome(lambda: _frozen_prefix_large(A, ideal, LargeBounds(kmax + 1, kmax), region))
        if isinstance(frozen, LargenessWitness):
            assert steps[-1] == (frozen.prefix_k, frozen.residual_size, True)
            assert all(not member for _, _, member in steps[:-1])
        else:
            assert not any(member for _, _, member in steps)
            if steps:
                k, size_k, _ = min(steps, key=lambda step: (step[1], step[0]))
                assert (list(range(k + 1)), size_k) == (frozen[2], frozen[3])


def test_gap_largeness_edge_cases():
    # regions no longer than the prefix depth, at the window edges, around
    # empty and one- or two-point sets: where the erosion stop decides
    from idealpack.largesmall import _prefix_large

    for size in (8, 65, 200):
        g = ZWindowGroup(Window(0, size - 1, margin=3))
        for points in ([], [0], [size - 1], [2, 3], [size // 2]):
            A = g.set_of(points)
            for lo, hi in ((0, 0), (0, 1), (size - 2, size - 1), (1, 3), (0, size - 1), (size // 2, size // 2 + 2)):
                region = ((1 << (hi - lo + 1)) - 1) << lo
                for ideal in (TrivialIdeal(), FiniteSetsIdeal(1), FiniteSetsIdeal(size)):
                    for bounds in (LargeBounds(1, 0), LargeBounds(2, 1), LargeBounds(3, 3), LargeBounds(4, 3)):
                        def run(fn):
                            return _outcome(lambda: (lambda w: (w.family, w.residual_size, w.prefix_k))(
                                fn(A, ideal, bounds, region)))

                        assert run(_prefix_large) == run(_frozen_prefix_large), (size, points, lo, hi, bounds)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_is_ideal_small_matches_frozen_loop(data):
    size = data.draw(st.integers(20, 120))
    g = ZWindowGroup(Window(0, size - 1, margin=6))
    kind = data.draw(st.sampled_from(["clustered", "empty", "full", "evens", "random"]))
    if kind == "clustered":
        A = g.set_of(data.draw(clustered_sets(size, 8)))
    elif kind == "random":
        A = g.set_of(data.draw(st.sets(st.integers(0, size - 1), max_size=size // 2)))
    else:
        A = {"empty": g.empty_set(), "full": g.full_set(), "evens": g.set_of(range(0, size, 2))}[kind]
    # density-zero takes the general path, one family at a time
    ideal = data.draw(st.one_of(_IDEALS, st.just(DensityZeroIdeal(lengths=(4, 8), threshold=Fraction(1, 4)))))
    s = data.draw(st.integers(0, 4))
    m = data.draw(st.integers(1, 4))  # m beyond the pool size when s is small
    inner = LargeBounds(max_f=data.draw(st.integers(1, 7)), shift_range=data.draw(st.integers(0, 6)))
    total = sum(len(list(itertools.combinations(spiral_shifts(s), j))) for j in range(1, m + 1))
    cap = data.draw(st.sampled_from([1_000_000, total, max(1, total - 1)]))
    bounds = SmallBounds(m=m, s=s, inner=inner, cap=cap)
    assert _outcome(lambda: is_ideal_small(A, ideal, bounds).payload()) == \
        _outcome(lambda: _frozen_is_ideal_small(A, ideal, bounds).payload())


def test_smallness_edge_cases_match_frozen_loop():
    g = ZWindowGroup(Window(0, 999, margin=8))
    inner = LargeBounds(8, 8)
    cases = [
        (g.set_of([500]), SmallBounds(m=3, s=0, inner=inner)),  # m beyond the one-shift pool
        (g.empty_set(), SmallBounds(m=2, s=4, inner=inner)),
        (g.full_set(), SmallBounds(m=3, s=4, inner=inner)),  # hard at the first family
        (g.set_of(range(0, 1000, 2)), SmallBounds(m=3, s=4, inner=inner)),  # hard at [0, 1]
        (g.set_of(range(0, 1000, 7)), SmallBounds(m=2, s=4, inner=LargeBounds(4, 4))),  # inconclusive
        (g.set_of(range(0, 1000, 3)), SmallBounds(m=2, s=4, inner=inner, cap=45)),  # the cap exactly
        (g.set_of(range(0, 1000, 3)), SmallBounds(m=2, s=4, inner=inner, cap=44)),  # one past it
    ]
    for A, bounds in cases:
        for ideal in (TrivialIdeal(), FiniteSetsIdeal(3), FiniteSetsIdeal(1000)):
            assert _outcome(lambda: is_ideal_small(A, ideal, bounds).payload()) == \
                _outcome(lambda: _frozen_is_ideal_small(A, ideal, bounds).payload())
    ev = is_ideal_small(g.set_of(range(0, 1000, 2)), TrivialIdeal(), SmallBounds(m=3, s=4, inner=inner))
    assert (ev.counterexample, ev.families_tested) == ([0, 1], 10)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_residual_profile_matches_brute_force(data):
    rows = data.draw(st.integers(1, 4))
    runs = data.draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, 40), st.integers(1, 5)),
                              max_size=30))
    K = data.draw(st.integers(0, 45))
    row = np.array([r for r, _, _ in runs], dtype=np.int64)
    L = np.array([length for _, length, _ in runs], dtype=np.int64)
    w = np.array([weight for _, _, weight in runs], dtype=np.int64)
    want = [[sum(wt * max(0, length - k) for r, length, wt in runs if r == i) for k in range(K + 1)]
            for i in range(rows)]
    assert residual_profile(L, w, K, row, rows).tolist() == want
    flat = [sum(max(0, length - k) for _, length, _ in runs) for k in range(K + 1)]
    assert residual_profile(L, None, K).tolist() == flat


@pytest.mark.parametrize(
    "make",
    [
        lambda: LargeBounds(max_f=0),
        lambda: LargeBounds(shift_range=-1),
        lambda: SmallBounds(m=0),
        lambda: SmallBounds(s=-3),
        lambda: SmallBounds(cap=0),
    ],
)
def test_bounds_validated_at_construction(make):
    with pytest.raises(InvalidParam):
        make()


def test_zero_prefix_depth_is_a_usage_error():
    # with max_f = 0 no prefix depth is left: the fast checker said ('large', 0)
    # and the general path ('inconclusive', 0) for the empty set, so smallness
    # rested on zero certified prefixes; such bounds no longer exist
    g = ZWindowGroup(Window(0, 99, margin=8))
    with pytest.raises(InvalidParam):
        is_ideal_small(g.empty_set(), TrivialIdeal(), SmallBounds(m=1, s=0, inner=LargeBounds(max_f=0)))
    # the smallest valid inner bound gives the two paths one answer
    inner = LargeBounds(max_f=1)
    A = g.empty_set()
    outcome, k = _ZRuns(A, 0, 0, inner).check(np.array([[0]]))
    assert (_OUTCOMES[outcome[0]], int(k[0])) == _general_family_check(A, TrivialIdeal(), [0], inner)


# -- greedy cover on the table carriers ---------------------------------------------


def _frozen_greedy_large(A, ideal, bounds, region_mask):
    """The greedy cover as it was before the hit matrix: every round
    translates the base by every candidate as a bitset and keeps the first
    largest gain.  (family, residual size), or NotFoundAtScale."""
    group = A.group
    if isinstance(group, CayleyGroup):
        candidates = list(range(group.size))
        rmask = region_mask
    else:
        candidates = list(enumerate_ball(min(bounds.shift_range, group.depth)))
        rmask = region_mask & group.exact_core_mask([candidates[-1]])
    base = A.bits & region_mask
    family, acc = [], 0
    best_size, best_family = None, []
    for _ in range(bounds.max_f):
        residual = rmask & ~acc
        size = residual.bit_count()
        if ideal.member(MaterializedSet(group, residual)):
            return family, size
        if best_size is None or size < best_size:
            best_size, best_family = size, list(family)
        chosen, chosen_bits, chosen_gain = None, 0, 0
        for cand in candidates:
            tb = group.translate_bits(cand, base)[0]
            gain = (tb & residual).bit_count()
            if gain > chosen_gain:
                chosen, chosen_bits, chosen_gain = cand, tb, gain
        if chosen is None:
            break
        family.append(chosen)
        acc |= chosen_bits
    residual = rmask & ~acc
    size = residual.bit_count()
    if ideal.member(MaterializedSet(group, residual)):
        return family, size
    if best_size is None or size < best_size:
        best_size, best_family = size, list(family)
    raise NotFoundAtScale(f"no cover with |F| <= {bounds.max_f}", best_family=best_family,
                          best_residual_size=best_size)


_TABLE_CARRIERS = [CayleyGroup(*t) for t in (symmetric_table(3), symmetric_table(4), dihedral_table(5),
                                              dihedral_table(11))] + [FreeGroup2(d) for d in range(1, 6)]


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_greedy_cover_matches_frozen_bitset_loop(data):
    group = data.draw(st.sampled_from(_TABLE_CARRIERS), label="group")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dens = data.draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9]))
    A = MaterializedSet(group, bitops.bits_from_array(rng.random(group.size) < dens))
    ideal = data.draw(st.one_of(st.just(TrivialIdeal()), st.integers(1, 6).map(FiniteSetsIdeal)),
                      label="ideal")
    bounds = LargeBounds(max_f=data.draw(st.integers(1, 12)), shift_range=data.draw(st.integers(0, 6)))
    cut = data.draw(st.integers(0, group.size))
    region = data.draw(st.sampled_from([
        group.full_mask,
        bitops.bits_from_array(rng.random(group.size) < 0.7),
        (1 << cut) - 1,  # on the free group, balls are prefixes
        0,
    ]), label="region")
    def new():
        w = is_large(A, ideal, bounds, region_mask=region)
        return w.family, w.residual_size

    assert _outcome(new) == _outcome(lambda: _frozen_greedy_large(A, ideal, bounds, region))
    # the cover reads one matrix, whichever side builds it
    base = bitops.positions_from_bits(A.bits & region, group.size)
    rows = bitops.positions_from_bits(region, group.size)
    count = group.translator_count(bounds.shift_range)
    by_candidate = _hits_by_candidate(group, base, rows, count)
    assert by_candidate.shape == (rows.size, count)
    assert np.array_equal(by_candidate, _hits_by_residual(group, base, rows, count))
