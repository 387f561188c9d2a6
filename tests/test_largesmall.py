"""Largeness witnesses and smallness evidence."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from idealpack.errors import InvalidParam, NotFoundAtScale, RangeExceedsMargin
from idealpack.groups import Window, ZModGroup, ZWindowGroup
from idealpack.ideals import DensityZeroIdeal, TrivialIdeal
from idealpack.largesmall import (
    LargeBounds,
    SmallBounds,
    gap_profile,
    is_ideal_small,
    is_large,
    spiral_shifts,
)


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


# -- the fast window checker agrees with the general path -----------------------


# every family is_ideal_small enumerates for m <= 3, s = 4: negative shifts
# and translates that overlap one another
_SPIRAL_FAMILIES = [
    list(F) for size in (1, 2, 3) for F in itertools.combinations(spiral_shifts(4), size)
]


@given(st.sets(st.integers(0, 79), min_size=0, max_size=40))
@settings(max_examples=40, deadline=None)
def test_fast_and_general_verdicts_agree(ps):
    from idealpack.largesmall import _FastZChecker, _general_family_check

    g = ZWindowGroup(Window(0, 79, margin=8))
    A = g.set_of(ps)
    inner = LargeBounds(max_f=8, shift_range=8)
    fast = _FastZChecker(A, inner)
    for F in _SPIRAL_FAMILIES:
        assert fast.check(F) == _general_family_check(A, TrivialIdeal(), F, inner), F


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
    from idealpack.largesmall import _FastZChecker, _general_family_check

    inner = LargeBounds(max_f=1)
    A = g.empty_set()
    assert _FastZChecker(A, inner).check([0]) == _general_family_check(A, TrivialIdeal(), [0], inner)
