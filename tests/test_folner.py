"""Folner certificates, avoidance, finite-stage measures, density reports."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from idealpack.errors import (
    AvoidanceNotFound,
    InvalidParam,
    KindMismatch,
    PreconditionFailed,
    ShiftOutOfBudget,
)
from idealpack.folner import (
    avoid_translate,
    counting_bound_check,
    folner_set,
    measure_build,
    upper_density,
)
from idealpack.groups import FreeGroup2, Window, ZModGroup, ZWindowGroup

BIG = ZWindowGroup(Window(0, 999_999, margin=64))

TRI = [k * (k + 1) // 2 for k in range(1413)]  # triangular numbers below 10^6


def tri_set(g=BIG):
    return g.set_of([t for t in TRI if t <= g.window.hi])


# -- certificates ---------------------------------------------------------------


def test_interval_certificate_for_singleton():
    cert = folner_set([1], 10, BIG)
    # L = 2*n*max|x| + 1
    assert cert.length == 21
    assert cert.ratios == {1: Fraction(2, 21)}
    assert all(r < Fraction(1, 10) for r in cert.ratios.values())


def test_interval_certificate_two_shifts():
    cert = folner_set([1, -3], 5, BIG)
    assert cert.length == 31
    assert cert.ratios[1] == Fraction(2, 31)
    assert cert.ratios[-3] == Fraction(6, 31)


def test_whole_group_certificate_on_zmod():
    g = ZModGroup(36)
    cert = folner_set([1, 5], 100, g)
    assert cert.whole_group
    assert all(r == 0 for r in cert.ratios.values())


def test_free_group_is_not_amenable_here():
    with pytest.raises(InvalidParam):
        folner_set(["a"], 3, FreeGroup2(4))


def test_folner_rejects_bad_inputs():
    with pytest.raises(InvalidParam):
        folner_set([1], 0, BIG)
    with pytest.raises(InvalidParam):
        folner_set(["a"], 3, BIG)  # non-integer shifts on Z
    # the empty test set is vacuously fine and yields the unit interval
    assert folner_set([], 4, BIG).length == 1


# -- avoidance --------------------------------------------------------------------


def test_avoid_translate_spirals_to_first_gap():
    cert = folner_set([1], 10, BIG)  # L = 21
    y = avoid_translate(cert, tri_set())
    assert y == 232
    # verified: [232, 252] really misses the triangular numbers
    A = tri_set()
    window = set(range(y, y + cert.length))
    assert all(t not in window for t in A.elements())


def test_avoid_translate_fails_on_dense_set():
    cert = folner_set([1], 10, BIG)
    evens = BIG.set_of(range(0, 1_000_000, 2))
    with pytest.raises(AvoidanceNotFound):
        avoid_translate(cert, evens, bound=5000)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_avoid_translate_matches_spiral_scan(data):
    # the spiral scan the gap search replaced: y = 0, 1, -1, 2, -2, ... up to
    # the bound, the first translate inside the window that misses A
    lo = data.draw(st.integers(-120, 60))
    g = ZWindowGroup(Window(lo, lo + data.draw(st.integers(0, 200))))
    A = g.set_of(data.draw(st.sets(st.integers(g.window.lo, g.window.hi), max_size=40)))
    cert = folner_set(data.draw(st.sampled_from([[], [1], [2], [1, -3]])), data.draw(st.integers(1, 5)), g)
    bound = data.draw(st.one_of(st.none(), st.integers(-2, 250)))
    reach = max(abs(g.window.lo), abs(g.window.hi)) if bound is None else bound
    elems = set(A.elements())
    want = None
    if cert.length <= g.size:
        for y in [0] + [v for k in range(1, reach + 1) for v in (k, -k)]:
            inside = g.window.lo <= y and y + cert.length - 1 <= g.window.hi
            if inside and not elems.intersection(range(y, y + cert.length)):
                want = y
                break
    try:
        got = avoid_translate(cert, A, bound)
    except AvoidanceNotFound:
        got = None
    assert got == want


def test_avoid_translate_prefers_positive_on_a_tie():
    g = ZWindowGroup(Window(-10, 10))
    cert = folner_set([], 4, g)  # L = 1
    assert avoid_translate(cert, g.set_of([0])) == 1
    assert avoid_translate(cert, g.set_of([-1, 0, 1])) == 2


# -- the measure stage --------------------------------------------------------------


def test_measure_values_frozen():
    m = measure_build([1], 10, tri_set())
    assert m.cert.length == 21
    assert m.y == 232
    assert m.mu(tri_set()) == 0
    evens = BIG.set_of(range(0, 1_000_000, 2))
    assert m.mu(evens) == Fraction(11, 21)
    assert m.invariance_defect(1, evens) == Fraction(1, 21)


def test_measure_is_additive_and_normalized():
    m = measure_build([1], 10, tri_set())
    L, y = m.cert.length, m.y
    inside = BIG.set_of([y, y + 2])
    outside = BIG.set_of([0, 1, 2])
    assert m.mu(BIG.full_set()) == 1
    assert m.mu(inside) == Fraction(2, L)
    assert m.mu(outside) == 0
    # additive on disjoint pieces
    assert m.mu(inside.union(outside)) == m.mu(inside) + m.mu(outside)


@given(st.sets(st.integers(0, 999), max_size=60))
@settings(max_examples=30, deadline=None)
def test_defect_bounded_by_certificate(ps):
    g = ZWindowGroup(Window(0, 99_999, margin=8))
    # avoiding {0} lands the stage at y=1, so both shift directions stay inside
    m = measure_build([1], 7, g.set_of([0]))
    assert m.y == 1
    B = g.set_of(ps)
    for x in (1, -1):
        assert m.invariance_defect(x, B) <= Fraction(2 * abs(x), m.cert.length)


def test_defect_needs_margin():
    m = measure_build([1], 10, tri_set())
    evens = BIG.set_of(range(0, 1_000_000, 2))
    with pytest.raises(ShiftOutOfBudget):
        m.invariance_defect(100, evens)  # beyond the window margin of 64


def test_measure_build_demands_avoidable_set():
    evens = BIG.set_of(range(0, 1_000_000, 2))
    with pytest.raises(AvoidanceNotFound):
        measure_build([1], 10, evens, bound=2000)


# -- upper density -------------------------------------------------------------------


def test_density_profile_triangular():
    profile = upper_density(tri_set(), [64, 256, 1024])
    assert [str(d) for (_, d, _) in profile.densities] == ["11/64", "23/256", "45/1024"]
    assert profile.payload()["proxy-for-N"] is True


def test_density_profile_needs_integer_kind():
    with pytest.raises(KindMismatch):
        upper_density(FreeGroup2(3).set_of([""]), [4])


# -- counting bound ------------------------------------------------------------------


def test_counting_bound_uniform():
    g = ZModGroup(64)
    evens = g.set_of(range(0, 64, 2))
    report = counting_bound_check(evens, [0, 1], 2)
    assert report.holds
    assert report.value == Fraction(1, 2)
    assert report.bound == Fraction(1, 1)


def test_counting_bound_rejects_conflicting_family():
    g = ZModGroup(64)
    evens = g.set_of(range(0, 64, 2))
    with pytest.raises(PreconditionFailed):
        counting_bound_check(evens, [0, 2], 2)  # translates coincide, not disjoint


def test_counting_bound_error_order():
    # every translate is built before the first intersection: a shift past
    # the margin is reported ahead of the pair (0, 2) that meets
    g = ZWindowGroup(Window(0, 9999, margin=64))
    evens = g.set_of(range(0, 10000, 2))
    with pytest.raises(ShiftOutOfBudget):
        counting_bound_check(evens, [0, 2, 100], 2)
    # on Z_64 the translator 64 is the identity again: not disjoint, not a
    # usage error
    z64 = ZModGroup(64)
    with pytest.raises(PreconditionFailed):
        counting_bound_check(z64.set_of(range(0, 64, 2)), [0, 64], 2)
