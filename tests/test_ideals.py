"""Ideal kinds: the laws each at-scale proxy actually guarantees.

The bitset proxies are honest about what they are.  Downward closure and
translation stability hold outright; union closure holds for the trivial and
stage kinds, and for density-zero only up to threshold doubling (the 2-epsilon
form), which is exactly what the doubled-threshold assertions pin down.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from idealpack.errors import InvalidParam
from idealpack.groups import CayleyGroup, Window, ZModGroup, ZWindowGroup
from idealpack.ideals import (
    DensityZeroIdeal,
    FiniteSetsIdeal,
    GeneratedIdeal,
    StageIdeal,
    TrivialIdeal,
    make_ideal,
    max_window_count,
)
from idealpack.setexpr import parse_set_expr, materialize
from test_groups import symmetric_table

ZW = ZWindowGroup(Window(0, 1999, margin=8))
ZM = ZModGroup(128)

position_sets = st.sets(st.integers(min_value=0, max_value=1999), max_size=64)


def zw_set(ps):
    return ZW.set_of(ps)


# -- trivial -----------------------------------------------------------------


def test_trivial():
    I = TrivialIdeal()
    assert I.member(ZW.empty_set())
    assert not I.member(zw_set([5]))
    assert I.descriptor() == {"kind": "trivial"}


# -- finite-sets --------------------------------------------------------------


def test_finite_sets_cutoff_semantics():
    I = FiniteSetsIdeal(cutoff=16)
    assert I.member(zw_set(range(16)))
    assert not I.member(zw_set(range(17)))
    assert not I.member(ZW.full_set())  # proper


@given(position_sets, position_sets)
def test_finite_sets_downward_closed(ps, qs):
    I = FiniteSetsIdeal(cutoff=16)
    A = zw_set(ps | qs)
    B = zw_set(ps)  # B subseteq A
    if I.member(A):
        assert I.member(B)


@given(position_sets, st.integers(-8, 8))
def test_finite_sets_translation_stable(ps, s):
    # window translation only drops elements, so membership survives
    I = FiniteSetsIdeal(cutoff=16)
    A = zw_set(ps)
    if I.member(A):
        assert I.member(A.translate(s))


def test_finite_sets_symbolic_judge():
    I = FiniteSetsIdeal(cutoff=16)
    big_but_finite = parse_set_expr("interval(0, 50)")
    A = materialize(big_but_finite, ZW)
    assert not I.member(A)  # 51 elements exceeds the cutoff
    assert I.member(A, big_but_finite)  # the expression proves finiteness
    evens = parse_set_expr("evens")
    assert not I.member(materialize(evens, ZW), evens)


def test_finite_sets_properness_guards():
    with pytest.raises(InvalidParam):
        FiniteSetsIdeal(cutoff=0)
    with pytest.raises(InvalidParam):
        FiniteSetsIdeal(cutoff=16).member(ZModGroup(8).set_of([0]))  # finite group
    with pytest.raises(InvalidParam):
        FiniteSetsIdeal(cutoff=1).member(CayleyGroup(*symmetric_table(3)).set_of([0]))  # finite group
    small = ZWindowGroup(Window(0, 9, 0))
    with pytest.raises(InvalidParam):
        FiniteSetsIdeal(cutoff=16).member(small.set_of([0]))  # cutoff >= universe


# -- density-zero -------------------------------------------------------------


def test_density_zero_membership():
    I = DensityZeroIdeal(lengths=(64, 256, 1024), threshold=Fraction(1, 50))
    evens = materialize(parse_set_expr("evens"), ZW)
    pows = materialize(parse_set_expr("powers(2)"), ZW)
    assert not I.member(evens)  # density 1/2
    assert I.member(pows)  # 11 points in any 1024-window here
    assert I.member(ZW.empty_set())
    assert not I.member(ZW.full_set())  # proper


@given(position_sets, position_sets)
def test_density_zero_downward_closed(ps, qs):
    I = DensityZeroIdeal(threshold=Fraction(1, 50))
    A = zw_set(ps | qs)
    if I.member(A):
        assert I.member(zw_set(ps))


@given(position_sets, position_sets)
def test_density_zero_union_within_doubled_threshold(ps, qs):
    thr = Fraction(1, 50)
    I = DensityZeroIdeal(threshold=thr)
    doubled = DensityZeroIdeal(threshold=2 * thr)
    A, B = zw_set(ps), zw_set(qs)
    if I.member(A) and I.member(B):
        assert doubled.member(A.union(B))


@given(st.sets(st.integers(0, 127), max_size=30), st.integers(-200, 200))
def test_density_zero_rotation_invariant_on_zmod(ps, s):
    I = DensityZeroIdeal(lengths=(32,), threshold=Fraction(1, 8))
    A = ZM.set_of(ps)
    assert I.member(A) == I.member(A.translate(s))


def test_max_window_count_cyclic_wraps():
    # 4 points packed around the seam of Z_128
    A = ZM.set_of([126, 127, 0, 1])
    count, at = max_window_count(A, 8)
    assert count == 4
    assert at in (120, 121, 122, 123, 124, 125, 126)


def test_density_zero_proxy_flag():
    I = DensityZeroIdeal()
    assert I.descriptor()["proxy-for-N"] is True
    assert StageIdeal(I, ZW).descriptor()["base"]["proxy-for-N"] is True


# -- generated ----------------------------------------------------------------


def test_generated_ideal_covers():
    gen = parse_set_expr("evens")
    I = GeneratedIdeal([gen], e_bound=2, shift_range=4, slack=4)
    evens = materialize(gen, ZW)
    assert I.member(evens)
    # odds is a translate of the generator, hence covered
    odds = materialize(parse_set_expr("shift(evens, 1)"), ZW)
    assert I.member(odds)
    # a member plus a little noise stays within slack
    noisy = evens.union(zw_set([1, 3, 5]))
    assert I.member(noisy)
    # the whole window needs both parities at once: one round cannot do it
    one_round = GeneratedIdeal([gen], e_bound=1, shift_range=4, slack=4)
    assert not one_round.member(ZW.full_set())
    cover = I.cover(ZW.full_set())
    assert cover is not None and len(cover) == 2


def test_generated_ideal_guards():
    with pytest.raises(InvalidParam):
        GeneratedIdeal([])
    with pytest.raises(InvalidParam):
        GeneratedIdeal([parse_set_expr("evens")], e_bound=0)


# -- stage --------------------------------------------------------------------


def test_stage_ideal_absorbs_admitted():
    base = TrivialIdeal()
    tri = materialize(parse_set_expr("triangular"), ZW)
    pows = materialize(parse_set_expr("powers(2)"), ZW)
    stage = StageIdeal(base, ZW, [tri.bits, pows.bits])
    assert stage.member(tri)
    assert stage.member(pows)
    assert stage.member(tri.union(pows))
    assert not stage.member(tri.union(zw_set([7])))  # 7 is in neither
    assert stage.member(ZW.empty_set())
    d = stage.descriptor()
    assert d["kind"] == "stage" and d["admitted"] == 2


@given(position_sets, position_sets)
def test_stage_ideal_union_closed_over_trivial(ps, qs):
    admitted = zw_set(ps | qs)
    stage = StageIdeal(TrivialIdeal(), ZW, [admitted.bits])
    A, B = zw_set(ps), zw_set(qs)
    assert stage.member(A) and stage.member(B) and stage.member(A.union(B))


# -- factory ------------------------------------------------------------------


def test_make_ideal():
    assert make_ideal("trivial").kind == "trivial"
    assert make_ideal("finite-sets", cutoff=8).cutoff == 8
    dz = make_ideal("density-zero", lengths=[16, 32], threshold=0.1)
    assert dz.threshold == Fraction(1, 10)
    gen = make_ideal("generated", generators=[parse_set_expr("evens")])
    assert gen.kind == "generated"
    with pytest.raises(InvalidParam):
        make_ideal("mystery")
