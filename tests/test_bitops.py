"""Int-bitset helpers."""

import numpy as np
from hypothesis import given, strategies as st

from idealpack.bitops import (
    bit_array,
    bits_from_array,
    bits_from_positions,
    iter_bits,
    mask,
    positions_from_bits,
    sorted_unique,
)

position_sets = st.sets(st.integers(min_value=0, max_value=200), max_size=40)


@given(st.lists(st.integers(min_value=-50, max_value=250), max_size=60))
def test_bits_from_array_matches_iterable(ps):
    # unsorted, repeated and out-of-range entries: the array path filters
    # exactly like the element-wise one
    size = 201
    assert bits_from_positions(np.array(ps, dtype=np.int64), size) == bits_from_positions(ps, size)


def test_mask():
    assert mask(0) == 0
    assert mask(1) == 1
    assert mask(5) == 0b11111


@given(position_sets)
def test_positions_round_trip(ps):
    size = 201
    bits = bits_from_positions(ps, size)
    back = positions_from_bits(bits, size)
    assert sorted(ps) == list(back)
    assert bits.bit_count() == len(ps)


@given(position_sets)
def test_bit_array_agrees(ps):
    size = 201
    bits = bits_from_positions(ps, size)
    arr = bit_array(bits, size)
    assert arr.dtype == np.uint8
    assert set(np.flatnonzero(arr)) == ps
    assert bits_from_array(arr) == bits
    assert bits_from_array(arr.astype(bool)) == bits


@given(position_sets)
def test_iter_bits_in_order(ps):
    bits = bits_from_positions(ps, 201)
    assert list(iter_bits(bits)) == sorted(ps)


@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=60))
def test_sorted_unique_matches_set(xs):
    got = sorted_unique(np.array(xs, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == sorted(set(xs))
