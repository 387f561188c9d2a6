"""Int-bitset helpers."""

import itertools

import numpy as np
from hypothesis import given, strategies as st

from idealpack.bitops import (
    bit_array,
    bits_from_array,
    bits_from_positions,
    iter_bits,
    mask,
    meeting_subsets,
    position_chunks,
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


@given(st.data())
def test_position_chunks_cover_the_range(data):
    # sparse and dense stretches, words skipped and words in a row, ranges
    # that start and end inside a word
    size = data.draw(st.integers(1, 2000))
    ps = data.draw(st.sets(st.integers(0, size - 1), max_size=300))
    ps |= set(range(data.draw(st.integers(0, size - 1)), size, data.draw(st.integers(1, 3))))
    bits = bits_from_positions(ps, size) | (1 << size + 5)  # a bit past the range
    lo = data.draw(st.integers(0, size - 1))
    hi = data.draw(st.integers(lo, size - 1))
    step = 64 * data.draw(st.integers(1, 4))
    chunks = list(position_chunks(bits, lo, hi, step))
    assert all(0 < c.size <= step and c.dtype == np.int64 for c in chunks)
    got = np.concatenate(chunks).tolist() if chunks else []
    assert got == [p - lo for p in sorted(ps) if lo <= p <= hi]
    assert positions_from_bits(bits & mask(size), size).tolist() == sorted(ps)


def test_positions_from_bits_on_a_large_universe():
    # past the one-pass size: sparse words, a dense stretch, the last word
    rng = np.random.default_rng(3)
    size = 70_001
    for arr in (rng.random(size) < 0.001, rng.random(size) < 0.6, np.arange(size) % 3 == 0):
        arr[30_000:30_500] = True
        arr[-1] = True
        bits = bits_from_array(arr.astype(np.uint8))
        got = positions_from_bits(bits, size)
        assert got.dtype == np.int64
        assert got.tolist() == np.flatnonzero(arr).tolist()


@given(
    st.lists(st.one_of(st.just(0), st.integers(0, 63)), max_size=9),
    st.integers(2, 4),
)
def test_meeting_subsets_is_the_filtered_combinations(bitsets, n):
    # zero bitsets, drawn often, meet nothing: the walk skips under them
    m = len(bitsets)
    want = []
    for combo in itertools.combinations(range(m), n):
        inter = -1
        for i in combo:
            inter &= bitsets[i]
        if inter:
            want.append((combo, inter))
    asked = []

    def bits_of(i):
        asked.append(i)
        return bitsets[i]

    walk = meeting_subsets(m, n, bits_of)
    first = next(walk, None)
    # so far it asked only for what checking each combination up to the
    # first that meets reads, prefix by prefix, stopping at an empty prefix;
    # on [1, 2, 2, 0] at n = 2 that is index 3 before (1, 2) is yielded
    read = set()
    for combo in itertools.combinations(range(m), n):
        inter = -1
        for i in combo:
            read.add(i)
            inter &= bitsets[i]
            if not inter:
                break
        if first is not None and combo == first[0]:
            break
    assert set(asked) <= read
    assert ([] if first is None else [first, *walk]) == want
