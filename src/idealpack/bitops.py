"""Plain-int bitset helpers.

Universe subsets are stored as Python ints: bit ``i`` set means the element
with index ``i`` is present.  Ints scale fine to the million-bit windows the
CLI works at, but building them one ``1 << i`` at a time does not, so
construction and position extraction round-trip through numpy byte buffers.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

__all__ = [
    "mask",
    "bits_from_positions",
    "positions_from_bits",
    "bit_array",
    "sorted_unique",
    "iter_bits",
    "lowest_bit",
    "highest_bit",
    "max_run_length",
]


def mask(n: int) -> int:
    """All-ones mask of width n."""
    return (1 << n) - 1


def bits_from_positions(positions: Iterable[int], size: int) -> int:
    """Bitset with exactly the given in-range positions set (an int array is
    filtered in place of the element-wise scan, and may be unsorted)."""
    if isinstance(positions, np.ndarray):
        pos = positions[(positions >= 0) & (positions < size)]
    else:
        pos = np.fromiter((p for p in positions if 0 <= p < size), dtype=np.int64)
    if pos.size == 0:
        return 0
    buf = np.zeros(size, dtype=np.uint8)
    buf[pos] = 1
    return int.from_bytes(np.packbits(buf, bitorder="little").tobytes(), "little")


def positions_from_bits(bits: int, size: int) -> np.ndarray:
    """Sorted int64 array of set-bit indices."""
    if bits == 0:
        return np.empty(0, dtype=np.int64)
    nbytes = (size + 7) // 8
    buf = np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.nonzero(np.unpackbits(buf, bitorder="little", count=size))[0].astype(np.int64)


def bit_array(bits: int, size: int) -> np.ndarray:
    """0/1 uint8 array of length ``size``; entry i mirrors bit i."""
    nbytes = (size + 7) // 8
    buf = np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(buf, bitorder="little", count=size)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of a 1-D array: ``np.unique`` by sort and
    adjacent compare.

    ``np.unique`` picks its algorithm by numpy version; recent releases hash
    integer input, which on the position arrays used here costs an order of
    magnitude more than a sort.  Callers pass concatenations of sorted runs,
    which the stable sort (a merge sort) joins in a few linear passes.
    """
    out = np.sort(values, kind="stable")
    if out.size < 2:
        return out
    keep = np.empty(out.size, dtype=bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def iter_bits(bits: int) -> Iterator[int]:
    """Yield set-bit indices in increasing order (fine for sparse sets)."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def lowest_bit(bits: int) -> int | None:
    if bits == 0:
        return None
    return (bits & -bits).bit_length() - 1


def highest_bit(bits: int) -> int | None:
    if bits == 0:
        return None
    return bits.bit_length() - 1


def max_run_length(bits: int, cap: int | None = None) -> int:
    """Length of the longest run of consecutive set bits.

    Each AND-with-shift pass trims every run by one, so the pass count is the
    answer.  With ``cap`` given, returns ``cap + 1`` as soon as a longer run
    is certain, which keeps the loop cheap on huge bitsets.
    """
    length = 0
    while bits:
        if cap is not None and length >= cap:
            return cap + 1
        bits &= bits >> 1
        length += 1
    return length
