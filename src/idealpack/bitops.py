"""Plain-int bitset helpers.

Universe subsets are stored as Python ints: bit ``i`` set means the element
with index ``i`` is present.  Ints scale fine to the million-bit windows the
CLI works at, but building them one ``1 << i`` at a time does not, so
construction and position extraction round-trip through numpy byte buffers.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "mask",
    "bits_from_positions",
    "positions_from_bits",
    "position_chunks",
    "bit_array",
    "bits_from_array",
    "sorted_unique",
    "iter_bits",
    "meeting_subsets",
    "CHUNK_ITEMS",
]

# Entries in the largest index or position array a chunked kernel builds at
# once: 128 KiB per int64 temporary, so chunking adds little to peak memory.
CHUNK_ITEMS = 1 << 14


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
    if size > CHUNK_ITEMS:
        return np.concatenate(list(position_chunks(bits, 0, size - 1, CHUNK_ITEMS)))
    # on a small universe one unpacking pass costs less than skipping words
    buf = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(buf, bitorder="little", count=size).view(bool).nonzero()[0]


def position_chunks(bits: int, lo: int, hi: int, step: int) -> Iterator[np.ndarray]:
    """Sorted set-bit indices in [lo, hi], relative to lo, in order: nonempty
    int64 arrays of at most ``step`` entries (a multiple of 64).

    The range is read as 64-bit words and only the nonzero words are
    unpacked, so a sparse set costs little more than one scan of its words.
    """
    n = hi - lo + 1
    window = bits >> lo
    if window.bit_length() > n:
        window &= mask(n)
    words = np.frombuffer(window.to_bytes((n + 63) // 64 * 8, "little"), dtype="<u8")
    for first in range(0, words.size, step):
        nz = words[first : first + step].nonzero()[0] + first
        for part in range(0, nz.size, step // 64):
            held = nz[part : part + step // 64]
            if held[-1] - held[0] < held.size:
                # no zero word in between: unpack the span as it lies
                at = _unpack(words[held[0] : held[-1] + 1]).nonzero()[0]
                yield at + held[0] * 64
            else:
                at = _unpack(words[held]).nonzero()[0]
                yield held[at >> 6] * 64 + (at & 63)


def _unpack(words: np.ndarray) -> np.ndarray:
    """Bool array of the bits of little-endian 64-bit words, low bit first."""
    return np.unpackbits(words.view(np.uint8), bitorder="little").view(bool)


def bit_array(bits: int, size: int) -> np.ndarray:
    """0/1 uint8 array of length ``size``; entry i mirrors bit i."""
    nbytes = (size + 7) // 8
    buf = np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(buf, bitorder="little", count=size)


def bits_from_array(arr: np.ndarray) -> int:
    """Bitset whose bit i mirrors entry i of a 0/1 or bool array (the
    inverse of ``bit_array``)."""
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


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


def meeting_subsets(m: int, n: int, bits_of: Callable[[int], int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield ``(combo, inter)`` for each n-subset of ``range(m)`` (n >= 2) whose
    bitsets ``bits_of(i)`` meet, ``inter`` their intersection, in
    ``itertools.combinations`` order.  Each prefix is intersected once, and
    the subsets under a prefix that meets nowhere are skipped.  ``bits_of(i)``
    is called once the walk reaches i, for each prefix that does; caching is
    the caller's."""
    combo, inters, i = [], [-1], 0  # a prefix, its prefixes' bitsets ANDed, the next index
    while combo or i <= m - n:
        if i > m - n + len(combo):  # too few indices left to fill the subset
            i = combo.pop() + 1
            inters.pop()
            continue
        inter = inters[-1] & bits_of(i)
        if inter and len(combo) == n - 2:  # a prefix of n-1: each last index in turn
            head = (*combo, i)
            for k in range(i + 1, m):
                last = inter & bits_of(k)
                if last:
                    yield head + (k,), last
        elif inter:
            combo.append(i)
            inters.append(inter)
        i += 1
