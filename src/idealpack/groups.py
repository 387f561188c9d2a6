"""Group handles and materialized sets.

Four group kinds are supported:

* ``z-window`` — the integers, materialized on an inclusive window
  ``[lo, hi]`` with a declared shift ``margin``.  Translating a set by ``g``
  shifts its bit pattern; the result is exact except near the window edge on
  the side bits were pushed in from.  :meth:`ZWindowGroup.exact_core_mask`
  names the region where an intersection of given translates is exact, which
  is what every translate-intersecting operation evaluates on.
* ``z-mod`` — the cyclic group of integers mod N; translation rotates, every
  position is exact.
* ``cayley`` — a finite group given by its multiplication table, validated on
  construction.
* ``free-2`` — reduced words of length <= ``depth`` over two generators, in
  shortlex order.  Products that outgrow the depth are dropped from translate
  results and counted in a truncation tally.

A :class:`MaterializedSet` is a bitset over one group's universe plus the
tally of elements lost to truncation.  Boolean operations require both
operands to live on the same group and raise :class:`ScaleMismatch`
otherwise.

Which carrier a set lives on is decided here and nowhere else: no other
module tests the carrier class.  They read the facts a carrier owns, each
``None`` where it does not apply, and act on their values:

* ``margin`` — the Z window's declared shift margin;
* ``modulus`` — N on Z_N;
* ``depth`` — the word-ball radius on F2;
* ``span`` — the integer ``(lo, hi)`` the two integer carriers evaluate on
  (the window, or ``(0, N-1)``);
* ``translation_is_exact`` — whether translates stay whole (Z_N, Cayley
  tables).

Where the carriers really differ, they answer through one method each:
``family_pool`` (the translators a smallness search enumerates) and
``check_translators`` (which candidate lists packing accepts).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from . import bitops, words
from .errors import (
    InvalidParam,
    InvalidTable,
    KindMismatch,
    LengthBudgetTooSmall,
    ScaleMismatch,
    ShiftOutOfBudget,
)

__all__ = [
    "Window",
    "ZWindowGroup",
    "ZModGroup",
    "CayleyGroup",
    "FreeGroup2",
    "Group",
    "MaterializedSet",
    "load_cayley_table",
    "spiral_shifts",
]


@dataclass(frozen=True)
class Window:
    """Inclusive integer window ``[lo, hi]`` with a declared shift margin.

    The margin is the largest |shift| any operation on this window may use;
    it is a budget, not a truncation: translate results are exact wherever
    the shifted-in edge has not reached (see ``exact_core_mask``).
    """

    lo: int
    hi: int
    margin: int = 0

    def __post_init__(self):
        if self.hi < self.lo:
            raise InvalidParam(f"window [{self.lo}, {self.hi}] is empty")
        if self.margin < 0:
            raise InvalidParam("window margin must be >= 0")
        if self.hi - self.lo < 2 * self.margin:
            raise InvalidParam(
                f"window [{self.lo}, {self.hi}] has no core at margin {self.margin}"
            )

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


class _GroupBase:
    """Shared scaffolding; concrete kinds fill in the element protocol."""

    kind: str
    size: int
    # whether every translate of every set stays whole (nothing is pushed out
    # of the universe), so that |gA ∩ hA| = |A ∩ g⁻¹hA| holds exactly
    translation_is_exact = False
    # the carrier facts (see the module docstring); None where they do not apply
    margin: int | None = None
    modulus: int | None = None
    depth: int | None = None
    span: tuple[int, int] | None = None

    # -- element protocol -------------------------------------------------
    def identity(self):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def index(self, elem) -> int:
        raise NotImplementedError

    def elem_at(self, i: int):
        raise NotImplementedError

    def elements(self) -> Iterator:
        return (self.elem_at(i) for i in range(self.size))

    # -- index-array protocol (table carriers and Z_N) ----------------------
    def translate_index(self, gs: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Index of g·x for each element index g in ``gs`` (rows) and x in
        ``pos`` (columns); -1 where the product leaves the universe."""
        raise KindMismatch(f"no index translation on kind {self.kind!r}")

    def differences(self, gs: np.ndarray, hs: np.ndarray) -> np.ndarray:
        """Index of g⁻¹h for each element index g in ``gs`` (rows) and h in
        ``hs`` (columns); -1 where it leaves the universe."""
        raise KindMismatch(f"no index differences on kind {self.kind!r}")

    def translator_count(self, radius: int) -> int:
        """How many translators a greedy cover tries: the elements of index
        below the count, which are those of length at most ``radius``."""
        raise KindMismatch(f"no greedy cover for kind {self.kind!r}")

    # -- translator lists ----------------------------------------------------
    def family_pool(self, s: int) -> list:
        """The translators a smallness search draws its families from, in
        enumeration order: every element on a finite table."""
        return list(range(self.size))

    def check_translators(self, cands: Sequence) -> None:
        """Raise unless ``cands`` name distinct elements, each one a valid
        element (:meth:`index`) of this group."""
        _require_distinct([self.index(c) for c in cands])

    # -- bitset protocol ---------------------------------------------------
    @functools.cached_property
    def full_mask(self) -> int:
        return bitops.mask(self.size)

    def translate_bits(self, g, bits: int) -> tuple[int, int]:
        """Bitset of ``g . A`` and the count of elements that fell outside."""
        raise NotImplementedError

    def exact_core_mask(self, shifts: Sequence) -> int:
        """Mask of positions where an intersection of these translates is
        exact: everywhere, where translates stay whole."""
        return self.full_mask

    def core_mask(self) -> int:
        """Conservative core honoring the full declared margin."""
        return self.full_mask

    # -- conveniences -------------------------------------------------------
    def empty_set(self) -> "MaterializedSet":
        return MaterializedSet(self, 0)

    def full_set(self) -> "MaterializedSet":
        return MaterializedSet(self, self.full_mask)

    def set_of(self, elems: Iterable) -> "MaterializedSet":
        bits = bitops.bits_from_positions((self.index(e) for e in elems), self.size)
        return MaterializedSet(self, bits)

    def descriptor(self) -> dict:
        """JSON-friendly identity of this group, used in reports."""
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, _GroupBase) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(str(self.descriptor()))


class ZWindowGroup(_GroupBase):
    """The integers, seen through an inclusive window."""

    kind = "z-window"

    def __init__(self, window: Window):
        self.window = window
        self.size = window.size
        self.margin = window.margin
        self.span = (window.lo, window.hi)

    def identity(self) -> int:
        return 0

    def mul(self, x: int, y: int) -> int:
        return x + y

    def inv(self, x: int) -> int:
        return -x

    def index(self, elem: int) -> int:
        if not (self.window.lo <= elem <= self.window.hi):
            raise InvalidParam(f"{elem} lies outside window [{self.window.lo}, {self.window.hi}]")
        return elem - self.window.lo

    def elem_at(self, i: int) -> int:
        return self.window.lo + i

    def translate_bits(self, g: int, bits: int) -> tuple[int, int]:
        if abs(g) > self.window.margin:
            raise ShiftOutOfBudget(
                f"shift {g} exceeds declared margin {self.window.margin}"
            )
        # the tally counts only the bits pushed out: past the top edge (and
        # any input bits already beyond it) for g >= 0, below 0 for g < 0
        if g >= 0:
            return (bits << g) & self.full_mask, (bits >> (self.size - g)).bit_count()
        return bits >> -g, (bits & bitops.mask(-g)).bit_count()

    def exact_core_mask(self, shifts: Sequence[int]) -> int:
        """Positions where translates by these shifts carry no edge artifacts.

        Shifting by g >= 0 pushes unknown content into ``[lo, lo+g)``; by
        g < 0 into ``(hi+g, hi]``.  Outside those strips every translate, and
        hence their intersection, is exact.
        """
        up = max((g for g in shifts if g > 0), default=0)
        down = min((g for g in shifts if g < 0), default=0)
        lo_idx = up
        hi_idx = self.size - 1 + down
        if hi_idx < lo_idx:
            return 0
        return bitops.mask(hi_idx - lo_idx + 1) << lo_idx

    def core_mask(self) -> int:
        m = self.window.margin
        return bitops.mask(self.size - 2 * m) << m

    def family_pool(self, s: int) -> list[int]:
        return spiral_shifts(s)

    def check_translators(self, cands: Sequence[int]) -> None:
        """Distinct shifts, each within the declared margin."""
        _require_distinct(cands)
        for g in cands:
            if abs(g) > self.margin:
                raise ShiftOutOfBudget(f"shift {g} exceeds declared margin {self.margin}")

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "lo": self.window.lo,
            "hi": self.window.hi,
            "margin": self.window.margin,
        }


class ZModGroup(_GroupBase):
    """Integers mod N; translation rotates the bit pattern."""

    kind = "z-mod"
    translation_is_exact = True

    def __init__(self, modulus: int):
        if modulus < 1:
            raise InvalidParam("modulus must be >= 1")
        self.modulus = modulus
        self.size = modulus
        self.span = (0, modulus - 1)

    def identity(self) -> int:
        return 0

    def mul(self, x: int, y: int) -> int:
        return (x + y) % self.modulus

    def inv(self, x: int) -> int:
        return (-x) % self.modulus

    def index(self, elem: int) -> int:
        return elem % self.modulus

    def elem_at(self, i: int) -> int:
        return i

    def translate_bits(self, g: int, bits: int) -> tuple[int, int]:
        n = self.modulus
        g %= n
        out = ((bits << g) | (bits >> (n - g))) & self.full_mask if g else bits
        return out, 0

    def translate_index(self, gs: np.ndarray, pos: np.ndarray) -> np.ndarray:
        return (np.asarray(gs)[:, None] + pos) % self.modulus

    def differences(self, gs: np.ndarray, hs: np.ndarray) -> np.ndarray:
        return (hs - np.asarray(gs)[:, None]) % self.modulus

    def descriptor(self) -> dict:
        return {"kind": self.kind, "modulus": self.modulus}


class CayleyGroup(_GroupBase):
    """Finite group presented by its multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j.  The
    same table is also kept as an n x n index array, so translating by g is
    one gather through row g.  The constructor checks closure, the claimed
    identity, inverses, and full associativity (cubic, but one row of
    products at a time in numpy).
    """

    kind = "cayley"
    translation_is_exact = True

    def __init__(self, table: Sequence[Sequence[int]], identity_index: int):
        n = len(table)
        if n == 0:
            raise InvalidTable("table is empty")
        tab = tuple(tuple(row) for row in table)
        for i, row in enumerate(tab):
            if len(row) != n:
                raise InvalidTable(f"row {i} has length {len(row)}, expected {n}")
            for v in row:
                if not (0 <= v < n):
                    raise InvalidTable(f"entry {v} out of range in row {i}")
        e = identity_index
        if not (0 <= e < n):
            raise InvalidTable(f"identity index {e} out of range")
        for x in range(n):
            if tab[e][x] != x or tab[x][e] != x:
                raise InvalidTable(f"element {e} is not an identity at {x}")
        for x in range(n):
            if e not in tab[x]:
                raise InvalidTable(f"element {x} has no inverse")
        rows = np.array(tab, dtype=np.intp)
        for x in range(n):
            # (xy)z against x(yz) for every y, z at once
            bad = np.argwhere(rows[rows[x]] != rows[x][rows])
            if bad.size:
                y, z = bad[0]
                raise InvalidTable(f"associativity fails at ({x}, {y}, {z})")
        self.table = tab
        self._rows = rows
        self.identity_index = e
        self.size = n
        self._inv = tuple(tab[x].index(e) for x in range(n))
        self._inv_index = np.array(self._inv, dtype=np.intp)

    def identity(self) -> int:
        return self.identity_index

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inv(self, x: int) -> int:
        return self._inv[x]

    def index(self, elem: int) -> int:
        if not (0 <= elem < self.size):
            raise InvalidParam(f"element index {elem} out of range")
        return elem

    def elem_at(self, i: int) -> int:
        return i

    def translate_bits(self, g: int, bits: int) -> tuple[int, int]:
        pos = bitops.positions_from_bits(bits, self.size)
        return _gather_translate((self._rows[g],), pos, self.size)

    def translate_index(self, gs: np.ndarray, pos: np.ndarray) -> np.ndarray:
        return self._rows[np.ix_(gs, pos)]

    def differences(self, gs: np.ndarray, hs: np.ndarray) -> np.ndarray:
        return self._rows[np.ix_(self._inv_index[gs], hs)]

    def translator_count(self, radius: int) -> int:
        return self.size

    def descriptor(self) -> dict:
        return {"kind": self.kind, "table": self.table, "identity": self.identity_index}


class FreeGroup2(_GroupBase):
    """Reduced words of length <= depth over two generators, shortlex order.

    Because shortlex ranks are grouped by length, the sub-ball of radius r is
    the contiguous rank range [0, ball_size(r)), which makes core masks plain
    prefixes.

    Translation gathers through four index maps, one per letter: entry i of
    the map for x is the rank of ``x * w_i``, or -1 where that product leaves
    the ball, and one last entry -1 sends a -1 on as -1.  They are built by
    :func:`words.left_mul_ranks` on the first translate (not at
    construction: at depth 12 they take 17 MB, and disjointness checks never
    need them).  Differences g⁻¹h are worked out on ranks too, by
    :func:`words.left_mul_ranks` and :func:`words.invert_ranks`.
    """

    kind = "free-2"

    def __init__(self, depth: int):
        if depth < 1:
            raise InvalidParam("word-ball depth must be >= 1")
        self.depth = depth
        self.size = words.ball_size(depth)
        self._letter_maps: dict[str, np.ndarray] | None = None

    def identity(self) -> str:
        return ""

    def mul(self, x: str, y: str) -> str:
        return words.mul_words(x, y)

    def inv(self, x: str) -> str:
        return words.invert_word(x)

    def index(self, elem: str) -> int:
        if len(elem) > self.depth:
            raise InvalidParam(f"word {elem!r} is longer than depth {self.depth}")
        return words.word_rank(elem)

    def elem_at(self, i: int) -> str:
        return words.word_at_rank(i)

    def elements(self) -> Iterator[str]:
        return words.enumerate_ball(self.depth)

    def translate_bits(self, g: str, bits: int) -> tuple[int, int]:
        pos = bitops.positions_from_bits(bits, self.size)
        return _gather_translate(self._maps_of(g), pos, self.size)

    def translate_index(self, gs: np.ndarray, pos: np.ndarray) -> np.ndarray:
        out = np.empty((len(gs), len(pos)), dtype=np.int64)
        for row, g in zip(out, np.asarray(gs).tolist()):
            row[:] = pos
            for index_map in self._maps_of(words.word_at_rank(g)):
                row[:] = index_map[row]
        return out

    def differences(self, gs: np.ndarray, hs: np.ndarray) -> np.ndarray:
        """One rank kernel call per entry of ``hs``: column j is the inverse
        of h⁻¹·gs, as g⁻¹h = (h⁻¹g)⁻¹.  Its caller, ``_hits_by_residual``,
        passes many candidates as ``gs`` and a few residual rows as ``hs``."""
        gs, hs = np.asarray(gs), np.asarray(hs)
        out = np.empty((gs.size, hs.size), dtype=np.int64)
        for j, h in enumerate(hs.tolist()):
            hg = words.left_mul_ranks(words.invert_word(words.word_at_rank(h)), gs, self.depth)[0]
            out[:, j] = words.invert_ranks(hg, self.depth)
        return out

    def translator_count(self, radius: int) -> int:
        return words.ball_size(min(radius, self.depth))

    def family_pool(self, s: int) -> list[str]:
        return list(words.enumerate_ball(min(s, self.depth)))

    def check_translators(self, cands: Sequence[str]) -> None:
        """Distinct reduced words over ``aAbB`` (``""`` is the identity), none
        longer than the ball depth, so that a core region remains."""
        for g in cands:
            if not (isinstance(g, str) and set(g) <= set(words.ALPHABET) and words.is_reduced(g)):
                raise InvalidParam(f"translator {g!r} is not a reduced word over {words.ALPHABET!r}")
        _require_distinct(cands)
        longest = max((len(g) for g in cands), default=0)
        if longest > self.depth:
            raise LengthBudgetTooSmall(
                f"translator length {longest} exceeds ball depth {self.depth}: no core region remains"
            )

    def _maps_of(self, g: str) -> list[np.ndarray]:
        """The letter maps that translate by ``g``, in the order they apply."""
        if self._letter_maps is None:
            self._letter_maps = {ch: self._letter_map(ch) for ch in words.ALPHABET}
        return [self._letter_maps[ch] for ch in reversed(g)]

    def _letter_map(self, ch: str) -> np.ndarray:
        # one entry past the ball, -1, so that a -1 index maps to -1 again;
        # in slices, so the kernel's int64 temporaries stay small beside the map
        out = np.full(self.size + 1, -1, dtype=np.int32)
        for lo in range(0, self.size, _MAP_SLICE):
            ranks = np.arange(lo, min(lo + _MAP_SLICE, self.size))
            out[lo : lo + ranks.size] = words.left_mul_ranks(ch, ranks, self.depth)[0]
        return out

    def exact_core_mask(self, shifts: Sequence[str]) -> int:
        longest = max((len(g) for g in shifts), default=0)
        r = self.depth - longest
        if r < 0:
            return 0
        return bitops.mask(words.ball_size(r))

    def descriptor(self) -> dict:
        return {"kind": self.kind, "depth": self.depth}


Group = Union[ZWindowGroup, ZModGroup, CayleyGroup, FreeGroup2]


def spiral_shifts(s: int) -> list[int]:
    """0, 1, -1, 2, -2, ..., s, -s: the order in which shifts are tried."""
    out = [0]
    for v in range(1, s + 1):
        out.extend((v, -v))
    return out


_MAP_SLICE = 1 << 16


def _require_distinct(keys: Sequence) -> None:
    if len(set(keys)) != len(keys):
        raise InvalidParam("candidate translators must be distinct")


def _gather_translate(index_maps: Sequence[np.ndarray], pos: np.ndarray, size: int) -> tuple[int, int]:
    """Translate on a table carrier: send the set's positions through each
    index map in turn, dropping the -1 entries (products that left the
    universe); returns the bitset and the count dropped."""
    before = pos.size
    for index_map in index_maps:
        pos = index_map[pos]
        pos = pos[pos >= 0]
    return bitops.bits_from_positions(pos, size), before - pos.size


def load_cayley_table(path: str | Path) -> CayleyGroup:
    """Read a table file: first line N, then N rows of N indices, then the identity index."""
    tokens: list[int] = []
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        try:
            tokens.extend(int(t) for t in line.split())
        except ValueError:
            raise InvalidTable(f"{path}: {line!r} is not a row of integers") from None
    if not tokens:
        raise InvalidTable(f"{path}: no data")
    n = tokens[0]
    need = 1 + n * n + 1
    if len(tokens) != need:
        raise InvalidTable(f"{path}: expected {need} integers, found {len(tokens)}")
    rows = [tokens[1 + i * n : 1 + (i + 1) * n] for i in range(n)]
    return CayleyGroup(rows, tokens[-1])


@dataclass(frozen=True)
class MaterializedSet:
    """A subset of one group's universe, as a bitset, plus a truncation tally.

    The tally counts elements silently lost to depth truncation while this
    set was produced (only free-group translation loses any); it propagates
    through boolean operations so a caller can tell when a verdict leans on
    truncated data.
    """

    group: _GroupBase
    bits: int
    tally: int = 0

    def _check(self, other: "MaterializedSet") -> None:
        if self.group != other.group:
            raise ScaleMismatch(
                f"sets live on different groups: {self.group.descriptor()} vs {other.group.descriptor()}"
            )

    # -- algebra -----------------------------------------------------------
    def union(self, other: "MaterializedSet") -> "MaterializedSet":
        self._check(other)
        return MaterializedSet(self.group, self.bits | other.bits, self.tally + other.tally)

    def inter(self, other: "MaterializedSet") -> "MaterializedSet":
        self._check(other)
        return MaterializedSet(self.group, self.bits & other.bits, self.tally + other.tally)

    def diff(self, other: "MaterializedSet") -> "MaterializedSet":
        self._check(other)
        return MaterializedSet(self.group, self.bits & ~other.bits, self.tally + other.tally)

    def compl(self) -> "MaterializedSet":
        return MaterializedSet(self.group, ~self.bits & self.group.full_mask, self.tally)

    def translate(self, g) -> "MaterializedSet":
        out, dropped = self.group.translate_bits(g, self.bits)
        return MaterializedSet(self.group, out, self.tally + dropped)

    # -- queries -----------------------------------------------------------
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def is_empty(self) -> bool:
        return self.bits == 0

    def contains(self, elem) -> bool:
        return bool((self.bits >> self.group.index(elem)) & 1)

    def elements(self) -> list:
        return [self.group.elem_at(i) for i in bitops.iter_bits(self.bits)]

    def density(self) -> Fraction:
        return Fraction(self.cardinality(), self.group.size)

    def __contains__(self, elem) -> bool:
        return self.contains(elem)
