"""Largeness (syndeticity) witnesses and smallness evidence, mod an ideal.

``is_large`` looks for a finite translator family F with FA = G modulo the
ideal, certified on the evaluation core.  On the integer kinds it searches
minimal prefixes F = {0..k}; on table groups and word balls it covers
greedily.  ``is_small`` / ``is_ideal_small`` exhaustively enumerate translator
families F (size up to m, entries from a +/-s range) and check that the
complement of FA stays large for each — the scale version of "small": verdicts
carry their exhausted bounds because no finite run can decide the paper-side
quantifier over all finite F.

Enumeration order for F: by size, then lexicographically over the spiral
order 0, 1, -1, 2, -2, ... of shifts; the reported counterexample is the
first failing family in that order.  A family counts as a hard counterexample
only when the complement of FA itself lies in the ideal (then no translator
family can ever make it large, properness being what it is); an inner search
that merely runs out of bounds leaves the family inconclusive.

On Z-mod-N every nonempty set is large (translate it around the cycle), so
smallness there is decided directly: nonempty sets are not-small, the empty
set is small.

Run lengths on Z windows.  When ideal membership of a bare bitset is a
cardinality test (the trivial ideal, and ``finite-sets``: |X| <= cutoff), a
prefix search on a Z window needs only run lengths.  A point x of an interval
region [r0, r1] stays uncovered by {0..k} exactly when [x-k, x] lies inside
one run of the uncovered set, so a run of length L, cut to the region, leaves
max(0, L-k) such points.  :func:`residual_profile` gives the residual size
for every depth at once from a histogram of the lengths and suffix sums; the
answers are the bitset loop's, byte for byte.

* Largeness reads the runs off the gaps of A inside the region.
* Smallness reads them off FA, whose complement is the set to cover, cut to
  the family's exact core.  The families of one size are rows of a 2-D array
  (families x j|A'|), sorted row by row with runs read by value, in chunks
  that start at one family and double up to ``bitops.CHUNK_ITEMS`` entries
  per int64 temporary; the scan stops at the first hard family.
* A dense set (more than one position per 64-bit word of the window) has
  about as many runs as elements, so there bitsets are cheaper.  Largeness
  keeps the bitset loop, which stops at the first cover.  Smallness takes
  each family in one bitset pass: the residual at depth k counts the
  stretches of k+1 consecutive core positions inside FA, and binary
  lifting finds the first depth whose residual fits the ideal.
* Cluster compression gives A'.  A splits where consecutive elements lie more
  than 2s+1 apart; translates of different clusters by shifts within +/-s
  never touch, so the runs of FA are those of each cluster's.  A cluster
  whose translates stay inside every family's core counts once per distinct
  shape, weighted by how often the shape occurs; clusters near the window
  edges stay as they are.  The trivial ideal needs only the longest run, so
  only ``finite-sets`` uses the weights.

Every other ideal and largeness on Z-mod-N keep the bitset path: translates
as bitsets, and ``Ideal.member`` on each residual.

Greedy cover on the table carriers (Cayley tables and word balls).  The
cover reads one bool hit matrix H[x, c] = (x in cB) over the residual region
R and the candidates C, for the trusted part B of A.  It is built from the
smaller side: by candidate, each translate cB is one gather; by residual
element, x lies in cB exactly when c^-1 x lies in B, so one column of group
differences reads x against every candidate at once (on a word ball, one
rank-kernel call).  Each round takes the first largest gain and subtracts
the newly covered rows of H from the gains; ``Ideal.member`` is still asked
on every round's residual.  Smallness on these carriers checks its families
one at a time, each through this cover.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import bitops
from .errors import (
    BudgetExceeded,
    InvalidParam,
    KindMismatch,
    NotFoundAtScale,
    RangeExceedsMargin,
)
from .groups import Group, MaterializedSet, spiral_shifts
from .ideals import Ideal, TrivialIdeal
from .reports import show_elements

__all__ = [
    "LargeBounds",
    "SmallBounds",
    "LargenessWitness",
    "SmallnessEvidence",
    "gap_profile",
    "is_large",
    "is_small",
    "is_ideal_small",
    "residual_profile",
    "spiral_shifts",
]

# family outcomes, as codes in the smallness scan
_OUTCOMES = ("large", "hard", "inconclusive")
_LARGE, _HARD, _INCONCLUSIVE = range(3)


@dataclass(frozen=True)
class LargeBounds:
    """Limits for the largeness search.

    ``shift_range`` bounds translator magnitude: prefix depth on the integer
    kinds, word length on the free group (ignored on table groups, where
    every element is a candidate).
    """

    max_f: int = 64
    shift_range: int = 256

    def __post_init__(self):
        if self.max_f < 1:
            raise InvalidParam(f"largeness bounds need max_f >= 1, got {self.max_f}")
        if self.shift_range < 0:
            raise InvalidParam(f"largeness bounds need shift_range >= 0, got {self.shift_range}")

    @property
    def depth(self) -> int:
        """The deepest prefix {0..k} the integer search tries: a family of at
        most ``max_f`` shifts, none past ``shift_range``."""
        return min(self.shift_range, self.max_f - 1)


@dataclass(frozen=True)
class SmallBounds:
    m: int = 2
    s: int = 16
    inner: LargeBounds = LargeBounds()
    cap: int = 1_000_000

    def __post_init__(self):
        if self.m < 1:
            raise InvalidParam(f"smallness bounds need m >= 1, got {self.m}")
        if self.s < 0:
            raise InvalidParam(f"smallness bounds need s >= 0, got {self.s}")
        if self.cap < 1:
            raise InvalidParam(f"smallness bounds need cap >= 1, got {self.cap}")

    @property
    def reach(self) -> int:
        """The largest shift a smallness search on the integers uses: a
        family shift, or an inner prefix depth."""
        return max(self.s, self.inner.depth)


@dataclass
class LargenessWitness:
    family: list
    residual_size: int
    ideal: dict
    bounds: LargeBounds
    prefix_k: Optional[int] = None

    def payload(self) -> dict:
        return {
            "family": show_elements(self.family),
            "family_size": len(self.family),
            "residual_size": self.residual_size,
            "ideal": self.ideal,
            "bounds": {"max_f": self.bounds.max_f, "shift_range": self.bounds.shift_range},
        }


@dataclass
class SmallnessEvidence:
    verdict: str  # small-at-scale | not-small | inconclusive
    counterexample: Optional[list]
    m: int
    s: int
    inner: LargeBounds
    families_tested: int
    worst_prefix: int
    ideal: dict
    first_inconclusive: Optional[list] = None
    note: str = ""

    def payload(self) -> dict:
        out = {
            "verdict": self.verdict,
            "counterexample": show_elements(self.counterexample),
            "bounds": {
                "m": self.m,
                "s": self.s,
                "inner_max_f": self.inner.max_f,
                "inner_shift_range": self.inner.shift_range,
            },
            "families_tested": self.families_tested,
            "worst_inner_prefix": self.worst_prefix,
            "ideal": self.ideal,
        }
        if self.first_inconclusive is not None:
            out["first_inconclusive"] = show_elements(self.first_inconclusive)
        if self.note:
            out["note"] = self.note
        return out


# --------------------------------------------------------------------------
# gap profile
# --------------------------------------------------------------------------

def gap_profile(A: MaterializedSet) -> Optional[int]:
    """Max distance between consecutive core elements; None if none are there.

    Cyclic on Z-mod-N (a singleton wraps to itself at distance N).  A
    singleton on a Z window has no consecutive pair and profiles as 0.
    """
    group = A.group
    if group.span is None:
        raise KindMismatch(f"gap_profile is integer-specific, not for kind {group.kind!r}")
    pos = bitops.positions_from_bits(A.bits & group.core_mask(), group.size)
    if pos.size == 0:
        return None
    if group.modulus is not None:
        # the first element again, one turn on, closes the cycle
        pos = np.append(pos, pos[0] + group.modulus)
    if pos.size == 1:
        return 0
    return int(np.diff(pos).max())


# --------------------------------------------------------------------------
# run lengths
# --------------------------------------------------------------------------

def residual_profile(lengths, weights, K: int, row=None, nrows: int = 1) -> np.ndarray:
    """Sum of w * max(0, L - k) over runs of lengths L and weights w, for
    k = 0..K (weight 1 when ``weights`` is None).

    With ``row`` (each run's profile index, below ``nrows``) the result is
    one profile per row, shape (nrows, K+1).  Runs are binned by
    min(L, K+1); those in the bins above k are exactly the runs longer than
    k, and contribute sum(wL) - k * sum(w), so suffix sums over the K+2 bins
    give every k at once.
    """
    L = np.asarray(lengths, dtype=np.int64)
    w = np.ones_like(L) if weights is None else np.asarray(weights, dtype=np.int64)
    bins = np.minimum(L, K + 1)
    if row is not None:
        bins += np.asarray(row) * (K + 2)
    # bincount sums in float64, exactly: every sum here is far below 2**53
    size = nrows * (K + 2)
    tail_w = np.bincount(bins, weights=w, minlength=size).reshape(nrows, K + 2)
    tail_wl = np.bincount(bins, weights=w * L, minlength=size).reshape(nrows, K + 2)
    tail_w = np.cumsum(tail_w[:, ::-1], axis=1)[:, ::-1]
    tail_wl = np.cumsum(tail_wl[:, ::-1], axis=1)[:, ::-1]
    profile = (tail_wl[:, 1:] - np.arange(K + 1) * tail_w[:, 1:]).astype(np.int64)
    return profile if row is not None else profile[0]


def _dense(count: int, size: int) -> bool:
    """Whether ``count`` positions on a window of ``size`` are cheaper as a
    bitset than as an int64 array: more than one per 64-bit word."""
    return 64 * count > size


def _gap_lengths(bits: int, lo: int, hi: int) -> Iterator[np.ndarray]:
    """Lengths of the runs of unset bits in [lo, hi], at most
    ``bitops.CHUNK_ITEMS`` at a time; the empty run between two adjacent set
    bits counts as a 0."""
    last = -1  # the last set bit so far, relative to lo
    for ones in bitops.position_chunks(bits, lo, hi, bitops.CHUNK_ITEMS):
        yield np.diff(ones, prepend=last) - 1
        last = int(ones[-1])
    yield np.array([hi - lo - last])


# --------------------------------------------------------------------------
# largeness
# --------------------------------------------------------------------------

def _prefix_large(
    A: MaterializedSet,
    ideal: Ideal,
    bounds: LargeBounds,
    region_mask: int,
) -> LargenessWitness:
    """Minimal-prefix search on the integer kinds: try F = {0..k}, smallest k first."""
    group = A.group
    kmax = bounds.depth
    steps = None
    if group.margin is not None:
        if kmax > group.margin:
            raise RangeExceedsMargin(
                f"prefix depth {kmax} exceeds the declared margin {group.margin}"
            )
        steps = _gap_steps(A, ideal, kmax, region_mask)
    if steps is None:
        steps = _bitset_steps(A, ideal, kmax, region_mask)
    best_size: Optional[int] = None
    best_k = 0
    for k, size, member in steps:
        if member:
            return LargenessWitness(
                family=list(range(k + 1)),
                residual_size=size,
                ideal=ideal.descriptor(),
                bounds=bounds,
                prefix_k=k,
            )
        if best_size is None or size < best_size:
            best_size, best_k = size, k
    raise NotFoundAtScale(
        f"no covering prefix within k <= {kmax}",
        best_family=list(range(best_k + 1)),
        best_residual_size=best_size,
    )


def _bitset_steps(A: MaterializedSet, ideal: Ideal, kmax: int, region_mask: int):
    """(k, residual size, residual in the ideal) for the prefixes {0..k}, by
    translating bitsets."""
    group = A.group
    acc = 0
    # x is certifiable at prefix depth k only when the whole covering window
    # [x-k, x] sits inside the trusted region, so the region erodes as k grows
    eroded = region_mask
    for k in range(kmax + 1):
        tb, _ = group.translate_bits(k, A.bits)
        acc |= tb
        if k > 0:
            eroded &= group.translate_bits(k, region_mask)[0]
        if eroded == 0:
            return  # nothing left to certify on; deeper prefixes only erode more
        residual_bits = eroded & ~acc
        yield k, residual_bits.bit_count(), ideal.member(MaterializedSet(group, residual_bits))


def _gap_steps(A: MaterializedSet, ideal: Ideal, kmax: int, region_mask: int) -> Optional[list]:
    """``_bitset_steps`` up to the first member, from the gaps of A on a Z
    window; None unless the ideal is a cardinality test, the region an
    interval of the window and A sparse (a dense A has as many gaps as
    elements, while each bitset step costs one pass over the words and the
    loop stops at the first cover)."""
    size = A.group.size
    if region_mask >> size or _dense(A.bits.bit_count(), size):
        return None
    if region_mask == 0:
        return []
    r0 = (region_mask & -region_mask).bit_length() - 1
    r1 = region_mask.bit_length() - 1
    if region_mask >> r0 != bitops.mask(r1 - r0 + 1):
        return None
    cutoff = ideal.cardinality_cutoff(A.group)  # the usage errors of the first bitset step
    if cutoff is None:
        return None
    # depth k certifies on [r0+k, r1], which is empty past r1 - r0
    depth = min(kmax, r1 - r0)
    profile = sum(residual_profile(gaps, None, depth) for gaps in _gap_lengths(A.bits, r0, r1))
    steps = []
    for k, size in enumerate(profile.tolist()):
        steps.append((k, size, size <= cutoff))
        if size <= cutoff:
            break
    return steps


def _greedy_large(
    A: MaterializedSet,
    ideal: Ideal,
    bounds: LargeBounds,
    region_mask: int,
) -> LargenessWitness:
    """Greedy cover on table groups and word balls: each round takes the
    first candidate that covers the most of the residual, until the
    residual is a member of the ideal.

    The candidates are the group's elements of index below
    ``translator_count``; the residual region R is the region cut to the
    exact core of the longest one.  Coverage is one bool hit matrix over R
    and the candidates (``_hit_matrix``), and each round subtracts the newly
    covered rows from the gains.
    """
    group = A.group
    count = group.translator_count(bounds.shift_range)
    # candidates come by length, so the last one's core is every one's
    rmask = region_mask & group.exact_core_mask([group.elem_at(count - 1)])
    # translate only the trusted part of A, so coverage never leans on
    # positions whose membership is a truncation artifact
    base = bitops.positions_from_bits(A.bits & region_mask, group.size)
    rows = bitops.positions_from_bits(rmask, group.size)
    hits = _hit_matrix(group, base, rows, count)
    gains = hits.sum(axis=0)
    alive = np.ones(rows.size, dtype=bool)
    residual_bits = rmask
    family: list = []
    best_size: Optional[int] = None
    best_family: list = []
    while True:
        size = residual_bits.bit_count()
        if ideal.member(MaterializedSet(group, residual_bits)):
            return LargenessWitness(
                family=family,
                residual_size=size,
                ideal=ideal.descriptor(),
                bounds=bounds,
            )
        if best_size is None or size < best_size:
            best_size, best_family = size, list(family)
        chosen = int(gains.argmax())  # the first of the largest gains
        if len(family) == bounds.max_f or gains[chosen] == 0:
            break
        family.append(group.elem_at(chosen))
        newly = alive & hits[:, chosen]
        alive ^= newly
        gains -= hits[newly].sum(axis=0)
        residual_bits &= ~bitops.bits_from_positions(rows[newly], group.size)
    raise NotFoundAtScale(
        f"no cover with |F| <= {bounds.max_f}",
        best_family=best_family,
        best_residual_size=best_size,
    )


def _hit_matrix(group: Group, base: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """Bool (len(rows), count): entry [i, c] says whether position rows[i]
    lies in c·B, for B the positions ``base`` and c the element of index c;
    built from the smaller side, candidates or rows."""
    if count <= rows.size:
        return _hits_by_candidate(group, base, rows, count)
    return _hits_by_residual(group, base, rows, count)


def _hits_by_candidate(group: Group, base: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """``_hit_matrix`` a column at a time: each translate c·B is one row of
    ``translate_index``, ``bitops.CHUNK_ITEMS`` entries at a time."""
    # the row of each position of R; the last slot takes everything else,
    # the -1 of a product outside the universe included
    row_of = np.full(group.size + 1, rows.size)
    row_of[rows] = np.arange(rows.size)
    hits = np.zeros((rows.size + 1, count), dtype=bool)
    cands = np.arange(count)
    step = max(1, bitops.CHUNK_ITEMS // max(1, base.size))
    for lo in range(0, count, step):
        part = cands[lo : lo + step]
        hits[row_of[group.translate_index(part, base)], part[:, None]] = True
    return hits[:-1]


def _hits_by_residual(group: Group, base: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """``_hit_matrix`` a row at a time: x lies in c·B exactly when c⁻¹x lies
    in B, so one column of ``differences`` reads x against the candidates,
    ``bitops.CHUNK_ITEMS`` of them at a time."""
    in_base = np.zeros(group.size + 1, dtype=bool)  # the last slot reads -1
    in_base[base] = True
    hits = np.empty((rows.size, count), dtype=bool)
    step = max(1, bitops.CHUNK_ITEMS // count)
    for lo in range(0, rows.size, step):
        for first in range(0, count, bitops.CHUNK_ITEMS):
            cands = np.arange(first, min(first + bitops.CHUNK_ITEMS, count))
            diffs = group.differences(cands, rows[lo : lo + step])
            hits[lo : lo + step, first : first + cands.size] = in_base[diffs].T
    return hits


def is_large(
    A: MaterializedSet,
    ideal: Optional[Ideal] = None,
    bounds: LargeBounds = LargeBounds(),
    region_mask: Optional[int] = None,
) -> LargenessWitness:
    """Find F with FA = G mod the ideal on the core; NotFoundAtScale otherwise."""
    ideal = ideal if ideal is not None else TrivialIdeal()
    region = region_mask if region_mask is not None else A.group.full_mask
    if A.group.span is not None:
        return _prefix_large(A, ideal, bounds, region)
    return _greedy_large(A, ideal, bounds, region)


# --------------------------------------------------------------------------
# smallness
# --------------------------------------------------------------------------

def _zmod_smallness(A: MaterializedSet, ideal: Ideal, bounds: SmallBounds) -> SmallnessEvidence:
    """Finite cyclic groups carry a unique proper invariant ideal, so nonempty
    sets are never small: translating A around the cycle covers everything."""
    if A.bits == 0:
        return SmallnessEvidence(
            verdict="small-at-scale",
            counterexample=None,
            m=bounds.m,
            s=bounds.s,
            inner=bounds.inner,
            families_tested=0,
            worst_prefix=0,
            ideal=ideal.descriptor(),
            note="empty set on a finite cyclic group",
        )
    g = gap_profile(A)
    family = list(range(g))  # F = {0..g-1} covers the cycle
    return SmallnessEvidence(
        verdict="not-small",
        counterexample=family,
        m=bounds.m,
        s=bounds.s,
        inner=bounds.inner,
        families_tested=1,
        worst_prefix=0,
        ideal=ideal.descriptor(),
        note="finite cyclic group: every nonempty set is large; bounds bypassed",
    )


def _compress(pos: np.ndarray, s: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A' for shifts within +/-s: (its positions, the least value each of
    its clusters reaches by a shift, each cluster's weight).

    Clusters are split at gaps wider than 2s+1.  A cluster whose translates
    stay inside [s, size-1-s], which every family's core contains, is kept
    once per distinct shape (its first copy), weighted by the number of
    copies; the clusters near the window edges are kept as they are.
    """
    if pos.size == 0:
        return pos, pos, pos
    cut = np.flatnonzero(np.diff(pos) > 2 * s + 1) + 1
    first = np.concatenate(([0], cut))
    count = np.diff(np.concatenate((first, [pos.size])))
    interior = (pos[first] >= 2 * s) & (pos[first + count - 1] <= size - 1 - 2 * s)
    keep = ~interior
    weight = np.ones(first.size, dtype=np.int64)
    for c in bitops.sorted_unique(count[interior]).tolist():
        ids = np.flatnonzero(interior & (count == c))
        shape = pos[first[ids, None] + np.arange(c)] - pos[first[ids], None]
        # a stable sort of the shapes puts each shape's first copy first
        order = np.lexsort(shape.T[::-1])
        shape = shape[order]
        new = np.ones(ids.size, dtype=bool)
        new[1:] = np.any(shape[1:] != shape[:-1], axis=1)
        heads = ids[order[new]]
        keep[heads] = True
        weight[heads] = np.diff(np.append(np.flatnonzero(new), ids.size))
    return pos[np.repeat(keep, count)], pos[first[keep]] - s, weight[keep]


class _ZRuns:
    """Families on a Z window under a cardinality ideal (cutoff 0 for the
    trivial ideal), decided from the runs of FA on the family's exact core;
    the verdicts of ``_general_family_check``.

    Sparse families go a 2-D chunk at a time through position rows of the
    compressed A'.  When a row would hold more than one entry per 64 window
    positions, bitsets are cheaper: each family then takes one bitset pass.
    """

    def __init__(self, A: MaterializedSet, cutoff: int, s: int, inner: LargeBounds):
        self.group = A.group
        self.bits = A.bits
        self.size = A.group.size
        self.cutoff = cutoff
        self.kmax = inner.depth
        pos = bitops.positions_from_bits(A.bits, self.size)
        self.pos, self.reach, self.weight = _compress(pos, s, self.size)

    def dense(self, j: int) -> bool:
        return _dense(j * self.pos.size, self.size)

    def row_items(self, j: int) -> int:
        """int64 entries per family in the widest temporary of ``check``."""
        if self.dense(j):
            return bitops.CHUNK_ITEMS
        return max(1, j * self.pos.size, self.kmax + 2 if self.cutoff else 0)

    def check(self, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(outcome code, prefix k) for each family, a row of ``shifts``;
        k is 0 unless the family is large."""
        n, j = shifts.shape
        lo = np.maximum(shifts.max(axis=1), 0)
        hi = self.size - 1 + np.minimum(shifts.min(axis=1), 0)
        if self.pos.size == 0:
            # FA is empty, and {0} covers its complement
            return np.full(n, _LARGE), np.zeros(n, dtype=np.int64)
        if self.dense(j):
            found = [self._check_bits(F, a, b) for F, a, b in zip(shifts.tolist(), lo.tolist(), hi.tolist())]
            return np.array([o for o, _ in found]), np.array([k for _, k in found])
        return self._check_rows(shifts, lo, hi)

    def _check_rows(self, shifts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``check`` on position rows, for a nonempty A'."""
        n, j = shifts.shape
        core = hi - lo + 1
        fa = (shifts[:, :, None] + self.pos).reshape(n, j * self.pos.size)
        if j > 1:
            fa.sort(axis=1, kind="stable")
        # the runs of FA by value (a duplicate never breaks one), cut to
        # each row's core; a run outside the core keeps length 0
        brk = fa[:, 1:] - fa[:, :-1] > 1
        head = np.ones(fa.shape, dtype=bool)
        head[:, 1:] = brk
        tail = np.ones(fa.shape, dtype=bool)
        tail[:, :-1] = brk
        start = fa[head]
        runs = head.sum(axis=1)
        row = np.repeat(np.arange(n), runs)
        L = np.minimum(fa[tail], hi[row]) - np.maximum(start, lo[row]) + 1
        np.maximum(L, 0, out=L)
        seg = np.cumsum(runs) - runs
        if self.cutoff == 0:
            longest = np.maximum.reduceat(L, seg)
            outcome = np.where(longest == core, _HARD, np.where(longest <= self.kmax, _LARGE, _INCONCLUSIVE))
            return outcome, np.where(outcome == _LARGE, longest, 0)
        w = self.weight[np.searchsorted(self.reach, start, side="right") - 1]
        covered = np.add.reduceat(w * L, seg)
        # depth k certifies on [lo+k, hi]
        deepest = np.minimum(self.kmax, core - 1)
        profile = residual_profile(L, w, int(deepest.max()), row, n)
        fits = (profile <= self.cutoff) & (np.arange(profile.shape[1]) <= deepest[:, None])
        large = fits.any(axis=1)
        outcome = np.where(large, _LARGE, np.where(core - covered <= self.cutoff, _HARD, _INCONCLUSIVE))
        return outcome, np.where(large, fits.argmax(axis=1), 0)

    def _check_bits(self, F: list, lo: int, hi: int) -> tuple[int, int]:
        """``check`` of one family on bitsets.

        Bit x of E_t is set when FA holds x..x+t-1 on the core, so |E_{k+1}|
        is the residual at depth k; E_{a+b} = E_a & (E_b >> a) lets binary
        lifting find the largest t <= deepest+1 with |E_t| > cutoff, and
        the family is large at k = t when t <= deepest.
        """
        acc = 0
        for f in F:
            acc |= self.group.translate_bits(f, self.bits)[0]
        R = hi - lo + 1
        x = (acc >> lo) & bitops.mask(R)
        deepest = min(self.kmax, R - 1)
        powers = [x]  # E_1, E_2, E_4, ...
        while 2 << (len(powers) - 1) <= deepest + 1:
            e = powers[-1]
            powers.append(e & (e >> (1 << (len(powers) - 1))))
        t, et = 0, None
        for i in reversed(range(len(powers))):
            if t + (1 << i) > deepest + 1:
                continue
            cand = powers[i] if et is None else et & (powers[i] >> t)
            if cand.bit_count() > self.cutoff:
                t, et = t + (1 << i), cand
        if t <= deepest:
            return _LARGE, t
        return (_HARD if R - x.bit_count() <= self.cutoff else _INCONCLUSIVE), 0


def _run_chunks(runs: _ZRuns, pool: list, m: int):
    """(index combos, outcome codes, ks) for the families of sizes 1..m in
    enumeration order, a chunk at a time: chunks start at one family, so an
    early counterexample costs little, and double up to ``bitops.CHUNK_ITEMS``.
    The codes and ks are lists, as ``check`` gives them."""
    shifts = np.array(pool, dtype=np.int64)
    for j in range(1, m + 1):
        combos = itertools.combinations(range(len(pool)), j)
        limit = max(1, bitops.CHUNK_ITEMS // runs.row_items(j))
        rows = 1
        while True:
            chunk = itertools.chain.from_iterable(itertools.islice(combos, rows))
            block = np.fromiter(chunk, dtype=np.int64).reshape(-1, j)
            if block.shape[0] == 0:
                break
            outcome, ks = runs.check(shifts[block])
            yield block, outcome.tolist(), ks.tolist()
            rows = min(2 * rows, limit)


def _general_chunks(A: MaterializedSet, ideal: Ideal, pool: list, bounds: SmallBounds):
    """``_run_chunks`` one family at a time, by ``_general_family_check``."""
    for j in range(1, bounds.m + 1):
        for combo in itertools.combinations(range(len(pool)), j):
            outcome, k = _general_family_check(A, ideal, [pool[i] for i in combo], bounds.inner)
            yield [combo], [_OUTCOMES.index(outcome)], [k]


def _general_family_check(
    A: MaterializedSet,
    ideal: Ideal,
    F: Sequence,
    inner: LargeBounds,
) -> tuple[str, int]:
    group = A.group
    acc = 0
    for f in F:
        tb, _ = group.translate_bits(f, A.bits)
        acc |= tb
    region = group.exact_core_mask(list(F))
    complement_bits = group.full_mask & ~acc
    complement = MaterializedSet(group, complement_bits)
    try:
        witness = is_large(complement, ideal, inner, region_mask=region)
        return ("large", witness.prefix_k if witness.prefix_k is not None else len(witness.family))
    except NotFoundAtScale:
        if ideal.member(MaterializedSet(group, complement_bits & region)):
            return ("hard", 0)
        return ("inconclusive", 0)


def is_ideal_small(
    A: MaterializedSet,
    ideal: Ideal,
    bounds: SmallBounds = SmallBounds(),
) -> SmallnessEvidence:
    """Exhaust families F (|F| <= m, entries from the +/-s pool) checking that
    the complement of FA stays I-large; see the module docstring for verdict
    semantics and enumeration order."""
    group = A.group
    if group.modulus is not None:
        return _zmod_smallness(A, ideal, bounds)
    if group.margin is not None and bounds.reach > group.margin:
        raise RangeExceedsMargin(
            f"smallness bounds need shifts up to {bounds.reach}, margin is {group.margin}"
        )
    pool = group.family_pool(bounds.s)
    total = sum(math.comb(len(pool), j) for j in range(1, bounds.m + 1))
    if total > bounds.cap:
        raise BudgetExceeded(
            f"{total} families exceed the enumeration cap {bounds.cap}"
        )
    # the usage errors of the first family's check, after the budget's
    cutoff = ideal.cardinality_cutoff(group) if group.margin is not None else None
    if cutoff is not None:
        chunks = _run_chunks(_ZRuns(A, cutoff, bounds.s, bounds.inner), pool, bounds.m)
    else:
        chunks = _general_chunks(A, ideal, pool, bounds)

    def family(combo) -> list:
        F = [pool[i] for i in combo]
        return sorted(F) if isinstance(F[0], int) else F

    tested = 0
    worst = 0
    first_inconclusive: Optional[list] = None
    # list operations, not numpy: the general path yields one family a chunk
    for combos, outcome, ks in chunks:
        stop = outcome.index(_HARD) if _HARD in outcome else len(outcome)
        seen = outcome[:stop]
        worst = max(worst, max(ks[:stop], default=0))  # k is 0 unless large
        if first_inconclusive is None and _INCONCLUSIVE in seen:
            first_inconclusive = family(combos[seen.index(_INCONCLUSIVE)])
        tested += stop
        if stop < len(outcome):
            return SmallnessEvidence(
                verdict="not-small",
                counterexample=family(combos[stop]),
                m=bounds.m,
                s=bounds.s,
                inner=bounds.inner,
                families_tested=tested + 1,
                worst_prefix=worst,
                ideal=ideal.descriptor(),
            )
    verdict = "small-at-scale" if first_inconclusive is None else "inconclusive"
    return SmallnessEvidence(
        verdict=verdict,
        counterexample=None,
        m=bounds.m,
        s=bounds.s,
        inner=bounds.inner,
        families_tested=tested,
        worst_prefix=worst,
        ideal=ideal.descriptor(),
        first_inconclusive=first_inconclusive,
    )


def is_small(A: MaterializedSet, bounds: SmallBounds = SmallBounds()) -> SmallnessEvidence:
    return is_ideal_small(A, TrivialIdeal(), bounds)
