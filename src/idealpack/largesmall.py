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

For sets on a Z window with the trivial ideal, the check runs on sorted
position arrays instead of bitsets (identical semantics, tested as such): the
complement of FA fails to be coverable by {0..k} exactly when FA contains a
run of more than k consecutive integers meeting the evaluation core, so the
minimal prefix is one plus the longest relevant run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import bitops, words
from .errors import (
    BudgetExceeded,
    InvalidParam,
    KindMismatch,
    NotFoundAtScale,
    RangeExceedsMargin,
)
from .groups import (
    CayleyGroup,
    FreeGroup2,
    Group,
    MaterializedSet,
    ZModGroup,
    ZWindowGroup,
)
from .ideals import Ideal, TrivialIdeal
from .packing import _CACHE_BYTE_LIMIT

__all__ = [
    "LargeBounds",
    "SmallBounds",
    "LargenessWitness",
    "SmallnessEvidence",
    "gap_profile",
    "is_large",
    "is_small",
    "is_ideal_small",
    "spiral_shifts",
]


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


@dataclass
class LargenessWitness:
    family: list
    residual_size: int
    ideal: dict
    bounds: LargeBounds
    prefix_k: Optional[int] = None

    def payload(self) -> dict:
        return {
            "family": [f if isinstance(f, (int, str)) else str(f) for f in self.family],
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
            "counterexample": self.counterexample,
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
            out["first_inconclusive"] = self.first_inconclusive
        if self.note:
            out["note"] = self.note
        return out


def spiral_shifts(s: int) -> list[int]:
    """0, 1, -1, 2, -2, ..., s, -s — the documented enumeration order."""
    out = [0]
    for v in range(1, s + 1):
        out.extend((v, -v))
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
    if isinstance(group, ZWindowGroup):
        pos = bitops.positions_from_bits(A.bits & group.core_mask(), group.size)
        if pos.size == 0:
            return None
        if pos.size == 1:
            return 0
        return int(np.diff(pos).max())
    if isinstance(group, ZModGroup):
        pos = bitops.positions_from_bits(A.bits, group.size)
        if pos.size == 0:
            return None
        if pos.size == 1:
            return group.size
        diffs = np.diff(pos)
        wrap = int(pos[0]) + group.size - int(pos[-1])
        return max(int(diffs.max()), wrap)
    raise KindMismatch(f"gap_profile is integer-specific, not for kind {group.kind!r}")


# --------------------------------------------------------------------------
# largeness
# --------------------------------------------------------------------------

def _region_default(group: Group) -> int:
    return group.full_mask


def _prefix_large(
    A: MaterializedSet,
    ideal: Ideal,
    bounds: LargeBounds,
    region_mask: int,
) -> LargenessWitness:
    """Minimal-prefix search on the integer kinds: try F = {0..k}, smallest k first."""
    group = A.group
    kmax = min(bounds.shift_range, bounds.max_f - 1)
    if isinstance(group, ZWindowGroup) and kmax > group.window.margin:
        raise RangeExceedsMargin(
            f"prefix depth {kmax} exceeds the declared margin {group.window.margin}"
        )
    acc = 0
    # x is certifiable at prefix depth k only when the whole covering window
    # [x-k, x] sits inside the trusted region, so the region erodes as k grows
    eroded = region_mask
    best_size: Optional[int] = None
    best_k = 0
    for k in range(kmax + 1):
        tb, _ = group.translate_bits(k, A.bits)
        acc |= tb
        if k > 0:
            eroded &= group.translate_bits(k, region_mask)[0]
        if eroded == 0:
            break  # nothing left to certify on; deeper prefixes only erode more
        residual_bits = eroded & ~acc
        size = residual_bits.bit_count()
        if ideal.member(MaterializedSet(group, residual_bits)):
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


def _greedy_large(
    A: MaterializedSet,
    ideal: Ideal,
    bounds: LargeBounds,
    region_mask: int,
) -> LargenessWitness:
    """Greedy cover on table groups and word balls."""
    group = A.group
    if isinstance(group, CayleyGroup):
        candidates = list(range(group.size))
        rmask = region_mask
    elif isinstance(group, FreeGroup2):
        depth = min(bounds.shift_range, group.depth)
        candidates = list(words.enumerate_ball(depth))
        rmask = region_mask & group.exact_core_mask([candidates[-1]])
    else:
        raise KindMismatch(f"no greedy cover for kind {group.kind!r}")

    # translate only the trusted part of A, so coverage never leans on
    # positions whose membership is a truncation artifact
    base_bits = A.bits & region_mask
    # the base never changes, so each candidate's translate is worked out
    # once per call, when the cache fits the budget ConflictOracle's does
    est = (group.size // 8 + 1) * len(candidates)
    cache: Optional[dict] = {} if est <= _CACHE_BYTE_LIMIT else None
    family: list = []
    acc = 0
    best_size: Optional[int] = None
    best_family: list = []
    for _ in range(bounds.max_f):
        residual_bits = rmask & ~acc
        size = residual_bits.bit_count()
        if ideal.member(MaterializedSet(group, residual_bits)):
            return LargenessWitness(
                family=list(family),
                residual_size=size,
                ideal=ideal.descriptor(),
                bounds=bounds,
            )
        if best_size is None or size < best_size:
            best_size, best_family = size, list(family)
        chosen = None
        chosen_bits = 0
        chosen_gain = 0
        for cand in candidates:
            tb = cache.get(cand) if cache is not None else None
            if tb is None:
                tb, _ = group.translate_bits(cand, base_bits)
                if cache is not None:
                    cache[cand] = tb
            gain = (tb & residual_bits).bit_count()
            if gain > chosen_gain:
                chosen, chosen_bits, chosen_gain = cand, tb, gain
        if chosen is None:
            break
        family.append(chosen)
        acc |= chosen_bits
    residual_bits = rmask & ~acc
    size = residual_bits.bit_count()
    if ideal.member(MaterializedSet(group, residual_bits)):
        return LargenessWitness(
            family=list(family),
            residual_size=size,
            ideal=ideal.descriptor(),
            bounds=bounds,
        )
    if best_size is None or size < best_size:
        best_size, best_family = size, list(family)
    raise NotFoundAtScale(
        f"no cover with |F| <= {bounds.max_f}",
        best_family=best_family,
        best_residual_size=best_size,
    )


def is_large(
    A: MaterializedSet,
    ideal: Optional[Ideal] = None,
    bounds: LargeBounds = LargeBounds(),
    region_mask: Optional[int] = None,
) -> LargenessWitness:
    """Find F with FA = G mod the ideal on the core; NotFoundAtScale otherwise."""
    ideal = ideal if ideal is not None else TrivialIdeal()
    region = region_mask if region_mask is not None else _region_default(A.group)
    if isinstance(A.group, (ZWindowGroup, ZModGroup)):
        return _prefix_large(A, ideal, bounds, region)
    return _greedy_large(A, ideal, bounds, region)


# --------------------------------------------------------------------------
# smallness
# --------------------------------------------------------------------------

def _family_pool(group: Group, s: int) -> list:
    if isinstance(group, ZWindowGroup):
        return spiral_shifts(s)
    if isinstance(group, FreeGroup2):
        depth = min(s, group.depth)
        return list(words.enumerate_ball(depth))
    if isinstance(group, CayleyGroup):
        return list(range(group.size))
    raise KindMismatch(f"no smallness enumeration for kind {group.kind!r}")


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


class _FastZChecker:
    """Position-array evaluation of 'complement of FA is large' for the
    trivial ideal on a Z window; semantics mirror the bitset path exactly."""

    def __init__(self, A: MaterializedSet, inner: LargeBounds):
        group = A.group
        self.size = group.size
        self.positions = bitops.positions_from_bits(A.bits, self.size)
        self.kmax = min(inner.shift_range, inner.max_f - 1)

    def check(self, F: Sequence[int]) -> tuple[str, int]:
        """('large', k) | ('hard', 0) | ('inconclusive', 0) for the family F."""
        size = self.size
        region_lo = max(0, max(F))
        region_hi = size - 1 + min(0, min(F))
        if region_hi < region_lo:
            # no exact core at all: nothing can be certified
            return ("inconclusive", 0)
        if len(F) == 1:
            fa = self.positions + F[0]  # a single translate is already sorted and distinct
        else:
            fa = bitops.sorted_unique(np.concatenate([self.positions + f for f in F]))
        win_lo, win_hi, core_lo, core_hi = np.searchsorted(fa, (0, size, region_lo, region_hi + 1))
        if win_lo == win_hi:
            return ("large", 0)
        core = fa[core_lo:core_hi]
        if core.size == region_hi - region_lo + 1:
            # FA swallows the whole core: its complement is in the trivial
            # ideal, hence provably never large
            return ("hard", 0)
        # a prefix {0..k} covers the complement on the core exactly when k
        # reaches the longest run of FA inside the core
        run_ends = np.flatnonzero(np.diff(core) > 1)
        kstar = int(np.diff(run_ends, prepend=-1, append=core.size - 1).max())
        if kstar <= self.kmax:
            return ("large", kstar)
        return ("inconclusive", 0)


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
    if isinstance(group, ZModGroup):
        return _zmod_smallness(A, ideal, bounds)
    if isinstance(group, ZWindowGroup):
        needed = max(bounds.s, min(bounds.inner.shift_range, bounds.inner.max_f - 1))
        if needed > group.window.margin:
            raise RangeExceedsMargin(
                f"smallness bounds need shifts up to {needed}, margin is {group.window.margin}"
            )
    pool = _family_pool(group, bounds.s)
    total = sum(_ncomb(len(pool), j) for j in range(1, bounds.m + 1))
    if total > bounds.cap:
        raise BudgetExceeded(
            f"{total} families exceed the enumeration cap {bounds.cap}"
        )
    fast = isinstance(group, ZWindowGroup) and ideal.kind == "trivial"
    checker = _FastZChecker(A, bounds.inner) if fast else None

    tested = 0
    worst = 0
    first_inconclusive: Optional[list] = None
    for size in range(1, bounds.m + 1):
        for combo in itertools.combinations(range(len(pool)), size):
            F = [pool[i] for i in combo]
            tested += 1
            if checker is not None:
                outcome, k = checker.check(F)
            else:
                outcome, k = _general_family_check(A, ideal, F, bounds.inner)
            if outcome == "large":
                worst = max(worst, k)
            elif outcome == "hard":
                return SmallnessEvidence(
                    verdict="not-small",
                    counterexample=sorted(F) if isinstance(F[0], int) else list(F),
                    m=bounds.m,
                    s=bounds.s,
                    inner=bounds.inner,
                    families_tested=tested,
                    worst_prefix=worst,
                    ideal=ideal.descriptor(),
                )
            else:
                if first_inconclusive is None:
                    first_inconclusive = sorted(F) if isinstance(F[0], int) else list(F)
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


def _ncomb(n: int, k: int) -> int:
    import math

    return math.comb(n, k)
