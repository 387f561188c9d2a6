"""Følner sets, finite-stage invariant measures, and the counting bound.

For a finite test set F in Z and a tolerance index n, the interval
E = [0, L) with L = 2*n*max|x| + 1 satisfies |E symdiff (E + x)| / |E| =
2|x|/L < 1/n for every x in F.  Re-basing E at a translate y that misses a
given set A produces a finite-stage measure

    mu(B) = |B intersect [y, y+L)| / L

with mu(A) = 0 exactly; the invariance defect |mu(B) - mu(B + x)| is bounded
by the symmetric-difference ratio.  On finite groups the whole group is a
Følner set and mu is the uniform measure.  All arithmetic is exact rational:
the inequalities being certified (2/21 < 1/10 and friends) live too close to
their bounds for floats.

These are finite stages only.  A stage with mu(A) > 0 refutes "A is null for
every invariant measure" at that stage's resolution; no finite computation
confirms absolute nullity, and reports say so.

The counting bound (``counting_bound_check``): if every n-subset of a
translator family B has measure-null intersection of translates of A, then
mu(A) <= n/|B| — exact on Z_N with uniform density, with a boundary
tolerance of 2*maxshift/window on Z windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import bitops
from .errors import (
    AvoidanceNotFound,
    InvalidParam,
    PreconditionFailed,
    ShiftOutOfBudget,
)
from .groups import Group, MaterializedSet
from .ideals import max_window_count
from .reports import show_elements

__all__ = [
    "FolnerCertificate",
    "FolnerMeasure",
    "DensityProfile",
    "CountingBoundReport",
    "folner_set",
    "avoid_translate",
    "measure_build",
    "upper_density",
    "counting_bound_check",
]


@dataclass(frozen=True)
class FolnerCertificate:
    """Finite Følner set with verified per-element symmetric-difference ratios."""

    group: Group
    test_set: tuple
    n: int
    length: int  # |F_d|; the interval [0, L) on Z, the whole group otherwise
    whole_group: bool
    ratios: dict = field(hash=False)

    def payload(self) -> dict:
        return {
            "group": self.group.descriptor(),
            "F": show_elements(self.test_set),
            "n": self.n,
            "L": self.length,
            "whole_group": self.whole_group,
            "ratios": {str(x): str(r) for x, r in self.ratios.items()},
        }


def folner_set(test_set: Sequence, n: int, group: Group) -> FolnerCertificate:
    """Interval [0, L), L = 2*n*max|x| + 1, on Z; the whole group when finite."""
    if n < 1:
        raise InvalidParam(f"tolerance index must be >= 1, got {n}")
    if group.depth is not None:
        raise InvalidParam("the free group is not amenable: it has no Følner sets")
    F = tuple(test_set)
    if group.translation_is_exact:  # a finite group: translates of G are G
        ratios = {}
        full = group.full_mask
        for x in F:
            shifted = group.translate_bits(x, full)[0]
            sym = (full & ~shifted) | (shifted & ~full)
            ratios[x] = Fraction(sym.bit_count(), group.size)
        cert = FolnerCertificate(group, F, n, group.size, True, ratios)
    else:
        if not all(isinstance(x, int) for x in F):
            raise InvalidParam("Z test sets must consist of integers")
        r = max((abs(x) for x in F), default=0)
        L = 2 * n * r + 1
        # |[0,L) symdiff [x, x+L)| = 2*min(|x|, L): each endpoint sheds |x|
        ratios = {x: Fraction(2 * min(abs(x), L), L) for x in F}
        cert = FolnerCertificate(group, F, n, L, False, ratios)
    bound = Fraction(1, n)
    for x, ratio in cert.ratios.items():
        if ratio >= bound:
            raise InvalidParam(
                f"Følner ratio {ratio} for element {x!r} is not below 1/{n}"
            )
    return cert


def avoid_translate(
    cert: FolnerCertificate,
    A: MaterializedSet,
    bound: Optional[int] = None,
) -> int:
    """Least |y| (ties positive) with (F_d + y) disjoint from A; the translate
    must lie inside the window, which one-sided windows enforce naturally."""
    group = cert.group
    if A.group != group:
        raise InvalidParam("set and certificate live on different groups")
    if cert.whole_group:
        # F_d = G, so (F_d)y = G meets every nonempty set
        if A.is_empty():
            return 0
        raise AvoidanceNotFound(group.size)
    lo, hi = group.span
    L = cert.length
    if L > group.size:
        raise AvoidanceNotFound(0)
    if bound is None:
        bound = max(abs(lo), abs(hi))
    reach = max(bound, 0)
    y_lo, y_hi = max(lo, -reach), min(hi - L + 1, reach)
    # a translate [y, y+L) misses A exactly when y lies in [p+1, q-L] for
    # consecutive elements p < q; y_lo - 1 and y_hi + L stand in for the
    # elements beyond the candidates' reach
    pos = bitops.positions_from_bits(A.bits, group.size) + lo
    near = np.searchsorted(pos, (y_lo, y_hi + L))
    edges = np.concatenate(([y_lo - 1], pos[near[0] : near[1]], [y_hi + L]))
    gaps = np.flatnonzero(np.diff(edges) > L)
    if gaps.size == 0:
        raise AvoidanceNotFound(bound)
    # each gap's y nearest 0; the spiral order 0, 1, -1, 2, -2, ... takes
    # the least |y| among them, the positive one on a tie
    ys = np.clip(0, edges[gaps] + 1, edges[gaps + 1] - L)
    return int(ys[np.argmin(2 * np.abs(ys) + (ys < 0))])


@dataclass
class FolnerMeasure:
    """Finite-stage invariant measure mu(B) = |B ∩ (F_d + y)| / |F_d|."""

    cert: FolnerCertificate
    y: int
    avoided: Optional[dict] = None  # descriptor of the set certified null

    def __post_init__(self):
        group = self.cert.group
        if self.cert.whole_group:
            self._region = group.full_mask
        else:
            lo_idx = self.y - group.span[0]
            self._region = bitops.mask(self.cert.length) << lo_idx

    @property
    def group(self) -> Group:
        return self.cert.group

    def mu(self, B: MaterializedSet) -> Fraction:
        if B.group != self.group:
            raise InvalidParam("set lives on a different group than the measure")
        return Fraction((B.bits & self._region).bit_count(), self.cert.length)

    def _mu_translated(self, B: MaterializedSet, x) -> Fraction:
        """mu(xB), counted as B against the translated evaluation region."""
        group = self.group
        if self.cert.whole_group:
            shifted = group.translate_bits(x, B.bits)[0]
            return Fraction((shifted & self._region).bit_count(), self.cert.length)
        if abs(x) > group.margin:
            raise ShiftOutOfBudget(f"shift {x} exceeds window margin {group.margin}")
        lo, hi = group.span
        start = self.y - x
        if start < lo or start + self.cert.length - 1 > hi:
            raise ShiftOutOfBudget(
                f"shifted evaluation interval [{start}, {start + self.cert.length}) "
                f"leaves the window"
            )
        region = bitops.mask(self.cert.length) << (start - lo)
        return Fraction((B.bits & region).bit_count(), self.cert.length)

    def invariance_defect(self, x, B: MaterializedSet) -> Fraction:
        return abs(self.mu(B) - self._mu_translated(B, x))

    def payload(self) -> dict:
        out = {
            "certificate": self.cert.payload(),
            "y": self.y,
        }
        if self.avoided is not None:
            out["avoided"] = self.avoided
            out["note"] = (
                "finite-stage evidence: mu is one stage, not the full "
                "invariant-measure intersection"
            )
        return out


def measure_build(
    test_set: Sequence,
    n: int,
    A: MaterializedSet,
    bound: Optional[int] = None,
    avoided_descriptor: Optional[dict] = None,
) -> FolnerMeasure:
    """Certificate + avoiding translate + evaluation functional, mu(A) = 0."""
    cert = folner_set(test_set, n, A.group)
    y = avoid_translate(cert, A, bound)
    m = FolnerMeasure(cert, y, avoided=avoided_descriptor or {"cardinality": A.cardinality()})
    assert m.mu(A) == 0
    return m


@dataclass(frozen=True)
class DensityProfile:
    """Max sliding-window densities per schedule length — the finite proxy
    for the supremum of mu(A) over invariant measures."""

    group: Group
    schedule: tuple
    densities: tuple  # (length, Fraction, argmax position)

    def payload(self) -> dict:
        return {
            "group": self.group.descriptor(),
            "schedule": list(self.schedule),
            "densities": [
                {"L": L, "density": str(d), "at": p} for (L, d, p) in self.densities
            ],
            "proxy-for-N": True,
        }


def upper_density(A: MaterializedSet, schedule: Sequence[int]) -> DensityProfile:
    rows = []
    for L in schedule:
        count, at = max_window_count(A, L)
        rows.append((L, Fraction(count, L), at))
    return DensityProfile(A.group, tuple(schedule), tuple(rows))


@dataclass
class CountingBoundReport:
    n: int
    family: list
    bound: Fraction
    value: Fraction
    tolerance: Fraction
    holds: bool
    subsets_checked: int
    uniform: bool

    def payload(self) -> dict:
        return {
            "n": self.n,
            "family": show_elements(self.family),
            "bound": str(self.bound),
            "value": str(self.value),
            "tolerance": str(self.tolerance),
            "holds": self.holds,
            "subsets_checked": self.subsets_checked,
            "density": "uniform" if self.uniform else "folner-stage",
        }


def counting_bound_check(
    A: MaterializedSet,
    family: Sequence,
    n: int,
    measure: Optional[FolnerMeasure] = None,
) -> CountingBoundReport:
    """Verify the family is n-disjoint modulo the measure's null sets, then
    check mu(A) <= n/|family| (plus boundary tolerance on Z windows).  Only
    the n-subsets whose translates meet (``bitops.meeting_subsets``) can fail."""
    if n < 2:
        raise InvalidParam(f"counting bound needs n >= 2, got {n}")
    fam = list(family)
    if len(set(fam)) != len(fam) or not fam:
        raise InvalidParam("family must be nonempty with distinct translators")
    group = A.group
    if measure is not None and measure.group != group:
        raise InvalidParam("measure lives on a different group than the set")

    # every translate first, so that a shift out of the window's budget is
    # reported before any intersection
    translates = [group.translate_bits(c, A.bits)[0] for c in fam]
    for combo, inter in bitops.meeting_subsets(len(fam), n, translates.__getitem__):
        # under the uniform density only the empty set is null
        if measure is None or measure.mu(MaterializedSet(group, inter)) != 0:
            raise PreconditionFailed(
                f"translates by {[fam[i] for i in combo]} have non-null intersection; "
                f"the family is not {n}-disjoint"
            )

    if measure is not None:
        value = measure.mu(A)
        uniform = False
    else:
        value = Fraction(A.cardinality(), group.size)
        uniform = True
    if group.margin is not None:
        maxshift = max(abs(int(c)) for c in fam)
        tolerance = Fraction(2 * maxshift, group.size)
    else:
        tolerance = Fraction(0)
    bound = Fraction(n, len(fam))
    return CountingBoundReport(
        n=n,
        family=fam,
        bound=bound,
        value=value,
        tolerance=tolerance,
        holds=value <= bound + tolerance,
        subsets_checked=math.comb(len(fam), n),
        uniform=uniform,
    )
