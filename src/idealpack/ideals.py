"""Translation-invariant ideals as decision procedures.

Four base kinds plus a staged wrapper:

* ``trivial`` — contains exactly the empty set.
* ``finite-sets`` — judged symbolically when the set's expression is
  available ("unknown" counts as *not* a member); for bare bitsets (such as
  intersections produced mid-search, which have no expression) a
  popcount-at-most-cutoff proxy stands in.
* ``density-zero`` — the finite proxy for upper-Banach-density zero: member
  iff the densest length-L window at the largest scheduled L has density at
  most the threshold.  Every report touching this kind carries the literal
  flag ``"proxy-for-N": true``.
* ``generated`` — member iff the set is covered, up to a small finite slack,
  by at most E runtime translates of the generator expressions; the cover is
  found greedily, so membership claims are always certified by an explicit
  cover while rejections are at-scale only.
* ``StageIdeal`` — a base ideal enlarged by explicitly admitted bitsets
  (used by the completion operators): X is a member iff X minus the admitted
  union is a member of the base.

Membership for sets produced by translate-intersections is decided on the
evaluation core (callers restrict before asking), which is the documented
at-scale semantics for every kind.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import bitops
from .errors import InvalidParam, KindMismatch, ScaleMismatch
from .groups import Group, MaterializedSet, spiral_shifts
from .setexpr import SetExpr, Shift, materialize, print_set_expr, symbolic_finiteness

__all__ = [
    "Ideal",
    "TrivialIdeal",
    "FiniteSetsIdeal",
    "DensityZeroIdeal",
    "GeneratedIdeal",
    "StageIdeal",
    "make_ideal",
    "max_window_count",
]


def max_window_count(A: MaterializedSet, length: int) -> tuple[int, int]:
    """(max |A ∩ [p, p+length)|, first argmax p-index) over the universe.

    On Z-mod-N the windows wrap cyclically.
    """
    group = A.group
    if length < 1:
        raise InvalidParam("window length must be >= 1")
    if group.span is None:
        raise KindMismatch(f"window densities are not defined on kind {group.kind!r}")
    n = group.size
    if length > n:
        size_name = "window size" if group.modulus is None else "modulus"
        raise InvalidParam(f"schedule length {length} exceeds {size_name} {n}")
    arr = bitops.bit_array(A.bits, n)
    if group.modulus is not None:
        arr = np.concatenate((arr, arr))  # windows that run past N - 1 wrap to 0
    cs = np.concatenate(([0], np.cumsum(arr, dtype=np.int64)))
    # the windows starting at p = 0 .. n-1 (at most n - length + 1 on a window)
    counts = (cs[length:] - cs[:-length])[:n]
    p = int(np.argmax(counts))
    return int(counts[p]), p


class Ideal:
    """Decision procedure interface; concrete kinds override :meth:`member`."""

    kind: str = "?"

    def member(self, A: MaterializedSet, expr: Optional[SetExpr] = None) -> bool:
        raise NotImplementedError

    def descriptor(self) -> dict:
        return {"kind": self.kind}

    def cardinality_cutoff(self, group: Group) -> Optional[int]:
        """c when a bare bitset X on ``group`` is a member exactly when
        |X| <= c, after raising the usage errors ``member`` raises on that
        carrier; None when membership depends on more than the count."""
        return None


class TrivialIdeal(Ideal):
    """I0 = {empty set}."""

    kind = "trivial"

    def member(self, A: MaterializedSet, expr: Optional[SetExpr] = None) -> bool:
        return A.bits == 0

    def cardinality_cutoff(self, group: Group) -> int:
        return 0


class FiniteSetsIdeal(Ideal):
    """The ideal of finite sets, at scale.

    With an expression in hand the symbolic judge decides (sound, not
    complete: "unknown" is not a member).  Without one — every intersection
    computed mid-search is a bare bitset — a set counts as finite when its
    cardinality is at most ``cutoff``.  The cutoff is the honest price of
    deciding finiteness of a window materialization; it is recorded in the
    descriptor and must stay below the ambient universe size.
    """

    kind = "finite-sets"

    def __init__(self, cutoff: int = 16):
        if cutoff < 1:
            raise InvalidParam("finite-sets cutoff must be >= 1")
        self.cutoff = cutoff

    def member(self, A: MaterializedSet, expr: Optional[SetExpr] = None) -> bool:
        cutoff = self.cardinality_cutoff(A.group)
        if expr is not None:
            return symbolic_finiteness(expr) == "finite"
        return A.cardinality() <= cutoff

    def cardinality_cutoff(self, group: Group) -> int:
        if group.size <= self.cutoff:
            raise InvalidParam(
                f"cutoff {self.cutoff} is not below the universe size {group.size}; "
                "the ideal would not be proper"
            )
        if group.translation_is_exact:  # a finite group: every set is finite
            raise InvalidParam("finite-sets is only proper on infinite group kinds")
        return self.cutoff

    def descriptor(self) -> dict:
        return {"kind": self.kind, "cutoff": self.cutoff}


class DensityZeroIdeal(Ideal):
    """Finite proxy for the ideal of upper-Banach-density-zero sets.

    Membership looks only at the largest schedule length (the shorter ones
    exist for profile reports): max_p |A ∩ [p, p+L)| / L <= threshold.
    This is NOT exactly union-closed — the documented guarantee is closure up
    to threshold doubling — and it is a proxy for the paper-side ideal N,
    flagged as such in every report.
    """

    kind = "density-zero"

    def __init__(self, lengths: Sequence[int] = (64, 256, 1024), threshold=Fraction(1, 50)):
        ls = sorted(set(int(x) for x in lengths))
        if not ls or ls[0] < 1:
            raise InvalidParam("schedule lengths must be positive")
        thr = Fraction(threshold) if not isinstance(threshold, float) else Fraction(str(threshold))
        if not (0 <= thr < 1):
            raise InvalidParam("threshold must lie in [0, 1)")
        self.lengths = ls
        self.threshold = thr

    def member(self, A: MaterializedSet, expr: Optional[SetExpr] = None) -> bool:
        top = self.lengths[-1]
        count, _ = max_window_count(A, top)
        return Fraction(count, top) <= self.threshold

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "lengths": list(self.lengths),
            "threshold": str(self.threshold),
            "proxy-for-N": True,
        }


class GeneratedIdeal(Ideal):
    """Ideal generated by expression generators, tested by greedy cover.

    A is a member iff after at most ``e_bound`` rounds of picking the
    generator translate (pointwise-exact, shifts in [-shift_range,
    shift_range]) covering the most of what remains, the leftover has at most
    ``slack`` elements (the finite part).  A "true" answer is certified by
    the cover found; a "false" answer is at-scale (greedy, bounded shifts).
    """

    kind = "generated"

    def __init__(
        self,
        generators: Sequence[SetExpr],
        e_bound: int = 4,
        shift_range: int = 32,
        slack: int = 16,
    ):
        if not generators:
            raise InvalidParam("generated ideal needs at least one generator")
        if e_bound < 1 or shift_range < 0 or slack < 0:
            raise InvalidParam("e_bound >= 1, shift_range >= 0, slack >= 0 required")
        self.generators = tuple(generators)
        self.e_bound = e_bound
        self.shift_range = shift_range
        self.slack = slack
        self._translate_cache: dict = {}

    def _translates(self, group: Group):
        key = group
        cached = self._translate_cache.get(key)
        if cached is None:
            cached = []
            for gi, gen in enumerate(self.generators):
                for s in spiral_shifts(self.shift_range):
                    bits = materialize(Shift(gen, s), group).bits
                    cached.append((gi, s, bits))
            self._translate_cache[key] = cached
        return cached

    def member(self, A: MaterializedSet, expr: Optional[SetExpr] = None) -> bool:
        return self.cover(A) is not None

    def cover(self, A: MaterializedSet):
        """The greedy cover as [(generator index, shift)], or None."""
        translates = self._translates(A.group)
        remaining = A.bits
        chosen: list[tuple[int, int]] = []
        for _ in range(self.e_bound):
            if remaining.bit_count() <= self.slack:
                break
            best = None
            best_gain = 0
            for gi, s, bits in translates:
                gain = (remaining & bits).bit_count()
                if gain > best_gain:
                    best, best_gain = (gi, s, bits), gain
            if best is None:
                break
            chosen.append((best[0], best[1]))
            remaining &= ~best[2]
        if remaining.bit_count() <= self.slack:
            return chosen
        return None

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "generators": [print_set_expr(g) for g in self.generators],
            "e_bound": self.e_bound,
            "shift_range": self.shift_range,
            "slack": self.slack,
        }


class StageIdeal(Ideal):
    """A base ideal enlarged by admitted member bitsets (completion stages).

    member(X) iff X minus the union of admitted sets is a member of the
    base — extensionally the ideal generated by base ∪ admitted, at window
    scale.
    """

    kind = "stage"

    def __init__(self, base: Ideal, group: Group, admitted_bits: Sequence[int] = ()):
        self.base = base
        self.group = group
        self.union_bits = 0
        self.count = 0
        for b in admitted_bits:
            self.union_bits |= b
            self.count += 1

    def member(self, A: MaterializedSet, expr: Optional[SetExpr] = None) -> bool:
        if A.group != self.group:
            raise ScaleMismatch("set and stage ideal live on different groups")
        reduced = MaterializedSet(self.group, A.bits & ~self.union_bits, A.tally)
        # the expression describes A, not A-minus-admitted; drop it
        return self.base.member(reduced)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "base": self.base.descriptor(), "admitted": self.count}


def make_ideal(kind: str, **params) -> Ideal:
    if kind == "trivial":
        return TrivialIdeal()
    if kind == "finite-sets":
        return FiniteSetsIdeal(**params)
    if kind == "density-zero":
        return DensityZeroIdeal(**params)
    if kind == "generated":
        return GeneratedIdeal(**params)
    raise InvalidParam(f"unknown ideal kind {kind!r}")
