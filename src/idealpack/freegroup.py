"""The two-piece decomposition of the free group and disjointness checking.

F2 splits as A = words starting with a or a^-1, B = the rest (including the
identity).  Both pieces admit arbitrarily large families of pairwise
disjoint translates: b^k A are distinguished by their maximal leading b-run,
and for B we ship the constructed family {b^k a : 0 <= k <= 5} — translates
(b^k a)B start with exactly k b's followed by a, so distinct k never
collide.  The shipped B family is this tool's construction, not taken from
anywhere, and reports label it as such.

Verification runs on the word ball of radius ``depth``.  A product t^-1 w
with |t| <= maxlen and |w| <= depth - maxlen never leaves the ball, so
membership of w in t*base is decided exactly on that core: translate
intersections are checked with zero truncation, the word-ball analogue of
the integer-window core region.
"""

from __future__ import annotations

import functools
import math
import re
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import bitops, words
from .errors import InvalidParam
from .groups import FreeGroup2, MaterializedSet
from .reports import show_elements
from .setexpr import Combine, Prim, materialize

__all__ = [
    "DisjointnessReport",
    "f2_partition",
    "family_disjoint",
    "shipped_b_family",
    "parse_translators",
]


@dataclass
class DisjointnessReport:
    base: dict
    translators: list
    n: int
    depth: int
    core_size: int
    disjoint: bool
    violating: Optional[list]  # lexicographically least violating n-subset
    witness: Optional[str]  # shortlex-least core word in its intersection
    subsets_checked: int
    truncation_tally: int
    notes: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def payload(self) -> dict:
        out = {
            "base": self.base,
            "translators": show_elements(self.translators),
            "n": self.n,
            "depth": self.depth,
            "core_size": self.core_size,
            "disjoint": self.disjoint,
            "subsets_checked": self.subsets_checked,
            "truncation_tally": self.truncation_tally,
            "elapsed_ms": self.stats.get("elapsed_ms", 0),
        }
        if not self.disjoint:
            out["violating"] = show_elements(self.violating)
            out["witness"] = show_elements([self.witness])[0]
        if self.notes:
            out["notes"] = self.notes
        return out


def f2_partition(depth: int) -> tuple[FreeGroup2, MaterializedSet, MaterializedSet]:
    """(group, A, B): A = words starting a or a^-1, B = complement with e."""
    if depth < 1:
        raise InvalidParam(f"partition depth must be >= 1, got {depth}")
    group = FreeGroup2(depth)
    a_side = materialize(
        Combine("union", (Prim("f2start", ("a",)), Prim("f2start", ("A",)))), group
    )
    b_side = a_side.compl()
    return group, a_side, b_side


def shipped_b_family() -> list[str]:
    """{b^k a : 0 <= k <= 5}: (b^k a)B starts with exactly k b's then a."""
    return ["b" * k + "a" for k in range(6)]


def family_disjoint(
    base: MaterializedSet,
    translators: Sequence[str],
    n: int,
    base_label: Optional[str] = None,
) -> DisjointnessReport:
    """The first n-subset of translators, in combinations order, whose
    translates meet (``bitops.meeting_subsets``), each translate built when
    the walk first reaches it; ``subsets_checked`` is its place in that order.

    Exact on the core ball of radius depth - max translator length; the
    group's ``check_translators`` raises LengthBudgetTooSmall when that
    leaves no core at all.
    """
    t0 = time.perf_counter()
    group = base.group
    if group.depth is None:
        raise InvalidParam("disjointness checking runs on the free group")
    if n < 2:
        raise InvalidParam(f"need n >= 2, got {n}")
    trans = [words.parse_word(t) for t in translators]
    group.check_translators(trans)
    core_size = words.ball_size(group.depth - max((len(t) for t in trans), default=0))

    # membership(i): bitset over core ranks r with (t_i)^-1 * w_r in base,
    # read straight off the base's bytes (the ball is never unpacked), built
    # once the walk first reaches translator i
    base_bytes = np.frombuffer(base.bits.to_bytes((group.size + 7) // 8, "little"), dtype=np.uint8)
    core = np.arange(core_size, dtype=np.int64)

    @functools.cache
    def membership(i: int) -> int:
        v, _ = words.left_mul_ranks(words.invert_word(trans[i]), core, group.depth)
        hit = (base_bytes[v >> 3] >> (v & 7).astype(np.uint8)) & 1
        return bitops.bits_from_positions(np.flatnonzero(hit), core_size)

    m = len(trans)
    checked, violating, witness = math.comb(m, n), None, None
    for combo, inter in bitops.meeting_subsets(m, n, membership):
        # the first subset that meets; those after it, which are left
        # unchecked, first exceed it at some entry j
        checked -= sum(math.comb(m - 1 - c, n - j) for j, c in enumerate(combo))
        violating = [trans[i] for i in combo]
        w = words.word_at_rank((inter & -inter).bit_length() - 1)
        # the witness is a certificate: confirm it by word arithmetic,
        # independently of the rank kernel that found it
        for i in combo:
            if not base.contains(words.mul_words(words.invert_word(trans[i]), w)):
                raise RuntimeError(f"witness {w!r} is not in the translate by {trans[i]!r}")
        witness = w
        break

    notes = []
    if base_label == "B":
        notes.append(
            "the B-side family is this tool's construction "
            "(prefix-distinguished b^k a), not a quoted one"
        )
    return DisjointnessReport(
        base={"label": base_label, "cardinality": base.cardinality()},
        translators=trans,
        n=n,
        depth=group.depth,
        core_size=core_size,
        disjoint=violating is None,
        violating=violating,
        witness=witness,
        subsets_checked=checked,
        truncation_tally=base.tally,
        notes=notes,
        stats={"elapsed_ms": int((time.perf_counter() - t0) * 1000)},
    )


_RANGE_RE = re.compile(r"^([aAbB])\^(\d+)\.\.([aAbB])\^(\d+)$")


def parse_translators(text: str) -> list[str]:
    """Translator list syntax: "b^0..b^8" (powers of one letter), a comma
    list of reduced words ("e,a,ba"), or the keyword "shipped-b"."""
    text = text.strip()
    if text == "shipped-b":
        return shipped_b_family()
    m = _RANGE_RE.match(text)
    if m:
        lo_letter, lo, hi_letter, hi = m.group(1), int(m.group(2)), m.group(3), int(m.group(4))
        if lo_letter != hi_letter:
            raise InvalidParam(f"power range must use one letter, got {text!r}")
        if lo > hi:
            raise InvalidParam(f"empty power range {text!r}")
        return [lo_letter * k if k else "e" for k in range(lo, hi + 1)]
    out = [words.parse_word(part.strip()) or "e" for part in text.split(",") if part.strip()]
    if not out:
        raise InvalidParam("no translators given")
    return out
