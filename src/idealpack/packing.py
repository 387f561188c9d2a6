"""Packing indices via conflict hypergraphs of translates.

pack_n(A) is the size of the largest translator family whose n-wise
translate intersections all fall in the ideal — a maximum independent set in
the n-uniform conflict hypergraph on the candidate translators.  Edges are
decided on the per-evaluation exact core: the sub-window where an
intersection of translates by exactly those shifts carries no boundary
artifacts.  ``pack_greedy`` gives a certified lower bound; ``pack_exact``
runs branch-and-bound seeded with the greedy family.

Flags: "exact" (search completed), "lower-bound" (node budget hit first),
"saturated" (the family exhausts every candidate — the finite stand-in for
an infinite index).  Any family smaller than n is vacuously independent, so
every value is at least min(n-1, #candidates).  A set that is itself a
member of the ideal conflicts with nothing (translates of members are
members, subsets of members are members), so the search is skipped and the
full candidate list reported as saturated.

Search determinism: candidates are ordered by conflict degree descending
with candidate-index tie-break, the DFS explores include-before-exclude, and
incumbents are replaced only by strictly larger families — reports never
depend on timing.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import bitops, words
from .errors import BudgetExceeded, InvalidParam, RangeExceedsMargin
from .groups import (
    CayleyGroup,
    FreeGroup2,
    Group,
    MaterializedSet,
    ZModGroup,
    ZWindowGroup,
)
from .ideals import Ideal, TrivialIdeal
from .setexpr import SetExpr

__all__ = [
    "PackingReport",
    "ConflictOracle",
    "candidate_translators",
    "pack_greedy",
    "pack_exact",
    "pack_profile",
]

_CACHE_BYTE_LIMIT = 256 * 1024 * 1024


@dataclass
class PackingReport:
    n: int
    ideal: dict
    family: list
    value: int
    flag: str  # exact | lower-bound | saturated
    floor: int
    candidate_count: int
    stats: dict = field(default_factory=dict)
    note: str = ""

    def payload(self) -> dict:
        out = {
            "n": self.n,
            "value": self.value,
            "flag": self.flag,
            "family": [f if isinstance(f, (int, str)) else str(f) for f in self.family],
            "floor": self.floor,
            "candidates": self.candidate_count,
            "ideal": self.ideal,
            "edges_evaluated": self.stats.get("edges_evaluated", 0),
            "nodes": self.stats.get("nodes", 0),
            "elapsed_ms": self.stats.get("elapsed_ms", 0),
        }
        if self.stats.get("budget_hit"):
            out["budget_hit"] = True
        if self.note:
            out["note"] = self.note
        return out


def candidate_translators(
    group: Group,
    shift_range: Optional[int] = None,
    word_len: Optional[int] = None,
) -> list:
    """Deterministic candidate list: [0..R] on Z, everything on finite kinds,
    the shortlex ball on the free group."""
    if isinstance(group, ZWindowGroup):
        if shift_range is None:
            raise InvalidParam("Z-window candidates need a shift range")
        if shift_range < 0:
            raise InvalidParam("shift range must be >= 0")
        if shift_range > group.window.margin:
            raise RangeExceedsMargin(
                f"shift range {shift_range} exceeds margin {group.window.margin}"
            )
        return list(range(shift_range + 1))
    if isinstance(group, (ZModGroup, CayleyGroup)):
        return list(range(group.size))
    if isinstance(group, FreeGroup2):
        if word_len is None:
            raise InvalidParam("free-group candidates need a word length")
        if not (0 <= word_len <= group.depth):
            raise RangeExceedsMargin(
                f"translator length {word_len} exceeds ball depth {group.depth}"
            )
        return list(words.enumerate_ball(word_len))
    raise InvalidParam(f"unknown group kind {group.kind!r}")


class ConflictOracle:
    """Decides whether an n-subset of candidates (given by indices) conflicts.

    For n=2 with the trivial ideal on integer kinds there are closed per-pair
    checks: on a Z window, translates by b <= c intersect on the exact core
    iff A meets A-(c-b) at a position u <= hi-c, so one sorted-array
    intersection per difference answers every pair with that difference; on
    Z_N it is a cyclic overlap question per difference.  Everything else
    intersects cached translate bitsets and asks the ideal.
    """

    def __init__(self, A: MaterializedSet, ideal: Ideal, candidates: Sequence, n: int):
        if len(set(candidates)) != len(candidates):
            raise InvalidParam("candidate translators must be distinct")
        self.A = A
        self.group = A.group
        self.ideal = ideal
        self.cands = list(candidates)
        self.n = n
        self.edges_evaluated = 0
        self._memo: dict[tuple, bool] = {}
        self._mode = "general"
        if n == 2 and ideal.kind == "trivial":
            if isinstance(self.group, ZWindowGroup) and all(
                isinstance(c, int) and c >= 0 for c in self.cands
            ):
                self._mode = "z-window-pairs"
                self._positions = bitops.positions_from_bits(A.bits, self.group.size)
                self._minw: dict[int, Optional[int]] = {}
            elif isinstance(self.group, ZModGroup):
                self._mode = "z-mod-pairs"
                self._diff_hit: dict[int, bool] = {}
        # translate cache for the general path, if it fits
        self._tcache: Optional[dict] = None
        if self._mode == "general":
            est = (self.group.size // 8 + 1) * len(self.cands)
            if est <= _CACHE_BYTE_LIMIT:
                self._tcache = {}

    # -- helpers -----------------------------------------------------------
    def _min_witness(self, d: int) -> Optional[int]:
        """Least index u with u and u+d both in A (None if no such u)."""
        got = self._minw.get(d, "?")
        if got != "?":
            return got
        p = self._positions
        inter = np.intersect1d(p, p - d, assume_unique=True)
        val = int(inter[0]) if inter.size else None
        self._minw[d] = val
        return val

    def _translate(self, idx: int) -> int:
        if self._tcache is not None:
            bits = self._tcache.get(idx)
            if bits is None:
                bits = self.group.translate_bits(self.cands[idx], self.A.bits)[0]
                self._tcache[idx] = bits
            return bits
        return self.group.translate_bits(self.cands[idx], self.A.bits)[0]

    # -- the oracle --------------------------------------------------------
    def is_edge(self, combo: tuple[int, ...]) -> bool:
        """combo: strictly increasing candidate indices, len == n."""
        if self._mode == "z-window-pairs":
            self.edges_evaluated += 1
            b, c = sorted((self.cands[combo[0]], self.cands[combo[1]]))
            mw = self._min_witness(c - b)
            return mw is not None and mw <= self.group.size - 1 - c
        if self._mode == "z-mod-pairs":
            self.edges_evaluated += 1
            b, c = self.cands[combo[0]], self.cands[combo[1]]
            d = (c - b) % self.group.size
            hitq = self._diff_hit.get(d)
            if hitq is None:
                rot = self.group.translate_bits(d, self.A.bits)[0]
                hitq = (self.A.bits & rot) != 0
                self._diff_hit[d] = hitq
            return hitq
        hit = self._memo.get(combo)
        if hit is not None:
            return hit
        self.edges_evaluated += 1
        inter = self._translate(combo[0])
        for i in combo[1:]:
            inter &= self._translate(i)
            if inter == 0:
                break
        shifts = [self.cands[i] for i in combo]
        core = self.group.exact_core_mask(shifts)
        piece = MaterializedSet(self.group, inter & core)
        edge = not self.ideal.member(piece)
        self._memo[combo] = edge
        return edge


def _member_shortcut(
    A: MaterializedSet,
    ideal: Ideal,
    candidates: Sequence,
    n: int,
    expr: Optional[SetExpr],
    t0: float,
) -> Optional[PackingReport]:
    if ideal.member(A, expr):
        return PackingReport(
            n=n,
            ideal=ideal.descriptor(),
            family=list(candidates),
            value=len(candidates),
            flag="saturated",
            floor=min(n - 1, len(candidates)),
            candidate_count=len(candidates),
            stats={"edges_evaluated": 0, "nodes": 0, "elapsed_ms": _ms(t0)},
            note="the set is a member of the ideal; every family is independent",
        )
    return None


def _ms(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def _greedy_indices(oracle: ConflictOracle, m: int, n: int) -> list[int]:
    family: list[int] = []
    for ci in range(m):
        ok = True
        for sub in itertools.combinations(family, n - 1):
            if oracle.is_edge(tuple(sub) + (ci,)):
                ok = False
                break
        if ok:
            family.append(ci)
    return family


def pack_greedy(
    A: MaterializedSet,
    ideal: Optional[Ideal],
    candidates: Sequence,
    n: int,
    expr: Optional[SetExpr] = None,
    oracle: Optional[ConflictOracle] = None,
) -> PackingReport:
    """Certified lower bound: scan candidates in order, keep the compatible ones."""
    t0 = time.perf_counter()
    ideal = ideal if ideal is not None else TrivialIdeal()
    _validate_n(n)
    short = _member_shortcut(A, ideal, candidates, n, expr, t0)
    if short is not None:
        return short
    oracle = oracle or ConflictOracle(A, ideal, candidates, n)
    family = _greedy_indices(oracle, len(candidates), n)
    value = len(family)
    flag = "saturated" if value == len(candidates) else "lower-bound"
    return PackingReport(
        n=n,
        ideal=ideal.descriptor(),
        family=[candidates[i] for i in family],
        value=value,
        flag=flag,
        floor=min(n - 1, len(candidates)),
        candidate_count=len(candidates),
        stats={
            "edges_evaluated": oracle.edges_evaluated,
            "nodes": 0,
            "elapsed_ms": _ms(t0),
        },
    )


def _validate_n(n: int) -> None:
    if n < 2:
        raise InvalidParam(f"packing arity must be >= 2, got {n}")


def _exact_pairs(
    oracle: ConflictOracle, m: int, node_budget: int
) -> tuple[list[int], bool, int]:
    """Max independent set in the conflict graph (n=2) by bitmask B&B."""
    import sys

    if sys.getrecursionlimit() < 2 * m + 200:
        sys.setrecursionlimit(2 * m + 200)
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if oracle.is_edge((i, j)):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    deg = [a.bit_count() for a in adj]
    order = sorted(range(m), key=lambda i: (-deg[i], i))
    pos_of = [0] * m
    for p, i in enumerate(order):
        pos_of[i] = p
    padj = [0] * m
    for i in range(m):
        row = 0
        for j in bitops.iter_bits(adj[i]):
            row |= 1 << pos_of[j]
        padj[pos_of[i]] = row

    # greedy seed in original candidate order, as the incumbent
    seed: list[int] = []
    seed_mask_p = 0
    for i in range(m):
        p = pos_of[i]
        if not (padj[p] & seed_mask_p):
            seed.append(i)
            seed_mask_p |= 1 << p

    best = list(pos_of[i] for i in seed)
    nodes = 0
    budget_hit = False

    def expand(cur: list[int], rem: int) -> None:
        nonlocal best, nodes, budget_hit
        while rem:
            if budget_hit:
                return
            if len(cur) + rem.bit_count() <= len(best):
                return
            nodes += 1
            if nodes > node_budget:
                budget_hit = True
                return
            low = rem & -rem
            p = low.bit_length() - 1
            cur.append(p)
            if len(cur) > len(best):
                best = list(cur)
            expand(cur, rem & ~low & ~padj[p])
            cur.pop()
            rem &= ~low
        return

    expand([], bitops.mask(m))
    return sorted(order[p] for p in best), budget_hit, nodes


def _exact_hyper(
    oracle: ConflictOracle, m: int, n: int, node_budget: int
) -> tuple[list[int], bool, int]:
    """B&B for n >= 3: hyperedges precomputed, feasibility by subset check."""
    edges_with: dict[int, list[frozenset]] = {i: [] for i in range(m)}
    degree = [0] * m
    for combo in itertools.combinations(range(m), n):
        if oracle.is_edge(combo):
            fs = frozenset(combo)
            for i in combo:
                edges_with[i].append(fs)
                degree[i] += 1
    order = sorted(range(m), key=lambda i: (-degree[i], i))

    def feasible(cur_set: frozenset, i: int) -> bool:
        for e in edges_with[i]:
            if e <= cur_set | {i}:
                return False
        return True

    # greedy seed in original candidate order
    seed: list[int] = []
    for i in range(m):
        if feasible(frozenset(seed), i):
            seed.append(i)

    best = list(seed)
    nodes = 0
    budget_hit = False

    def expand(cur: list[int], start_pos: int) -> None:
        nonlocal best, nodes, budget_hit
        for p in range(start_pos, m):
            if budget_hit:
                return
            if len(cur) + (m - p) <= len(best):
                return
            nodes += 1
            if nodes > node_budget:
                budget_hit = True
                return
            i = order[p]
            if feasible(frozenset(cur), i):
                cur.append(i)
                if len(cur) > len(best):
                    best = list(cur)
                expand(cur, p + 1)
                cur.pop()

    expand([], 0)
    return sorted(best), budget_hit, nodes


def pack_exact(
    A: MaterializedSet,
    ideal: Optional[Ideal],
    candidates: Sequence,
    n: int,
    expr: Optional[SetExpr] = None,
    node_budget: int = 2_000_000,
    exact_cap: int = 64,
) -> PackingReport:
    """Maximum independent family in the conflict hypergraph.

    For n >= 3 the candidate count is capped (default 64) because the edge
    set alone is C(m, n); raising the cap is the caller's explicit choice.
    """
    t0 = time.perf_counter()
    ideal = ideal if ideal is not None else TrivialIdeal()
    _validate_n(n)
    short = _member_shortcut(A, ideal, candidates, n, expr, t0)
    if short is not None:
        return short
    m = len(candidates)
    if n >= 3 and m > exact_cap:
        raise BudgetExceeded(
            f"exact search with n={n} is capped at {exact_cap} candidates (got {m})"
        )
    oracle = ConflictOracle(A, ideal, candidates, n)
    if n == 2:
        family_idx, budget_hit, nodes = _exact_pairs(oracle, m, node_budget)
    else:
        family_idx, budget_hit, nodes = _exact_hyper(oracle, m, n, node_budget)
    value = len(family_idx)
    if value == m:
        flag = "saturated"
    elif budget_hit:
        flag = "lower-bound"
    else:
        flag = "exact"
    return PackingReport(
        n=n,
        ideal=ideal.descriptor(),
        family=[candidates[i] for i in family_idx],
        value=value,
        flag=flag,
        floor=min(n - 1, m),
        candidate_count=m,
        stats={
            "edges_evaluated": oracle.edges_evaluated,
            "nodes": nodes,
            "elapsed_ms": _ms(t0),
            "budget_hit": budget_hit,
        },
    )


def pack_profile(
    A: MaterializedSet,
    ideal: Optional[Ideal],
    n_values: Sequence[int],
    candidates: Sequence,
    exact: bool = True,
    expr: Optional[SetExpr] = None,
) -> list[PackingReport]:
    """One report per n; exact values are non-decreasing in n."""
    out = []
    for n in n_values:
        if exact:
            out.append(pack_exact(A, ideal, candidates, n, expr=expr))
        else:
            out.append(pack_greedy(A, ideal, candidates, n, expr=expr))
    return out
