"""Packing indices via conflict hypergraphs of translates.

pack_n(A) is the size of the largest translator family whose n-wise
translate intersections all fall in the ideal — a maximum independent set in
the n-uniform conflict hypergraph on the candidate translators.  Edges are
decided on the per-evaluation exact core: the sub-window where an
intersection of translates by exactly those shifts carries no boundary
artifacts.  ``pack_greedy`` gives a certified lower bound; ``pack_exact``
runs branch-and-bound seeded with the greedy family.  Both hand their
search to ``_pack``, which checks the query, takes the member shortcut
below and builds the one report.

For n=2 the conflict graph is built in bulk (``ConflictOracle.pair_rows``),
a bool block of rows at a time, and one path orders, packs and permutes the
rows into search order as Python-int bitsets.  Under the trivial ideal, on
Z_N, Cayley tables and Z windows with non-negative shifts, a pair conflict
depends on one difference d = g^-1 h alone, and each difference is decided
once, as the least witness u in A with d·u in A (mode ``difference-pairs``).
The free group, windows with a negative shift, n >= 3 and the other ideals
decide on translate bitsets, each cut to its exact core; their rows, pairs
and n >= 3 alike, come from one walk over the combinations
(``bitops.meeting_subsets``), which intersects each prefix of translates
once and skips every prefix that meets nowhere.  One
branch-and-bound (``_Branch``) searches every arity, on an explicit stack,
so its depth is bounded by the candidate count and not by the interpreter's
recursion limit, which is left alone.

Flags: "exact" (search completed), "lower-bound" (node budget hit first),
"saturated" (the family exhausts every candidate — the finite stand-in for
an infinite index).  Any family smaller than n is vacuously independent, so
every value is at least min(n-1, #candidates).  A set that is itself a
member of the ideal conflicts with nothing (translates of members are
members, subsets of members are members), so the search is skipped and the
full candidate list reported as saturated.

Search determinism: candidates are ordered by conflict degree descending
with candidate-index tie-break, the DFS explores include-before-exclude,
prunes a node when the open candidates cannot lift it above the incumbent,
and replaces incumbents only by strictly larger families — reports never
depend on timing.

The counting cap: under the trivial ideal on Z_N and Cayley tables, where
translation is exact, the translates of a pair family are disjoint, so a
family drawn from candidates C holds at most floor(|C·A| / |A|) of them.
There the pair search splits the conflict graph into its connected
components, searches each in the order above with its own cap, and closes a
component once its incumbent reaches the cap; a flag "exact" may rest on
that cap instead of on an exhausted search.  A component starts from the
greedy seed restricted to it, or from the search's first descent where that
is larger.  A greedy along a depth-first walk of the component replaces
that start only when the walk reaches the cap (on a cycle, such as the
conflicts of {0, a} on Z_N, it always does); the family then closes at no
node and may differ from the one a search over the whole graph reports.
Every other family is the one that search reports, once it closes.  The
components share the node budget in rounds of 1, 2, 4, ... nodes each.  Z
windows, the free group, n >= 3 and the other ideals have no counting cap:
their graph or hypergraph is one component, searched whole.  Every seed, the
first descent and the walk is one ``_greedy`` along a sequence of positions.

The banded DP cap, for n=2: where no conflict spans more than 12 candidates
in candidate order (the bandwidth; 9 for {0, 5, 9} on a window), a dynamic
program gives each component's optimum, which caps a search whose start is
below its cap.  The search then closes once its incumbent first reaches it,
with the family an exhausted search reports; only the flag and ``nodes``
change.  The walk still answers to the counting cap alone.

For n >= 3, one table keyed by (n-2)-tuples of positions holds the
hypergraph (``hyper_rows``), and ``_Open`` reads it in place: a branch closes
when the positions open under it split into too few cliques of its link
graph to beat the incumbent.  Where every element of an exact carrier is a
candidate once and membership depends on the count alone, translation maps
each family onto one holding position 0, so the search takes it at the root
and leaves out the branch without it.
Neither cuts a family larger than the incumbent: every search that closes
reports the family an exhausted search does.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import bitops
from .errors import BudgetExceeded, InvalidParam
from .groups import MaterializedSet
from .ideals import Ideal, TrivialIdeal
from .reports import show_elements
from .setexpr import SetExpr

__all__ = [
    "PackingReport",
    "ConflictOracle",
    "pack_greedy",
    "pack_exact",
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
    # milliseconds building the conflict rows and searching them
    timing: dict = field(default_factory=lambda: {"rows_ms": 0.0, "search_ms": 0.0})

    def payload(self) -> dict:
        out = {
            "n": self.n,
            "value": self.value,
            "flag": self.flag,
            "family": show_elements(self.family),
            "floor": self.floor,
            "candidates": self.candidate_count,
            "ideal": self.ideal,
            "edges_evaluated": self.stats.get("edges_evaluated", 0),
            "nodes": self.stats.get("nodes", 0),
            "elapsed_ms": self.stats.get("elapsed_ms", 0),
            "timing": dict(self.timing),
        }
        if self.stats.get("budget_hit"):
            out["budget_hit"] = True
        if self.note:
            out["note"] = self.note
        return out


class ConflictOracle:
    """Decides whether an n-subset of candidates (given by indices) conflicts.

    Mode ``difference-pairs``: for n=2 under the trivial ideal, on Z_N and
    Cayley tables (where translation is exact) and on a Z window with
    non-negative shifts, a pair g, h meets through one difference d alone,
    since gA ∩ hA = g(A ∩ g⁻¹hA).  The pair conflicts exactly when the least
    witness u ∈ A with d·u ∈ A (in index order) lies in the pair's exact
    core: at most size-1 where translation is exact (d = g⁻¹h), at most
    size-1-max(b, c) on a window (shifts b, c; d = |c-b|).  One table holds
    the least witness per difference, filled by gathers through A's
    positions.

    Everything else (the free group, a window with a negative shift, n >= 3,
    every other ideal) intersects cached translate bitsets, each cut to its
    exact core, and decides by the count where ``cardinality_cutoff`` allows,
    else by ``member``.  The candidates are taken as given: ``pack_exact`` and
    ``pack_greedy`` check them (``Group.check_translators``) before building
    an oracle.
    """

    def __init__(self, A: MaterializedSet, ideal: Ideal, candidates: Sequence, n: int):
        self.A = A
        self.group = A.group
        self.ideal = ideal
        self.cands = list(candidates)
        self.n = n
        self.edges_evaluated = 0
        self._mode = "general"
        size = self.group.size
        # raises the usage errors ``member`` would at the first edge
        self._cutoff = cutoff = ideal.cardinality_cutoff(self.group)
        # each element of an exact carrier a candidate once, membership a
        # matter of the count: translation maps every family onto one holding
        # any given candidate (read by n >= 3 searches only)
        self.transitive = n >= 3 and self.group.translation_is_exact and cutoff is not None \
            and sorted(map(self.group.index, self.cands)) == list(range(size))
        if n == 2 and cutoff == 0:
            if self.group.translation_is_exact:
                self._mode = "difference-pairs"
                self._index = np.array([self.group.index(c) for c in self.cands], dtype=np.int64)
                differences = size
            elif self.group.margin is not None and all(isinstance(c, int) and c >= 0 for c in self.cands):
                self._mode = "difference-pairs"
                self._index = np.array(self.cands, dtype=np.int64)
                # a pair further apart than the window never meets on its
                # core, so differences clip to the window
                differences = min(max(self.cands, default=0), size - 1) + 1
        if self._mode == "general":
            # translate cache for the general path, if it fits
            self._tcache = {} if (size // 8 + 1) * len(self.cands) <= _CACHE_BYTE_LIMIT else None
            return
        self._positions = bitops.positions_from_bits(A.bits, size)
        # membership, with one slot past the universe that stays False: the
        # gathers send a translate that leaves the universe there
        self._in_A = np.zeros(size + 1, dtype=bool)
        self._in_A[self._positions] = True
        # least witness per difference; size where there is none, -1 until
        # decided (an empty A has none anywhere)
        self._witness = np.full(differences, -1 if self._positions.size else size, dtype=np.int32)
        # the conflict rows ``is_edge`` has read, by candidate index, as
        # packed bits (bit j of byte j >> 3): m bits a row, one byte read a
        # lookup
        self._row_cache: dict[int, bytes] = {}

    @property
    def caps_pairs(self) -> bool:
        """Whether ``pair_cap`` bounds pair families: pairs decided per
        difference on an exact carrier, with A not empty."""
        return self._mode == "difference-pairs" and self.group.translation_is_exact and self._positions.size > 0

    def pair_cap(self, members: Sequence[int]) -> int:
        """The counting cap on a pair family drawn from ``members``
        (candidate indices): floor(|C·A| / |A|), C the members' elements.

        Under the trivial ideal on an exact carrier two candidates conflict
        exactly when their translates meet, so the translates of a family
        are disjoint and lie in C·A.  Only where ``caps_pairs`` holds."""
        cover = np.zeros(self.group.size, dtype=bool)
        cover[self.group.translate_index(self._index[list(members)], self._positions)] = True
        return int(np.count_nonzero(cover)) // self._positions.size

    # -- helpers -----------------------------------------------------------
    def _decide(self, ds: np.ndarray) -> None:
        """Fill the witness table at the undecided ``ds`` by gathers through
        A's positions, the whole table at once when it is small."""
        p = self._positions
        size = self.group.size
        if self._witness.size * p.size <= bitops.CHUNK_ITEMS:
            ds = np.arange(self._witness.size)
        else:
            ds = bitops.sorted_unique(ds)
        step = max(1, bitops.CHUNK_ITEMS // p.size)
        for lo in range(0, ds.size, step):
            part = ds[lo : lo + step]
            if self.group.translation_is_exact:
                targets = self.group.translate_index(part, p)
            else:
                targets = np.minimum(p + part[:, None], size)
            hits = self._in_A[targets]
            first = hits.argmax(axis=1)
            self._witness[part] = np.where(hits[np.arange(part.size), first], p[first], size)

    def _witnesses(self, ds: np.ndarray) -> np.ndarray:
        vals = self._witness[ds]
        unknown = ds[vals < 0]
        if unknown.size:
            self._decide(unknown)
            vals = self._witness[ds]
        return vals

    def _pair_rows_block(self, lo: int, hi: int) -> np.ndarray:
        """Bool block: entry [i - lo, j] says whether candidates i and j
        conflict, as ``is_edge`` decides it, for lo <= i < hi."""
        rows = np.arange(lo, hi)
        if self.group.translation_is_exact:
            # the witness for d⁻¹ exists exactly when the one for d does, so
            # either order of a pair reads the same
            ds = self.group.differences(self._index[lo:hi], self._index)
            top = self.group.size - 1
        else:
            cands = self._index
            c = cands[lo:hi, None]
            ds = np.minimum(np.abs(cands - c), self._witness.size - 1)
            top = (self.group.size - 1) - np.maximum(cands, c)
        block = self._witnesses(ds) <= top
        block[rows - lo, rows] = False
        return block

    def _row_step(self) -> int:
        """Conflict rows per block: ``bitops.CHUNK_ITEMS`` entries."""
        return max(1, bitops.CHUNK_ITEMS // max(1, len(self.cands)))

    def _translate(self, idx: int) -> int:
        """Candidate ``idx``'s translate of A cut to its exact core; the core of
        several shifts is the meet of theirs, so these AND to a combination's."""
        cache = self._tcache if self._tcache is not None else {}
        bits = cache.get(idx)
        if bits is None:
            g = self.cands[idx]
            bits = cache[idx] = self.group.translate_bits(g, self.A.bits)[0] & self.group.exact_core_mask([g])
        return bits

    def _conflicts(self, inter: int) -> bool:
        """Whether an intersection on its exact core lies outside the ideal."""
        if self._cutoff is not None:
            return inter.bit_count() > self._cutoff
        return not self.ideal.member(MaterializedSet(self.group, inter))

    # -- the oracle --------------------------------------------------------
    def is_edge(self, combo: tuple[int, ...]) -> bool:
        """combo: strictly increasing candidate indices, len == n."""
        self.edges_evaluated += 1
        if self._mode == "difference-pairs":
            i, j = combo
            row = self._row_cache.get(i)
            if row is None:
                # the block of rows around i that ``pair_rows`` builds at once
                lo = i - i % self._row_step()
                block = self._pair_rows_block(lo, min(lo + self._row_step(), len(self.cands)))
                for k, packed in enumerate(np.packbits(block, axis=1, bitorder="little"), lo):
                    self._row_cache[k] = packed.tobytes()
                row = self._row_cache[i]
            return bool(row[j >> 3] >> (j & 7) & 1)
        inter = -1
        for i in combo:
            inter &= self._translate(i)
            if inter == 0:
                break
        return self._conflicts(inter)

    def pair_rows(self) -> tuple[list[int], list[int], int]:
        """The n=2 conflict graph as bitset rows in search order, and its
        bandwidth in candidate order.

        ``order`` lists the candidate indices by conflict degree descending,
        index ascending; ``rows[p]`` has bit q set when candidates
        ``order[p]`` and ``order[q]`` conflict.  The bandwidth is the largest
        |i - j| over conflicting candidates i and j (0 without conflicts).
        Every pair counts as one evaluated edge.  The per-difference mode
        builds bool blocks of rows with numpy, the general mode one bool
        matrix from the walk over meeting pairs
        (``bitops.meeting_subsets``); both then go through one ordering and
        permutation.
        """
        m = len(self.cands)
        self.edges_evaluated += m * (m - 1) // 2
        if self._mode == "general":
            walk = bitops.meeting_subsets(m, 2, self._translate)
            pairs = np.array([ij for ij, inter in walk if self._conflicts(inter)], dtype=np.int64).reshape(-1, 2)
            edges = np.zeros((m, m), dtype=bool)
            edges[pairs[:, 0], pairs[:, 1]] = edges[pairs[:, 1], pairs[:, 0]] = True
            block_of = lambda lo, hi: edges[lo:hi]
        else:
            block_of = self._pair_rows_block
        step = self._row_step()
        packed = np.empty((m, (m + 7) // 8), dtype=np.uint8)
        deg = np.empty(m, dtype=np.int64)
        width = 0
        for lo in range(0, m, step):
            block = block_of(lo, min(lo + step, m))
            deg[lo : lo + step] = block.sum(axis=1)
            packed[lo : lo + step] = np.packbits(block, axis=1, bitorder="little")
            # how far right of each row its last conflict lies; the graph is
            # symmetric, so that covers every pair
            reach = (m - 1 - block[:, ::-1].argmax(axis=1)) - np.arange(lo, lo + len(block))
            width = max(width, int(np.max(reach, where=deg[lo : lo + step] > 0, initial=0)))
        perm = np.lexsort((np.arange(m), -deg))
        rows: list[int] = []
        for lo in range(0, m, step):
            # rows and columns into search order, a block of rows at a time
            block = np.unpackbits(packed[perm[lo : lo + step]], axis=1, count=m, bitorder="little")[:, perm]
            packed_rows = np.packbits(block, axis=1, bitorder="little")
            rows.extend(int.from_bytes(row.tobytes(), "little") for row in packed_rows)
        return perm.tolist(), rows, width

    def hyper_rows(self) -> tuple[list[int], dict[tuple, list[int]]]:
        """The n >= 3 conflict hypergraph in search order: ``order`` as for
        pairs, by edge degree; ``links[S][u]``, S an increasing tuple of n-2
        positions in some edge, masks the k that make S, u, k an edge (so
        ``links[()]`` would be the pair rows).  The edges come from the walk
        (``bitops.meeting_subsets``); each sets its C(n, 2) keys, and every
        n-subset counts as one evaluated edge."""
        m = len(self.cands)
        walk = bitops.meeting_subsets(m, self.n, self._translate)
        edges = [combo for combo, inter in walk if self._conflicts(inter)]
        self.edges_evaluated += math.comb(m, self.n)
        deg = Counter(itertools.chain.from_iterable(edges))
        order = sorted(range(m), key=lambda i: (-deg[i], i))
        pos_of = sorted(range(m), key=order.__getitem__)
        links: defaultdict[tuple, list[int]] = defaultdict(lambda: [0] * m)
        for combo in edges:
            ps = sorted(map(pos_of.__getitem__, combo))
            # the t-th (n-2)-subset of ps leaves out the t-th pair from the end
            pairs = reversed(list(itertools.combinations(ps, 2)))
            for key, (u, k) in zip(itertools.combinations(ps, self.n - 2), pairs):
                row = links[key]
                row[u] |= 1 << k
                row[k] |= 1 << u
        return order, dict(links)


def _lap(timing: Optional[dict], key: str, t0: float) -> float:
    """Record the milliseconds since ``t0`` under ``key``; the time now."""
    now = time.perf_counter()
    if timing is not None:
        timing[key] = round((now - t0) * 1000, 3)
    return now


def _greedy(seq: Iterable[int], fits: Callable[[int, int], bool]) -> int:
    """The greedy family along ``seq``, as a bitmask: each position joins
    when ``fits(mask, p)`` holds for the mask taken so far."""
    mask = 0
    for p in seq:
        if fits(mask, p):
            mask |= 1 << p
    return mask


def _greedy_indices(oracle: ConflictOracle, m: int, n: int) -> list[int]:
    """The greedy scan in candidate order, as a list: it asks ``is_edge``
    only until one combination with the family so far conflicts."""
    family: list[int] = []
    for ci in range(m):
        if not any(oracle.is_edge(sub + (ci,)) for sub in itertools.combinations(family, n - 1)):
            family.append(ci)
    return family


def _pack(
    A: MaterializedSet,
    ideal: Optional[Ideal],
    candidates: Sequence,
    n: int,
    expr: Optional[SetExpr],
    search: Callable[[Ideal, dict], tuple[ConflictOracle, Sequence[int], bool, dict]],
) -> PackingReport:
    """One packing query: its usage errors, then the member shortcut or
    ``search(ideal, timing)``, which fills ``timing`` and returns the oracle,
    the family (candidate indices), whether it finished and its stats; then
    the report.  A family of every candidate is "saturated", else the flag
    is "exact" when the search finished and "lower-bound" when not."""
    t0 = time.perf_counter()
    ideal = ideal if ideal is not None else TrivialIdeal()
    if n < 2:
        raise InvalidParam(f"packing arity must be >= 2, got {n}")
    A.group.check_translators(candidates)
    m = len(candidates)
    timing = {"rows_ms": 0.0, "search_ms": 0.0}
    member = ideal.member(A, expr)
    if member:
        family, finished, stats = range(m), True, {"edges_evaluated": 0, "nodes": 0}
    else:
        oracle, family, finished, stats = search(ideal, timing)
        stats["edges_evaluated"] = oracle.edges_evaluated
    stats["elapsed_ms"] = int((time.perf_counter() - t0) * 1000)
    return PackingReport(
        n=n,
        ideal=ideal.descriptor(),
        family=[candidates[i] for i in family],
        value=len(family),
        flag="saturated" if len(family) == m else "exact" if finished else "lower-bound",
        floor=min(n - 1, m),
        candidate_count=m,
        stats=stats,
        note="the set is a member of the ideal; every family is independent" if member else "",
        timing=timing,
    )


def pack_greedy(
    A: MaterializedSet,
    ideal: Optional[Ideal],
    candidates: Sequence,
    n: int,
    expr: Optional[SetExpr] = None,
) -> PackingReport:
    """Certified lower bound: scan candidates in order, keep the compatible ones."""

    def search(ideal: Ideal, timing: dict):
        oracle = ConflictOracle(A, ideal, candidates, n)
        t0 = time.perf_counter()
        # the scan decides edges as it meets them, so ``rows_ms`` stays 0
        family = _greedy_indices(oracle, len(candidates), n)
        _lap(timing, "search_ms", t0)
        return oracle, family, False, {"nodes": 0}

    return _pack(A, ideal, candidates, n, expr, search)


def _exact(
    oracle: ConflictOracle, m: int, node_budget: int, timing: Optional[dict] = None
) -> tuple[list[int], bool, int]:
    """Max independent family by bitmask B&B (``_Branch``) on the conflict
    rows of ``ConflictOracle.pair_rows`` (n=2) or ``hyper_rows`` (n >= 3).

    Where ``oracle.caps_pairs`` holds, each connected component of the graph
    (``_components``) is searched on its own and closes once its family
    reaches its counting cap (``ConflictOracle.pair_cap``); elsewhere the
    whole graph is one component.  A component starts from the greedy seed
    in candidate order restricted to it, from the family of the search's
    first descent (the greedy along its positions in search order, the first
    maximum family whenever it is maximum) where that is larger, or from
    ``_walk_family`` where only that reaches the counting cap; all three are
    ``_greedy`` families.  A pair search whose start is below its cap, where
    the bandwidth allows, also gets the component's optimum as a cap
    (``_band_cap``).  The searches share ``node_budget`` (``_share``).

    A search over the whole graph keeps the greedy seed only when no
    component beats its part of it, and otherwise reports the first maximum
    family of its order in every component.  So once one component beats its
    seed, every other one takes its first family of the seed's size: the
    first descent if that is as large, else the first one a search capped at
    that size meets.  An n >= 3 search takes position 0 at the root where
    ``oracle.transitive`` holds, and ``_Open``, on the link table, closes its
    branches by the link-graph cliques.  ``timing``, when given, gets
    ``rows_ms``, ``search_ms`` and, for n=2, ``dp_ms`` (of it, in the DP),
    ``components``, ``capped`` (the components whose family reached either
    cap) and ``bandwidth``.
    """
    t0 = time.perf_counter()
    full = bitops.mask(m)
    width = None
    if oracle.n == 2:
        order, padj, width = oracle.pair_rows()
        keep = [full ^ row for row in padj]  # the positions each choice leaves open
        fits = lambda mask, p: not padj[p] & mask
    else:
        order, links = oracle.hyper_rows()
        keep = _Open(links, oracle.n, full)
        fits = lambda mask, p: not keep.completing(p, bitops.iter_bits(mask)) & mask
    t0 = _lap(timing, "rows_ms", t0)
    pos_of = sorted(range(m), key=order.__getitem__)  # the inverse of order: each candidate's position
    seed = _greedy(pos_of, fits)  # in candidate order
    comps = _components(padj, full) if oracle.caps_pairs else [full]
    seeds = [(seed & comp).bit_count() for comp in comps]
    firsts = [_greedy(bitops.iter_bits(comp), fits) for comp in comps] if oracle.caps_pairs else []
    caps: list[float] = []
    searches: list[_Branch] = []
    dp_s = 0.0
    for k, comp in enumerate(comps):
        start = seed & comp
        cap = math.inf
        if oracle.caps_pairs:
            if firsts[k].bit_count() > seeds[k]:
                start = firsts[k]
            cap = 1 if comp & (comp - 1) == 0 else oracle.pair_cap([order[p] for p in bitops.iter_bits(comp)])
            if start.bit_count() < cap:
                walk = _walk_family(padj, comp)
                if walk.bit_count() >= cap:
                    start = walk
        if start.bit_count() < cap and width is not None:
            t1 = time.perf_counter()
            cap = min(cap, _band_cap(padj, order, comp, width))
            dp_s += time.perf_counter() - t1
        best = list(bitops.iter_bits(start))
        searches.append(_Branch(keep, comp, best, len(best), cap))
        caps.append(cap)
    nodes = 0
    if width is None:  # n >= 3: no counting cap, so one search, which ``keep`` follows
        assert len(searches) == 1  # and the re-search below, which needs two, never runs
        keep.branch = search = searches[0]
        if oracle.transitive and search.nbest < m and node_budget:
            # translation maps a maximum family onto one holding position 0:
            # take it, as one node, and leave out the branch without it (a
            # seed of every candidate closes at no node, as before)
            search.cur.append(0)
            search.rem = keep[0]
            nodes = 1
    nodes, budget_hit = _share(searches, nodes, node_budget)
    if not budget_hit and any(len(s.best) > size for s, size in zip(searches, seeds)):
        again = []
        for k, comp in enumerate(comps):
            size = len(searches[k].best)
            if size > seeds[k]:
                continue
            if firsts[k].bit_count() == size:
                searches[k].best = list(bitops.iter_bits(firsts[k]))
            else:
                searches[k] = _Branch(keep, comp, searches[k].best, size - 1, size)
                again.append(searches[k])
        nodes, budget_hit = _share(again, nodes, node_budget)
    _lap(timing, "search_ms", t0)
    if timing is not None and width is not None:
        timing["components"] = len(comps)
        timing["capped"] = sum(len(s.best) >= cap for s, cap in zip(searches, caps))
        timing["dp_ms"] = round(dp_s * 1000, 3)
        timing["bandwidth"] = width
    return sorted(order[p] for s in searches for p in s.best), budget_hit, nodes


_BAND_WIDTH = 12  # the widest band the DP runs on: 2^12 states


def _band_cap(rows: list[int], order: list[int], comp: int, width: int) -> float:
    """The optimum of the component ``comp`` by ``_band_optimum`` when the
    bandwidth ``width`` is at most ``_BAND_WIDTH``, else inf."""
    if width > _BAND_WIDTH:
        return math.inf
    members = sorted(bitops.iter_bits(comp), key=order.__getitem__)  # in candidate order
    back = [sum(1 << k for k, q in enumerate(reversed(members[max(0, t - width) : t])) if rows[p] >> q & 1)
            for t, p in enumerate(members)]
    return _band_optimum(back, width)


def _band_optimum(back: Sequence[int], w: int) -> int:
    """The size of a maximum independent set in a graph whose t-th vertex
    conflicts only with the vertices t - 1 - k, k < w a bit of ``back[t]``.

    The path-decomposition DP (Arnborg & Proskurowski 1989): ``val[s]`` is
    the largest set so far that takes, of the last w vertices, those the
    bits of s name (bit 0 the latest).  One vectorised step per vertex, each
    O(2^w) in time and memory; no traceback, as only the value is used."""
    half = 1 << (max(w, 1) - 1)
    states = np.arange(2 * half)
    none = -len(back) - 1  # no set: stays below 0 through every step
    val = np.full(2 * half, none, dtype=np.int32)
    val[0] = 0
    new = np.empty_like(val)
    for b in back:
        ok = np.where(states & b, none, val)
        np.maximum(val[:half], val[half:], out=new[0::2])  # vertex t left out
        np.maximum(ok[:half], ok[half:], out=new[1::2])  # taken, where s meets no conflict
        new[1::2] += 1
        val, new = new, val
    return int(val.max())


class _Branch:
    """Branch and bound over the positions in ``rem``, resumable.

    Depth-first, include before exclude, on an explicit stack: ``cur`` holds
    the positions (in search order) taken on the way down, ``rem`` the
    positions still open below them (``keep[p]`` masks those a taken p
    leaves), and ``stack`` what each level has left to try once the branch
    under it closes.  A family replaces ``best`` when it is larger than
    ``nbest``; the search closes once one reaches ``cap`` or no branch is left.
    """

    def __init__(self, keep: list[int] | _Open, rem: int, best: list[int], nbest: int, cap: float):
        self.keep = keep
        self.rem = rem
        self.best = best
        self.nbest = nbest
        self.cap = cap
        self.cur: list[int] = []
        self.stack: list[int] = []
        self.closed = nbest >= cap

    def run(self, allowance: float) -> int:
        """Search on for at most ``allowance`` nodes; the nodes it took.
        ``closed`` tells whether the search is over."""
        if self.closed:
            return 0
        keep, cur, stack, rem, nbest = self.keep, self.cur, self.stack, self.rem, self.nbest
        spent = 0
        while True:
            if len(cur) + rem.bit_count() <= nbest:
                if not stack:
                    self.closed = True
                    break
                rem = stack.pop()
                cur.pop()
                continue
            if spent >= allowance:
                break
            spent += 1
            low = rem & -rem
            p = low.bit_length() - 1
            rem ^= low
            stack.append(rem)
            cur.append(p)
            if len(cur) > nbest:
                self.best = list(cur)
                nbest = len(cur)
                if nbest >= self.cap:
                    self.closed = True
                    break
            rem &= keep[p]
        self.rem, self.nbest = rem, nbest
        return spent


class _Open:
    """``keep`` for n >= 3, read by the one ``_Branch`` (``branch``) whose
    rising ``cur`` it follows, on the link table of ``hyper_rows`` in place.
    ``keep[p]``, p the last of ``cur``, is ``open[d]`` (d = len(cur)): the
    positions above p that still fit, those of ``open[d-1]`` that complete
    no edge with p and n-2 others of ``cur``.  ``adj[d][u]`` masks those
    others for u: u ~ v in the link graph of ``cur`` when u, v and n-2
    members of it make an edge, so a family takes at most one position of a
    clique.  ``keep[p]`` is 0, which closes the branch under p, when
    ``open[d]`` splits into too few cliques to lift ``cur`` past the
    incumbent."""

    def __init__(self, links: dict[tuple, list[int]], n: int, full: int):
        self.links = links
        self.n = n
        self.open = [full]
        self.adj = [[0] * full.bit_length()]
        self.branch: _Branch

    def completing(self, p: int, members: Iterable[int]) -> int:
        """The positions completing an edge with p and n-2 of ``members`` (increasing)."""
        out = 0
        for key in itertools.combinations(members, self.n - 2):
            row = self.links.get(key)
            if row is not None:
                out |= row[p]
        return out

    def __getitem__(self, p: int) -> int:
        cur = self.branch.cur
        d = len(cur)
        del self.open[d:], self.adj[d:]
        rem = self.open[-1] & -(2 << p) & ~self.adj[-1][p]
        room = len(self.branch.best) - d  # a family past the incumbent takes more than this
        if rem.bit_count() <= room:
            return 0
        adj = self.adj[-1]
        # the edges new to the link graph hold p, the highest of ``cur``
        for rest in itertools.combinations(cur[:-1], self.n - 3):
            row = self.links.get(rest + (p,))
            if row is not None:
                adj = [a | b for a, b in zip(adj, row)]
        self.open.append(rem)
        self.adj.append(adj)
        cliques = 0
        while cliques <= room < cliques + rem.bit_count():  # else the count is settled
            low = rem & -rem
            rem ^= low
            near = adj[low.bit_length() - 1] & rem
            while near:
                low = near & -near
                rem ^= low
                near &= adj[low.bit_length() - 1]
            cliques += 1
        return self.open[d] if cliques > room else 0


def _share(searches: list[_Branch], nodes: int, node_budget: float) -> tuple[int, bool]:
    """Run ``searches`` to their close on one node budget, ``nodes`` of it
    spent already: in rounds, each open search gets 1, 2, 4, ... nodes, so
    that no search waits on another to close.  The node past the budget is
    counted, as the budget's one hit.  Returns the nodes and whether the
    budget ran out."""
    allowance = 1
    while True:
        open_ = [s for s in searches if not s.closed]
        if not open_:
            return nodes, False
        for s in open_:
            nodes += s.run(min(allowance, node_budget - nodes))
            if not s.closed and nodes >= node_budget:
                return nodes + 1, True
        allowance *= 2


def _components(rows: list[int], full: int) -> list[int]:
    """The connected components of the graph ``rows`` as position masks, in
    order of their lowest position, by a bitset flood."""
    comps = []
    left = full
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            for p in bitops.iter_bits(frontier):
                reach |= rows[p]
            frontier = reach & ~comp
            comp |= frontier
        comps.append(comp)
        left ^= comp
    return comps


def _walk_family(rows: list[int], comp: int) -> int:
    """Greedy family along a depth-first walk of the component ``comp``
    (``_depth_first``).  On a cycle it takes every other position."""
    return _greedy(_depth_first(rows, comp), lambda taken, p: not rows[p] & taken)


def _depth_first(rows: list[int], comp: int) -> Iterator[int]:
    """The positions of the component ``comp`` in the order a depth-first
    walk from its lowest position meets them, lowest unvisited neighbour
    first, on an explicit stack."""
    seen = comp & -comp
    stack = [seen.bit_length() - 1]
    yield stack[0]
    while stack:
        fresh = rows[stack[-1]] & ~seen
        if not fresh:
            stack.pop()
            continue
        low = fresh & -fresh
        seen |= low
        stack.append(low.bit_length() - 1)
        yield stack[-1]


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
    A budget or cap of 0 is valid; a negative one is a usage error.
    """
    for name, bound in (("node_budget", node_budget), ("exact_cap", exact_cap)):
        if bound < 0:
            raise InvalidParam(f"exact search needs {name} >= 0, got {bound}")

    def search(ideal: Ideal, timing: dict):
        m = len(candidates)
        if n >= 3 and m > exact_cap:
            raise BudgetExceeded(f"exact search with n={n} is capped at {exact_cap} candidates (got {m})")
        oracle = ConflictOracle(A, ideal, candidates, n)
        family, budget_hit, nodes = _exact(oracle, m, node_budget, timing)
        return oracle, family, not budget_hit, {"nodes": nodes, "budget_hit": budget_hit}

    return _pack(A, ideal, candidates, n, expr, search)
