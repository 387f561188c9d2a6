"""The acceptance suite: finite, checkable slices of the headline claims.

Each criterion is a self-contained function returning a CriterionResult;
``run_all`` powers both the ``verify-paper`` CLI command and the test
suite.  Criteria with a stated runtime budget fail when they blow it.
Random inputs use fixed seeds: the suite either passes deterministically or
fails deterministically.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import bitops
from .completion import CompletionContext, iterate_completion
from .folner import counting_bound_check, measure_build
from .freegroup import f2_partition, family_disjoint, parse_translators, shipped_b_family
from .groups import MaterializedSet, Window, ZModGroup, ZWindowGroup
from .ideals import DensityZeroIdeal, FiniteSetsIdeal, TrivialIdeal
from .largesmall import LargeBounds, SmallBounds, is_ideal_small, is_small
from .packing import pack_exact, pack_greedy
from .setexpr import default_catalog, materialize, parse_set_expr

__all__ = ["CriterionResult", "run_all"] + [f"criterion_{i}" for i in range(1, 11)]


@dataclass
class CriterionResult:
    index: int
    title: str
    passed: bool
    detail: str
    elapsed_s: float
    budget_s: Optional[float] = None

    def line(self, timed: bool = True) -> str:
        """One PASS/FAIL line; ``timed=False`` leaves out the run time, so
        the line repeats exactly from run to run."""
        status = "PASS" if self.passed else "FAIL"
        head = f"{status}  criterion {self.index:2d}: {self.title}  "
        if timed:
            timing = f"{self.elapsed_s:.2f}s"
            if self.budget_s is not None:
                over = self.elapsed_s > self.budget_s
                timing += f" {'>' if over else '<'} {self.budget_s:g}s"
            head += f"[{timing}]  "
        return head + self.detail

    def payload(self) -> dict:
        return {
            "index": self.index,
            "title": self.title,
            "passed": self.passed,
            "detail": self.detail,
            "elapsed_s": round(self.elapsed_s, 3),
            "budget_s": self.budget_s,
        }


def _finish(
    index: int, title: str, t0: float, ok: bool, detail: str, budget: Optional[float]
) -> CriterionResult:
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed > budget:
        ok = False
        detail += "; over time budget"
    return CriterionResult(index, title, ok, detail, elapsed, budget)


def criterion_1() -> CriterionResult:
    """pack_2 of the even numbers is exactly 2, on a Z window and on Z_12."""
    t0 = time.perf_counter()
    g = ZWindowGroup(Window(0, 10_000, margin=16))
    evens = materialize(parse_set_expr("evens"), g)
    r1 = pack_exact(evens, TrivialIdeal(), list(range(10)), 2)
    g12 = ZModGroup(12)
    r2 = pack_exact(materialize(parse_set_expr("evens"), g12), TrivialIdeal(), list(range(12)), 2)
    ok = r1.value == 2 and r1.flag == "exact" and r2.value == 2 and r2.flag == "exact"
    detail = f"z-window value {r1.value} ({r1.flag}), Z_12 value {r2.value} ({r2.flag})"
    return _finish(1, "pack_2(evens) = 2 on Z window and Z_12", t0, ok, detail, 0.1)


def criterion_2() -> CriterionResult:
    """pack_2 of the triangular numbers is 1 over shifts 0..1000."""
    t0 = time.perf_counter()
    g = ZWindowGroup(Window(0, 1_000_000, margin=1000))
    tri = materialize(parse_set_expr("triangular"), g)
    # independent oracle: b = T(b) - T(b-1), so translates by 0 and b always
    # meet at T(b) = b(b+1)/2, which stays inside the window for b <= 1000
    oracle_ok = True
    for b in range(1, 1001):
        u = b * (b - 1) // 2
        if not ((tri.bits >> u) & 1 and (tri.bits >> (u + b)) & 1 and u + b <= 1_000_000):
            oracle_ok = False
            break
    r = pack_exact(tri, TrivialIdeal(), list(range(1001)), 2)
    ok = oracle_ok and r.value == 1 and r.flag == "exact"
    detail = f"value {r.value} ({r.flag}), conflict witnesses verified for all 1000 shifts"
    return _finish(2, "pack_2(triangular) = 1 over shifts 0..1000", t0, ok, detail, 5.0)


def criterion_3() -> CriterionResult:
    """{2^m + triangular : 4 <= m <= 12}: all 84 triple intersections empty."""
    t0 = time.perf_counter()
    g = ZWindowGroup(Window(0, 100_000, margin=4096))
    tri = materialize(parse_set_expr("triangular"), g)
    shifts = [2**m for m in range(4, 13)]
    pos = bitops.positions_from_bits(tri.bits, g.size)
    empties = 0
    for ci, cj, ck in itertools.combinations(shifts, 3):
        inter = np.intersect1d(pos + ci, pos + cj, assume_unique=True)
        inter = np.intersect1d(inter, pos + ck, assume_unique=True)
        if inter[inter <= 100_000].size == 0:
            empties += 1
    r = pack_exact(tri, TrivialIdeal(), shifts, 3)
    ok = empties == 84 and r.value >= 9 and r.flag == "saturated"
    detail = f"{empties}/84 triples empty; pack_3 value {r.value} ({r.flag})"
    return _finish(3, "triangular translates by 2^4..2^12 are 3-disjoint", t0, ok, detail, 5.0)


def criterion_4() -> CriterionResult:
    """Folner stage F={1}, n=10: L=21, y=232, exact measures, defect bound."""
    t0 = time.perf_counter()
    g = ZWindowGroup(Window(0, 1_000_000, margin=64))
    tri = materialize(parse_set_expr("triangular"), g)
    evens = materialize(parse_set_expr("evens"), g)
    m = measure_build([1], 10, tri)
    checks = [
        m.cert.length == 21,
        m.y == 232,
        m.mu(tri) == 0,
        m.mu(evens) == Fraction(11, 21),
    ]
    bound = Fraction(2, 21)
    rng = np.random.default_rng(20260819)
    worst = Fraction(0)
    for _ in range(100):
        arr = rng.random(g.size) < 0.3
        B = MaterializedSet(g, int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little"))
        d = m.invariance_defect(1, B)
        worst = max(worst, d)
    checks.append(worst <= bound)
    checks.append(bound < Fraction(1, 10))
    ok = all(checks)
    detail = (
        f"L={m.cert.length}, y={m.y}, mu(tri)={m.mu(tri)}, mu(evens)={m.mu(evens)}, "
        f"worst defect {worst} <= 2/21"
    )
    return _finish(4, "Folner measure stage: exact values and defect bound", t0, ok, detail, None)


def criterion_5() -> CriterionResult:
    """Counting bound on Z_64: density(A) <= 2/m for greedy disjoint families."""
    t0 = time.perf_counter()
    g = ZModGroup(64)
    rng = np.random.default_rng(64)
    ok = True
    worst = ""
    for i in range(100):
        p = 0.05 + 0.5 * rng.random()
        bits = 0
        for j in np.nonzero(rng.random(64) < p)[0]:
            bits |= 1 << int(j)
        A = MaterializedSet(g, bits)
        rep = pack_greedy(A, TrivialIdeal(), list(range(64)), 2)
        mm = rep.value
        density = Fraction(A.cardinality(), 64)
        check = counting_bound_check(A, rep.family, 2)
        if not (density <= Fraction(2, mm) and check.holds):
            ok = False
            worst = f"set {i}: density {density} vs 2/{mm}"
            break
    detail = worst or "100/100 random sets satisfy density <= 2/m exactly"
    return _finish(5, "counting bound density <= 2/m on Z_64", t0, ok, detail, None)


def criterion_6() -> CriterionResult:
    """F2 at depth 12: 9 disjoint translates of A, 6 of B."""
    t0 = time.perf_counter()
    _, a_side, b_side = f2_partition(12)
    ra = family_disjoint(a_side, parse_translators("b^0..b^8"), 2, base_label="A")
    rb = family_disjoint(b_side, shipped_b_family(), 2, base_label="B")
    ok = ra.disjoint and rb.disjoint and len(ra.translators) == 9 and len(rb.translators) == 6
    detail = (
        f"A-side 9-family disjoint={ra.disjoint} (core {ra.core_size}), "
        f"B-side 6-family disjoint={rb.disjoint} (core {rb.core_size})"
    )
    return _finish(6, "F2 decomposition: disjoint translate families", t0, ok, detail, 10.0)


def _brute_pack(N: int, bits: int, n: int) -> int:
    """Exhaustive max independent family over all subsets of Z_N."""
    full = (1 << N) - 1

    def rot(b: int, c: int) -> int:
        return ((b << c) | (b >> (N - c))) & full if c else b

    masks = np.arange(1 << N, dtype=np.uint32)
    bad = np.zeros(1 << N, dtype=bool)
    for combo in itertools.combinations(range(N), n):
        inter = rot(bits, combo[0])
        for c in combo[1:]:
            inter &= rot(bits, c)
        if inter:
            e = np.uint32(sum(1 << i for i in combo))
            bad |= (masks & e) == e
    pop = np.zeros(1 << N, dtype=np.uint8)
    for i in range(N):
        pop += ((masks >> np.uint32(i)) & 1).astype(np.uint8)
    return int(pop[~bad].max())


def criterion_7() -> CriterionResult:
    """pack_exact agrees with brute force on Z_N, N in {6,8,10,12}, n in {2,3}."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    mismatch = ""
    runs = 0
    for N in (6, 8, 10, 12):
        g = ZModGroup(N)
        for i in range(50):
            bits = 0
            for j in np.nonzero(rng.random(N) < 0.35)[0]:
                bits |= 1 << int(j)
            A = MaterializedSet(g, bits)
            for n in (2, 3):
                r = pack_exact(A, TrivialIdeal(), list(range(N)), n)
                b = _brute_pack(N, bits, n)
                runs += 1
                if r.value != b:
                    ok = False
                    mismatch = f"N={N} set {i} n={n}: exact {r.value} vs brute {b}"
                    break
            if not ok:
                break
        if not ok:
            break
    detail = mismatch or f"{runs} searches match brute force"
    return _finish(7, "pack_exact = brute force on Z_N", t0, ok, detail, None)


def criterion_8() -> CriterionResult:
    """Monotonicity: in n, in the ideal chain, and antitone smallness."""
    t0 = time.perf_counter()
    g = ZWindowGroup(Window(0, 20_000, margin=16))
    cands = list(range(13))
    cat = default_catalog()
    triv = TrivialIdeal()
    fin = FiniteSetsIdeal(cutoff=16)
    dens = DensityZeroIdeal(lengths=(64, 256, 1024), threshold=Fraction(1, 50))
    problems = []
    # membership runs on the bitset proxies throughout: cutoff 16 is below
    # threshold * max length = 1024/50, which makes the inclusion
    # finite-sets <= density-zero hold query-by-query at this scale (the
    # symbolic finiteness judge would break it: interval(0,50) is finite
    # but denser than 1/50 in a 1024-window)
    for name, expr in cat.items():
        A = materialize(expr, g)
        v = {n: pack_exact(A, triv, cands, n).value for n in (2, 3, 4)}
        if not (v[2] <= v[3] <= v[4]):
            problems.append(f"{name}: n-chain {v}")
        vf = pack_exact(A, fin, cands, 2).value
        vd = pack_exact(A, dens, cands, 2).value
        if not (v[2] <= vf <= vd):
            problems.append(f"{name}: ideal chain {v[2]},{vf},{vd}")

    gs = ZWindowGroup(Window(0, 5_000, margin=64))
    bounds = SmallBounds(m=2, s=8, inner=LargeBounds(max_f=64, shift_range=64))
    rng = np.random.default_rng(88)
    pairs = 0
    for i in range(50):
        p = 0.02 + 0.2 * rng.random()
        keep = rng.random(gs.size) < p
        sub = keep & (rng.random(gs.size) < 0.6)
        B = MaterializedSet(gs, int.from_bytes(np.packbits(keep, bitorder="little").tobytes(), "little"))
        A = MaterializedSet(gs, int.from_bytes(np.packbits(sub, bitorder="little").tobytes(), "little"))
        vb = is_small(B, bounds).verdict
        va = is_small(A, bounds).verdict
        pairs += 1
        if vb == "small-at-scale" and va != "small-at-scale":
            problems.append(f"pair {i}: B small but subset A {va}")
            break
    ok = not problems
    detail = problems[0] if problems else (
        f"{len(cat.names)} catalog sets monotone in n and ideal; "
        f"{pairs} nested pairs antitone"
    )
    return _finish(8, "packing monotone in n and ideal; smallness antitone", t0, ok, detail, None)


def criterion_9() -> CriterionResult:
    """Triangular small-at-scale; evens not-small with F = {0, 1}."""
    t0 = time.perf_counter()
    g = ZWindowGroup(Window(0, 1_000_000, margin=64))
    tri = materialize(parse_set_expr("triangular"), g)
    evens = materialize(parse_set_expr("evens"), g)
    ev_tri = is_small(tri, SmallBounds(m=3, s=32))
    ev_ev = is_small(evens, SmallBounds(m=3, s=32))
    ok = (
        ev_tri.verdict == "small-at-scale"
        and ev_ev.verdict == "not-small"
        and ev_ev.counterexample == [0, 1]
    )
    detail = (
        f"triangular {ev_tri.verdict} ({ev_tri.families_tested} families); "
        f"evens {ev_ev.verdict} with F={ev_ev.counterexample}"
    )
    return _finish(9, "smallness verdicts for triangular and evens", t0, ok, detail, 30.0)


def criterion_10() -> CriterionResult:
    """pack_2-completion: monotone stages, fixpoint <= 5, admitted sets small."""
    t0 = time.perf_counter()
    cat = default_catalog()
    g = ZWindowGroup(Window(0, 100_000, margin=512))
    cands = list(range(513))
    trace = iterate_completion("pack_n", 5, cat, g, n=2, candidates=cands, threshold=8)
    monotone = all(
        set(trace.stage_sets[i]) <= set(trace.stage_sets[i + 1])
        for i in range(len(trace.stage_sets) - 1)
    )
    ctx = CompletionContext(cat, g)
    echo = SmallBounds(m=2, s=16, inner=LargeBounds(max_f=256, shift_range=256))
    not_small = [
        name
        for name in trace.admitted()
        if is_ideal_small(ctx.sets[name], TrivialIdeal(), echo).verdict != "small-at-scale"
    ]
    ok = (
        monotone
        and trace.fixpoint
        and trace.fixpoint_stage is not None
        and trace.fixpoint_stage <= 5
        and not not_small
    )
    detail = (
        f"fixpoint at stage {trace.fixpoint_stage}, {len(trace.admitted())} admitted, "
        + ("all small-at-scale" if not not_small else f"not small: {not_small}")
    )
    return _finish(10, "pack_2-completion monotone with small admitted sets", t0, ok, detail, None)


_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
]


def run_all(only: Optional[int] = None) -> list[CriterionResult]:
    out = []
    for i, fn in enumerate(_CRITERIA, start=1):
        if only is not None and i != only:
            continue
        out.append(fn())
    return out
