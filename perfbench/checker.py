"""Independent answer checks behind correct_frac.

Every answer is checked against the benchmark's own reference model
(model.py), never against idealpack's private helpers:

* packing families: every n-subset of translates meets the ideal on the
  exact core, by plain integer bit operations; Z_N values for N <= 12
  against a brute force; flags against the search budget;
* smallness: a not-small counterexample F must make FA cover the exact core
  modulo the ideal, and be the first family in the search's order to do so;
  small-at-scale and inconclusive verdicts must have tested every family,
  none of which covers; triangular is small-at-scale and the evens are
  not-small with F = [0, 1];
* largeness: prefix witnesses are recomputed, greedy covers re-verified;
* F2 disjointness: recomputed with the benchmark's own reduced words;
* Følner stages: L, the avoiding translate y and mu by direct counting;
* density profiles from the bit array;
* completion: monotone stages, union closure, admission records.

``check`` returns a list of problems (empty when the answer is right).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from model import (
    CATALOG,
    DENSITY_LENGTHS,
    DENSITY_THRESHOLD,
    FINITE_CUTOFF,
    FreeBall,
    Table,
    ZMod,
    ZWindow,
    ball_count,
    ball_levels,
    eval_z,
    max_window,
    member,
    parse_word,
    show,
    word_text,
)
from workloads import GENERATED_GENERATORS, GENERATED_SHIFT_RANGE, avoiding_translate


def closed(q: dict, payload: dict) -> bool:
    """Did the query's search finish within its stated bounds?"""
    op = q["op"]
    if op == "cli":
        report = payload.get("report") or {}
        result = report.get("result", {})
        cmd = q["argv"][0]
        if cmd == "pack":
            return result.get("flag") in ("exact", "saturated")
        if cmd == "large":
            return bool(result.get("large"))
        if cmd == "complete":
            return bool(result.get("fixpoint"))
        return True
    if op == "small":
        return payload["verdict"] != "inconclusive"
    if op == "large":
        return bool(payload["large"])
    if op == "pack":
        return payload["flag"] in ("exact", "saturated")
    return True


def _ideal_member(ideal: dict, size: int):
    """Membership test for bare bitsets (no expression) in this ideal."""
    if ideal["kind"] == "generated":
        return ideal["member"]
    return lambda bits: member(ideal, bits, size)


class Checker:
    def __init__(self, workload):
        self.wl = workload
        self._carriers: dict = {}
        self._bits: dict = {}

    def carrier(self, cid: str):
        if cid not in self._carriers:
            self._carriers[cid] = carrier_model(self.wl.carriers[cid])
        return self._carriers[cid]

    def bits(self, sid: str) -> int:
        if sid not in self._bits:
            cid, expr = self.wl.sets[sid]
            c = self.carrier(cid)
            self._bits[sid] = c.piece(expr[1]) if expr[0] == "piece" else c.eval(expr)
        return self._bits[sid]

    def check(self, q: dict, payload: dict) -> list[str]:
        op = q["op"]
        if op == "cli":
            return check_cli(q, payload)
        cid = self.wl.sets[q["set"]][0]
        name = q["set"].split("@")[0]
        if op == "disjoint":
            return check_disjoint(q, payload, self.wl.carriers[cid]["depth"], name)
        carrier, A = self.carrier(cid), self.bits(q["set"])
        if op == "small":
            return check_small(q, payload, carrier, A, name)
        if op == "large":
            return check_large(q, payload, carrier, A)
        if op == "pack":
            return check_pack(q, payload, carrier, A, q["ideal"], None)
        if op == "counting":
            return check_counting(q, payload, carrier, A)
        return [f"no check for op {op!r}"]


def carrier_model(spec: dict):
    kind = spec["kind"]
    if kind == "z-window":
        return ZWindow(spec["lo"], spec["hi"], spec["margin"])
    if kind == "z-mod":
        return ZMod(spec["modulus"])
    if kind == "cayley":
        return Table(spec["table"], spec["identity"])
    return FreeBall(spec["depth"])


# --------------------------------------------------------------------------
# smallness and largeness
# --------------------------------------------------------------------------


def family_pool(carrier, s: int) -> list:
    """The translators a smallness search draws from, in its documented order:
    shifts 0, 1, -1, ..., s, -s on Z; the word ball of radius s in shortlex
    order on F2; every element of a table group."""
    if carrier.kind == "z-window":
        return [0] + [v for k in range(1, s + 1) for v in (k, -k)]
    if carrier.kind == "free-2":
        return carrier.words[:ball_count(min(s, carrier.depth))]
    return list(range(carrier.size))


def first_covering_family(carrier, A: int, ideal: dict, m: int, s: int):
    """(F, position) of the first family of at most m translators, in the
    search's order (by size, then lexicographic over the pool), whose
    translates cover the exact core modulo the ideal; (None, families) if
    none does.  On the carriers the workloads use, such a family is exactly
    a hard counterexample: what FA leaves uncovered is far too small to be
    made large."""
    pool = family_pool(carrier, s)
    total = sum(math.comb(len(pool), j) for j in range(1, m + 1))
    # |FA| <= |F| |A| and every family's core contains the core of the whole
    # pool: when m |A| plus the most the ideal lets go uncovered is below
    # that, no family can cover and none needs trying
    slack = {"trivial": 0, "finite-sets": ideal.get("cutoff", FINITE_CUTOFF)}.get(ideal["kind"])
    if slack is not None and m * A.bit_count() + slack < carrier.core(pool).bit_count():
        return None, total
    translates = [carrier.translate(f, A) for f in pool]
    tested = 0
    for size in range(1, m + 1):
        for combo in itertools.combinations(range(len(pool)), size):
            tested += 1
            FA = 0
            for i in combo:
                FA |= translates[i]
            F = [pool[i] for i in combo]
            if member(ideal, carrier.core(F) & ~FA, carrier.size):
                return F, tested
    return None, tested


def _as_translator(carrier, f):
    return parse_word(f) if carrier.kind == "free-2" else f


def check_small(q, p, carrier, A, name) -> list[str]:
    errs = []
    m, s = q["m"], q["s"]
    ideal = q["ideal"]
    want_bounds = {"m": m, "s": s, "inner_max_f": q["inner"][0], "inner_shift_range": q["inner"][1]}
    if p["bounds"] != want_bounds:
        errs.append(f"bounds echoed as {p['bounds']}, asked {want_bounds}")
    pool = len(family_pool(carrier, s))
    total = sum(math.comb(pool, j) for j in range(1, m + 1))
    verdict = p["verdict"]
    if verdict in ("small-at-scale", "inconclusive"):
        if p["families_tested"] != total:
            errs.append(f"{verdict} after {p['families_tested']} of {total} families")
        if (verdict == "inconclusive") != (p.get("first_inconclusive") is not None):
            errs.append("first_inconclusive does not match the verdict")
    elif verdict == "not-small":
        F = p["counterexample"]
        if not F or len(F) > m or len(set(map(str, F))) != len(F):
            errs.append(f"counterexample {F} is not a family of at most {m} translators")
        elif p["families_tested"] > total:
            errs.append(f"tested {p['families_tested']} > {total} families")
        else:
            fs = [_as_translator(carrier, f) for f in F]
            if carrier.kind == "z-window" and max(abs(f) for f in fs) > s:
                errs.append(f"counterexample {F} leaves the shift bound {s}")
            if carrier.kind == "free-2" and max(len(f) for f in fs) > min(s, carrier.depth):
                errs.append(f"counterexample {F} leaves the word-length bound {s}")
            FA = 0
            for f in fs:
                FA |= carrier.translate(f, A)
            gap = carrier.core(fs) & ~FA
            if not member(ideal, gap, carrier.size):
                errs.append(f"FA for F={F} leaves {gap.bit_count()} core elements outside the ideal")
    else:
        errs.append(f"unknown verdict {verdict!r}")
    if not errs:
        # every family the bounds allow, in the search's own order: the first
        # one that covers, if any, must be the reported counterexample
        F, tested = first_covering_family(carrier, A, ideal, m, s)
        if F is None:
            if verdict == "not-small":
                errs.append(f"not-small, but no family of at most {m} translators covers the core")
        else:
            F = F if carrier.kind == "free-2" else sorted(F)
            shown = [word_text(f) for f in F] if carrier.kind == "free-2" else F
            if verdict != "not-small":
                errs.append(f"{verdict}, but F={shown} covers the core")
            elif [_as_translator(carrier, f) for f in p["counterexample"]] != F or p["families_tested"] != tested:
                errs.append(f"counterexample {p['counterexample']} after {p['families_tested']} families; the "
                            f"first covering family is {shown}, family {tested}")
    if name == "tri" and ideal["kind"] == "trivial" and verdict != "small-at-scale":
        errs.append(f"triangular numbers reported {verdict}")
    if name == "parity" and (verdict != "not-small" or p["counterexample"] != [0, 1]):
        errs.append(f"evens reported {verdict} with F={p.get('counterexample')}")
    return errs


def prefix_search(carrier, A: int, ideal: dict, kmax: int):
    """Own run of the minimal-prefix largeness search: (k or None, residual
    size at k, best k, best size)."""
    acc = 0
    eroded = carrier.full
    best = None
    for k in range(kmax + 1):
        acc |= carrier.translate(k, A)
        if k > 0:
            eroded &= carrier.translate(k, carrier.full)
        if eroded == 0:
            break
        residual = eroded & ~acc
        size = residual.bit_count()
        if member(ideal, residual, carrier.size):
            return k, size, best
        if best is None or size < best[1]:
            best = (k, size)
    return None, None, best


def check_large(q, p, carrier, A) -> list[str]:
    errs = []
    ideal = q["ideal"]
    if carrier.kind in ("z-window", "z-mod"):
        kmax = min(q["shift_range"], q["max_f"] - 1)
        k, size, best = prefix_search(carrier, A, ideal, kmax)
        if p["large"]:
            if k is None:
                return [f"claims large with family {p['family'][:5]}..., no prefix k <= {kmax} covers"]
            if p["family"] != list(range(k + 1)) or p["residual_size"] != size:
                errs.append(f"witness {len(p['family'])} translates / residual {p['residual_size']}, "
                            f"expected prefix k={k} / residual {size}")
        elif k is not None:
            errs.append(f"reports not large, but the prefix k={k} covers")
        elif best is not None and (p["best_family"] != list(range(best[0] + 1)) or p["best_residual_size"] != best[1]):
            errs.append(f"best prefix reported {len(p['best_family'])}/{p['best_residual_size']}, expected "
                        f"{best[0] + 1}/{best[1]}")
        return errs
    if carrier.kind == "free-2":
        reach = min(q["shift_range"], carrier.depth)
        region = carrier.core([(0,) * reach])
    else:
        reach = None
        region = carrier.full
    family = p["family"] if p["large"] else p["best_family"]
    acc = 0
    for f in family:
        g = _as_translator(carrier, f)
        if reach is not None and len(g) > reach:
            errs.append(f"translator {f!r} is longer than {reach}")
        acc |= carrier.translate(g, A)
    residual = region & ~acc
    if p["large"]:
        if len(family) > q["max_f"] or residual != 0 or p["residual_size"] != 0:
            errs.append(f"cover by {len(family)} translates leaves {residual.bit_count()} elements")
    elif residual.bit_count() != p["best_residual_size"]:
        errs.append(f"best family leaves {residual.bit_count()}, reported {p['best_residual_size']}")
    return errs


# --------------------------------------------------------------------------
# packing
# --------------------------------------------------------------------------


def brute_pack(N: int, bits: int, n: int) -> int:
    """Largest family in Z_N whose n-subsets of translates never meet."""
    c = ZMod(N)
    masks = np.arange(1 << N, dtype=np.int64)
    bad = np.zeros(1 << N, dtype=bool)
    for combo in itertools.combinations(range(N), n):
        inter = c.full
        for x in combo:
            inter &= c.translate(x, bits)
        if inter:
            e = sum(1 << x for x in combo)
            bad |= (masks & e) == e
    pop = np.zeros(1 << N, dtype=np.int64)
    for i in range(N):
        pop += (masks >> i) & 1
    return int(pop[~bad].max())


def check_pack(q, p, carrier, A, ideal: dict, expr) -> list[str]:
    errs = []
    cands = list(q["candidates"])
    n, m = q.get("n", 2), len(cands)
    exact = q.get("mode", "exact") == "exact"
    family = p["family"]
    if p["value"] != len(family) or len(set(family)) != len(family) or not set(family) <= set(cands):
        errs.append(f"family {family[:8]} does not match value {p['value']} over the candidates")
    if p["candidates"] != m or p["n"] != n or p["floor"] != min(n - 1, m):
        errs.append("candidates, n or floor echoed wrongly")
    set_member = member(ideal, A, carrier.size, expr) if ideal["kind"] != "generated" else ideal["member"](A)
    if "note" in p:
        if not set_member or p["flag"] != "saturated" or family != cands or p["edges_evaluated"]:
            errs.append("member shortcut taken for a set outside the ideal")
        return errs
    if set_member:
        errs.append("the set is in the ideal but the search ran")
    if p["value"] == m:
        want = "saturated"
    elif exact:
        want = "lower-bound" if p.get("budget_hit") else "exact"
        budget = q.get("node_budget", 2_000_000)
        if bool(p.get("budget_hit")) != (p["nodes"] > budget):
            errs.append(f"budget_hit={p.get('budget_hit')} with {p['nodes']} nodes of {budget}")
    else:
        want = "lower-bound"
    if p["flag"] != want:
        errs.append(f"flag {p['flag']}, expected {want}")
    is_member = _ideal_member(ideal, carrier.size)
    translates = {c: carrier.translate(c, A) for c in family}
    for combo in itertools.combinations(family, n):
        inter = carrier.full
        for c in combo:
            inter &= translates[c]
        piece = inter & carrier.core(combo)
        if not is_member(piece):
            errs.append(f"translates by {list(combo)} meet in {piece.bit_count()} core elements outside the ideal")
            break
    if carrier.kind == "z-mod" and carrier.size <= 12 and exact and p["flag"] == "exact":
        best = brute_pack(carrier.size, A, n)
        if p["value"] != best:
            errs.append(f"exact value {p['value']}, brute force {best}")
    return errs


# --------------------------------------------------------------------------
# free group
# --------------------------------------------------------------------------


def check_disjoint(q, p, depth: int, label: str) -> list[str]:
    trans = [parse_word(t) for t in q["translators"]]
    n = q["n"]
    core_len = depth - max(len(t) for t in trans)
    levels = ball_levels(core_len)
    core = sum(len(lv) for lv in levels)
    errs = []
    a_count = 3 ** depth - 1
    want_card = a_count if label == "A" else ball_count(depth) - a_count
    if p["core_size"] != core or p["depth"] != depth or p["n"] != n:
        errs.append(f"core {p['core_size']} (expected {core}), depth/n echoed wrongly")
    if p["base"]["cardinality"] != want_card or p["truncation_tally"] != 0:
        errs.append(f"base cardinality {p['base']['cardinality']}, expected {want_card}")
    if p["translators"] != [word_text(t) for t in trans]:
        errs.append("translators echoed wrongly")
    members = [_piece_preimage(t, levels, label) for t in trans]
    checked = 0
    violating = witness = None
    for combo in itertools.combinations(range(len(trans)), n):
        inter = members[combo[0]].copy()
        for i in combo[1:]:
            inter &= members[i]
        checked += 1
        if inter.any():
            violating = [word_text(trans[i]) for i in combo]
            witness = _word_at(levels, int(np.argmax(inter)))
            break
    if p["disjoint"] != (violating is None) or p["subsets_checked"] != checked:
        errs.append(f"disjoint={p['disjoint']} after {p['subsets_checked']} subsets; own check "
                    f"{violating is None} after {checked}")
    elif violating is not None and (p["violating"] != violating or p["witness"] != witness):
        errs.append(f"violating {p['violating']} / witness {p['witness']}, expected {violating} / {witness}")
    return errs


def _piece_preimage(t: tuple, levels, label: str) -> np.ndarray:
    """For each core word w (shortlex), is t^-1 w in the piece?

    The reduced product t^-1 w cancels exactly the common prefix of t and w;
    what is left starts with the inverse of t's last letter, unless t is a
    prefix of w, when it starts with w's next letter (or is the identity).
    The A piece is the words starting with a or a^-1 (codes 0 and 1)."""
    parts = []
    L = len(t)
    tail_in_a = L > 0 and (t[-1] ^ 1) in (0, 1)
    for lv in levels:
        length = lv.shape[1]
        in_a = np.full(len(lv), tail_in_a)
        if length >= L:
            prefix = np.all(lv[:, :L] == np.array(t, dtype=np.int8), axis=1) if L else np.ones(len(lv), bool)
            nxt = np.isin(lv[:, L], (0, 1)) if length > L else np.zeros(len(lv), bool)
            in_a = np.where(prefix, nxt, in_a)
        parts.append(in_a)
    in_a = np.concatenate(parts)
    return in_a if label == "A" else ~in_a


def _word_at(levels, index: int) -> str:
    for lv in levels:
        if index < len(lv):
            return word_text(tuple(int(c) for c in lv[index]))
        index -= len(lv)
    raise IndexError(index)


def check_counting(q, p, carrier, A) -> list[str]:
    fam, n = q["family"], q["n"]
    errs = []
    translates = [carrier.translate(c, A) for c in fam]
    for combo in itertools.combinations(range(len(fam)), n):
        inter = carrier.full
        for i in combo:
            inter &= translates[i]
        if inter:
            errs.append(f"family {fam} is not {n}-disjoint at {combo}")
            break
    value = Fraction(A.bit_count(), carrier.size)
    tol = Fraction(2 * max(abs(c) for c in fam), carrier.size)
    bound = Fraction(n, len(fam))
    want = {"subsets_checked": math.comb(len(fam), n), "value": str(value), "tolerance": str(tol),
            "bound": str(bound), "holds": value <= bound + tol, "density": "uniform", "family": fam}
    for key, val in want.items():
        if p.get(key) != val:
            errs.append(f"{key} = {p.get(key)!r}, expected {val!r}")
    return errs


# --------------------------------------------------------------------------
# the CLI
# --------------------------------------------------------------------------


def _flags(argv: list) -> dict:
    out = {}
    i = 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[argv[i]] = argv[i + 1]
            i += 2
        else:
            out[argv[i]] = True
            i += 1
    return out


def _int_list(spec: str) -> list[int]:
    spec = spec.strip("{}")
    if ".." in spec:
        lo, hi = spec.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in spec.split(",")]


def check_cli(q, payload) -> list[str]:
    argv = q["argv"]
    cmd = argv[0]
    flags = _flags(argv)
    report = payload["report"]
    code = payload["exit"]
    if report is None or report.get("command") != cmd:
        return [f"exit {code} without a {cmd} report"]
    result = report["result"]
    lo, hi = (int(x) for x in flags["--window"].split(":"))
    trees = q["trees"]
    if cmd == "pack":
        cands = _int_list(flags["--shifts"])
        carrier = ZWindow(lo, hi, max(cands))
        expr = trees["--set"]
        A = carrier.eval(expr)
        ideal = {"kind": flags["--ideal"]}
        if ideal["kind"] == "generated":
            ideal["member"] = generated_member(carrier)
        qq = {"n": 2, "mode": "exact" if "--exact" in flags else "greedy", "candidates": cands}
        errs = [] if code == 0 else [f"exit {code}"]
        want_ideal = _ideal_descriptor(ideal["kind"])
        if result["ideal"] != want_ideal:
            errs.append(f"ideal {result['ideal']}, expected {want_ideal}")
        return errs + check_pack(qq, result, carrier, A, ideal, expr)
    if cmd == "density":
        arr = eval_z(trees["--set"], lo, hi)
        schedule = _int_list(flags["--schedule"])
        want = []
        for L in schedule:
            count, at = max_window(arr, L)
            want.append({"L": L, "density": str(Fraction(count, L)), "at": at})
        errs = [] if code == 0 else [f"exit {code}"]
        if result["densities"] != want or result["schedule"] != schedule or result["proxy-for-N"] is not True:
            errs.append(f"density profile {result['densities']}, expected {want}")
        return errs
    if cmd == "measure":
        return check_measure(flags, trees, result, code, lo, hi)
    if cmd == "large":
        carrier = ZWindow(lo, hi, 63)
        A = carrier.eval(trees["--set"])
        errs = [] if code == (0 if result["large"] else 1) else [f"exit {code} for large={result['large']}"]
        return errs + check_large({"ideal": {"kind": "trivial"}, "max_f": 64, "shift_range": 256}, result, carrier, A)
    if cmd == "complete":
        return ([] if code == 0 else [f"exit {code}"]) + check_completion(flags, result, lo, hi)
    return [f"no check for command {cmd!r}"]


def _ideal_descriptor(kind: str) -> dict:
    if kind == "density-zero":
        return {"kind": kind, "lengths": list(DENSITY_LENGTHS), "threshold": str(DENSITY_THRESHOLD),
                "proxy-for-N": True}
    if kind == "finite-sets":
        return {"kind": kind, "cutoff": FINITE_CUTOFF}
    if kind == "generated":
        return {"kind": kind, "generators": [show(g) for g in GENERATED_GENERATORS], "e_bound": 4,
                "shift_range": GENERATED_SHIFT_RANGE, "slack": 16}
    return {"kind": kind}


def generated_member(carrier, e_bound: int = 4, slack: int = 16):
    """Membership in the ideal generated by GENERATED_GENERATORS: the set is
    covered up to ``slack`` elements by at most ``e_bound`` translates, each
    picked greedily (largest gain, first in generator and spiral order)."""
    spiral = [0] + [v for k in range(1, GENERATED_SHIFT_RANGE + 1) for v in (k, -k)]
    translates = [carrier.eval(("shift", g, s)) for g in GENERATED_GENERATORS for s in spiral]

    def is_member(bits: int) -> bool:
        remaining = bits
        for _ in range(e_bound):
            if remaining.bit_count() <= slack:
                break
            gains = [(remaining & t).bit_count() for t in translates]
            best = max(gains)
            if best == 0:
                break
            remaining &= ~translates[gains.index(best)]
        return remaining.bit_count() <= slack

    return is_member


def check_measure(flags, trees, result, code, lo, hi) -> list[str]:
    F = _int_list(flags["--F"])
    n = int(flags["--n"])
    L = 2 * n * max(abs(x) for x in F) + 1
    avoid = eval_z(trees["--avoid"], lo, hi)
    B = eval_z(trees["--eval"], lo, hi)
    y = avoiding_translate(avoid, L, lo, hi)
    errs = [] if code == 0 else [f"exit {code}"]
    if result["L"] != L or result["y"] != y:
        return errs + [f"L={result['L']}, y={result['y']}; expected L={L}, y={y}"]

    def mu(arr, start):
        i = start - lo
        return Fraction(int(arr[i:i + L].sum()), L)

    want = {
        "mu_avoid": str(mu(avoid, y)),
        "mu_eval": str(mu(B, y)),
        "defects": {str(x): str(abs(mu(B, y) - mu(B, y - x))) for x in F},
    }
    if want["mu_avoid"] != "0":
        errs.append(f"interval [{y}, {y + L}) meets the avoided set")
    for key, val in want.items():
        if result.get(key) != val:
            errs.append(f"{key} = {result.get(key)!r}, expected {val!r}")
    ratios = {str(x): str(Fraction(2 * min(abs(x), L), L)) for x in F}
    if result["certificate"]["ratios"] != ratios or result["certificate"]["L"] != L:
        errs.append(f"certificate ratios {result['certificate']['ratios']}, expected {ratios}")
    return errs


def check_completion(flags, result, lo, hi) -> list[str]:
    errs = []
    kind = flags["--kind"]
    sets = {name: ZWindow(lo, hi, 0).eval(expr) for name, expr in CATALOG.items()}
    stages = result["stages"]
    if stages[0] != sorted(name for name, b in sets.items() if b == 0):
        errs.append(f"initial subset {stages[0]} is not the catalog's empty sets")
    if result["admitted"] != stages[-1]:
        errs.append("admitted differs from the last stage")
    for i in range(len(stages) - 1):
        if not set(stages[i]) <= set(stages[i + 1]):
            errs.append(f"stage {i + 1} drops {sorted(set(stages[i]) - set(stages[i + 1]))}")
    for i, stage in enumerate(stages[1:], start=1):
        members = [sets[name] for name in stage]
        unions = {a | b for a in members for b in members}
        for name, b in sets.items():
            if name not in stage and any(b & ~u == 0 for u in unions):
                errs.append(f"stage {i} is not union-closed: {name} is covered")
                break
    admitted_at = {}
    for r in result["records"]:
        admitted_at.setdefault(r["name"], r["stage"])
        if r["rule"] == "union" and sets[r["name"]] & ~(sets[r["summands"][0]] | sets[r["summands"][1]]):
            errs.append(f"{r['name']} admitted by union of {r['summands']} it is not covered by")
        if r["rule"] == "pack" and not (r["value"] >= int(flags["--threshold"]) or r["flag"] == "saturated"):
            errs.append(f"{r['name']} admitted by packing value {r['value']} below the threshold")
        if r["rule"] == ("small" if kind == "pack2" else "pack"):
            errs.append(f"{r['name']} admitted by rule {r['rule']} in a {kind} completion")
    for i in range(1, len(stages)):
        for name in set(stages[i]) - set(stages[i - 1]):
            if admitted_at.get(name) != i:
                errs.append(f"{name} joined at stage {i} without a record")
    fix = len(stages) >= 2 and stages[-1] == stages[-2]
    if result["fixpoint"] != fix or (fix and result["fixpoint_stage"] != len(stages) - 1):
        errs.append(f"fixpoint={result['fixpoint']} at {result['fixpoint_stage']} for {len(stages) - 1} stages")
    return errs

