"""Self-tests of the answer checker and the query generator.

Each case hands the checker a right answer, which it must accept, and a
deliberately corrupted one, which it must count as failed; so a run that
reports no failures cannot be vacuous.  The generator cases assert that a
seed always gives byte-identical queries and that two seeds differ.

run.py runs these before every measurement; ``python3 perfbench/selftest.py``
runs them alone and exits non-zero on a problem.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction

import checker
from model import FreeBall, ZMod, ZWindow, eval_z, max_window
from workloads import WORKLOADS, Workload


def _pack_z12():
    # {0, 1} on Z_12: translates by b and c meet iff c - b = +-1, so the
    # conflict graph is the 12-cycle and the best family has 6 members
    q = {"op": "pack", "n": 2, "mode": "exact", "candidates": list(range(12)), "node_budget": 1000,
         "ideal": {"kind": "trivial"}}
    good = {"n": 2, "value": 6, "flag": "exact", "family": [0, 2, 4, 6, 8, 10], "floor": 1,
            "candidates": 12, "ideal": {"kind": "trivial"}, "edges_evaluated": 66, "nodes": 12}
    conflicting = dict(good, value=7, family=good["family"] + [1])
    short = dict(good, value=5, family=good["family"][:5])
    A = ZMod(12).eval(("list", (0, 1)))
    run = lambda p: checker.check_pack(q, p, ZMod(12), A, q["ideal"], None)  # noqa: E731
    return run, good, [conflicting, short]


def _small_evens():
    carrier = ZWindow(0, 999, 64)
    A = carrier.eval(("evens",))
    q = {"op": "small", "m": 2, "s": 2, "inner": [64, 256], "ideal": {"kind": "trivial"}}
    good = {"verdict": "not-small", "counterexample": [0, 1], "families_tested": 6, "worst_inner_prefix": 1,
            "bounds": {"m": 2, "s": 2, "inner_max_f": 64, "inner_shift_range": 256}, "ideal": {"kind": "trivial"}}
    gap = dict(good, counterexample=[0, 2])
    run = lambda p: checker.check_small(q, p, carrier, A, "parity")  # noqa: E731
    return run, good, [gap]


def _small_tri():
    carrier = ZWindow(0, 9999, 64)
    A = carrier.eval(("triangular",))
    q = {"op": "small", "m": 1, "s": 2, "inner": [64, 256], "ideal": {"kind": "trivial"}}
    good = {"verdict": "small-at-scale", "counterexample": None, "families_tested": 5, "worst_inner_prefix": 2,
            "bounds": {"m": 1, "s": 2, "inner_max_f": 64, "inner_shift_range": 256}, "ideal": {"kind": "trivial"}}
    short = dict(good, families_tested=4)
    wrong = dict(good, verdict="not-small", counterexample=[0])
    run = lambda p: checker.check_small(q, p, carrier, A, "tri")  # noqa: E731
    return run, good, [short, wrong]


def _small_thirds():
    # translates by -1, 0, 1 of the multiples of 3 cover the core; no family
    # of one or two translators from 0, 1, -1, 2, -2 does, so that family is
    # the 5 + 10 + 1 = 16th the search tries
    carrier = ZWindow(0, 999, 64)
    A = carrier.eval(("ap", 0, 3))
    q = {"op": "small", "m": 3, "s": 2, "inner": [64, 256], "ideal": {"kind": "trivial"}}
    good = {"verdict": "not-small", "counterexample": [-1, 0, 1], "families_tested": 16, "worst_inner_prefix": 2,
            "bounds": {"m": 3, "s": 2, "inner_max_f": 64, "inner_shift_range": 256}, "ideal": {"kind": "trivial"}}
    missed = dict(good, verdict="small-at-scale", counterexample=None, families_tested=25)
    late = dict(good, counterexample=[-2, 0, 2], families_tested=22)
    run = lambda p: checker.check_small(q, p, carrier, A, "thirds")  # noqa: E731
    return run, good, [missed, late]


def _large_evens():
    carrier = ZWindow(0, 999, 63)
    A = carrier.eval(("evens",))
    q = {"op": "large", "max_f": 64, "shift_range": 256, "ideal": {"kind": "trivial"}}
    good = {"large": True, "family": [0, 1], "family_size": 2, "residual_size": 0}
    too_short = dict(good, family=[0], family_size=1)
    run = lambda p: checker.check_large(q, p, carrier, A)  # noqa: E731
    return run, good, [too_short]


def _measure_tri():
    argv = ["measure", "--avoid", "triangular", "--F", "{1}", "--n", "10", "--eval", "evens", "--window", "0:99999"]
    q = {"op": "cli", "argv": argv, "trees": {"--avoid": ("triangular",), "--eval": ("evens",)}}
    result = {"L": 21, "y": 232, "mu_avoid": "0", "mu_eval": "11/21", "defects": {"1": "1/21"},
              "certificate": {"L": 21, "ratios": {"1": "2/21"}}}
    good = {"exit": 0, "report": {"command": "measure", "result": result}}
    off_by_one = copy.deepcopy(good)
    off_by_one["report"]["result"]["y"] = 233
    run = lambda p: checker.check_cli(q, p)  # noqa: E731
    return run, good, [off_by_one]


def _density_tri():
    argv = ["density", "--set", "triangular", "--window", "0:9999", "--schedule", "64,256"]
    q = {"op": "cli", "argv": argv, "trees": {"--set": ("triangular",)}}
    arr = eval_z(("triangular",), 0, 9999)
    rows = []
    for L in (64, 256):
        count, at = max_window(arr, L)
        rows.append({"L": L, "density": str(Fraction(count, L)), "at": at})
    good = {"exit": 0, "report": {"command": "density", "result": {"schedule": [64, 256], "densities": rows,
                                                                   "proxy-for-N": True}}}
    shifted = copy.deepcopy(good)
    shifted["report"]["result"]["densities"][0]["at"] += 1
    run = lambda p: checker.check_cli(q, p)  # noqa: E731
    return run, good, [shifted]


def _disjoint_f2():
    q = {"op": "disjoint", "translators": ["e", "b", "bb", "bbb"], "n": 2}
    good = {"base": {"label": "A", "cardinality": 3 ** 8 - 1}, "translators": ["e", "b", "bb", "bbb"], "n": 2,
            "depth": 8, "core_size": 485, "disjoint": True, "subsets_checked": 6, "truncation_tally": 0}
    overlapping_q = {"op": "disjoint", "translators": ["e", "a"], "n": 2}
    claimed = {"base": {"label": "A", "cardinality": 3 ** 8 - 1}, "translators": ["e", "a"], "n": 2,
               "depth": 8, "core_size": FreeBall(7).size, "disjoint": True, "subsets_checked": 1,
               "truncation_tally": 0}

    def run(p):
        return checker.check_disjoint(overlapping_q if p is claimed else q, p, 8, "A")

    return run, good, [claimed]


def _completion():
    argv = ["complete", "--kind", "pack2", "--window", "0:999", "--shifts", "0..8", "--threshold", "8"]
    q = {"op": "cli", "argv": argv, "trees": {}}
    stages = [["nothing"], ["block", "block2", "nothing", "spot", "wide"], ["block", "block2", "nothing", "spot",
                                                                           "wide"]]
    records = [{"name": "nothing", "stage": 0, "rule": "initial"},
               {"name": "block", "stage": 1, "rule": "pack", "n": 2, "value": 9, "flag": "saturated"},
               {"name": "block2", "stage": 1, "rule": "pack", "n": 2, "value": 9, "flag": "saturated"},
               {"name": "spot", "stage": 1, "rule": "pack", "n": 2, "value": 8, "flag": "lower-bound"},
               {"name": "wide", "stage": 1, "rule": "union", "summands": ["block", "block2"]}]
    result = {"stages": stages, "admitted": stages[-1], "records": records, "fixpoint": True, "fixpoint_stage": 2}
    good = {"exit": 0, "report": {"command": "complete", "result": result}}
    not_closed = copy.deepcopy(good)
    r = not_closed["report"]["result"]
    for stage in r["stages"][1:]:
        stage.remove("wide")
    r["records"] = r["records"][:-1]
    dropped = copy.deepcopy(good)
    dropped["report"]["result"]["stages"][2] = ["block", "nothing"]
    dropped["report"]["result"]["admitted"] = ["block", "nothing"]
    run = lambda p: checker.check_cli(q, p)  # noqa: E731
    return run, good, [not_closed, dropped]


def _counting():
    carrier = ZWindow(0, 999, 10)
    A = carrier.eval(("list", (0,)))
    q = {"op": "counting", "family": [0, 1, 2], "n": 2}
    good = {"n": 2, "family": [0, 1, 2], "bound": "2/3", "value": "1/1000", "tolerance": "1/250", "holds": True,
            "subsets_checked": 3, "density": "uniform"}
    wrong = dict(good, holds=False)
    run = lambda p: checker.check_counting(q, p, carrier, A)  # noqa: E731
    return run, good, [wrong]


CASES = (_pack_z12, _small_evens, _small_tri, _small_thirds, _large_evens, _measure_tri, _density_tri, _disjoint_f2,
         _completion, _counting)


def checker_cases() -> list[str]:
    problems = []
    for case in CASES:
        run, good, corrupted = case()
        errs = run(good)
        if errs:
            problems.append(f"{case.__name__}: right answer rejected: {errs[0]}")
        for i, bad in enumerate(corrupted):
            if not run(bad):
                problems.append(f"{case.__name__}: corrupted answer {i} accepted")
    return problems


def generator_cases() -> list[str]:
    problems = []
    for name in WORKLOADS:
        def dump(seed):
            wl = Workload(name, seed)
            return json.dumps([wl.spec(), wl.block(0), wl.block(1)], sort_keys=True).encode()

        if dump(7) != dump(7):
            problems.append(f"{name}: seed 7 gave two different query lists")
        if dump(7) == dump(8):
            problems.append(f"{name}: seeds 7 and 8 gave the same query list")
    return problems


def run_all() -> list[str]:
    return checker_cases() + generator_cases()


if __name__ == "__main__":
    found = run_all()
    for line in found:
        print(line)
    print(f"{len(CASES)} checker cases, {len(WORKLOADS)} generator cases: "
          + ("ok" if not found else f"{len(found)} problems"))
    sys.exit(1 if found else 0)
