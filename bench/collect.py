"""Collect a paired benchmark comparison into one ``BENCH_<label>.json``.

A paired comparison runs ``perfbench/run.py`` with the same seeds in two
checkouts, the base and the change, alternating which side runs first.
Each run leaves ``.perfbench/<workload>-s<seed>-t0.json`` in its checkout.
This script pairs those files by seed and writes, for every end-to-end
metric in ``BENCHMARK.json``, each side's median and interquartile range,
the pair-by-pair values and how many pairs the change wins; with
``--criterion``, it also times that ``verify-paper`` criterion in both
checkouts, alternately, ``_REPEATS`` times per side.  Standard library only.

Usage, from the root of the change's checkout::

    python3 bench/collect.py --label z-small-x --workload z-small \\
        --base ../base --change . --seeds 61-70 --criterion 9

Exit status: 0 after writing the file, 2 on a usage error or a missing run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runs of the verify-paper criterion per side
_REPEATS = 5

_CRITERION = (
    "import json, sys; from idealpack.acceptance import run_all; "
    "r = run_all(only=int(sys.argv[1]))[0]; print(json.dumps([r.elapsed_s, r.passed]))"
)


def seeds_of(spec: str) -> list[int]:
    """'61-65,70' -> [61, 62, 63, 64, 65, 70]."""
    out: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def load_run(checkout: Path, workload: str, seed: int) -> dict:
    path = checkout / ".perfbench" / f"{workload}-s{seed}-t0.json"
    if not path.is_file():
        raise SystemExit(f"error: no run {path}")
    return json.loads(path.read_text())


def time_criterion(checkouts: dict, index: int) -> dict:
    """Wall time of one verify-paper criterion in each checkout, alternating
    which side goes first."""
    times: dict = {side: [] for side in checkouts}
    for i in range(_REPEATS):
        order = list(checkouts) if i % 2 == 0 else list(reversed(checkouts))
        for side in order:
            src = checkouts[side] / "src"
            out = subprocess.run([sys.executable, "-c", _CRITERION, str(index)], capture_output=True, text=True,
                                 env={**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "1"}, check=True)
            elapsed, passed = json.loads(out.stdout)
            if not passed:
                raise SystemExit(f"error: criterion {index} failed in {checkouts[side]}")
            times[side].append(elapsed)
    return {"criterion": index, "repeats": _REPEATS,
            **{side: {"seconds": t, **spread(t)} for side, t in times.items()}}


def collect(args) -> dict:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    checkouts = {"base": Path(args.base).resolve(), "change": Path(args.change).resolve()}
    seeds = seeds_of(args.seeds)
    runs = {side: [load_run(path, args.workload, seed) for seed in seeds] for side, path in checkouts.items()}
    provenance = {}
    for side, side_runs in runs.items():
        prov = dict(side_runs[0]["info"]["provenance"])
        prov.pop("seed")
        provenance[side] = prov
    table = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["result"]["metrics"][name]["value"] for r in side_runs]
                  for side, side_runs in runs.items()}
        higher = metric["better"] == "higher"
        wins = sum((c > b) if higher else (c < b) for b, c in zip(values["base"], values["change"]))
        table[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "base": {**spread(values["base"]), "values": values["base"]},
            "change": {**spread(values["change"]), "values": values["change"]},
            "change_wins": wins,
            "ties": sum(b == c for b, c in zip(values["base"], values["change"])),
        }
    digests = [(b["info"]["digest_sha256"], c["info"]["digest_sha256"]) for b, c in zip(runs["base"], runs["change"])]
    out = {
        "label": args.label,
        "workload": args.workload,
        "seeds": seeds,
        "pairs": len(seeds),
        "note": args.note,
        "provenance": provenance,
        "digests_equal": sum(b == c for b, c in digests),
        "all_correct": all(r["result"]["correct"] for side_runs in runs.values() for r in side_runs),
        "end_to_end": table,
        "collected": time.strftime("%Y-%m-%d", time.gmtime()),
    }
    if args.criterion is not None:
        out["verify_paper"] = time_criterion(checkouts, args.criterion)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--workload", required=True)
    p.add_argument("--base", required=True, help="checkout of the base commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--seeds", required=True, help="the paired seeds, e.g. 61-70")
    p.add_argument("--criterion", type=int, help="also time this verify-paper criterion")
    p.add_argument("--note", default="", help="free text kept in the file, e.g. how the pairs were ordered")
    p.add_argument("--out", help="output path (default: BENCH_<label>.json at the root)")
    args = p.parse_args(argv)
    try:
        seeds_of(args.seeds)
    except ValueError:
        print(f"error: bad --seeds {args.seeds!r}", file=sys.stderr)
        return 2
    out = collect(args)
    path = Path(args.out) if args.out else ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
