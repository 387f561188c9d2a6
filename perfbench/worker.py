"""The program side of the benchmark: one process that runs queries.

run.py starts this file with the interpreter it runs under.  The first line
on stdin is the set-up spec; the worker imports idealpack from the
checkout's ``src``, builds the carriers, materializes the base sets and
answers ``{"ready": ...}``.  After that every line is a query, answered
with one line holding the wall time of the call and the report payload
with timing fields removed by the program's own ``strip_timing``.  The
worker only sees generated inputs, and only through idealpack's public
API (``cli.main`` for the catalog workload).

Control lines: ``{"stop": true}`` ends the run; ``{"untrace": true}``
removes the tracing wrappers so the same queries can be replayed untraced.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    src = ROOT / "src"
    if not (src / "idealpack" / "__init__.py").is_file():
        raise SystemExit(f"worker: no idealpack sources under {src}")
    sys.path.insert(0, str(src))
    import idealpack
    import idealpack.cli
    import idealpack.reports

    if Path(idealpack.__file__).resolve().parent != (src / "idealpack").resolve():
        raise SystemExit(f"worker: imported idealpack from {idealpack.__file__}, not from {src}")
    return idealpack


class Worker:
    def __init__(self, ip, spec: dict):
        self.ip = ip
        self.groups = {}
        self.pieces = {}
        for cid, c in spec["carriers"].items():
            kind = c["kind"]
            if kind == "z-window":
                self.groups[cid] = ip.ZWindowGroup(ip.Window(c["lo"], c["hi"], c["margin"]))
            elif kind == "z-mod":
                self.groups[cid] = ip.ZModGroup(c["modulus"])
            elif kind == "cayley":
                self.groups[cid] = ip.CayleyGroup(c["table"], c["identity"])
            else:
                group, a_side, b_side = ip.f2_partition(c["depth"])
                self.groups[cid] = group
                self.pieces[cid] = {"A": a_side, "B": b_side}
        self.sets = {}
        for sid, s in spec["sets"].items():
            if "piece" in s:
                self.sets[sid] = self.pieces[s["carrier"]][s["piece"]]
            else:
                self.sets[sid] = ip.materialize(ip.parse_set_expr(s["expr"]), self.groups[s["carrier"]])

    def _ideal(self, spec: dict):
        params = {k: v for k, v in spec.items() if k != "kind"}
        return self.ip.make_ideal(spec["kind"], **params)

    def call(self, q: dict):
        """(thunk, payload maker) for one query; only the thunk is timed."""
        ip = self.ip
        op = q["op"]
        if op == "cli":
            out = io.StringIO()

            def run_cli():
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    return ip.cli.main(list(q["argv"]))

            return run_cli, lambda code: {"exit": code, "report": json.loads(out.getvalue()) if out.getvalue() else None}
        A = self.sets[q["set"]]
        if op == "small":
            bounds = ip.SmallBounds(m=q["m"], s=q["s"], inner=ip.LargeBounds(*q["inner"]))
            ideal = self._ideal(q["ideal"])
            return (lambda: ip.is_ideal_small(A, ideal, bounds)), (lambda r: r.payload())
        if op == "large":
            bounds = ip.LargeBounds(max_f=q["max_f"], shift_range=q["shift_range"])
            ideal = self._ideal(q["ideal"])

            def run_large():
                try:
                    return {"large": True, **ip.is_large(A, ideal, bounds).payload()}
                except ip.NotFoundAtScale as exc:
                    return {"large": False, "reason": str(exc), "best_family": exc.best_family,
                            "best_residual_size": exc.best_residual_size}

            return run_large, (lambda r: r)
        if op == "pack":
            ideal = self._ideal(q["ideal"])
            cands = list(q["candidates"])
            if q["mode"] == "exact":
                thunk = lambda: ip.pack_exact(A, ideal, cands, q["n"], node_budget=q["node_budget"])  # noqa: E731
            else:
                thunk = lambda: ip.pack_greedy(A, ideal, cands, q["n"])  # noqa: E731
            return thunk, (lambda r: r.payload())
        if op == "disjoint":
            label = q["set"].split("@")[0]
            return (lambda: ip.family_disjoint(A, q["translators"], q["n"], base_label=label)), (lambda r: r.payload())
        if op == "counting":
            return (lambda: ip.counting_bound_check(A, q["family"], q["n"])), (lambda r: r.payload())
        raise ValueError(f"unknown op {op!r}")

    def run(self, q: dict) -> dict:
        thunk, payload = self.call(q)
        t0 = time.perf_counter()
        try:
            result = thunk()
        except Exception as exc:  # reported to the checker as a failed query
            return {"ms": (time.perf_counter() - t0) * 1e3, "error": f"{type(exc).__name__}: {exc}"}
        ms = (time.perf_counter() - t0) * 1e3
        return {"ms": ms, "payload": self.ip.reports.strip_timing(self.ip.reports.scrub(payload(result)))}


def peak_rss_kib() -> int:
    """High-water resident set of this process image (VmHWM)."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="file for the span log of a traced run (.npz)")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    def send(obj) -> None:
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    spec = json.loads(sys.stdin.readline())
    t0 = time.perf_counter()
    ip = _import_program()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    worker = Worker(ip, spec)
    send({"ready": True, "setup_in_process_s": time.perf_counter() - t0})
    if args.setup_only:
        return 0
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("stop"):
            send({"peak_rss_kib": peak_rss_kib()})
            break
        if msg.get("untrace"):
            if tracer is not None:
                tracer.uninstall()
                summary = tracer.summary()
                if args.spans:
                    tracer.write_spans(args.spans)
                tracer = None
                send({"trace": summary})
            continue
        if tracer is not None:
            tracer.query_id = msg["id"]
        reply = worker.run(msg["query"])
        if tracer is not None:
            tracer.query_id = -1
        send(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
