"""idealpack benchmark: seeded query workloads, checked answers, named metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload z-small --seed 1 --seconds 18 --trace 0

One client in a closed loop: this process generates the workload's queries
from the seed and sends them, one at a time, to a worker process that runs
them against the checkout's ``src/idealpack``; the next query goes out only
after the previous answer has been checked.  No threads, no think time.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see tracer.py).  Lines before it carry the provenance, the
query counts by kind, the tail percentile and its sample count, and the
digest of the answers.  A copy of everything goes to ``.perfbench/`` in the
checkout, and so does the span log of the latest traced run per workload.

Exit status: 0 after printing a result, 1 if the run could not be
completed or a traced run missed a layer, 2 on a usage error or when the
checkout holds no idealpack sources.
"""

from __future__ import annotations

import os

# One process does the work: keep numpy's BLAS and OpenMP pools at one
# thread, here and in the workers (which inherit the environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checker  # noqa: E402
import selftest  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_PROBES = 20  # set-up-only workers; with the measured one, 21 samples
CLOSED_BLOCKS = 3  # closed_frac and the digest cover these whole blocks
# Runs measure whole blocks only (the last one may end after --seconds), so
# every run has the same mix of templates and the latency quantiles sit at
# the same place in it.
OUT = ROOT / ".perfbench"


class WorkerProcess:
    """A worker and the pipes of the closed loop."""

    def __init__(self, spec: dict, trace: bool = False, setup_only: bool = False, spans: Path | None = None):
        cmd = [sys.executable, str(HERE / "worker.py"), "--trace", str(int(trace))]
        if setup_only:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.send(spec)
            ready = self.recv()
            if not ready.get("ready"):
                raise RuntimeError(f"worker did not get ready: {ready}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - self.started

    def send(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited early (status {self.proc.poll()})")
        return json.loads(line)

    def close(self) -> None:
        """Close the worker's input and wait for it to exit."""
        if self.proc.returncode is not None:
            return
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.wait()
        self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.close()


def provenance(workload: str, seed: int) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "commit": git_commit(),
        "threads_pinned": os.environ["OMP_NUM_THREADS"],
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile that still has
    at least ten samples beyond it, i.e. the 11th-largest latency."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    wl = Workload(workload, seed)
    spec = wl.spec()
    check = checker.Checker(wl)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}.npz" if trace else None  # the latest traced run only
    worker = WorkerProcess(spec, trace=trace, spans=spans)
    setup_samples = [worker.setup_s]
    probes = 0 if trace else SETUP_PROBES
    probe_s = 0.0

    def probe() -> float:
        """Time one set-up-only worker; return the wall time it took."""
        t0 = time.perf_counter()
        w = WorkerProcess(spec, setup_only=True)
        setup_samples.append(w.setup_s)
        w.close()
        return time.perf_counter() - t0

    sent, latencies = [], []
    by_kind: dict[str, list[float]] = {}
    failures: list[str] = []
    closed_by_kind: dict[str, list[int]] = {}
    digest = hashlib.sha256()
    try:
        start = time.perf_counter()
        block = 0
        while block < CLOSED_BLOCKS or time.perf_counter() - start - probe_s < seconds:
            for q in wl.block(block):
                worker.send({"id": len(sent), "query": q})
                reply = worker.recv()
                sent.append(q)
                latencies.append(reply["ms"])
                by_kind.setdefault(q["kind"], []).append(reply["ms"])
                if "error" in reply:
                    errors = [f"raised {reply['error']}"]
                else:
                    errors = check.check(q, reply["payload"])
                if errors:
                    failures.append(f"query {len(sent) - 1} ({q['kind']}): {errors[0]}")
                if block < CLOSED_BLOCKS:
                    tally = closed_by_kind.setdefault(q["kind"], [0, 0])
                    tally[1] += 1
                    if "payload" in reply:
                        tally[0] += checker.closed(q, reply["payload"])
                        digest.update(json.dumps(reply["payload"], sort_keys=True).encode())
                    first_blocks = len(sent)
                # set-up probes are spread evenly over the measured time, so
                # that they see the same host conditions as the queries; the
                # measured worker waits idle on its pipe meanwhile
                if len(setup_samples) - 1 < probes and \
                        time.perf_counter() - start - probe_s >= (len(setup_samples) - 1) * seconds / probes:
                    probe_s += probe()
            block += 1
        while len(setup_samples) - 1 < probes:
            probe_s += probe()
        loop_s = time.perf_counter() - start - probe_s
        layer = None
        if trace:
            worker.send({"untrace": True})
            summary = worker.recv()["trace"]
            # overhead: the queries of the first blocks again, untraced
            replay_ms = []
            for i, q in enumerate(sent[:first_blocks]):
                worker.send({"id": i, "query": q})
                replay_ms.append(worker.recv()["ms"])
            missing = tracer.missing_calls(summary, workload)
            if missing:
                raise RuntimeError(f"traced run recorded no calls of {', '.join(missing)} on {workload}")
            traced_qps = first_blocks / (sum(latencies[:first_blocks]) / 1e3)
            untraced_qps = first_blocks / (sum(replay_ms) / 1e3)
            layer = tracer.layer_metrics(summary, int(sum(latencies) * 1e6), traced_qps, untraced_qps)
        worker.send({"stop": True})
        peak_rss_kib = worker.recv()["peak_rss_kib"]
        worker.close()
    finally:
        worker.kill()

    n = len(latencies)
    tail_ms, tail_pct, _ = tail(latencies)
    closed = sum(c for c, _ in closed_by_kind.values())
    attempted_closed = sum(a for _, a in closed_by_kind.values())
    info = {
        "provenance": provenance(workload, seed),
        "queries_by_kind": {k: len(v) for k, v in sorted(by_kind.items())},
        "loop_s": loop_s,
        "blocks": block,
        "tail": {"percentile": tail_pct, "samples": n, "beyond": min(10, n)},
        "latency_ms_by_kind": {k: {"n": len(v), "min": min(v), "p50": statistics.median(v), "max": max(v)}
                               for k, v in sorted(by_kind.items())},
        "closed": {"blocks": CLOSED_BLOCKS, "closed": closed, "attempted": attempted_closed,
                   "by_kind": dict(sorted(closed_by_kind.items()))},
        "digest_sha256": digest.hexdigest(),
        "setup_samples_s": setup_samples,
        "failures": failures[:20],
    }
    result = {"correct": not failures, "attempted": n, "failed": len(failures)}
    if trace:
        result["metrics"] = layer
        return result, info
    result["metrics"] = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "queries_per_s": {"value": n / (sum(latencies) / 1e3), "unit": "1/s"},
        "query_ms_p50": {"value": statistics.median(latencies), "unit": "ms"},
        "query_ms_tail": {"value": tail_ms, "unit": "ms"},
        "correct_frac": {"value": (n - len(failures)) / n, "unit": "ratio"},
        "closed_frac": {"value": closed / attempted_closed, "unit": "ratio"},
        "peak_rss_mb": {"value": peak_rss_kib / 1024.0, "unit": "MiB"},
    }
    return result, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="idealpack benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "idealpack" / "__init__.py").is_file():
        print(f"error: no idealpack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    problems = selftest.run_all()
    if problems:
        print("error: checker self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 1
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"result": result, "info": info}, indent=2) + "\n")
    for key in ("provenance", "queries_by_kind", "tail", "closed", "digest_sha256", "failures"):
        print(f"{key}: {json.dumps(info[key])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
