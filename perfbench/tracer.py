"""Spans around the program's public functions, recorded from outside.

The traced run wraps each function listed in ``TARGETS`` where its callers
look it up: the defining module, every idealpack module that bound the name
with ``from .x import y``, and the class for methods.  A wrapper records one
span per call (name, start, end, parent span, query id); every span stays in
memory until the run ends, when the log is written out.  Calls, self time
(duration minus the time covered by child spans) and the per-layer shares are
computed from that log.  The work counters (nodes, families, ...) are summed
from the arguments and the returned reports.  The program itself is not
modified.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

ALL = ("z-small", "pack", "tables", "catalog")

# (metric prefix, module, attribute or Class.attribute, workloads that must
# load it, counter hook).  The prefix is <module>.<function>[.<kind>].
TARGETS = (
    ("bitops.positions_from_bits", "bitops", "positions_from_bits", ("z-small",), "positions_bytes"),
    ("bitops.bits_from_positions", "bitops", "bits_from_positions", ALL, "bits_bytes"),
    ("groups.translate_bits.z-window", "groups", "ZWindowGroup.translate_bits", ("z-small",), "bits_in"),
    ("groups.translate_bits.z-mod", "groups", "ZModGroup.translate_bits", ("pack",), "bits_in"),
    ("groups.translate_bits.cayley", "groups", "CayleyGroup.translate_bits", ("tables",), "bits_in"),
    ("groups.translate_bits.free-2", "groups", "FreeGroup2.translate_bits", ("tables",), "bits_in"),
    ("words.mul_words", "words", "mul_words", ("tables",), None),
    ("words.word_at_rank", "words", "word_at_rank", ("tables",), None),
    ("words.word_rank", "words", "word_rank", ("tables",), None),
    ("setexpr.parse_set_expr", "setexpr", "parse_set_expr", ALL, None),
    ("setexpr.materialize", "setexpr", "materialize", ALL, "elements"),
    ("ideals.member.trivial", "ideals", "TrivialIdeal.member", ("catalog",), None),
    ("ideals.member.finite-sets", "ideals", "FiniteSetsIdeal.member", ("catalog",), None),
    ("ideals.member.density-zero", "ideals", "DensityZeroIdeal.member", ("catalog",), None),
    ("ideals.member.generated", "ideals", "GeneratedIdeal.member", ("catalog",), None),
    ("ideals.member.stage", "ideals", "StageIdeal.member", ("catalog",), None),
    ("packing.ConflictOracle.is_edge", "packing", "ConflictOracle.is_edge", ("pack", "catalog"), None),
    ("packing.pack_exact", "packing", "pack_exact", ("pack",), "pack_exact"),
    ("packing.pack_greedy", "packing", "pack_greedy", ("pack", "catalog"), None),
    ("largesmall.is_ideal_small", "largesmall", "is_ideal_small", ("z-small", "tables"), "small"),
    ("largesmall.is_large", "largesmall", "is_large", ("z-small", "tables"), None),
    ("folner.measure_build", "folner", "measure_build", ("catalog",), None),
    ("folner.avoid_translate", "folner", "avoid_translate", ("catalog",), None),
    ("folner.upper_density", "folner", "upper_density", ("catalog",), None),
    ("folner.counting_bound_check", "folner", "counting_bound_check", ("catalog",), None),
    ("freegroup.family_disjoint", "freegroup", "family_disjoint", ("tables",), "disjoint"),
    ("completion.iterate_completion", "completion", "iterate_completion", ("catalog",), "completion"),
    ("cli.main", "cli", "main", ("catalog",), None),
    ("reports.render_json", "reports", "render_json", ("catalog",), None),
)

LAYERS = ("bitops", "groups", "words", "setexpr", "ideals", "packing", "largesmall",
          "folner", "freegroup", "completion", "cli", "reports")

def _counters(hook, args, result) -> dict:
    """Work done by one call, read from its arguments and report."""
    if hook == "positions_bytes":
        return {"bytes": (args[1] + 7) // 8 + 8 * len(result)}
    if hook == "bits_bytes":
        return {"bytes": (args[1] + 7) // 8 + 8 * result.bit_count()}
    if hook == "elements":
        return {"elements": result.cardinality()}
    if hook == "pack_exact":
        return {"nodes": result.stats.get("nodes", 0), "budget_hit": int(bool(result.stats.get("budget_hit")))}
    if hook == "small":
        return {"families": result.families_tested, "inconclusive": int(result.verdict == "inconclusive")}
    if hook == "disjoint":
        return {"subsets_checked": result.subsets_checked}
    if hook == "completion":
        return {"stages": len(result.stage_sets) - 1}
    return {}


class Tracer:
    """Installs the wrappers and owns the spans they record."""

    def __init__(self):
        self.names: list[str] = []
        self.counters: list[dict] = []
        self.query_id = -1
        self._stack: list[int] = []  # open span ids
        # one row per span, the span id being the row: which function,
        # enclosing span (-1 at the top), query id (-1 outside queries),
        # start and end in perf_counter_ns
        self._cols = {"name": array("h"), "parent": array("i"), "query": array("i"),
                      "start": array("q"), "end": array("q")}
        self._undo: list[tuple] = []

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        for prefix, module, attr, _, hook in TARGETS:
            mod = importlib.import_module("idealpack." + module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(prefix, original, hook, args_offset=1))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(prefix, original, hook)
            for name, loaded in list(sys.modules.items()):
                if name == "idealpack" or name.startswith("idealpack."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key) if not isinstance(owner, type) else owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn, hook, args_offset: int = 0):
        idx = len(self.names)
        self.names.append(name)
        self.counters.append({})
        stack = self._stack
        cols = self._cols
        names, parents, queries, starts, ends = (cols[k] for k in ("name", "parent", "query", "start", "end"))
        clock = time.perf_counter_ns
        bits_in = hook == "bits_in"

        def wrapper(*args, **kwargs):
            span = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            queries.append(self.query_id)
            ends.append(0)
            pre = args[args_offset + 1].bit_count() if bits_in else 0
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            counts = self.counters[idx]
            if bits_in:
                counts["bits_in"] = counts.get("bits_in", 0) + pre
            elif hook:
                for key, value in _counters(hook, args[args_offset:], result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output --------------------------------------------------------------
    def spans(self) -> dict:
        """The span log as numpy columns."""
        import numpy as np

        return {k: np.frombuffer(v, dtype=v.typecode) if len(v) else np.zeros(0, v.typecode)
                for k, v in self._cols.items()}

    def summary(self) -> dict:
        """Calls and self time per function, and self time per layer inside
        queries, all computed from the span log."""
        import numpy as np

        cols = self.spans()
        name = cols["name"].astype(np.intp)
        dur = cols["end"] - cols["start"]
        nested = cols["parent"] >= 0
        child = np.zeros(len(dur), dtype=np.int64)
        np.add.at(child, cols["parent"][nested], dur[nested])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_ns = np.zeros(k, dtype=np.int64)
        np.add.at(self_ns, name, own)
        total_ns = np.zeros(k, dtype=np.int64)
        np.add.at(total_ns, name, dur)
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=np.intp)
        in_query = cols["query"] >= 0
        layer_ns = np.zeros(len(LAYERS), dtype=np.int64)
        np.add.at(layer_ns, layer_of[name[in_query]], own[in_query])
        funcs = {n: {"calls": int(calls[i]), "self_ns": int(self_ns[i]), "total_ns": int(total_ns[i]),
                     **self.counters[i]} for i, n in enumerate(self.names)}
        return {"functions": funcs, "layer_query_ns": {layer: int(ns) for layer, ns in zip(LAYERS, layer_ns)},
                "spans": len(dur)}

    def write_spans(self, path) -> None:
        import numpy as np

        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def layer_metrics(summary: dict, query_ns: int, traced_qps: float, untraced_qps: float) -> dict:
    """Per-layer metrics, named <module>.<function>[.<kind>].<stat>."""
    out: dict = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for prefix, *_ in TARGETS:
        f = summary["functions"][prefix]
        calls, self_ms, total_ns = f["calls"], f["self_ns"] / 1e6, f["total_ns"]
        put(prefix + ".calls", calls, "count")
        put(prefix + ".self_ms", self_ms, "ms")
        for key in COUNTERS.get(prefix, ()):
            put(f"{prefix}.{key}", f.get(key, 0), "B" if key == "bytes" else "count")
        if prefix.startswith("groups.translate_bits"):
            put(prefix + ".ns_per_bit", total_ns / f["bits_in"] if f.get("bits_in") else 0.0, "ns")
        if prefix == "packing.ConflictOracle.is_edge":
            put(prefix + ".us_per_edge", total_ns / 1e3 / calls if calls else 0.0, "us")
        if prefix == "packing.pack_exact":
            put(prefix + ".nodes_per_s", f.get("nodes", 0) / (f["self_ns"] / 1e9) if f["self_ns"] else 0.0, "1/s")
        if prefix == "largesmall.is_ideal_small":
            fam = f.get("families", 0)
            put(prefix + ".us_per_family", total_ns / 1e3 / fam if fam else 0.0, "us")
    covered = 0
    for layer in LAYERS:
        ns = summary["layer_query_ns"].get(layer, 0)
        covered += ns
        put(f"layer.{layer}.self_share", 100.0 * ns / query_ns if query_ns else 0.0, "%")
    put("layer.unwrapped.self_share", 100.0 * (query_ns - covered) / query_ns if query_ns else 0.0, "%")
    put("trace.queries_per_s", traced_qps, "1/s")
    put("trace.untraced_queries_per_s", untraced_qps, "1/s")
    put("trace.overhead_x", untraced_qps / traced_qps if traced_qps else 0.0, "ratio")
    put("trace.spans", summary["spans"], "count")
    return out


# The work counters each function reports, beside calls and self time.
COUNTERS = {
    "bitops.positions_from_bits": ("bytes",),
    "bitops.bits_from_positions": ("bytes",),
    "setexpr.materialize": ("elements",),
    "packing.pack_exact": ("nodes", "budget_hit"),
    "largesmall.is_ideal_small": ("families", "inconclusive"),
    "freegroup.family_disjoint": ("subsets_checked",),
    "completion.iterate_completion": ("stages",),
    **{p: ("bits_in",) for p, *_ in TARGETS if p.startswith("groups.translate_bits")},
}


def metric_units() -> dict:
    """Every per-layer metric name and unit, in output order."""
    empty = {"functions": {p: {"calls": 0, "self_ns": 0, "total_ns": 0} for p, *_ in TARGETS},
             "layer_query_ns": {}, "spans": 0}
    return {k: v["unit"] for k, v in layer_metrics(empty, 0, 0.0, 0.0).items()}


def missing_calls(summary: dict, workload: str) -> list[str]:
    """Listed functions that recorded no call on a workload that should load them."""
    return [p for p, _, _, loads, _ in TARGETS
            if workload in loads and summary["functions"][p]["calls"] == 0]
