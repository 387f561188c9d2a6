"""idealpack command line: pack, small, large, density, folner, measure,
complete, f2, verify-paper.

Exit codes: 0 success; 1 negative verdict (not small, not disjoint, no
largeness witness, a failed acceptance criterion); 2 usage or configuration
error; 3 exhausted search budget.  Reports render as deterministic JSON
(sorted keys; the elapsed_ms field is the one run-dependent value) or as
plain text of the same payload.

Flags override config-file values (see config.py for the format); the
window margin defaults to exactly what the requested computation needs, so
most runs never mention it.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from fractions import Fraction
from typing import Optional

from .acceptance import CriterionResult, run_all
from .completion import iterate_completion
from .config import RunConfig, load_config
from .errors import (
    BudgetError,
    IdealpackError,
    InvalidParam,
    NotFoundAtScale,
)
from .folner import folner_set, measure_build, upper_density
from .freegroup import f2_partition, family_disjoint, parse_translators
from .groups import (
    FreeGroup2,
    Group,
    MaterializedSet,
    Window,
    ZModGroup,
    ZWindowGroup,
    load_cayley_table,
)
from .ideals import Ideal, make_ideal
from .largesmall import LargeBounds, SmallBounds, is_ideal_small, is_large
from .packing import pack_exact, pack_greedy
from .reports import envelope, render_json, render_text
from .setexpr import (
    Catalog,
    SetExpr,
    default_catalog,
    free_names,
    load_catalog,
    materialize,
    parse_set_expr,
    resolve,
)

__all__ = ["main"]


# --------------------------------------------------------------------------
# small parsers
# --------------------------------------------------------------------------

_RANGE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")
_POWERS = re.compile(r"^(\d+)\^(\d+)\.\.(\d+)\^(\d+)$")


def _parse_int_list(spec: str) -> list[int]:
    """Shift specs: "0..9", "2^4..2^12", "{0, 5, 9}", "0,5,9", "7"."""
    spec = spec.strip()
    if spec.startswith("{") and spec.endswith("}"):
        spec = spec[1:-1]
    m = _RANGE.match(spec)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise InvalidParam(f"empty range {spec!r}")
        return list(range(lo, hi + 1))
    m = _POWERS.match(spec)
    if m:
        base, lo, base2, hi = (int(m.group(i)) for i in range(1, 5))
        if base != base2 or base < 2 or int(m.group(2)) > int(m.group(4)):
            raise InvalidParam(f"bad power range {spec!r}")
        return [base**k for k in range(lo, hi + 1)]
    try:
        return [int(part) for part in spec.split(",") if part.strip()]
    except ValueError as exc:
        raise InvalidParam(f"cannot parse integers from {spec!r}") from exc


def _parse_window(spec) -> tuple[int, int]:
    if isinstance(spec, int):
        return (0, spec)
    text = str(spec)
    try:
        if ":" in text:
            lo, _, hi = text.partition(":")
            return (int(lo), int(hi))
        return (0, int(text))
    except ValueError as exc:
        raise InvalidParam(f"window must be N or LO:HI, got {text!r}") from exc


# --------------------------------------------------------------------------
# config/flag plumbing
# --------------------------------------------------------------------------


def _opt(args, cfg: RunConfig, block: str, key: str, default=None):
    """Flag value if given, else config value, else default."""
    v = getattr(args, key.replace("-", "_"), None)
    if v is not None:
        return v
    return cfg.get(block, key, default)


def _load_cfg(args) -> RunConfig:
    path = getattr(args, "config", None)
    return load_config(path) if path else RunConfig()


def _get_catalog(args, cfg) -> Catalog:
    path = _opt(args, cfg, "output", "catalog")
    return load_catalog(path) if path else default_catalog()


def _resolve_expr(text: str, catalog: Catalog) -> SetExpr:
    expr = parse_set_expr(text)
    names = free_names(expr)
    if names:
        expr = resolve(expr, {n: catalog[n] for n in names})
    return expr


def _the_set(args, cfg, catalog: Catalog, group: Group, flag: str = "set"):
    """Materialize --set EXPR or --name NAME against the catalog."""
    text = getattr(args, flag, None)
    name = getattr(args, "name", None) if flag == "set" else None
    if text is not None and name is not None:
        raise InvalidParam("give either a set expression or a catalog name, not both")
    if text is None and name is None:
        raise InvalidParam("a set is required (--set EXPR or --name NAME)")
    expr = catalog[name] if name is not None else _resolve_expr(text, catalog)
    return materialize(expr, group), expr, (name if name is not None else text)


def _build_group(args, cfg: RunConfig, needed_margin: int) -> Group:
    if getattr(args, "mod", None) is not None:
        return ZModGroup(args.mod)
    if getattr(args, "cayley", None):
        return load_cayley_table(args.cayley)
    if getattr(args, "depth", None) is not None:
        return FreeGroup2(args.depth)
    window = getattr(args, "window", None)
    if window is not None:
        lo, hi = _parse_window(window)
        margin = args.margin if args.margin is not None else needed_margin
        return ZWindowGroup(Window(lo, hi, margin))
    sec = cfg.section("group")
    kind = sec.get("kind", "z-window")
    if kind == "z-mod":
        return ZModGroup(int(sec["n"]))
    if kind == "cayley":
        return load_cayley_table(sec["path"])
    if kind == "free-2":
        return FreeGroup2(int(sec["depth"]))
    if kind != "z-window":
        raise InvalidParam(f"unknown group kind {kind!r}")
    lo = int(sec.get("lo", 0))
    hi = int(sec.get("hi", 100_000))
    margin = args.margin if args.margin is not None else int(sec.get("margin", needed_margin))
    return ZWindowGroup(Window(lo, hi, margin))


def _build_ideal(args, cfg: RunConfig, catalog: Catalog) -> Ideal:
    kind = _opt(args, cfg, "ideal", "ideal") or cfg.get("ideal", "kind", "trivial")
    params: dict = {}
    if kind == "finite-sets":
        cutoff = _opt(args, cfg, "ideal", "cutoff")
        if cutoff is not None:
            params["cutoff"] = int(cutoff)
    elif kind == "density-zero":
        lengths = _opt(args, cfg, "ideal", "lengths")
        if lengths is not None:
            params["lengths"] = (
                _parse_int_list(lengths) if isinstance(lengths, str) else [int(x) for x in lengths]
            )
        thr = getattr(args, "density_threshold", None)
        if thr is None:
            thr = cfg.get("ideal", "threshold")
        if thr is not None:
            params["threshold"] = Fraction(str(thr)) if not isinstance(thr, Fraction) else thr
    elif kind == "generated":
        gens = _opt(args, cfg, "ideal", "generators")
        if gens is None:
            raise InvalidParam("generated ideal needs --generators")
        gen_list = gens if isinstance(gens, list) else [g.strip() for g in str(gens).split(",")]
        params["generators"] = [_resolve_expr(g, catalog) for g in gen_list if g]
        for key, attr in (("e_bound", "e_bound"), ("shift_range", "gen_shift_range"), ("slack", "slack")):
            v = getattr(args, attr, None)
            if v is None:
                v = cfg.get("ideal", key.replace("_", "-"))
            if v is not None:
                params[key] = int(v)
    return make_ideal(kind, **params)


def _report_format(args, cfg) -> str:
    return _opt(args, cfg, "output", "report", "json")


def _emit(args, cfg, payload: dict) -> None:
    if _report_format(args, cfg) == "text":
        sys.stdout.write(render_text(payload))
    else:
        sys.stdout.write(render_json(payload))


# --------------------------------------------------------------------------
# command handlers: (args, cfg) -> (payload, exit_code)
# --------------------------------------------------------------------------


def _cmd_pack(args, cfg) -> tuple[dict, int]:
    t0 = time.perf_counter()
    catalog = _get_catalog(args, cfg)
    n = int(_opt(args, cfg, "pack", "n", 2))
    translators_spec = _opt(args, cfg, "pack", "translators")
    shifts_spec = _opt(args, cfg, "pack", "shifts", "0..32")
    if translators_spec is not None:
        candidates: list = parse_translators(str(translators_spec))
        needed = 0
    else:
        candidates = _parse_int_list(str(shifts_spec))
        needed = max((abs(c) for c in candidates), default=0)
    group = _build_group(args, cfg, needed)
    if isinstance(group, FreeGroup2) and translators_spec is None:
        raise InvalidParam("packing on the free group needs --translators")
    A, expr, label = _the_set(args, cfg, catalog, group)
    ideal = _build_ideal(args, cfg, catalog)
    exact = bool(_opt(args, cfg, "pack", "exact", False))
    if exact:
        report = pack_exact(
            A,
            ideal,
            candidates,
            n,
            expr=expr,
            node_budget=int(_opt(args, cfg, "pack", "node-budget", 2_000_000)),
            exact_cap=int(_opt(args, cfg, "pack", "exact-cap", 64)),
        )
    else:
        report = pack_greedy(A, ideal, candidates, n, expr=expr)
    params = {
        "set": label,
        "n": n,
        "mode": "exact" if exact else "greedy",
        "candidates": len(candidates),
        "group": group.descriptor(),
    }
    return envelope("pack", params, report.payload(), elapsed_ms=_ms(t0)), 0


def _cmd_small(args, cfg) -> tuple[dict, int]:
    t0 = time.perf_counter()
    catalog = _get_catalog(args, cfg)
    m = int(_opt(args, cfg, "small", "m", 2))
    s = int(_opt(args, cfg, "small", "s", 16))
    inner_max_f = int(_opt(args, cfg, "small", "inner-max-f", 64))
    inner_sr = int(_opt(args, cfg, "small", "inner-shift-range", 256))
    cap = int(_opt(args, cfg, "small", "cap", 1_000_000))
    bounds = SmallBounds(m=m, s=s, inner=LargeBounds(inner_max_f, inner_sr), cap=cap)
    needed = max(s, min(inner_sr, inner_max_f - 1))
    group = _build_group(args, cfg, needed)
    A, expr, label = _the_set(args, cfg, catalog, group)
    ideal = _build_ideal(args, cfg, catalog)
    evidence = is_ideal_small(A, ideal, bounds)
    params = {"set": label, "group": group.descriptor()}
    code = 0 if evidence.verdict == "small-at-scale" else 1
    return envelope("small", params, evidence.payload(), elapsed_ms=_ms(t0)), code


def _cmd_large(args, cfg) -> tuple[dict, int]:
    t0 = time.perf_counter()
    catalog = _get_catalog(args, cfg)
    max_f = int(_opt(args, cfg, "large", "max-f", 64))
    shift_range = int(_opt(args, cfg, "large", "shift-range", 256))
    bounds = LargeBounds(max_f=max_f, shift_range=shift_range)
    needed = min(shift_range, max_f - 1)
    group = _build_group(args, cfg, needed)
    A, expr, label = _the_set(args, cfg, catalog, group)
    ideal = _build_ideal(args, cfg, catalog)
    params = {"set": label, "group": group.descriptor()}
    try:
        witness = is_large(A, ideal, bounds)
    except NotFoundAtScale as exc:
        result = {
            "large": False,
            "reason": str(exc),
            "best_family": exc.best_family,
            "best_residual_size": exc.best_residual_size,
        }
        return envelope("large", params, result, elapsed_ms=_ms(t0)), 1
    result = {"large": True, **witness.payload()}
    return envelope("large", params, result, elapsed_ms=_ms(t0)), 0


def _cmd_density(args, cfg) -> tuple[dict, int]:
    t0 = time.perf_counter()
    catalog = _get_catalog(args, cfg)
    schedule = _parse_int_list(str(_opt(args, cfg, "density", "schedule", "64,256,1024")))
    group = _build_group(args, cfg, 0)
    A, expr, label = _the_set(args, cfg, catalog, group)
    profile = upper_density(A, schedule)
    params = {"set": label, "group": group.descriptor()}
    return envelope("density", params, profile.payload(), elapsed_ms=_ms(t0)), 0


def _cmd_folner(args, cfg) -> tuple[dict, int]:
    t0 = time.perf_counter()
    F = _parse_int_list(str(_opt(args, cfg, "folner", "F", "{1}")))
    n = int(_opt(args, cfg, "folner", "n", 10))
    group = _build_group(args, cfg, max((abs(x) for x in F), default=0))
    cert = folner_set(F, n, group)
    return envelope("folner", {"group": group.descriptor()}, cert.payload(), elapsed_ms=_ms(t0)), 0


def _cmd_measure(args, cfg) -> tuple[dict, int]:
    t0 = time.perf_counter()
    catalog = _get_catalog(args, cfg)
    F = _parse_int_list(str(_opt(args, cfg, "measure", "F", "{1}")))
    n = int(_opt(args, cfg, "measure", "n", 10))
    needed = max((abs(x) for x in F), default=0)
    group = _build_group(args, cfg, needed)
    avoid_text = _opt(args, cfg, "measure", "avoid")
    if avoid_text is None:
        raise InvalidParam("measure needs --avoid EXPR (the set certified null)")
    avoid_expr = _resolve_expr(str(avoid_text), catalog)
    A = materialize(avoid_expr, group)
    bound = _opt(args, cfg, "measure", "bound")
    m = measure_build(
        F, n, A, bound=int(bound) if bound is not None else None,
        avoided_descriptor={"set": str(avoid_text)},
    )
    result = {
        "L": m.cert.length,
        "y": m.y,
        "mu_avoid": str(m.mu(A)),
        "certificate": m.cert.payload(),
    }
    eval_text = _opt(args, cfg, "measure", "eval")
    if eval_text is not None:
        B = materialize(_resolve_expr(str(eval_text), catalog), group)
        result["mu_eval"] = str(m.mu(B))
        result["defects"] = {str(x): str(m.invariance_defect(x, B)) for x in F}
    params = {"avoid": str(avoid_text), "F": F, "n": n, "group": group.descriptor()}
    if eval_text is not None:
        params["eval"] = str(eval_text)
    return envelope("measure", params, result, elapsed_ms=_ms(t0)), 0


_KIND_RE = re.compile(r"^pack(\d+)$")


def _cmd_complete(args, cfg) -> tuple[dict, int]:
    t0 = time.perf_counter()
    catalog = _get_catalog(args, cfg)
    kind_text = str(_opt(args, cfg, "complete", "kind", "pack2"))
    stages = int(_opt(args, cfg, "complete", "stages", 5))
    threshold = int(_opt(args, cfg, "complete", "threshold", 8))
    shifts_spec = str(_opt(args, cfg, "complete", "shifts", "0..512"))
    m = _KIND_RE.match(kind_text)
    bounds = None
    if m:
        kind, n = "pack_n", int(m.group(1))
        n_range = (2, 4)
    elif kind_text in ("pack-omega", "pack<w"):
        kind, n = "pack_<w", 2
        arities = _parse_int_list(str(_opt(args, cfg, "complete", "n-range", "2..4")))
        n_range = (min(arities), max(arities))
    elif kind_text == "s":
        kind, n = "s", 2
        n_range = (2, 4)
        bounds = SmallBounds(
            m=int(_opt(args, cfg, "complete", "m", 2)),
            s=int(_opt(args, cfg, "complete", "s", 16)),
            inner=LargeBounds(
                int(_opt(args, cfg, "complete", "inner-max-f", 256)),
                int(_opt(args, cfg, "complete", "inner-shift-range", 256)),
            ),
        )
    else:
        raise InvalidParam(f"unknown completion kind {kind_text!r}")
    candidates = _parse_int_list(shifts_spec)
    if kind == "s":
        needed = max(bounds.s, min(bounds.inner.shift_range, bounds.inner.max_f - 1))
    else:
        needed = max((abs(c) for c in candidates), default=0)
    group = _build_group(args, cfg, needed)
    ideal = _build_ideal(args, cfg, catalog)
    trace = iterate_completion(
        kind,
        stages,
        catalog,
        group,
        base=ideal,
        n=n,
        n_range=n_range,
        candidates=candidates,
        threshold=threshold,
        bounds=bounds,
    )
    params = {"kind": kind_text, "group": group.descriptor()}
    return envelope("complete", params, trace.payload(), elapsed_ms=_ms(t0)), 0


def _cmd_f2(args, cfg) -> tuple[dict, int]:
    t0 = time.perf_counter()
    depth = int(_opt(args, cfg, "f2", "depth", 12))
    base_label = str(_opt(args, cfg, "f2", "base", "A"))
    if base_label not in ("A", "B"):
        raise InvalidParam(f"--base must be A or B, got {base_label!r}")
    n = int(_opt(args, cfg, "f2", "n", 2))
    translators = parse_translators(str(_opt(args, cfg, "f2", "translators", "b^0..b^8")))
    _, a_side, b_side = f2_partition(depth)
    base = a_side if base_label == "A" else b_side
    report = family_disjoint(base, translators, n, base_label=base_label)
    params = {"depth": depth, "base": base_label, "n": n}
    return envelope("f2", params, report.payload(), elapsed_ms=_ms(t0)), 0 if report.disjoint else 1


def _cmd_verify(args, cfg) -> tuple[dict, int]:
    t0 = time.perf_counter()
    results = run_all(only=getattr(args, "only", None))
    if not results:
        raise InvalidParam(f"no criterion numbered {args.only}")
    all_passed = all(r.passed for r in results)
    payload = {
        "all_passed": all_passed,
        "criteria": [r.payload() for r in results],
        "lines": [r.line(timed=False) for r in results],
    }
    return envelope("verify-paper", {}, payload, elapsed_ms=_ms(t0)), 0 if all_passed else 1


def _ms(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


_HANDLERS = {
    "pack": _cmd_pack,
    "small": _cmd_small,
    "large": _cmd_large,
    "density": _cmd_density,
    "folner": _cmd_folner,
    "measure": _cmd_measure,
    "complete": _cmd_complete,
    "f2": _cmd_f2,
    "verify-paper": _cmd_verify,
}


# --------------------------------------------------------------------------
# argument parser
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file (brace-block format)")
    common.add_argument("--report", choices=("json", "text"), help="output format")
    common.add_argument("--catalog", help="catalog file of named sets")
    common.add_argument("--window", help="Z window: N for [0,N] or LO:HI")
    common.add_argument("--margin", type=int, help="window shift margin (default: auto)")
    common.add_argument("--mod", type=int, help="cyclic group Z_N")
    common.add_argument("--cayley", help="finite group via Cayley table file")
    common.add_argument("--depth", type=int, help="free-group word ball radius")
    common.add_argument(
        "--ideal",
        choices=("trivial", "finite-sets", "density-zero", "generated"),
        help="ideal kind (default trivial)",
    )
    common.add_argument("--cutoff", type=int, help="finite-sets: cardinality cutoff")
    common.add_argument("--lengths", help="density-zero: schedule, e.g. 64,256,1024")
    common.add_argument("--density-threshold", help="density-zero: threshold (exact rational)")
    common.add_argument("--generators", help="generated: comma list of set exprs")
    common.add_argument("--e-bound", type=int, dest="e_bound")
    common.add_argument("--gen-shift-range", type=int, dest="gen_shift_range")
    common.add_argument("--slack", type=int)

    p = argparse.ArgumentParser(
        prog="idealpack",
        description="packing indices, smallness evidence, and invariant-measure "
        "stages for translation ideals",
    )
    sub = p.add_subparsers(dest="command", metavar="command")

    sp = sub.add_parser("pack", parents=[common], help="packing index of a set")
    sp.add_argument("--set", help="set expression")
    sp.add_argument("--name", help="catalog set name")
    sp.add_argument("--n", type=int, help="intersection arity (>= 2)")
    sp.add_argument("--shifts", help="candidate translators, e.g. 0..9")
    sp.add_argument("--translators", help="free-group candidates, e.g. b^0..b^8")
    sp.add_argument(
        "--exact", action="store_true", default=None,
        help="branch-and-bound (default: greedy)",
    )
    sp.add_argument("--node-budget", type=int, dest="node_budget")
    sp.add_argument("--exact-cap", type=int, dest="exact_cap")

    sp = sub.add_parser("small", parents=[common], help="smallness evidence")
    sp.add_argument("--set")
    sp.add_argument("--name")
    sp.add_argument("--m", type=int, help="max family size")
    sp.add_argument("--s", type=int, help="family shift bound")
    sp.add_argument("--inner-max-f", type=int, dest="inner_max_f")
    sp.add_argument("--inner-shift-range", type=int, dest="inner_shift_range")
    sp.add_argument("--cap", type=int, help="family enumeration cap")

    sp = sub.add_parser("large", parents=[common], help="largeness witness search")
    sp.add_argument("--set")
    sp.add_argument("--name")
    sp.add_argument("--max-f", type=int, dest="max_f")
    sp.add_argument("--shift-range", type=int, dest="shift_range")

    sp = sub.add_parser("density", parents=[common], help="sliding-window density profile")
    sp.add_argument("--set")
    sp.add_argument("--name")
    sp.add_argument("--schedule", help="window lengths, e.g. 64,256,1024")

    sp = sub.add_parser("folner", parents=[common], help="Folner certificate")
    sp.add_argument("--F", help="finite test set, e.g. {1,-3}")
    sp.add_argument("--n", type=int, help="tolerance index")

    sp = sub.add_parser("measure", parents=[common], help="finite-stage measure")
    sp.add_argument("--avoid", help="set the measure certifies null")
    sp.add_argument("--F", help="finite test set")
    sp.add_argument("--n", type=int)
    sp.add_argument("--eval", help="set to evaluate")
    sp.add_argument("--bound", type=int, help="avoidance search bound")

    sp = sub.add_parser("complete", parents=[common], help="completion stages over the catalog")
    sp.add_argument("--kind", help="pack2, pack3, ..., pack-omega, or s")
    sp.add_argument("--stages", type=int)
    sp.add_argument("--threshold", type=int, help="saturation threshold t")
    sp.add_argument("--shifts", help="candidate translators")
    sp.add_argument("--n-range", dest="n_range", help="pack-omega arities, e.g. 2..4")
    sp.add_argument("--m", type=int)
    sp.add_argument("--s", type=int)
    sp.add_argument("--inner-max-f", type=int, dest="inner_max_f")
    sp.add_argument("--inner-shift-range", type=int, dest="inner_shift_range")

    sp = sub.add_parser("f2", parents=[common], help="free-group disjointness check")
    sp.add_argument("--base", help="A (words starting a/a^-1) or B (the rest)")
    sp.add_argument("--translators", help='words: "b^0..b^8", "e,a,ba", or shipped-b')
    sp.add_argument("--n", type=int)

    sp = sub.add_parser("verify-paper", parents=[common], help="run the acceptance suite")
    sp.add_argument("--only", type=int, help="run a single criterion (1-10)")

    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        cfg = _load_cfg(args)
        payload, code = _HANDLERS[args.command](args, cfg)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IdealpackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "verify-paper" and _report_format(args, cfg) == "text":
        for crit in payload["result"]["criteria"]:
            print(CriterionResult(**crit).line())
        return code
    _emit(args, cfg, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
