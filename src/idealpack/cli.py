"""idealpack command line: pack, small, large, density, folner, measure,
complete, f2, verify-paper.

Exit codes: 0 success; 1 negative verdict (not small, not disjoint, no
largeness witness, a failed acceptance criterion); 2 usage or configuration
error; 3 exhausted search budget.  Reports render as deterministic JSON
(sorted keys; the elapsed_ms field is the one run-dependent value) or as
plain text of the same payload.

Every option goes through one lookup, ``_opt``: the flag if it was given,
else the key of the same name in the config block named after the command
(``pack``, ``small``, ...; see config.py for the format), else the default.
The carrier lives in block ``group``, the ideal in ``ideal``, the report
format and catalog in ``output``; ``--ideal``, ``--density-threshold`` and
``--gen-shift-range`` set ``ideal.kind``, ``ideal.threshold`` and
``ideal.shift-range``.  Argparse only names the flags, in one parser built
per process; ``_convert`` types every value, flag or config key, and a value
of the wrong type (a list or 1.5 for an integer, unparsable text) is a usage
error that names the key.  ``main`` returns every exit code, argparse's too.

The carrier flags (``--mod``, ``--cayley``, ``--depth``, ``--window``) lay
their keys over the ``group`` block, so a flag overrides only the keys it
names: ``--window`` sets ``lo`` and ``hi`` and keeps a configured margin.
The margin otherwise defaults to exactly what the computation needs.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time
from fractions import Fraction
from typing import Optional

from . import words
from .acceptance import CriterionResult, run_all
from .completion import iterate_completion
from .config import RunConfig, load_config
from .errors import BudgetError, IdealpackError, InvalidParam, NotFoundAtScale
from .folner import folner_set, measure_build, upper_density
from .freegroup import f2_partition, family_disjoint, parse_translators
from .groups import FreeGroup2, Group, Window, ZModGroup, ZWindowGroup, load_cayley_table
from .ideals import Ideal, make_ideal
from .largesmall import LargeBounds, SmallBounds, is_ideal_small, is_large
from .packing import pack_exact, pack_greedy
from .reports import envelope, render_json, render_text, show_elements
from .setexpr import (
    Catalog, SetExpr, default_catalog, load_catalog, materialize, parse_set_expr,
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


def _parse_window(text: str) -> tuple[int, int]:
    try:
        if ":" in text:
            lo, _, hi = text.partition(":")
            return (int(lo), int(hi))
        return (0, int(text))
    except ValueError as exc:
        raise InvalidParam(f"window must be N or LO:HI, got {text!r}") from exc


# --------------------------------------------------------------------------
# options: one lookup, one converter
# --------------------------------------------------------------------------

# the report formats, as ``--report`` and ``output.report`` name them
_REPORTS = ("json", "text")

_WANTED = {int: "an integer", Fraction: "a rational number", str: "text", bool: "true or false"}


def _convert(value, as_type, name: str):
    """The one place an option value changes type.  ``as_type`` is int,
    Fraction, str or bool, or ``[int]`` / ``[str]`` for a list, given as a
    config list or as text ("0..9" and the other shift specs for integers, a
    comma list for text).  Anything else is a usage error naming the key."""
    if value is None:
        return value
    if isinstance(as_type, list):
        (item,) = as_type
        if isinstance(value, list):
            return [_convert(v, item, name) for v in value]
        text = _convert(value, str, name)
        if item is int:
            return _parse_int_list(text)
        return [part.strip() for part in text.split(",") if part.strip()]
    try:
        if isinstance(value, list) or isinstance(value, bool) != (as_type is bool):
            raise TypeError
        if as_type is int and isinstance(value, Fraction) and value.denominator != 1:
            raise TypeError
        return as_type(value)
    except (TypeError, ValueError, ZeroDivisionError):
        shown = value if isinstance(value, Fraction) else repr(value)
        raise InvalidParam(f"{name} must be {_WANTED[as_type]}, got {shown}") from None


def _opt(args, cfg: RunConfig, block: str, key: str, default=None, as_type=str, flag=None):
    """The flag's value if it was given, else ``block.key`` from the config,
    else ``default``, converted to ``as_type`` (text unless named).  The flag
    is ``--key`` unless ``flag`` names another."""
    value = getattr(args, (flag or key).replace("-", "_"), None)
    if value is None:
        value = cfg.get(block, key, default)
    return _convert(value, as_type, f"{block}.{key}")


def _load(loader, path: str):
    """A file an option names, read by ``loader``; an unreadable path is a
    usage error."""
    try:
        return loader(path)
    except OSError as exc:
        raise InvalidParam(f"cannot read {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InvalidParam(f"cannot read {path!r}: not a text file") from None


def _get_catalog(args, cfg) -> Catalog:
    path = _opt(args, cfg, "output", "catalog")
    return _load(load_catalog, path) if path else default_catalog()


def _resolve_expr(text: str, catalog: Catalog) -> SetExpr:
    return catalog.close(parse_set_expr(text))


def _the_set(args, catalog: Catalog, group: Group):
    """Materialize --set EXPR or --name NAME against the catalog."""
    if args.set is not None and args.name is not None:
        raise InvalidParam("give either a set expression or a catalog name, not both")
    if args.set is None and args.name is None:
        raise InvalidParam("a set is required (--set EXPR or --name NAME)")
    expr = catalog[args.name] if args.name is not None else _resolve_expr(args.set, catalog)
    return materialize(expr, group), expr, (args.name if args.name is not None else args.set)


def _reach(shifts: list[int]) -> int:
    return max((abs(x) for x in shifts), default=0)


def _build_group(args, cfg: RunConfig, needed_margin: int) -> Group:
    """The carrier, built from the config's ``group`` block with the carrier
    flags laid over it (the first of --mod, --cayley, --depth, --window
    given sets the kind and its keys; --margin sets the margin)."""
    sec = cfg.section("group")
    if args.mod is not None:
        sec.update(kind="z-mod", n=args.mod)
    elif args.cayley is not None:
        sec.update(kind="cayley", path=args.cayley)
    elif args.depth is not None:
        sec.update(kind="free-2", depth=args.depth)
    elif args.window is not None:
        lo, hi = _parse_window(args.window)
        sec.update(kind="z-window", lo=lo, hi=hi)
    if args.margin is not None:
        sec["margin"] = args.margin

    def key(name: str, as_type=int, default=None):
        value = _convert(sec.get(name, default), as_type, f"group.{name}")
        if value is None:
            raise InvalidParam(f"group kind {sec['kind']!r} needs group.{name}")
        return value

    kind = key("kind", str, "z-window")
    if kind == "z-mod":
        return ZModGroup(key("n"))
    if kind == "cayley":
        return _load(load_cayley_table, key("path", str))
    if kind == "free-2":
        return FreeGroup2(key("depth"))
    if kind != "z-window":
        raise InvalidParam(f"unknown group kind {kind!r}")
    return ZWindowGroup(Window(key("lo", default=0), key("hi", default=100_000),
                               key("margin", default=needed_margin)))


def _build_ideal(args, cfg: RunConfig, catalog: Catalog) -> Ideal:
    kind = _opt(args, cfg, "ideal", "kind", "trivial", flag="ideal")
    params: dict = {}
    if kind == "finite-sets":
        params["cutoff"] = _opt(args, cfg, "ideal", "cutoff", as_type=int)
    elif kind == "density-zero":
        params["lengths"] = _opt(args, cfg, "ideal", "lengths", as_type=[int])
        params["threshold"] = _opt(args, cfg, "ideal", "threshold", as_type=Fraction,
                                   flag="density-threshold")
    elif kind == "generated":
        gens = _opt(args, cfg, "ideal", "generators", as_type=[str])
        if gens is None:
            raise InvalidParam("generated ideal needs --generators")
        params["generators"] = [_resolve_expr(g, catalog) for g in gens]
        params["e_bound"] = _opt(args, cfg, "ideal", "e-bound", as_type=int)
        params["shift_range"] = _opt(args, cfg, "ideal", "shift-range", as_type=int,
                                     flag="gen-shift-range")
        params["slack"] = _opt(args, cfg, "ideal", "slack", as_type=int)
    return make_ideal(kind, **{k: v for k, v in params.items() if v is not None})


def _small_bounds(args, cfg: RunConfig, block: str, inner_max_f: int, **extra) -> SmallBounds:
    """Smallness bounds for ``small`` and ``complete --kind s``, which differ
    only in the default inner max_f."""
    inner = LargeBounds(
        _opt(args, cfg, block, "inner-max-f", inner_max_f, int),
        _opt(args, cfg, block, "inner-shift-range", 256, int),
    )
    return SmallBounds(
        m=_opt(args, cfg, block, "m", 2, int), s=_opt(args, cfg, block, "s", 16, int),
        inner=inner, **extra,
    )


# --------------------------------------------------------------------------
# command handlers: (args, cfg) -> (params, result, exit_code)
# --------------------------------------------------------------------------


def _cmd_pack(args, cfg) -> tuple[dict, dict, int]:
    catalog = _get_catalog(args, cfg)
    n = _opt(args, cfg, "pack", "n", 2, int)
    translators_spec = _opt(args, cfg, "pack", "translators")
    if translators_spec is not None:
        candidates: list = [words.parse_word(t) for t in parse_translators(translators_spec)]
        needed = 0
    else:
        candidates = _opt(args, cfg, "pack", "shifts", "0..32", [int])
        needed = _reach(candidates)
    group = _build_group(args, cfg, needed)
    if group.depth is not None and translators_spec is None:
        raise InvalidParam("packing on the free group needs --translators")
    if group.depth is None and translators_spec is not None:
        raise InvalidParam("--translators names free-group words; give --shifts on this group")
    A, expr, label = _the_set(args, catalog, group)
    ideal = _build_ideal(args, cfg, catalog)
    exact = _opt(args, cfg, "pack", "exact", False, bool)
    if exact:
        report = pack_exact(
            A, ideal, candidates, n, expr=expr,
            node_budget=_opt(args, cfg, "pack", "node-budget", 2_000_000, int),
            exact_cap=_opt(args, cfg, "pack", "exact-cap", 64, int),
        )
    else:
        report = pack_greedy(A, ideal, candidates, n, expr=expr)
    params = {"set": label, "n": n, "mode": "exact" if exact else "greedy",
              "candidates": len(candidates), "group": group.descriptor()}
    return params, report.payload(), 0


def _cmd_small(args, cfg) -> tuple[dict, dict, int]:
    catalog = _get_catalog(args, cfg)
    bounds = _small_bounds(args, cfg, "small", 64, cap=_opt(args, cfg, "small", "cap", 1_000_000, int))
    group = _build_group(args, cfg, bounds.reach)
    A, expr, label = _the_set(args, catalog, group)
    evidence = is_ideal_small(A, _build_ideal(args, cfg, catalog), bounds)
    params = {"set": label, "group": group.descriptor()}
    return params, evidence.payload(), 0 if evidence.verdict == "small-at-scale" else 1


def _cmd_large(args, cfg) -> tuple[dict, dict, int]:
    catalog = _get_catalog(args, cfg)
    bounds = LargeBounds(
        max_f=_opt(args, cfg, "large", "max-f", 64, int),
        shift_range=_opt(args, cfg, "large", "shift-range", 256, int),
    )
    group = _build_group(args, cfg, bounds.depth)
    A, expr, label = _the_set(args, catalog, group)
    params = {"set": label, "group": group.descriptor()}
    try:
        witness = is_large(A, _build_ideal(args, cfg, catalog), bounds)
    except NotFoundAtScale as exc:
        result = {
            "large": False,
            "reason": str(exc),
            "best_family": show_elements(exc.best_family),
            "best_residual_size": exc.best_residual_size,
        }
        return params, result, 1
    return params, {"large": True, **witness.payload()}, 0


def _cmd_density(args, cfg) -> tuple[dict, dict, int]:
    catalog = _get_catalog(args, cfg)
    schedule = _opt(args, cfg, "density", "schedule", "64,256,1024", [int])
    group = _build_group(args, cfg, 0)
    A, expr, label = _the_set(args, catalog, group)
    return {"set": label, "group": group.descriptor()}, upper_density(A, schedule).payload(), 0


def _cmd_folner(args, cfg) -> tuple[dict, dict, int]:
    F = _opt(args, cfg, "folner", "F", "{1}", [int])
    n = _opt(args, cfg, "folner", "n", 10, int)
    group = _build_group(args, cfg, _reach(F))
    return {"group": group.descriptor()}, folner_set(F, n, group).payload(), 0


def _cmd_measure(args, cfg) -> tuple[dict, dict, int]:
    catalog = _get_catalog(args, cfg)
    F = _opt(args, cfg, "measure", "F", "{1}", [int])
    n = _opt(args, cfg, "measure", "n", 10, int)
    group = _build_group(args, cfg, _reach(F))
    avoid_text = _opt(args, cfg, "measure", "avoid")
    if avoid_text is None:
        raise InvalidParam("measure needs --avoid EXPR (the set certified null)")
    A = materialize(_resolve_expr(avoid_text, catalog), group)
    m = measure_build(
        F, n, A, bound=_opt(args, cfg, "measure", "bound", as_type=int),
        avoided_descriptor={"set": avoid_text},
    )
    result = {"L": m.cert.length, "y": m.y, "mu_avoid": str(m.mu(A)), "certificate": m.cert.payload()}
    params = {"avoid": avoid_text, "F": F, "n": n, "group": group.descriptor()}
    eval_text = _opt(args, cfg, "measure", "eval")
    if eval_text is not None:
        B = materialize(_resolve_expr(eval_text, catalog), group)
        result["mu_eval"] = str(m.mu(B))
        result["defects"] = {str(x): str(m.invariance_defect(x, B)) for x in F}
        params["eval"] = eval_text
    return params, result, 0


_KIND_RE = re.compile(r"^pack(\d+)$")


def _cmd_complete(args, cfg) -> tuple[dict, dict, int]:
    catalog = _get_catalog(args, cfg)
    kind_text = _opt(args, cfg, "complete", "kind", "pack2")
    stages = _opt(args, cfg, "complete", "stages", 5, int)
    threshold = _opt(args, cfg, "complete", "threshold", 8, int)
    m = _KIND_RE.match(kind_text)
    n, n_range, bounds = 2, (2, 4), None
    if m:
        kind, n = "pack_n", int(m.group(1))
    elif kind_text in ("pack-omega", "pack<w"):
        kind = "pack_<w"
        arities = _opt(args, cfg, "complete", "n-range", "2..4", [int])
        if not arities:
            raise InvalidParam("complete.n-range names no arity")
        n_range = (min(arities), max(arities))
    elif kind_text == "s":
        kind = "s"
        bounds = _small_bounds(args, cfg, "complete", 256)
    else:
        raise InvalidParam(f"unknown completion kind {kind_text!r}")
    candidates = _opt(args, cfg, "complete", "shifts", "0..512", [int])
    group = _build_group(args, cfg, bounds.reach if kind == "s" else _reach(candidates))
    trace = iterate_completion(
        kind, stages, catalog, group, base=_build_ideal(args, cfg, catalog), n=n,
        n_range=n_range, candidates=candidates, threshold=threshold, bounds=bounds,
    )
    return {"kind": kind_text, "group": group.descriptor()}, trace.payload(), 0


def _cmd_f2(args, cfg) -> tuple[dict, dict, int]:
    depth = _opt(args, cfg, "f2", "depth", 12, int)
    base_label = _opt(args, cfg, "f2", "base", "A")
    if base_label not in ("A", "B"):
        raise InvalidParam(f"--base must be A or B, got {base_label!r}")
    n = _opt(args, cfg, "f2", "n", 2, int)
    translators = parse_translators(_opt(args, cfg, "f2", "translators", "b^0..b^8"))
    _, a_side, b_side = f2_partition(depth)
    base = a_side if base_label == "A" else b_side
    report = family_disjoint(base, translators, n, base_label=base_label)
    params = {"depth": depth, "base": base_label, "n": n}
    return params, report.payload(), 0 if report.disjoint else 1


def _cmd_verify(args, cfg) -> tuple[dict, dict, int]:
    only = _convert(args.only, int, "--only")
    results = run_all(only=only)
    if not results:
        raise InvalidParam(f"no criterion numbered {only}")
    all_passed = all(r.passed for r in results)
    result = {
        "all_passed": all_passed,
        "criteria": [r.payload() for r in results],
        "lines": [r.line(timed=False) for r in results],
    }
    return {}, result, 0 if all_passed else 1


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file (brace-block format)")
    common.add_argument("--report", help="output format: json or text")
    common.add_argument("--catalog", help="catalog file of named sets")
    common.add_argument("--window", help="Z window: N for [0,N] or LO:HI")
    common.add_argument("--margin", help="window shift margin (default: auto)")
    common.add_argument("--mod", help="cyclic group Z_N")
    common.add_argument("--cayley", help="finite group via Cayley table file")
    common.add_argument("--depth", help="free-group word ball radius")
    common.add_argument("--ideal", help="ideal kind: trivial (default), finite-sets, density-zero, generated")
    common.add_argument("--cutoff", help="finite-sets: cardinality cutoff")
    common.add_argument("--lengths", help="density-zero: schedule, e.g. 64,256,1024")
    common.add_argument("--density-threshold", help="density-zero: threshold (exact rational)")
    common.add_argument("--generators", help="generated: comma list of set exprs")
    common.add_argument("--e-bound")
    common.add_argument("--gen-shift-range")
    common.add_argument("--slack")

    the_set = argparse.ArgumentParser(add_help=False)
    the_set.add_argument("--set", help="set expression")
    the_set.add_argument("--name", help="catalog set name")

    small_bounds = argparse.ArgumentParser(add_help=False)
    small_bounds.add_argument("--m", help="max family size")
    small_bounds.add_argument("--s", help="family shift bound")
    small_bounds.add_argument("--inner-max-f")
    small_bounds.add_argument("--inner-shift-range")

    p = argparse.ArgumentParser(
        prog="idealpack",
        description="packing indices, smallness evidence, and invariant-measure "
        "stages for translation ideals",
    )
    sub = p.add_subparsers(dest="command", metavar="command")

    sp = sub.add_parser("pack", parents=[common, the_set], help="packing index of a set")
    sp.add_argument("--n", help="intersection arity (>= 2)")
    sp.add_argument("--shifts", help="candidate translators, e.g. 0..9")
    sp.add_argument("--translators", help="free-group candidates, e.g. b^0..b^8")
    sp.add_argument(
        "--exact", action="store_true", default=None,
        help="branch-and-bound (default: greedy)",
    )
    sp.add_argument("--node-budget")
    sp.add_argument("--exact-cap")

    sp = sub.add_parser("small", parents=[common, the_set, small_bounds], help="smallness evidence")
    sp.add_argument("--cap", help="family enumeration cap")

    sp = sub.add_parser("large", parents=[common, the_set], help="largeness witness search")
    sp.add_argument("--max-f")
    sp.add_argument("--shift-range")

    sp = sub.add_parser("density", parents=[common, the_set], help="sliding-window density profile")
    sp.add_argument("--schedule", help="window lengths, e.g. 64,256,1024")

    sp = sub.add_parser("folner", parents=[common], help="Folner certificate")
    sp.add_argument("--F", help="finite test set, e.g. {1,-3}")
    sp.add_argument("--n", help="tolerance index")

    sp = sub.add_parser("measure", parents=[common], help="finite-stage measure")
    sp.add_argument("--avoid", help="set the measure certifies null")
    sp.add_argument("--F", help="finite test set")
    sp.add_argument("--n")
    sp.add_argument("--eval", help="set to evaluate")
    sp.add_argument("--bound", help="avoidance search bound")

    sp = sub.add_parser(
        "complete", parents=[common, small_bounds], help="completion stages over the catalog",
    )
    sp.add_argument("--kind", help="pack2, pack3, ..., pack-omega, or s")
    sp.add_argument("--stages")
    sp.add_argument("--threshold", help="saturation threshold t")
    sp.add_argument("--shifts", help="candidate translators")
    sp.add_argument("--n-range", help="pack-omega arities, e.g. 2..4")

    sp = sub.add_parser("f2", parents=[common], help="free-group disjointness check")
    sp.add_argument("--base", help="A (words starting a/a^-1) or B (the rest)")
    sp.add_argument("--translators", help='words: "b^0..b^8", "e,a,ba", or shipped-b')
    sp.add_argument("--n")

    sp = sub.add_parser("verify-paper", parents=[common], help="run the acceptance suite")
    sp.add_argument("--only", help="run a single criterion (1-10)")

    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # an unknown flag, a flag with no value, --help
        return exc.code
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        cfg = _load(load_config, args.config) if args.config else RunConfig()
        report = _opt(args, cfg, "output", "report", "json")
        if report not in _REPORTS:
            raise InvalidParam(f"output.report must be one of {', '.join(_REPORTS)}, got {report!r}")
        params, result, code = _HANDLERS[args.command](args, cfg)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IdealpackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = envelope(args.command, params, result, elapsed_ms=int((time.perf_counter() - t0) * 1000))
    if args.command == "verify-paper" and report == "text":
        for crit in payload["result"]["criteria"]:
            print(CriterionResult(**crit).line())
    else:
        sys.stdout.write(render_text(payload) if report == "text" else render_json(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
