"""Finite-stage completion of an ideal over a catalog of named sets.

The transfinite construction — close an ideal under every set of infinite
packing index, then under unions, and iterate — is approximated from below
on a finite carrier: the catalog, materialized once.  Each stage freezes the
admitted subset as a stage ideal (membership = base membership after
deleting the admitted sets' union), asks the kind's admission rule of each
remaining catalog set against that frozen ideal, and finally closes under
pairwise unions of admitted catalog members.  Admission rules:

  initial     — member of the base ideal before any stage runs
  pack        — (pack_n, pack_<w) packing value >= threshold, or flag
                saturated, at the configured scale ("infinite index"
                surrogate; greedy values are certified lower bounds, so
                admission is sound)
  small       — (s) verdict small-at-scale against the stage ideal
  union       — covered by the union of two admitted sets (summands named)

Stages are monotone by construction; the trace records every admission with
its rule and flags the fixpoint when a stage adds nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import InvalidParam
from .groups import Group, MaterializedSet
from .ideals import Ideal, StageIdeal, TrivialIdeal
from .largesmall import SmallBounds, is_ideal_small
from .packing import pack_greedy
from .setexpr import Catalog, materialize

__all__ = [
    "AdmissionRecord",
    "CompletionTrace",
    "iterate_completion",
]


@dataclass(frozen=True)
class AdmissionRecord:
    name: str
    stage: int
    rule: str  # initial | pack | union | small
    detail: dict = field(default_factory=dict, hash=False)

    def payload(self) -> dict:
        return {"name": self.name, "stage": self.stage, "rule": self.rule, **self.detail}


@dataclass
class CompletionTrace:
    kind: str
    params: dict
    stage_sets: list  # list of sorted name lists, index 0 = initial subset
    records: list
    fixpoint: bool
    fixpoint_stage: Optional[int]

    def admitted(self) -> list[str]:
        return self.stage_sets[-1]

    def payload(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "stages": self.stage_sets,
            "admitted": self.admitted(),
            "records": [r.payload() for r in self.records],
            "fixpoint": self.fixpoint,
            "fixpoint_stage": self.fixpoint_stage,
        }


def _union_close(
    admitted: set[str], sets: dict[str, MaterializedSet], stage: int, records: list[AdmissionRecord]
) -> None:
    """Admit catalog sets covered by a union of two admitted ones (a pair
    may repeat a set, covering plain subset admission)."""
    changed = True
    while changed:
        changed = False
        pool = sorted(admitted)
        for name, A in sets.items():
            if name in admitted:
                continue
            for p, q in itertools.combinations_with_replacement(pool, 2):
                if A.bits & ~(sets[p].bits | sets[q].bits) == 0:
                    admitted.add(name)
                    records.append(AdmissionRecord(name, stage, "union", {"summands": [p, q]}))
                    changed = True
                    break


def iterate_completion(
    kind: str,
    stages: int,
    catalog: Catalog,
    group: Group,
    base: Optional[Ideal] = None,
    n: int = 2,
    n_range: tuple[int, int] = (2, 4),
    candidates: Optional[Sequence] = None,
    threshold: int = 8,
    bounds: Optional[SmallBounds] = None,
) -> CompletionTrace:
    """Run `stages` completion stages of the given kind.

    kind: "pack_n" (one arity), "pack_<w" (admit on any arity in n_range),
    or "s" (smallness).  Stops early at a fixpoint, flagging it.  A pack
    threshold must be at least the largest arity: every packing value is at
    least min(n - 1, #candidates), so a lower one would admit every set.
    """
    if stages < 1:
        raise InvalidParam(f"need at least one stage, got {stages}")
    if kind == "pack_n":
        n_values: Sequence[int] = [n]
    elif kind == "pack_<w":
        if n_range[0] > n_range[1] or n_range[0] < 2:
            raise InvalidParam(f"bad arity range {n_range}")
        n_values = list(range(n_range[0], n_range[1] + 1))
    elif kind != "s":
        raise InvalidParam(f"unknown completion kind {kind!r}")

    base = base if base is not None else TrivialIdeal()
    sets = {name: materialize(expr, group) for name, expr in catalog.items()}
    admitted = {name for name, A in sets.items() if base.member(A, catalog[name])}
    records = [AdmissionRecord(name, 0, "initial") for name in sets if name in admitted]
    stage_sets = [sorted(admitted)]
    params: dict = {"stages": stages, "group": group.descriptor()}
    if kind == "s":
        bounds = bounds if bounds is not None else SmallBounds()
        params.update({"m": bounds.m, "s": bounds.s})

        def admit(name: str, ideal: Ideal) -> Optional[tuple[str, dict]]:
            if is_ideal_small(sets[name], ideal, bounds).verdict == "small-at-scale":
                return "small", {"m": bounds.m, "s": bounds.s}
            return None

    else:
        if candidates is None:
            raise InvalidParam("pack completion needs candidate translators")
        if threshold < max(n_values):
            raise InvalidParam(
                f"threshold {threshold} is below the largest arity {max(n_values)}: every set would pass"
            )
        if threshold > len(candidates):
            raise InvalidParam(
                f"saturation threshold {threshold} exceeds the "
                f"{len(candidates)} candidate translators"
            )
        params.update({"threshold": threshold, "candidates": len(candidates)})
        if kind == "pack_n":
            params["n"] = n
        else:
            params["n_range"] = list(n_range)

        def admit(name: str, ideal: Ideal) -> Optional[tuple[str, dict]]:
            for k in n_values:
                report = pack_greedy(sets[name], ideal, candidates, k, expr=catalog[name])
                if report.value >= threshold or report.flag == "saturated":
                    return "pack", {"n": k, "value": report.value, "flag": report.flag}
            return None

    fixpoint_stage = None
    for stage in range(1, stages + 1):
        # frozen at stage start: admissions within a stage do not feed each other
        ideal = StageIdeal(base, group, [sets[name].bits for name in sorted(admitted)])
        new = set(admitted)
        for name in sets:
            if name in admitted:
                continue
            verdict = admit(name, ideal)
            if verdict is not None:
                new.add(name)
                records.append(AdmissionRecord(name, stage, *verdict))
        _union_close(new, sets, stage, records)
        stage_sets.append(sorted(new))
        if new == admitted:
            fixpoint_stage = stage
            break
        admitted = new
    return CompletionTrace(
        kind=kind,
        params=params,
        stage_sets=stage_sets,
        records=records,
        fixpoint=fixpoint_stage is not None,
        fixpoint_stage=fixpoint_stage,
    )
