"""Finite-stage completion of an ideal over a catalog of named sets.

The transfinite construction — close an ideal under every set of infinite
packing index, then under unions, and iterate — is approximated from below
on a finite carrier: the catalog.  A stage receives the current admitted
subset, freezes it as a stage ideal (membership = base membership after
deleting the admitted sets' union), classifies each remaining catalog set
against that frozen ideal, and finally closes under pairwise unions of
admitted catalog members.  Admission rules:

  initial     — member of the base ideal before any stage runs
  pack        — packing value >= threshold, or flag saturated, at the
                configured scale ("infinite index" surrogate; greedy values
                are certified lower bounds, so admission is sound)
  union       — covered by the union of two admitted sets (summands named)
  small       — verdict small-at-scale against the stage ideal

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
    "CompletionContext",
    "pack_completion_stage",
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


class CompletionContext:
    """Catalog materialized once on a shared group, plus the base ideal."""

    def __init__(self, catalog: Catalog, group: Group, base: Optional[Ideal] = None):
        self.catalog = catalog
        self.group = group
        self.base = base if base is not None else TrivialIdeal()
        self.names = list(catalog.names)
        self.sets: dict[str, MaterializedSet] = {
            name: materialize(expr, group) for name, expr in catalog.items()
        }

    def initial_subset(self) -> tuple[set[str], list[AdmissionRecord]]:
        admitted: set[str] = set()
        records = []
        for name in self.names:
            if self.base.member(self.sets[name], self.catalog[name]):
                admitted.add(name)
                records.append(AdmissionRecord(name, 0, "initial", {}))
        return admitted, records

    def stage_ideal(self, admitted: set[str]) -> StageIdeal:
        return StageIdeal(
            self.base, self.group, [self.sets[name].bits for name in sorted(admitted)]
        )

    def _union_close(
        self, admitted: set[str], stage: int, records: list[AdmissionRecord]
    ) -> None:
        """Admit catalog sets covered by a union of two admitted ones (a
        pair may repeat a set, covering plain subset admission)."""
        changed = True
        while changed:
            changed = False
            pool = sorted(admitted)
            for name in self.names:
                if name in admitted:
                    continue
                bits = self.sets[name].bits
                for p, q in itertools.combinations_with_replacement(pool, 2):
                    if bits & ~(self.sets[p].bits | self.sets[q].bits) == 0:
                        admitted.add(name)
                        records.append(
                            AdmissionRecord(name, stage, "union", {"summands": [p, q]})
                        )
                        changed = True
                        break
        return None

    def pack_stage(
        self,
        admitted: set[str],
        stage: int,
        n_values: Sequence[int],
        candidates: Sequence,
        threshold: int,
    ) -> tuple[set[str], list[AdmissionRecord]]:
        if threshold > len(candidates):
            raise InvalidParam(
                f"saturation threshold {threshold} exceeds the "
                f"{len(candidates)} candidate translators"
            )
        ideal = self.stage_ideal(admitted)  # frozen at stage start
        out = set(admitted)
        records: list[AdmissionRecord] = []
        for name in self.names:
            if name in out:
                continue
            for n in n_values:
                report = pack_greedy(
                    self.sets[name], ideal, candidates, n, expr=self.catalog[name]
                )
                if report.value >= threshold or report.flag == "saturated":
                    out.add(name)
                    records.append(
                        AdmissionRecord(
                            name,
                            stage,
                            "pack",
                            {"n": n, "value": report.value, "flag": report.flag},
                        )
                    )
                    break
        self._union_close(out, stage, records)
        return out, records

    def s_stage(
        self,
        admitted: set[str],
        stage: int,
        bounds: SmallBounds,
    ) -> tuple[set[str], list[AdmissionRecord]]:
        ideal = self.stage_ideal(admitted)
        out = set(admitted)
        records: list[AdmissionRecord] = []
        for name in self.names:
            if name in out:
                continue
            evidence = is_ideal_small(self.sets[name], ideal, bounds)
            if evidence.verdict == "small-at-scale":
                out.add(name)
                records.append(
                    AdmissionRecord(
                        name,
                        stage,
                        "small",
                        {"m": bounds.m, "s": bounds.s},
                    )
                )
        self._union_close(out, stage, records)
        return out, records


def pack_completion_stage(
    admitted: Sequence[str],
    n: int,
    catalog: Catalog,
    group: Group,
    candidates: Sequence,
    threshold: int,
    base: Optional[Ideal] = None,
) -> list[str]:
    """One pack_n stage: next catalog subset (superset of the input)."""
    ctx = CompletionContext(catalog, group, base)
    out, _ = ctx.pack_stage(set(admitted), 1, [n], candidates, threshold)
    return sorted(out)


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
    or "s" (smallness).  Stops early at a fixpoint, flagging it.
    """
    if stages < 1:
        raise InvalidParam(f"need at least one stage, got {stages}")
    if kind == "pack_n":
        n_values: Sequence[int] = [n]
    elif kind == "pack_<w":
        if n_range[0] > n_range[1] or n_range[0] < 2:
            raise InvalidParam(f"bad arity range {n_range}")
        n_values = list(range(n_range[0], n_range[1] + 1))
    elif kind == "s":
        n_values = []
    else:
        raise InvalidParam(f"unknown completion kind {kind!r}")

    ctx = CompletionContext(catalog, group, base)
    admitted, records = ctx.initial_subset()
    stage_sets = [sorted(admitted)]
    params: dict = {"stages": stages, "group": group.descriptor()}
    if kind == "s":
        bounds = bounds if bounds is not None else SmallBounds()
        params.update({"m": bounds.m, "s": bounds.s})
    else:
        if candidates is None:
            raise InvalidParam("pack completion needs candidate translators")
        params.update({"threshold": threshold, "candidates": len(candidates)})
        if kind == "pack_n":
            params["n"] = n
        else:
            params["n_range"] = list(n_range)

    fixpoint = False
    fixpoint_stage = None
    for stage in range(1, stages + 1):
        if kind == "s":
            new, recs = ctx.s_stage(admitted, stage, bounds)
        else:
            new, recs = ctx.pack_stage(admitted, stage, n_values, candidates, threshold)
        records.extend(recs)
        stage_sets.append(sorted(new))
        if new == admitted:
            fixpoint = True
            fixpoint_stage = stage
            break
        admitted = new
    return CompletionTrace(
        kind=kind,
        params=params,
        stage_sets=stage_sets,
        records=records,
        fixpoint=fixpoint,
        fixpoint_stage=fixpoint_stage,
    )
