"""Completion stages over the shipped catalog."""

import pytest

from idealpack.completion import iterate_completion
from idealpack.errors import InvalidParam
from idealpack.groups import Window, ZWindowGroup
from idealpack.ideals import StageIdeal, TrivialIdeal
from idealpack.largesmall import LargeBounds, SmallBounds
from idealpack.setexpr import default_catalog, materialize

G = ZWindowGroup(Window(0, 100_000, margin=512))
SHIFTS = list(range(513))


def run_pack2(stages=5, threshold=8):
    return iterate_completion(
        "pack_n", stages, default_catalog(), G, n=2, candidates=SHIFTS, threshold=threshold
    )


def test_pack2_trace_frozen():
    trace = run_pack2()
    assert trace.fixpoint
    assert trace.fixpoint_stage == 3
    assert sorted(trace.admitted()) == [
        "block",
        "block2",
        "nothing",
        "pows",
        "pows3",
        "sparsemix",
        "spot",
        "tri",
        "tri7",
        "wide",
    ]
    by_stage = {}
    for rec in trace.records:
        by_stage.setdefault(rec.stage, []).append(rec)
    # the empty set is in every ideal from the start
    assert [r.name for r in by_stage[0]] == ["nothing"]
    stage1 = {r.name: r for r in by_stage[1]}
    # sparse sets enter by packing value, wide only as a union of two admitted
    assert stage1["pows"].rule == "pack"
    assert stage1["pows"].detail["value"] >= 8
    assert stage1["wide"].rule == "union"
    assert sorted(stage1["wide"].detail["summands"]) == ["block", "block2"]
    # the triangular sets need the stage-1 ideal before their packing clears 8
    stage2_names = {r.name for r in by_stage[2]}
    assert stage2_names == {"tri", "tri7"}


def test_completion_is_idempotent():
    a = run_pack2()
    b = run_pack2()
    assert a.admitted() == b.admitted()
    assert [(r.name, r.stage, r.rule) for r in a.records] == [
        (r.name, r.stage, r.rule) for r in b.records
    ]


def test_threshold_controls_admission():
    strict = run_pack2(threshold=100)
    assert "block" not in strict.admitted()  # block packs at 11, far below 100
    assert "spot" in strict.admitted()  # spot packs at 160


def test_threshold_must_be_feasible():
    with pytest.raises(InvalidParam):
        run_pack2(threshold=1000)  # exceeds the candidate count
    # every value is at least n - 1, so these used to admit every set
    with pytest.raises(InvalidParam, match="threshold 1 is below the largest arity 2"):
        run_pack2(threshold=1)
    with pytest.raises(InvalidParam, match="threshold 3 is below the largest arity 4"):
        iterate_completion("pack_<w", 3, default_catalog(), G, n_range=(2, 4), candidates=SHIFTS, threshold=3)


def test_stage_ideal_wraps_admitted_members():
    catalog = default_catalog()
    sets = {name: materialize(catalog[name], G) for name in ("block", "block2", "parity")}
    ideal = StageIdeal(TrivialIdeal(), G, [sets["block"].bits, sets["block2"].bits])
    assert ideal.member(sets["block"])
    assert ideal.member(sets["block"].union(sets["block2"]))
    assert not ideal.member(sets["parity"])


def test_pack_omega_admits_on_any_arity():
    trace = iterate_completion(
        "pack_<w",
        3,
        default_catalog(),
        G,
        n_range=(2, 3),
        candidates=list(range(65)),
        threshold=24,
    )
    # spot still packs past 24 at n=2; block (value 11) only via n=3 relief
    assert "spot" in trace.admitted()
    for rec in trace.records:
        if rec.rule == "pack":
            assert rec.detail["n"] in (2, 3)


def test_s_completion_runs_to_fixpoint():
    bounds = SmallBounds(m=2, s=8, inner=LargeBounds(32, 32))
    trace = iterate_completion(
        "s", 4, default_catalog(), ZWindowGroup(Window(0, 20_000, margin=32)), bounds=bounds
    )
    assert trace.fixpoint
    admitted = set(trace.admitted())
    assert "pows" in admitted  # sparse enough to be small at this scale
    assert "parity" not in admitted  # evens is nobody's small set


def test_single_stage_helper_matches_first_stage():
    trace = run_pack2(stages=1)
    assert trace.stage_sets[0] == ["nothing"]
    assert trace.stage_sets[1] == run_pack2().stage_sets[1]
    out = trace.admitted()
    assert "pows" in out
    assert "nothing" in out  # stages only grow
    assert "parity" not in out
