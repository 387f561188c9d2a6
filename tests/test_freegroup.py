"""Rank-2 free group: the start-letter partition and disjoint translate families."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from idealpack.errors import InvalidParam, LengthBudgetTooSmall
from idealpack.freegroup import (
    f2_partition,
    family_disjoint,
    parse_translators,
    shipped_b_family,
)
from idealpack.groups import FreeGroup2, MaterializedSet
from idealpack.words import ball_size, invert_word, mul_words, reduce_word, word_at_rank, word_rank


def test_partition_shapes():
    group, a_side, b_side = f2_partition(2)
    assert group.size == 17
    assert a_side.cardinality() + b_side.cardinality() == 17
    assert a_side.inter(b_side).is_empty()
    assert "" in b_side.elements()  # identity starts with no letter at all
    for w in a_side.elements():
        assert w[0] in "aA"


def test_partition_at_depth_one():
    _, a_side, b_side = f2_partition(1)
    assert sorted(a_side.elements()) == ["A", "a"]
    assert sorted(b_side.elements()) == ["", "B", "b"]


def test_a_side_meets_its_a_translate():
    # A and aA overlap: A^-1 = A is in both, and it is the shortlex-least witness
    _, a_side, _ = f2_partition(4)
    report = family_disjoint(a_side, ["e", "a"], 2)
    assert not report.disjoint
    assert report.violating == ["", "a"]
    assert report.witness == "A"
    # the report holds words; its payload prints the empty word as "e"
    assert report.payload()["violating"] == ["e", "a"]
    for t in report.violating:
        assert a_side.contains(mul_words(invert_word(t), report.witness))


def test_a_side_b_power_translates_disjoint():
    # b^k A are distinguished by the leading b-run, so any two are disjoint
    _, a_side, _ = f2_partition(6)
    report = family_disjoint(a_side, parse_translators("b^0..b^4"), 2)
    assert report.disjoint
    assert report.core_size == ball_size(6 - 4)
    assert report.subsets_checked == 10  # C(5,2), none skipped
    assert report.truncation_tally == 0


def test_b_side_shipped_family_disjoint():
    _, _, b_side = f2_partition(6)
    fam = shipped_b_family()
    assert fam == ["a"] + ["b" * k + "a" for k in range(1, 6)]
    report = family_disjoint(b_side, fam, 2, base_label="B")
    assert report.disjoint
    assert report.core_size == ball_size(0)  # longest translator eats the depth
    assert any("construction" in note for note in report.notes)


def test_triple_intersections_on_b_side():
    _, _, b_side = f2_partition(5)
    report = family_disjoint(b_side, ["a", "ba", "bba"], 3)
    assert report.disjoint
    assert report.subsets_checked == 1


def test_depth_budget_guard():
    _, a_side, _ = f2_partition(2)
    with pytest.raises(LengthBudgetTooSmall):
        family_disjoint(a_side, ["bbb"], 2)  # length 3 exceeds depth 2


def test_vacuous_when_family_smaller_than_n():
    _, a_side, _ = f2_partition(4)
    report = family_disjoint(a_side, ["e", "a"], 3)
    assert report.disjoint and report.subsets_checked == 0


def test_duplicate_translators_rejected():
    _, a_side, _ = f2_partition(4)
    with pytest.raises(InvalidParam):
        family_disjoint(a_side, ["e", "a", "e"], 2)


def test_parse_translators():
    assert parse_translators("shipped-b") == shipped_b_family()
    assert parse_translators("b^0..b^3") == ["e", "b", "bb", "bbb"]
    assert parse_translators("e,a,ba") == ["e", "a", "ba"]
    assert parse_translators("a^1..a^2") == ["a", "aa"]
    with pytest.raises(InvalidParam):
        parse_translators("a^2..b^3")  # mixed letters
    with pytest.raises(InvalidParam):
        parse_translators("")


def _string_family_disjoint(base, trans, n):
    """The word-arithmetic reference: (disjoint, violating, witness, checked)."""
    depth = base.group.depth
    core_size = ball_size(depth - max(len(t) for t in trans))
    membership = []
    for t in trans:
        bits = 0
        for r in range(core_size):
            if (base.bits >> word_rank(mul_words(invert_word(t), word_at_rank(r)))) & 1:
                bits |= 1 << r
        membership.append(bits)
    checked = 0
    for combo in itertools.combinations(range(len(trans)), n):
        inter = membership[combo[0]]
        for i in combo[1:]:
            inter &= membership[i]
        checked += 1
        if inter:
            witness = word_at_rank((inter & -inter).bit_length() - 1)
            return False, [trans[i] for i in combo], witness, checked
    return True, None, None, checked


@given(
    st.integers(1, 8),
    st.sampled_from(["A", "B", "random"]),
    st.lists(st.text(alphabet="aAbB", max_size=8).map(reduce_word), min_size=2, max_size=6, unique=True),
    st.integers(2, 3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_family_disjoint_matches_string_path(depth, piece, trans, n, rnd):
    trans = [t[:depth] for t in trans]
    trans = [t for i, t in enumerate(trans) if t not in trans[:i]]
    _, a_side, b_side = f2_partition(depth)
    if piece == "A":
        base = a_side
    elif piece == "B":
        base = b_side
    else:
        group = FreeGroup2(depth)
        base = MaterializedSet(group, rnd.getrandbits(group.size))
    report = family_disjoint(base, [t or "e" for t in trans], n)
    expected = _string_family_disjoint(base, trans, n)
    got = (report.disjoint, report.violating, report.witness, report.subsets_checked)
    assert got == expected
