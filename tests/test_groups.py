"""Group carriers: window arithmetic, translation, exact cores."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idealpack import bitops
from idealpack.errors import InvalidParam, InvalidTable, KindMismatch, ScaleMismatch, ShiftOutOfBudget
from idealpack.groups import (
    CayleyGroup,
    FreeGroup2,
    Window,
    ZModGroup,
    ZWindowGroup,
    load_cayley_table,
)
from idealpack.words import ball_size, enumerate_ball, mul_words, word_at_rank, word_rank


def klein_four() -> CayleyGroup:
    table = [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]
    return CayleyGroup(table, 0)


def test_window_validation():
    with pytest.raises(InvalidParam):
        Window(5, 4, 0)
    with pytest.raises(InvalidParam):
        Window(0, 10, -1)
    w = Window(3, 12, 2)
    assert w.size == 10


def symmetric_table(n: int) -> tuple[list[list[int]], int]:
    """S_n on permutations in lexicographic order; (p*q)(i) = p(q(i))."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
    return table, index[tuple(range(n))]


def dihedral_table(n: int) -> tuple[list[list[int]], int]:
    """D_n as r^i s^j, element index i + n*j."""

    def mul(x, y):
        i, j, k, l = x % n, x // n, y % n, y // n
        return (i + (-k if j else k)) % n + n * ((j + l) % 2)

    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)], 0


def test_zwindow_translate_respects_margin():
    g = ZWindowGroup(Window(0, 99, margin=4))
    A = g.set_of([0, 10, 50])
    assert A.translate(3).elements() == [3, 13, 53]
    assert A.translate(-4).elements() == [6, 46]  # 0 falls off, stays honest
    with pytest.raises(ShiftOutOfBudget):
        A.translate(5)


def test_zwindow_exact_core_shrinks():
    g = ZWindowGroup(Window(0, 99, margin=10))
    full = g.exact_core_mask([0])
    smaller = g.exact_core_mask([0, 3])
    smallest = g.exact_core_mask([-2, 0, 3])
    assert smaller & ~full == 0 or full & ~smaller == 0
    # indices [3, 99] then [3, 97]
    assert bin(smaller).count("1") == 97
    assert bin(smallest).count("1") == 95
    assert smallest & ~smaller == 0


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=-100, max_value=100))
def test_zmod_translate_is_rotation(n, s):
    g = ZModGroup(n)
    A = g.set_of([0, 1 % n])
    bits, tally = g.translate_bits(s, A.bits)
    expect = {(0 + s) % n, (1 % n + s) % n}
    assert set(A.translate(s).elements()) == expect
    assert tally == 0  # nothing truncates on a cyclic group


def test_cayley_group_axioms():
    g = klein_four()
    e = g.identity()
    for x in g.elements():
        assert g.mul(x, e) == x
        assert g.mul(x, g.inv(x)) == e
        for y in g.elements():
            assert 0 <= g.mul(x, y) < 4


def test_cayley_rejects_non_group():
    # row 1 repeats an element: not a Latin square
    with pytest.raises(InvalidParam):
        CayleyGroup([[0, 1], [1, 1]], 0)


def test_cayley_table_file_with_text_is_refused(tmp_path):
    path = tmp_path / "bad.table"
    path.write_text("2\n0 1\n1 x\n0\n")
    with pytest.raises(InvalidTable, match="'1 x' is not a row of integers"):
        load_cayley_table(path)


def _row_loop_translate(table, g, bits):
    out = 0
    for i in bitops.iter_bits(bits):
        out |= 1 << table[g][i]
    return out


_TABLES = [symmetric_table(4), dihedral_table(5), dihedral_table(11)]


@given(st.sampled_from(_TABLES), st.data())
@settings(max_examples=60, deadline=None)
def test_cayley_translate_matches_row_loop(table_and_e, data):
    table, e = table_and_e
    g = CayleyGroup(table, e)
    ps = data.draw(st.sets(st.integers(0, g.size - 1)))
    h = data.draw(st.integers(0, g.size - 1))
    bits = bitops.bits_from_positions(ps, g.size)
    assert g.translate_bits(h, bits) == (_row_loop_translate(table, h, bits), 0)


def _index_groups():
    return ([CayleyGroup(*t) for t in _TABLES] + [ZModGroup(n) for n in (1, 7, 24)]
            + [FreeGroup2(d) for d in (1, 3, 4)])


@pytest.mark.parametrize("group", _index_groups(), ids=lambda g: f"{g.kind}-{g.size}")
def test_index_arrays_match_element_arithmetic(group):
    # translate_index and differences against mul and inv, element by element
    rng = np.random.default_rng(group.size)
    gs = rng.choice(group.size, size=min(group.size, 9), replace=False)
    hs = rng.choice(group.size, size=min(group.size, 13), replace=False)
    at = group.elem_at

    def index_or_out(elem):
        if group.kind == "free-2" and len(elem) > group.depth:
            return -1
        return group.index(elem)

    moved = group.translate_index(gs, hs)
    for i, g in enumerate(gs.tolist()):
        for j, h in enumerate(hs.tolist()):
            assert moved[i, j] == index_or_out(group.mul(at(g), at(h)))
    # both shapes: the free group reads differences column by column
    for rows, cols in ((gs, hs), (hs, gs)):
        diffs = group.differences(rows, cols)
        for i, g in enumerate(rows.tolist()):
            for j, h in enumerate(cols.tolist()):
                assert diffs[i, j] == index_or_out(group.mul(group.inv(at(g)), at(h)))
    assert group.translation_is_exact == (group.kind != "free-2")


def test_translator_count():
    assert CayleyGroup(*symmetric_table(3)).translator_count(0) == 6
    assert FreeGroup2(4).translator_count(2) == ball_size(2)
    assert FreeGroup2(4).translator_count(9) == ball_size(4)
    with pytest.raises(KindMismatch):
        ZModGroup(5).translator_count(1)


@given(st.integers(1, 12), st.integers(0, 2**40), st.data())
@settings(max_examples=100, deadline=None)
def test_zwindow_tally_counts_the_bits_pushed_out(margin, bits, data):
    # the tally is every input bit (those beyond the window included) minus
    # the bits of the result
    g = ZWindowGroup(Window(0, 2 * margin + data.draw(st.integers(0, 20)), margin=margin))
    s = data.draw(st.integers(-margin, margin))
    out, tally = g.translate_bits(s, bits)
    want = (bits << s) & g.full_mask if s >= 0 else bits >> -s
    assert (out, tally) == (want, bits.bit_count() - want.bit_count())


def _first_associativity_failure(table):
    n = len(table)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return (x, y, z)
    return None


@pytest.mark.parametrize("table_and_e", [symmetric_table(3), dihedral_table(4)])
def test_cayley_associativity_reports_first_triple(table_and_e):
    # corrupt one product at a time (keeping identity and inverses intact):
    # the reported triple is the first one in (x, y, z) loop order
    table, e = table_and_e
    n = len(table)
    seen = 0
    for x, y in itertools.product(range(n), repeat=2):
        if e in (x, y) or table[x][y] == e:
            continue
        for v in range(n):
            if v in (e, table[x][y]):
                continue
            bad = [list(row) for row in table]
            bad[x][y] = v
            expected = _first_associativity_failure(bad)
            assert expected is not None
            with pytest.raises(InvalidTable) as err:
                CayleyGroup(bad, e)
            assert str(err.value) == "associativity fails at ({}, {}, {})".format(*expected)
            seen += 1
    assert seen > 0


def _string_translate(depth, g, bits):
    out, dropped = 0, 0
    for i in bitops.iter_bits(bits):
        w = mul_words(g, word_at_rank(i))
        if len(w) <= depth:
            out |= 1 << word_rank(w)
        else:
            dropped += 1
    return out, dropped


@given(
    st.integers(1, 5),
    st.sampled_from(list(enumerate_ball(4))),
    st.sets(st.integers(0, ball_size(5) - 1), max_size=80),
)
@settings(max_examples=80, deadline=None)
def test_free_group_translate_matches_string_path(depth, g, ps):
    group = FreeGroup2(depth)
    bits = bitops.bits_from_positions(ps, group.size)
    assert group.translate_bits(g, bits) == _string_translate(depth, g, bits)


def test_free_group_translate_truncates():
    g = FreeGroup2(2)
    A = g.set_of(["", "a", "b"])
    # left-translate by b: identity->b, a->ba, b->bb; all still in the ball
    T = A.translate("b")
    assert sorted(T.elements()) == ["b", "ba", "bb"]
    # translate by a long word pushes members outside depth 2
    _, tally = g.translate_bits("bb", A.bits)
    assert tally > 0


def test_free_group_core_mask_is_prefix():
    g = FreeGroup2(4)
    core = g.exact_core_mask(["b", "ab"])  # max length 2 -> ball of radius 2
    assert core == (1 << ball_size(2)) - 1


def test_set_algebra_and_scale_mismatch():
    g = ZModGroup(10)
    A = g.set_of([1, 2, 3])
    B = g.set_of([3, 4])
    assert A.inter(B).elements() == [3]
    assert A.union(B).cardinality() == 4
    assert A.diff(B).elements() == [1, 2]
    assert A.compl().cardinality() == 7
    other = ZModGroup(11).set_of([1])
    with pytest.raises(ScaleMismatch):
        A.union(other)


def test_density_is_exact_fraction():
    from fractions import Fraction

    g = ZWindowGroup(Window(0, 9, 0))
    A = g.set_of([0, 2, 4])
    assert A.density() == Fraction(3, 10)
