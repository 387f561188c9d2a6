"""Group carriers: window arithmetic, translation, exact cores."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from idealpack import bitops
from idealpack.errors import InvalidParam, InvalidTable, ScaleMismatch, ShiftOutOfBudget
from idealpack.groups import (
    CayleyGroup,
    FreeGroup2,
    Window,
    ZModGroup,
    ZWindowGroup,
    make_group,
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
    # callers that decode the set once translate its positions directly
    assert g.translate_positions(h, bitops.positions_from_bits(bits, g.size)) == g.translate_bits(h, bits)


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
    pos = bitops.positions_from_bits(bits, group.size)
    assert group.translate_positions(g, pos) == group.translate_bits(g, bits)


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


def test_make_group():
    assert make_group("z-window", lo=0, hi=9, margin=1).size == 10
    assert make_group("z-mod", modulus=7).size == 7
    assert make_group("free-2", depth=3).size == ball_size(3)
    with pytest.raises(InvalidParam):
        make_group("nope")


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
