"""Free-group word arithmetic: reduction, ranks, ball enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idealpack.errors import InvalidParam
from idealpack.words import (
    ball_size,
    enumerate_ball,
    invert_ranks,
    invert_word,
    is_reduced,
    left_mul_ranks,
    mul_words,
    parse_word,
    reduce_word,
    word_at_rank,
    word_rank,
)

# shortlex over a < A < b < B
LETTERS = "aAbB"

words = st.text(alphabet=LETTERS, max_size=8)
reduced_words = words.map(reduce_word)


def test_ball_sizes_small():
    # 1, then +4, +12, +36: each word of length k has 3 extensions
    assert [ball_size(d) for d in range(5)] == [1, 5, 17, 53, 161]
    assert ball_size(6) == 1457


def test_reduce_examples():
    assert reduce_word("aA") == ""
    assert reduce_word("abBA") == ""
    assert reduce_word("abA") == "abA"
    assert reduce_word("aabBAA") == ""
    assert reduce_word("baab") == "baab"


@given(words)
def test_reduce_is_idempotent_and_reduced(w):
    r = reduce_word(w)
    assert is_reduced(r)
    assert reduce_word(r) == r


@given(reduced_words)
def test_inverse_cancels(w):
    assert mul_words(w, invert_word(w)) == ""
    assert mul_words(invert_word(w), w) == ""


@given(reduced_words, reduced_words, reduced_words)
def test_mul_associative(u, v, w):
    assert mul_words(mul_words(u, v), w) == mul_words(u, mul_words(v, w))


@given(st.integers(min_value=0, max_value=ball_size(5) - 1))
def test_rank_round_trip(r):
    assert word_rank(word_at_rank(r)) == r


def test_rank_orders_shortlex():
    # identity first, then the four generators in letter order
    assert [word_at_rank(i) for i in range(5)] == ["", "a", "A", "b", "B"]
    ws = [word_at_rank(i) for i in range(ball_size(3))]
    keyed = sorted(ws, key=lambda w: (len(w), [LETTERS.index(c) for c in w]))
    assert ws == keyed


def test_enumerate_ball_matches_ranks():
    ws = list(enumerate_ball(3))
    assert len(ws) == ball_size(3)
    assert all(word_rank(w) == i for i, w in enumerate(ws))
    assert all(is_reduced(w) and len(w) <= 3 for w in ws)


@given(st.integers(min_value=0, max_value=6), reduced_words)
@settings(max_examples=60, deadline=None)
def test_left_mul_ranks_matches_string_products(depth, g):
    # every rank of the ball, against mul_words / word_rank; ok is False
    # exactly where the product is longer than the depth
    n = ball_size(depth)
    ranks, ok = left_mul_ranks(g, np.arange(n), depth)
    for r in range(n):
        p = mul_words(g, word_at_rank(r))
        if len(p) <= depth:
            assert ok[r] and ranks[r] == word_rank(p), (g, r, p)
        else:
            assert not ok[r] and ranks[r] == -1, (g, r, p)


@given(st.integers(min_value=0, max_value=7), st.data())
@settings(max_examples=60, deadline=None)
def test_invert_ranks_matches_string_inverse(depth, data):
    ranks = data.draw(st.lists(st.integers(-1, ball_size(depth) - 1), max_size=40))
    want = [-1 if r < 0 else word_rank(invert_word(word_at_rank(r))) for r in ranks]
    assert invert_ranks(np.array(ranks, dtype=np.int64), depth).tolist() == want


def test_parse_word():
    assert parse_word("e") == ""
    assert parse_word("ab") == "ab"
    assert parse_word(" bba ") == "bba"
    with pytest.raises(InvalidParam):
        parse_word("xyz")
    with pytest.raises(InvalidParam):
        parse_word("aA")  # not reduced
