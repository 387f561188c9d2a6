"""Reduced words over two generators.

Words are plain strings over the alphabet ``a A b B`` where an uppercase
letter is the inverse of its lowercase partner.  A string is *reduced* when no
letter is adjacent to its inverse.  All functions here keep words reduced.

The shortlex order used everywhere ranks words first by length, then
lexicographically with letters ordered ``a < A < b < B``.  Ranks are dense:
rank 0 is the empty word, and the ``4 * 3**(l-1)`` words of length ``l`` form
a contiguous block.  This gives word <-> integer conversion without a lookup
table, which keeps large ball enumerations cheap.

Ranks also drive array arithmetic.  Inside a block a rank reads as a
base-3 numeral whose leading digit names the first letter (0-3) and whose
lower digits pick each later letter among the three allowed after its
predecessor, so :func:`left_mul_ranks` multiplies whole arrays of ranks on
the left by a word, one letter at a time, without forming any string: it
either strips the leading digit (cancellation) or prepends one.  The
string functions stay the reference those array paths are tested against.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParam

__all__ = [
    "ALPHABET",
    "is_reduced",
    "reduce_word",
    "mul_words",
    "invert_word",
    "ball_size",
    "enumerate_ball",
    "word_rank",
    "word_at_rank",
    "left_mul_ranks",
    "invert_ranks",
    "parse_word",
]

ALPHABET = "aAbB"

_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}
_LETTER_INDEX = {ch: i for i, ch in enumerate(ALPHABET)}

# by letter index (inverse pairs are i, i ^ 1): _AFTER[p, d] is the d-th
# letter allowed after p, _DIGIT[p, c] the digit of letter c after p
_AFTER = np.array([[c for c in range(4) if c != p ^ 1] for p in range(4)], dtype=np.int64)
_DIGIT = np.array([[c - (c > p ^ 1) for c in range(4)] for p in range(4)], dtype=np.int64)


def is_reduced(word: str) -> bool:
    return all(_INV[x] != y for x, y in zip(word, word[1:]))


def reduce_word(word: str) -> str:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[str] = []
    for ch in word:
        if ch not in _INV:
            raise InvalidParam(f"letter {ch!r} is not in the alphabet {ALPHABET!r}")
        if out and out[-1] == _INV[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def mul_words(u: str, v: str) -> str:
    """Product of two reduced words (cancellation only happens at the seam)."""
    if not u:
        return v
    if not v:
        return u
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and u[i - 1] == _INV[v[j]]:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def invert_word(word: str) -> str:
    return "".join(_INV[ch] for ch in reversed(word))


def ball_size(depth: int) -> int:
    """Number of reduced words of length <= depth: 1 + 2 * (3**depth - 1)."""
    if depth < 0:
        raise InvalidParam("ball depth must be >= 0")
    return 1 + 2 * (3 ** depth - 1)


def enumerate_ball(depth: int):
    """Yield all reduced words of length <= depth in shortlex order."""
    if depth < 0:
        raise InvalidParam("ball depth must be >= 0")
    yield ""
    frontier = [""]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            last = w[-1] if w else ""
            for ch in ALPHABET:
                if last and _INV[last] == ch:
                    continue
                nxt.append(w + ch)
        for w in nxt:
            yield w
        frontier = nxt


def _allowed_after(last: str) -> str:
    """Letters permitted after ``last``, in shortlex order."""
    if not last:
        return ALPHABET
    forbidden = _INV[last]
    return "".join(ch for ch in ALPHABET if ch != forbidden)


def word_rank(word: str) -> int:
    """Shortlex rank of a reduced word (empty word has rank 0)."""
    l = len(word)
    if l == 0:
        return 0
    offset = 1 + sum(4 * 3 ** (k - 1) for k in range(1, l))
    within = _LETTER_INDEX[word[0]]
    for prev, ch in zip(word, word[1:]):
        within = within * 3 + _allowed_after(prev).index(ch)
    return offset + within


def word_at_rank(rank: int) -> str:
    """Inverse of :func:`word_rank`."""
    if rank < 0:
        raise InvalidParam("rank must be >= 0")
    if rank == 0:
        return ""
    rank -= 1
    l = 1
    while rank >= 4 * 3 ** (l - 1):
        rank -= 4 * 3 ** (l - 1)
        l += 1
    digits = []
    for _ in range(l - 1):
        digits.append(rank % 3)
        rank //= 3
    first = ALPHABET[rank]
    out = [first]
    for d in reversed(digits):
        out.append(_allowed_after(out[-1])[d])
    return "".join(out)


def left_mul_ranks(word: str, ranks, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of ``word * w_r`` for each rank r of a word in the ball of radius
    ``depth``, and a mask ``ok`` that is False where the product is longer
    than ``depth`` (those entries read -1).

    ``word`` must be reduced.  Letters apply right to left; a product only
    shrinks while ``word``'s tail cancels and only grows afterwards, so an
    entry that once leaves the ball is out for good.  Works in O(len(ranks))
    memory, with no ball-sized table.
    """
    r = np.array(ranks, dtype=np.int64)
    ok = np.ones(r.shape, dtype=bool)
    pow3 = 3 ** np.arange(depth + 1, dtype=np.int64)
    starts = 2 * pow3 - 1  # starts[l - 1]: rank of the first word of length l
    for ch in reversed(word):
        x = _LETTER_INDEX[ch]
        length = np.searchsorted(starts, r, side="right")
        lm1 = np.maximum(length - 1, 0)
        within = r - starts[lm1]
        first, rest = np.divmod(within, pow3[lm1])
        first[length == 0] = -1
        # cancel: drop the first letter; the next one is read off its digit
        lm2 = np.maximum(length - 2, 0)
        digit, rest2 = np.divmod(rest, pow3[lm2])
        second = _AFTER[np.maximum(first, 0), np.minimum(digit, 2)]
        shorter = np.where(length > 1, starts[lm2] + second * pow3[lm2] + rest2, 0)
        # prepend x: the old first letter becomes a digit after x
        longer = starts[np.minimum(length, depth)] + x * pow3[np.minimum(length, depth)]
        longer += np.where(length > 0, _DIGIT[x, np.maximum(first, 0)] * pow3[lm1] + rest, 0)
        cancel = first == (x ^ 1)
        ok &= cancel | (length < depth)
        r = np.where(cancel, shorter, longer)
        r[~ok] = 0
    r[~ok] = -1
    return r, ok


def invert_ranks(ranks, depth: int) -> np.ndarray:
    """Ranks of the inverses of the words with the given ranks, all in the
    ball of radius ``depth``; a -1 entry stays -1.

    The inverse reverses the letters and inverts each, so it keeps the
    length: each rank is read as its letters (first letter, then one digit
    per later letter) and the inverted letters are read back in reverse
    order, as digits again, without forming any string.
    """
    r = np.array(ranks, dtype=np.int64)
    pow3 = 3 ** np.arange(depth + 1, dtype=np.int64)
    starts = 2 * pow3 - 1  # starts[l - 1]: rank of the first word of length l
    length = np.searchsorted(starts, r, side="right")
    lm1 = np.maximum(length - 1, 0)
    first, rest = np.divmod(r - starts[lm1], pow3[lm1])
    # the letters of every word, left to right, padded past its length
    letters = np.zeros((max(depth, 1), r.size), dtype=np.int64)
    letters[0] = np.maximum(first, 0)
    for k in range(1, depth):
        digit = (rest // pow3[np.maximum(length - 1 - k, 0)]) % 3
        letters[k] = np.where(k < length, _AFTER[letters[k - 1], digit], 0)
    # the inverse's k-th letter is the inverse of letter length-1-k
    cols = np.arange(r.size)
    prev = letters[lm1, cols] ^ 1
    within = prev.copy()
    for k in range(1, depth):
        cur = letters[np.maximum(length - 1 - k, 0), cols] ^ 1
        more = k < length
        within = np.where(more, within * 3 + _DIGIT[prev, cur], within)
        prev = np.where(more, cur, prev)
    out = np.where(length > 0, starts[lm1] + within, 0)
    out[r < 0] = -1
    return out


def parse_word(text: str) -> str:
    """Parse user-facing word text: letters ``aAbB``, or ``e`` for the identity."""
    text = text.strip()
    if text in ("e", ""):
        return ""
    w = reduce_word(text)
    if w != text:
        raise InvalidParam(f"word {text!r} is not reduced (reduces to {w!r})")
    return w
