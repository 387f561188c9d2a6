"""The benchmark's own reference model of the inputs it generates.

Nothing here imports idealpack.  The checker decides whether an answer is
right with these definitions, so they are written from the documented
semantics (README, module docstrings), not from the package's code:

* set expressions as tuples, printed to the package's DSL and evaluated
  pointwise on a Z window or on Z_N as numpy boolean arrays;
* the symbolic finiteness judgment the finite-sets ideal uses;
* membership in the trivial, finite-sets and density-zero ideals;
* translation, exact cores and bitsets on the four carriers;
* Cayley tables for S_n and dihedral groups;
* reduced words over a, A, b, B in shortlex order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

# --------------------------------------------------------------------------
# bitsets
# --------------------------------------------------------------------------


def bits_of(arr: np.ndarray) -> int:
    """Python-int bitset of a boolean array (bit i mirrors arr[i])."""
    if arr.size == 0:
        return 0
    return int.from_bytes(np.packbits(arr.astype(bool), bitorder="little").tobytes(), "little")


def array_of(bits: int, size: int) -> np.ndarray:
    """Boolean array of length ``size`` from a Python-int bitset."""
    raw = bits.to_bytes((size + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little", count=size).astype(bool)


def ones(n: int) -> int:
    return (1 << n) - 1


def positions(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


# --------------------------------------------------------------------------
# set expressions
# --------------------------------------------------------------------------

# The shipped catalog, restated so that a change to it shows up as a
# mismatch instead of silently moving the reference along with the program.
CATALOG = {
    "nothing": ("empty",),
    "everything": ("all",),
    "parity": ("evens",),
    "odds": ("shift", ("evens",), 1),
    "thirds": ("ap", 0, 3),
    "tri": ("triangular",),
    "tri7": ("shift", ("triangular",), 7),
    "tripair": ("union", ("triangular",), ("shift", ("triangular",), 5)),
    "pows": ("powers", 2),
    "pows3": ("shift", ("powers", 2), 3),
    "spot": ("list", (0, 5, 9)),
    "block": ("interval", 0, 50),
    "block2": ("interval", 51, 101),
    "wide": ("union", ("interval", 0, 50), ("interval", 51, 101)),
    "sparsemix": ("union", ("powers", 2), ("list", (0, 5, 9))),
}


def show(e) -> str:
    """DSL text of an expression tuple."""
    op = e[0]
    if op in ("evens", "triangular", "all", "empty"):
        return op
    if op == "name":
        return e[1]
    if op in ("ap", "interval"):
        return f"{op}({e[1]},{e[2]})"
    if op == "powers":
        return f"powers({e[1]})"
    if op == "list":
        return "list{" + ",".join(str(x) for x in e[1]) + "}"
    if op in ("union", "inter", "diff"):
        return f"{op}({show(e[1])},{show(e[2])})"
    if op == "compl":
        return f"compl({show(e[1])})"
    if op == "shift":
        return f"shift({show(e[1])},{e[2]})"
    raise ValueError(f"unknown expression {e!r}")


def expand(e):
    """Replace catalog names by their definitions."""
    op = e[0]
    if op == "name":
        return expand(CATALOG[e[1]])
    if op in ("union", "inter", "diff"):
        return (op, expand(e[1]), expand(e[2]))
    if op == "compl":
        return (op, expand(e[1]))
    if op == "shift":
        return (op, expand(e[1]), e[2])
    return e


def eval_z(e, lo: int, hi: int) -> np.ndarray:
    """Membership of each x in [lo, hi], evaluated pointwise."""
    x = np.arange(lo, hi + 1, dtype=np.int64)
    op = e[0]
    if op == "name":
        return eval_z(CATALOG[e[1]], lo, hi)
    if op == "evens":
        return x % 2 == 0
    if op == "all":
        return np.ones(x.size, dtype=bool)
    if op == "empty":
        return np.zeros(x.size, dtype=bool)
    if op == "interval":
        return (x >= e[1]) & (x <= e[2])
    if op == "ap":
        a, d = e[1], e[2]
        if d == 0:
            return x == a
        if d > 0:
            return (x >= a) & ((x - a) % d == 0)
        return (x <= a) & ((a - x) % (-d) == 0)
    out = np.zeros(x.size, dtype=bool)
    if op in ("triangular", "powers", "list"):
        if op == "triangular":
            vals, n = [], 0
            while n * (n - 1) // 2 <= hi:
                vals.append(n * (n - 1) // 2)
                n += 1
        elif op == "powers":
            vals, v = [], 1
            while v <= hi:
                vals.append(v)
                if e[1] == 1:
                    break
                v *= e[1]
        else:
            vals = list(e[1])
        for v in vals:
            if lo <= v <= hi:
                out[v - lo] = True
        return out
    if op == "union":
        return eval_z(e[1], lo, hi) | eval_z(e[2], lo, hi)
    if op == "inter":
        return eval_z(e[1], lo, hi) & eval_z(e[2], lo, hi)
    if op == "diff":
        return eval_z(e[1], lo, hi) & ~eval_z(e[2], lo, hi)
    if op == "compl":
        return ~eval_z(e[1], lo, hi)
    if op == "shift":
        return eval_z(e[1], lo - e[2], hi - e[2])
    raise ValueError(f"unknown expression {e!r}")


def eval_mod(e, n: int) -> np.ndarray:
    """Membership on Z_N: primitives on [0, N), shifts rotate."""
    op = e[0]
    if op == "name":
        return eval_mod(CATALOG[e[1]], n)
    if op == "shift":
        return np.roll(eval_mod(e[1], n), e[2] % n)
    if op == "union":
        return eval_mod(e[1], n) | eval_mod(e[2], n)
    if op == "inter":
        return eval_mod(e[1], n) & eval_mod(e[2], n)
    if op == "diff":
        return eval_mod(e[1], n) & ~eval_mod(e[2], n)
    if op == "compl":
        return ~eval_mod(e[1], n)
    return eval_z(e, 0, n - 1)


def finiteness(e) -> str:
    """finite / infinite / unknown, judged from the tree alone."""
    op = e[0]
    if op == "name":
        return finiteness(CATALOG[e[1]])
    if op in ("empty", "list", "interval"):
        return "finite"
    if op == "powers":
        return "finite" if e[1] == 1 else "infinite"
    if op == "ap":
        return "finite" if e[2] == 0 else "infinite"
    if op in ("evens", "triangular", "all"):
        return "infinite"
    if op == "shift":
        return finiteness(e[1])
    sub = [finiteness(a) for a in e[1:]]
    if op == "union":
        if "infinite" in sub:
            return "infinite"
        return "finite" if sub == ["finite", "finite"] else "unknown"
    if op == "inter":
        return "finite" if "finite" in sub else "unknown"
    if op == "diff":
        if sub[0] == "finite":
            return "finite"
        return "infinite" if sub == ["infinite", "finite"] else "unknown"
    if op == "compl":
        return "infinite" if sub[0] == "finite" else "unknown"
    raise ValueError(f"unknown expression {e!r}")


# --------------------------------------------------------------------------
# ideals
# --------------------------------------------------------------------------

DENSITY_LENGTHS = (64, 256, 1024)
DENSITY_THRESHOLD = Fraction(1, 50)
FINITE_CUTOFF = 16


def max_window(arr: np.ndarray, length: int, cyclic: bool = False) -> tuple[int, int]:
    """(largest count of members in a length-L window, first window start)."""
    a = np.concatenate((arr, arr[: length - 1])) if cyclic else arr
    cs = np.concatenate(([0], np.cumsum(a, dtype=np.int64)))
    counts = cs[length:] - cs[:-length]
    if cyclic:
        counts = counts[: arr.size]
    p = int(np.argmax(counts))
    return int(counts[p]), p


def member(ideal: dict, bits: int, size: int, expr=None) -> bool:
    """Membership of a bitset in the ideal described by ``ideal``."""
    kind = ideal["kind"]
    if kind == "trivial":
        return bits == 0
    if kind == "finite-sets":
        if expr is not None:
            return finiteness(expr) == "finite"
        return bits.bit_count() <= ideal.get("cutoff", FINITE_CUTOFF)
    if kind == "density-zero":
        top = max(ideal.get("lengths", DENSITY_LENGTHS))
        thr = Fraction(ideal.get("threshold", DENSITY_THRESHOLD))
        if bits == 0:
            return True
        count, _ = max_window(array_of(bits, size), top)
        return Fraction(count, top) <= thr
    raise ValueError(f"no reference membership for ideal {kind!r}")


# --------------------------------------------------------------------------
# carriers
# --------------------------------------------------------------------------


class ZWindow:
    kind = "z-window"

    def __init__(self, lo: int, hi: int, margin: int):
        self.lo, self.hi, self.margin = lo, hi, margin
        self.size = hi - lo + 1
        self.full = ones(self.size)

    def translate(self, g: int, bits: int) -> int:
        if abs(g) > self.margin:
            raise ValueError(f"shift {g} beyond margin {self.margin}")
        return (bits << g) & self.full if g >= 0 else bits >> (-g)

    def core(self, shifts) -> int:
        up = max([g for g in shifts if g > 0], default=0)
        down = min([g for g in shifts if g < 0], default=0)
        lo, hi = up, self.size - 1 + down
        return ones(hi - lo + 1) << lo if hi >= lo else 0

    def eval(self, expr) -> int:
        return bits_of(eval_z(expr, self.lo, self.hi))


class ZMod:
    kind = "z-mod"

    def __init__(self, n: int):
        self.size = n
        self.full = ones(n)

    def translate(self, g: int, bits: int) -> int:
        g %= self.size
        return ((bits << g) | (bits >> (self.size - g))) & self.full if g else bits

    def core(self, shifts) -> int:
        return self.full

    def eval(self, expr) -> int:
        return bits_of(eval_mod(expr, self.size))


class Table:
    """A finite group from a multiplication table; g.A = {table[g][a]}."""

    kind = "cayley"

    def __init__(self, table, identity: int):
        self.table = np.asarray(table, dtype=np.int64)
        self.identity = identity
        self.size = len(table)
        self.full = ones(self.size)

    def translate(self, g: int, bits: int) -> int:
        img = self.table[g][np.asarray(positions(bits), dtype=np.int64)]
        out = np.zeros(self.size, dtype=bool)
        out[img] = True
        return bits_of(out)

    def core(self, shifts) -> int:
        return self.full

    def eval(self, expr) -> int:
        if expr[0] != "list":
            raise ValueError("table groups only take element lists")
        return sum(1 << x for x in set(expr[1]))


def symmetric_table(n: int) -> tuple[list, int]:
    """S_n: permutations in lexicographic order, (p*q)(k) = p(q(k))."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]
    return table, index[tuple(range(n))]


def dihedral_table(n: int) -> tuple[list, int]:
    """D_n of order 2n: index k + n*e stands for r^k s^e, with s r s = r^-1."""

    def mul(x: int, y: int) -> int:
        k1, e1 = x % n, x // n
        k2, e2 = y % n, y // n
        if e1 == 0:
            return (k1 + k2) % n + n * e2
        return (k1 - k2) % n + n * (1 - e2)

    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)], 0


# --------------------------------------------------------------------------
# reduced words
# --------------------------------------------------------------------------

LETTERS = "aAbB"  # codes 0..3; the inverse of code c is c ^ 1


def parse_word(text: str) -> tuple:
    return () if text in ("", "e") else tuple(LETTERS.index(ch) for ch in text)


def word_text(codes) -> str:
    return "".join(LETTERS[c] for c in codes) or "e"


def ball_count(depth: int) -> int:
    """Reduced words of length <= depth: 1 + 4 + 12 + ... ."""
    return 1 + sum(4 * 3 ** (k - 1) for k in range(1, depth + 1))


def ball_levels(depth: int) -> list[np.ndarray]:
    """Reduced words by length, each level in lexicographic order, so the
    concatenation is shortlex.  Level l is an (count, l) int8 array."""
    allowed = np.array([[c for c in range(4) if c != (x ^ 1)] for x in range(4)], dtype=np.int8)
    levels = [np.zeros((1, 0), dtype=np.int8)]
    if depth >= 1:
        levels.append(np.arange(4, dtype=np.int8).reshape(4, 1))
    for _ in range(2, depth + 1):
        prev = levels[-1]
        nxt = allowed[prev[:, -1]].reshape(-1, 1)
        levels.append(np.concatenate((np.repeat(prev, 3, axis=0), nxt), axis=1))
    return levels


def ball_words(depth: int) -> list[tuple]:
    return [tuple(int(c) for c in row) for level in ball_levels(depth) for row in level]


def mul_words(u: tuple, v: tuple) -> tuple:
    """Reduced product: cancel across the seam only."""
    i, j = len(u), 0
    while i > 0 and j < len(v) and u[i - 1] == v[j] ^ 1:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def starts_with_a(w: tuple) -> bool:
    """The A piece of F2: reduced words whose first letter is a or a^-1."""
    return len(w) > 0 and w[0] in (0, 1)


class FreeBall:
    """The word ball of radius ``depth`` with shortlex indices."""

    kind = "free-2"

    def __init__(self, depth: int):
        self.depth = depth
        self.words = ball_words(depth)
        self.rank = {w: i for i, w in enumerate(self.words)}
        self.size = len(self.words)
        self.full = ones(self.size)

    def piece(self, label: str) -> int:
        bits = 0
        for i, w in enumerate(self.words):
            if starts_with_a(w) == (label == "A"):
                bits |= 1 << i
        return bits

    def translate(self, g: tuple, bits: int) -> int:
        out = 0
        for i in positions(bits):
            w = mul_words(g, self.words[i])
            if len(w) <= self.depth:
                out |= 1 << self.rank[w]
        return out

    def core(self, shifts) -> int:
        longest = max((len(g) for g in shifts), default=0)
        r = self.depth - longest
        return ones(ball_count(r)) if r >= 0 else 0
