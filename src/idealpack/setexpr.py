"""Set-description DSL: parser, printer, finiteness judgment, materialization.

Grammar (LL(1), whitespace-insensitive, case-sensitive names)::

    expr := name | prim | comb
    prim := "evens" | "triangular" | "all" | "empty"
          | "ap(" int "," int ")" | "powers(" int ")"
          | "list{" [int ("," int)*] "}" | "interval(" int "," int ")"
          | "f2start(" letter ")"
    comb := ("union" | "inter" | "diff") "(" expr "," expr ")"
          | "compl(" expr ")"
          | "shift(" expr "," (int | word) ")"

A bare identifier that is not a reserved name is a reference into a catalog
of named sets and must be resolved (:func:`resolve`) before materialization.
A tree nests at most ``MAX_DEPTH`` levels, its names resolved: the parser
and the catalog raise a usage error past that, since every walk over a tree
recurses once a level.

Materialization is one recursive evaluation to a bitset and a truncation
tally, the same on every carrier.  ``union``, ``inter``, ``diff`` and
``compl`` are bit operations under the group's full mask, and tallies add.
Only the leaves and ``shift`` read the carrier:

* on the integer carriers (a Z window, Z-mod-N) a primitive is evaluated
  pointwise on the carrier's integer span; a Cayley table knows only
  ``list`` (of element indices), the free group only ``f2start``; ``all``
  and ``empty`` exist everywhere;
* ``shift`` on a Z window evaluates its operand on the window moved back by
  the shift, so no boundary loss occurs at the window edge (unlike the
  budgeted runtime translation of an already-materialized set).  On
  Z-mod-N it rotates; on the free group it takes a reduced word and
  translates, recording truncation drops in the tally.  A Cayley table
  refuses it.

Integer primitives take their pointwise meaning on the representative range
``[0, N)`` of Z-mod-N (``evens`` on Z_12 is {0,2,4,6,8,10}; ``ap`` does not
wrap — only ``shift`` wraps, because translation does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from . import bitops, words
from .errors import (
    InvalidParam,
    KindMismatch,
    SetSyntaxError,
    UnknownName,
    UnknownPrimitive,
)
from .groups import Group, MaterializedSet

__all__ = [
    "SetExpr",
    "Prim",
    "Combine",
    "Shift",
    "NameRef",
    "parse_set_expr",
    "print_set_expr",
    "symbolic_finiteness",
    "materialize",
    "resolve",
    "free_names",
    "MAX_DEPTH",
    "Catalog",
    "parse_catalog",
    "load_catalog",
    "default_catalog",
]


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Prim:
    """Leaf set: evens, triangular, all, empty, ap, powers, list, interval, f2start."""

    name: str
    args: tuple = ()


@dataclass(frozen=True)
class Combine:
    """union/inter/diff (binary) or compl (unary)."""

    op: str
    args: tuple


@dataclass(frozen=True)
class Shift:
    """Symbolic translate of the inner set by an integer or a reduced word."""

    inner: "SetExpr"
    by: Union[int, str]


@dataclass(frozen=True)
class NameRef:
    """Reference to a catalog-defined name; resolved before materialization."""

    name: str


SetExpr = Union[Prim, Combine, Shift, NameRef]

_NULLARY = ("evens", "triangular", "all", "empty")
_BINARY_COMBS = ("union", "inter", "diff")
RESERVED = frozenset(_NULLARY) | frozenset(_BINARY_COMBS) | {
    "ap", "powers", "list", "interval", "f2start", "compl", "shift",
}

_F2_LETTERS = frozenset(words.ALPHABET)

# the most levels a tree may nest, a leaf being one
MAX_DEPTH = 128


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _Scanner:
    """Tokenizer tracking byte offsets for diagnostics."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> tuple[str, str, int]:
        """Return (kind, value, offset) without consuming."""
        self._skip_ws()
        start = self.pos
        if start >= len(self.text):
            return ("end", "", start)
        ch = self.text[start]
        if ch in "(){},":
            return (ch, ch, start)
        if ch.isdigit() or (ch == "-" and start + 1 < len(self.text) and self.text[start + 1].isdigit()):
            j = start + 1
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            return ("int", self.text[start:j], start)
        if ch.isalpha() or ch == "_":
            j = start + 1
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return ("ident", self.text[start:j], start)
        raise SetSyntaxError(f"unexpected character {ch!r}", start)

    def take(self, kind: str | None = None, expected: str = "") -> tuple[str, str, int]:
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise SetSyntaxError(
                f"unexpected {tok[0]} {tok[1]!r}" if tok[0] != "end" else "unexpected end of input",
                tok[2],
                expected or kind,
            )
        self.pos = tok[2] + len(tok[1])
        return tok


def _parse_int(sc: _Scanner) -> int:
    return int(sc.take("int", "integer")[1])


def _parse_expr(sc: _Scanner, depth: int = 1) -> SetExpr:
    kind, name, off = sc.take("ident", "set expression")
    if depth > MAX_DEPTH:
        raise SetSyntaxError(f"set expression nested more than {MAX_DEPTH} deep", off)
    if name in _NULLARY:
        return Prim(name)
    if name in ("ap", "interval"):
        sc.take("(")
        a = _parse_int(sc)
        sc.take(",")
        b = _parse_int(sc)
        sc.take(")")
        return Prim(name, (a, b))
    if name == "powers":
        sc.take("(")
        b = _parse_int(sc)
        sc.take(")")
        return Prim(name, (b,))
    if name == "list":
        sc.take("{")
        items: list[int] = []
        if sc.peek()[0] != "}":
            items.append(_parse_int(sc))
            while sc.peek()[0] == ",":
                sc.take(",")
                items.append(_parse_int(sc))
        sc.take("}")
        return Prim("list", tuple(items))
    if name == "f2start":
        sc.take("(")
        k, letter, loff = sc.take("ident", "letter a, A, b, or B")
        if letter not in _F2_LETTERS:
            raise SetSyntaxError(f"bad letter {letter!r}", loff, "one of a, A, b, B")
        sc.take(")")
        return Prim("f2start", (letter,))
    if name in _BINARY_COMBS:
        sc.take("(")
        left = _parse_expr(sc, depth + 1)
        sc.take(",")
        right = _parse_expr(sc, depth + 1)
        sc.take(")")
        return Combine(name, (left, right))
    if name == "compl":
        sc.take("(")
        inner = _parse_expr(sc, depth + 1)
        sc.take(")")
        return Combine("compl", (inner,))
    if name == "shift":
        sc.take("(")
        inner = _parse_expr(sc, depth + 1)
        sc.take(",")
        tk, tv, toff = sc.take(None)
        if tk == "int":
            by: Union[int, str] = int(tv)
        elif tk == "ident":
            try:
                by = words.parse_word(tv)
            except InvalidParam:
                raise SetSyntaxError(f"bad word {tv!r}", toff, "integer or reduced word") from None
        else:
            raise SetSyntaxError(f"unexpected {tv!r}", toff, "integer or reduced word")
        sc.take(")")
        return Shift(inner, by)
    # Not a known primitive/combinator.  Applied like one, that's an error;
    # bare, it's a catalog reference.
    if sc.peek()[0] in ("(", "{"):
        raise UnknownPrimitive(f"unknown primitive {name!r}", off, "a known primitive name")
    return NameRef(name)


def parse_set_expr(text: str) -> SetExpr:
    """Parse DSL text to a tree; raise :class:`SetSyntaxError` with an offset."""
    sc = _Scanner(text)
    expr = _parse_expr(sc)
    tail = sc.peek()
    if tail[0] != "end":
        raise SetSyntaxError(f"trailing input {tail[1]!r}", tail[2], "end of input")
    return expr


def print_set_expr(expr: SetExpr) -> str:
    """Canonical text for a tree; ``parse_set_expr`` inverts it exactly."""
    if isinstance(expr, Prim):
        if expr.name == "list":
            return "list{" + ",".join(str(x) for x in expr.args) + "}"
        if not expr.args:
            return expr.name
        return expr.name + "(" + ",".join(str(a) for a in expr.args) + ")"
    if isinstance(expr, Combine):
        return expr.op + "(" + ",".join(print_set_expr(a) for a in expr.args) + ")"
    if isinstance(expr, Shift):
        return f"shift({print_set_expr(expr.inner)},{_print_by(expr.by)})"
    if isinstance(expr, NameRef):
        return expr.name
    raise TypeError(f"not a SetExpr: {expr!r}")


def _print_by(by: Union[int, str]) -> str:
    return str(by) if isinstance(by, int) else (by or "e")


# --------------------------------------------------------------------------
# Finiteness
# --------------------------------------------------------------------------

_FINITE_PRIMS = {"empty", "list", "interval"}
_INFINITE_PRIMS = {"evens", "triangular", "all", "ap", "powers", "f2start"}


def symbolic_finiteness(expr: SetExpr) -> str:
    """Sound judgment {finite, infinite, unknown} from the tree alone.

    Judged for an infinite ambient group; a window materialization is always
    finite and says nothing about the set described.  "finite"/"infinite"
    are only returned when the structure proves them; everything else is
    "unknown" (in particular diff of two infinite sets).  Each node is
    judged once, however many paths lead to it.
    """
    return _finiteness(expr, {})


def _finiteness(expr: SetExpr, memo: dict[int, str]) -> str:
    """``symbolic_finiteness`` of ``expr``, the nodes judged so far in
    ``memo`` by identity."""
    if id(expr) not in memo:
        memo[id(expr)] = _judge(expr, memo)
    return memo[id(expr)]


def _judge(expr: SetExpr, memo: dict[int, str]) -> str:
    if isinstance(expr, Prim):
        if expr.name in _FINITE_PRIMS:
            return "finite"
        if expr.name == "powers" and expr.args[0] == 1:
            return "finite"  # {1, 1, 1, ...}
        if expr.name == "ap" and expr.args[1] == 0:
            return "finite"  # constant progression
        return "infinite"
    if isinstance(expr, Shift):
        return _finiteness(expr.inner, memo)
    if isinstance(expr, Combine):
        sub = [_finiteness(a, memo) for a in expr.args]
        if expr.op == "union":
            if "infinite" in sub:
                return "infinite"
            if sub == ["finite", "finite"]:
                return "finite"
            return "unknown"
        if expr.op == "inter":
            if "finite" in sub:
                return "finite"
            return "unknown"
        if expr.op == "diff":
            if sub[0] == "finite":
                return "finite"
            if sub == ["infinite", "finite"]:
                return "infinite"
            return "unknown"
        if expr.op == "compl":
            if sub[0] == "finite":
                return "infinite"
            return "unknown"
    if isinstance(expr, NameRef):
        raise UnknownName(f"unresolved name {expr.name!r}")
    raise TypeError(f"not a SetExpr: {expr!r}")


# --------------------------------------------------------------------------
# Name resolution
# --------------------------------------------------------------------------

def free_names(expr: SetExpr) -> set[str]:
    if isinstance(expr, NameRef):
        return {expr.name}
    if isinstance(expr, Combine):
        out: set[str] = set()
        for a in expr.args:
            out |= free_names(a)
        return out
    if isinstance(expr, Shift):
        return free_names(expr.inner)
    return set()


def _nesting(expr: SetExpr, depth_of: dict[str, int]) -> int:
    """The levels of ``expr`` once resolved, each name standing for a tree
    of ``depth_of[name]`` levels."""
    if isinstance(expr, NameRef):
        return depth_of[expr.name]
    if isinstance(expr, Combine):
        return 1 + max(_nesting(a, depth_of) for a in expr.args)
    if isinstance(expr, Shift):
        return 1 + _nesting(expr.inner, depth_of)
    return 1


def resolve(expr: SetExpr, env: dict[str, SetExpr]) -> SetExpr:
    """Substitute catalog definitions for every :class:`NameRef`."""
    if isinstance(expr, NameRef):
        if expr.name not in env:
            raise UnknownName(f"unknown set name {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, Combine):
        return Combine(expr.op, tuple(resolve(a, env) for a in expr.args))
    if isinstance(expr, Shift):
        return Shift(resolve(expr.inner, env), expr.by)
    return expr


# --------------------------------------------------------------------------
# Materialization
# --------------------------------------------------------------------------

_EMPTY_POS = np.empty(0, dtype=np.int64)

# int64 positions: below this bound not even the triangular n(n-1) overflows
_INT_REACH = 1 << 62


def _int_positions(prim: Prim, lo: int, hi: int) -> np.ndarray:
    """Positions of an integer primitive on [lo, hi], in any order, possibly
    repeated (``all`` and ``empty`` never get here)."""
    name, args = prim.name, prim.args
    if name == "evens":
        return np.arange(lo + lo % 2, hi + 1, 2, dtype=np.int64)
    if name == "triangular":
        if hi < 0:
            return _EMPTY_POS
        # n(n-1)/2 for n >= 0 (0 twice, 1 once), from n just below lo's root
        n_lo = max(0, (math.isqrt(8 * max(lo, 0) + 1) + 1) // 2 - 1)
        n = np.arange(n_lo, (math.isqrt(8 * hi + 1) + 3) // 2 + 2, dtype=np.int64)
        t = n * (n - 1) // 2
        return t[(t >= lo) & (t <= hi)]
    if name == "ap":
        a, d = args
        if d == 0:
            return np.array([a], dtype=np.int64) if lo <= a <= hi else _EMPTY_POS
        # elements a + k d, k >= 0, clipped to [lo, hi]
        if d > 0:
            k_lo = max(0, -(-(lo - a) // d))
            k_hi = (hi - a) // d
        else:
            k_lo = max(0, -(-(hi - a) // d))
            k_hi = (lo - a) // d
        if k_hi < k_lo:
            return _EMPTY_POS
        # from the first element in the window: a and d may pass int64
        first = a + d * k_lo
        if k_hi == k_lo:
            return np.array([first], dtype=np.int64)
        return first + d * np.arange(k_hi - k_lo + 1, dtype=np.int64)
    if name == "powers":
        (b,) = args
        if b < 1:
            raise InvalidParam(f"powers base must be >= 1, got {b}")
        if b == 1:
            return np.array([1], dtype=np.int64) if lo <= 1 <= hi else _EMPTY_POS
        vals = []
        v = 1
        while v <= hi:
            if v >= lo:
                vals.append(v)
            v *= b
        return np.array(vals, dtype=np.int64)
    if name == "interval":
        a, b = args
        if b < a:
            raise InvalidParam(f"interval({a},{b}) is descending")
        return np.arange(max(a, lo), min(b, hi) + 1, dtype=np.int64)
    if name == "list":
        return np.array([x for x in args if lo <= x <= hi], dtype=np.int64)
    if name == "f2start":
        raise KindMismatch("f2start only materializes on the free group")
    raise InvalidParam(f"unknown primitive {name!r}")


def _f2_start_bits(letter: str, depth: int) -> int:
    """Words of length 1..depth whose first letter is exactly ``letter``.

    Shortlex groups ranks by length, and within a length block the first
    letter splits it into four contiguous runs of 3^(len-1), in alphabet
    order — so the whole set is a union of contiguous rank ranges.
    """
    idx = words.ALPHABET.index(letter)
    bits = 0
    offset = 1  # rank of the first length-1 word
    for length in range(1, depth + 1):
        run = 3 ** (length - 1)
        bits |= bitops.mask(run) << (offset + idx * run)
        offset += 4 * run
    return bits


def _evaluate(expr: SetExpr, group: Group, lo: int, memo: dict) -> tuple[int, int]:
    """(bits, tally) of the pointwise evaluation of ``expr`` on ``group``;
    on the integer carriers bit i stands for the integer ``lo + i``.  A node
    that several paths reach (a catalog name used twice) is evaluated once
    per ``lo``: ``memo`` holds the results so far by node identity."""
    key = (id(expr), lo)
    if key not in memo:
        memo[key] = _evaluate_node(expr, group, lo, memo)
    return memo[key]


def _evaluate_node(expr: SetExpr, group: Group, lo: int, memo: dict) -> tuple[int, int]:
    if isinstance(expr, Combine):
        parts = [_evaluate(a, group, lo, memo) for a in expr.args]
        bits = [b for b, _ in parts]
        tally = sum(t for _, t in parts)
        if expr.op == "union":
            return bits[0] | bits[1], tally
        if expr.op == "inter":
            return bits[0] & bits[1], tally
        if expr.op == "diff":
            return bits[0] & ~bits[1], tally
        if expr.op == "compl":
            return ~bits[0] & group.full_mask, tally
    elif isinstance(expr, Prim) and expr.name in ("all", "empty"):
        return (group.full_mask if expr.name == "all" else 0), 0
    if group.span is None and group.depth is None:
        # a Cayley table: no symbolic primitives, and list names element indices
        if isinstance(expr, Prim) and expr.name == "list":
            return group.set_of(expr.args).bits, 0
        # a shift names only its translator: its operand may print exponentially long
        what = f"shift by {_print_by(expr.by)}" if isinstance(expr, Shift) else print_set_expr(expr)
        raise KindMismatch(f"{what} does not materialize on kind {group.kind!r}")
    if isinstance(expr, Prim):
        if group.span is not None:
            hi = lo + group.size - 1
            if not -_INT_REACH < lo <= hi < _INT_REACH:
                raise InvalidParam(f"{expr.name} on [{lo}, {hi}] lies past |x| < 2^62")
            pos = _int_positions(expr, lo, hi)
            return bitops.bits_from_positions(pos - lo, group.size), 0
        if expr.name != "f2start":
            raise KindMismatch(f"{expr.name} does not materialize on the free group")
        return _f2_start_bits(expr.args[0], group.depth), 0
    if isinstance(expr, Shift):
        if group.span is not None and not isinstance(expr.by, int):
            raise KindMismatch("word shift does not apply to integer groups")
        if group.depth is not None and isinstance(expr.by, int):
            raise KindMismatch("integer shift does not apply to the free group")
        if group.span is not None and group.modulus is None:
            # a Z window: evaluate on the window moved back, with no edge loss
            return _evaluate(expr.inner, group, lo - expr.by, memo)
        bits, tally = _evaluate(expr.inner, group, lo, memo)
        out, dropped = group.translate_bits(expr.by, bits)
        return out, tally + dropped
    if isinstance(expr, NameRef):
        raise UnknownName(f"unresolved name {expr.name!r}")
    raise TypeError(f"not a SetExpr: {expr!r}")


def materialize(expr: SetExpr, group: Group) -> MaterializedSet:
    """Evaluate ``expr`` pointwise over the group's universe."""
    bits, tally = _evaluate(expr, group, group.span[0] if group.span is not None else 0, {})
    return MaterializedSet(group, bits, tally)


# --------------------------------------------------------------------------
# Catalogs
# --------------------------------------------------------------------------

class Catalog:
    """Ordered collection of named set expressions, references resolved.

    ``exprs`` holds closed trees (no :class:`NameRef` remains) and ``depth``
    their levels; ``raw`` keeps the trees as written, for faithful
    re-printing.
    """

    def __init__(self, entries: list[tuple[str, SetExpr]]):
        self.names: list[str] = []
        self.raw: dict[str, SetExpr] = {}
        for name, expr in entries:
            if name in self.raw:
                raise InvalidParam(f"duplicate catalog name {name!r}")
            if name in RESERVED:
                raise InvalidParam(f"catalog name {name!r} is a reserved word")
            self.names.append(name)
            self.raw[name] = expr
        self.exprs: dict[str, SetExpr] = {}
        self.depth: dict[str, int] = {}
        for name in self.names:
            if name not in self.exprs:  # not closed yet as an earlier name's reference
                self._close(name)

    def _close(self, name: str) -> None:
        """Close ``name`` after every name its definition refers to, on an
        explicit stack, so that a chain of names may be as long as the
        catalog."""
        trail = [name]  # names waiting on the next one's definition
        while trail:
            top = trail[-1]
            dep = next((d for d in sorted(free_names(self.raw[top])) if d not in self.exprs), None)
            if dep is None:
                self.exprs[top] = self.close(self.raw[top], f"catalog name {top!r}")
                self.depth[top] = _nesting(self.raw[top], self.depth)
                trail.pop()
            elif dep in trail:
                cycle = " -> ".join(trail[trail.index(dep):] + [dep])
                raise InvalidParam(f"catalog definitions form a cycle: {cycle}")
            elif dep not in self.raw:
                raise UnknownName(f"unknown set name {dep!r}")
            else:
                trail.append(dep)

    def close(self, expr: SetExpr, what: str = "set expression") -> SetExpr:
        """``expr`` with each name replaced by its closed tree: UnknownName
        for a name not in the catalog, InvalidParam for a tree that then
        nests more than ``MAX_DEPTH`` levels."""
        closed = resolve(expr, self.exprs)
        levels = _nesting(expr, self.depth)
        if levels > MAX_DEPTH:
            raise InvalidParam(f"{what} nests {levels} deep with its names resolved, past {MAX_DEPTH}")
        return closed

    def __contains__(self, name: str) -> bool:
        return name in self.exprs

    def __getitem__(self, name: str) -> SetExpr:
        if name not in self.exprs:
            raise UnknownName(f"unknown set name {name!r}")
        return self.exprs[name]

    def items(self) -> Iterator[tuple[str, SetExpr]]:
        return ((n, self.exprs[n]) for n in self.names)


def parse_catalog(text: str) -> Catalog:
    """Parse ``name = expr`` lines; ``#`` starts a comment."""
    entries: list[tuple[str, SetExpr]] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParam(f"catalog line {lineno}: expected 'name = expr'")
        name, _, body = line.partition("=")
        name = name.strip()
        if not name.isidentifier():
            raise InvalidParam(f"catalog line {lineno}: bad name {name!r}")
        try:
            expr = parse_set_expr(body.strip())
        except SetSyntaxError as exc:
            raise InvalidParam(f"catalog line {lineno}: {exc}") from exc
        entries.append((name, expr))
    return Catalog(entries)


def load_catalog(path: str | Path) -> Catalog:
    return parse_catalog(Path(path).read_text())


def default_catalog() -> Catalog:
    """The catalog shipped with the package (data/default.cat)."""
    from importlib import resources

    text = resources.files("idealpack").joinpath("data/default.cat").read_text()
    return parse_catalog(text)
