"""Run configuration: brace-delimited key/value blocks plus flag overrides.

The file format is deliberately tiny — named blocks of assignments::

    group {
      kind = "z-window"
      lo = 0
      hi = 1000000
      margin = 1024
    }
    ideal { kind = "density-zero"; lengths = [64, 256, 1024]; threshold = 0.02 }

Pairs separate on newlines or semicolons.  Values are quoted strings,
integers, booleans, decimal numbers, or bracketed lists of those (a list
holds no list).  Decimal literals parse to exact ``Fraction``s through their
string form: a density threshold of 0.02 must mean 1/50, not the nearest
binary float.  Command line flags always override file values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from .errors import InvalidParam

__all__ = ["RunConfig", "parse_config", "load_config"]

# Whitespace (newlines included) separates tokens; semicolons are optional
# extra separators between pairs.
_TOKEN = re.compile(
    r"""\s*(?:
        (?P<comment>\#[^\n]*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<number>-?\d+\.\d+|-?\d+)
      | (?P<word>[A-Za-z_][A-Za-z0-9_-]*)
      | (?P<punct>[{}=;,\[\]])
      | (?P<other>\S)
    )""",
    re.VERBOSE,
)


def _tokens(text: str):
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        pos = m.end()
        kind = m.lastgroup
        if kind is None or kind == "comment":
            continue
        val = m.group(kind)
        if kind == "other":
            raise InvalidParam(f"config: unexpected character {val!r}")
        yield kind, val
    yield "eof", ""


class _Parser:
    def __init__(self, text: str):
        self.toks = list(_tokens(text))
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def skip_newlines(self):
        while self.peek() == ("punct", ";"):
            self.next()

    def expect(self, kind: str, val: Optional[str] = None):
        k, v = self.next()
        if k != kind or (val is not None and v != val):
            raise InvalidParam(f"config: expected {val or kind}, got {v!r}")
        return v

    def value(self, in_list: bool = False) -> Any:
        k, v = self.next()
        if k == "string":
            return v[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        if k == "number":
            return Fraction(v) if "." in v else int(v)
        if k == "word":
            if v == "true":
                return True
            if v == "false":
                return False
            raise InvalidParam(f"config: bare word {v!r} is not a value (quote strings)")
        if (k, v) == ("punct", "["):
            if in_list:
                raise InvalidParam("config: a list holds only numbers, strings and booleans")
            items = []
            self.skip_newlines()
            while self.peek() != ("punct", "]"):
                items.append(self.value(in_list=True))
                self.skip_newlines()
                if self.peek() == ("punct", ","):
                    self.next()
                    self.skip_newlines()
            self.next()
            return items
        raise InvalidParam(f"config: expected a value, got {v!r}")

    def block(self) -> dict:
        self.expect("punct", "{")
        out: dict[str, Any] = {}
        while True:
            self.skip_newlines()
            if self.peek() == ("punct", "}"):
                self.next()
                return out
            k, name = self.next()
            if k != "word":
                raise InvalidParam(f"config: expected a key, got {name!r}")
            self.expect("punct", "=")
            out[name] = self.value()


def parse_config(text: str) -> "RunConfig":
    p = _Parser(text)
    blocks: dict[str, dict] = {}
    while True:
        p.skip_newlines()
        if p.peek()[0] == "eof":
            break
        k, name = p.next()
        if k != "word":
            raise InvalidParam(f"config: expected a block name, got {name!r}")
        if name in blocks:
            raise InvalidParam(f"config: duplicate block {name!r}")
        blocks[name] = p.block()
    return RunConfig(blocks)


def load_config(path: str | Path) -> "RunConfig":
    return parse_config(Path(path).read_text())


@dataclass
class RunConfig:
    blocks: dict = field(default_factory=dict)

    def get(self, block: str, key: str, default: Any = None) -> Any:
        return self.blocks.get(block, {}).get(key, default)

    def section(self, block: str) -> dict:
        return dict(self.blocks.get(block, {}))
