"""Report envelopes and rendering: JSON for machines, text for people.

Both render the same payload.  JSON output is deterministic — sorted keys,
fixed separators — so identical configurations produce byte-identical
documents once timing fields are stripped (``strip_timing``); golden-file
tests depend on that.  Exact rationals serialize as strings ("11/21"):
JSON numbers would silently round them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional, Sequence

__all__ = ["scrub", "strip_timing", "render_json", "render_text", "envelope", "show_elements"]

TIMING_KEYS = frozenset({"elapsed_ms", "elapsed_s", "timing"})


def scrub(value: Any) -> Any:
    """Make a payload JSON-safe: Fractions to strings, tuples to lists."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [scrub(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return str(value)


def show_elements(elems: Optional[Sequence]) -> Optional[list]:
    """Group elements as reports print them: an int as it is, the free
    group's identity (the empty word) as ``"e"``, anything else as its str;
    None stays None."""
    if elems is None:
        return None
    return [x if isinstance(x, int) else str(x) or "e" for x in elems]


def strip_timing(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items() if k not in TIMING_KEYS}
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


def envelope(command: str, params: dict, result: dict, elapsed_ms: int) -> dict:
    """One command's report: its name, parameters, result and run time."""
    return {"command": command, "params": scrub(params), "result": scrub(result), "elapsed_ms": elapsed_ms}


def render_json(payload: dict) -> str:
    return json.dumps(scrub(payload), sort_keys=True, indent=2) + "\n"


def _text_lines(value: Any, key: str, indent: int, lines: list) -> None:
    pad = "  " * indent
    label = f"{pad}{key}: " if key else pad
    if isinstance(value, dict):
        if key:
            lines.append(f"{pad}{key}:")
        for k in value:
            _text_lines(value[k], k, indent + (1 if key else 0), lines)
    elif isinstance(value, list):
        flat = all(not isinstance(v, (dict, list)) for v in value)
        if flat:
            lines.append(label + "[" + ", ".join(str(v) for v in value) + "]")
        else:
            lines.append(f"{pad}{key}:")
            for i, v in enumerate(value):
                _text_lines(v, f"[{i}]", indent + 1, lines)
    else:
        lines.append(label + str(value))


def render_text(payload: dict) -> str:
    lines: list[str] = []
    payload = scrub(payload)
    for k in payload:
        _text_lines(payload[k], k, 0, lines)
    return "\n".join(lines) + "\n"
