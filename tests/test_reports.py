"""Report serialization: scrubbing, timing removal, rendering."""

import json
from fractions import Fraction

from idealpack.reports import envelope, render_json, render_text, scrub, show_elements, strip_timing


def test_scrub_fractions_and_tuples():
    doc = {"a": Fraction(1, 3), "b": (1, 2), "c": [Fraction(2, 1)], "d": {"e": (3,)}}
    assert scrub(doc) == {"a": "1/3", "b": [1, 2], "c": ["2"], "d": {"e": [3]}}


def test_strip_timing_recursive():
    doc = {"elapsed_ms": 4, "x": {"elapsed_s": 0.1, "y": 1}, "z": [{"elapsed_ms": 9}]}
    assert strip_timing(doc) == {"x": {"y": 1}, "z": [{}]}


def test_envelope_shape():
    e = envelope("pack", {"n": 2}, {"value": 3}, elapsed_ms=17)
    assert e["command"] == "pack"
    assert e["params"] == {"n": 2}
    assert e["result"] == {"value": 3}
    assert e["elapsed_ms"] == 17


def test_render_json_sorted_and_parseable():
    text = render_json({"b": Fraction(1, 2), "a": (1,)})
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc == {"a": [1], "b": "1/2"}
    assert list(text.split('"')[1::2])[0] == "a"  # keys sorted


def test_render_text_nests():
    text = render_text({"top": {"inner": 1}, "flag": True})
    assert "top:" in text
    assert "inner: 1" in text


def test_show_elements_prints_the_identity_word_as_e():
    assert show_elements(["", "ab", "B"]) == ["e", "ab", "B"]
    assert show_elements((0, -3, 7)) == [0, -3, 7]
    assert show_elements(None) is None
