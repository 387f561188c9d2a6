"""Config file format: brace blocks of key/value pairs."""

from fractions import Fraction

import pytest

from idealpack.config import RunConfig, parse_config
from idealpack.errors import InvalidParam


def test_basic_blocks():
    cfg = parse_config(
        """
        group { kind = "z-window"; lo = 0; hi = 5000; margin = 16 }
        pack { n = 3; shifts = "0..9" }
        """
    )
    assert cfg.get("group", "kind") == "z-window"
    assert cfg.get("group", "hi") == 5000
    assert cfg.get("pack", "n") == 3
    assert cfg.get("pack", "shifts") == "0..9"


def test_value_types():
    cfg = parse_config(
        """
        ideal {
          kind = "density-zero"
          threshold = 0.02
          lengths = [64, 256, 1024]
          strict = true
          loose = false
        }
        """
    )
    # decimals become exact rationals, never floats
    assert cfg.get("ideal", "threshold") == Fraction(1, 50)
    assert isinstance(cfg.get("ideal", "threshold"), Fraction)
    assert cfg.get("ideal", "lengths") == [64, 256, 1024]
    assert cfg.get("ideal", "strict") is True
    assert cfg.get("ideal", "loose") is False


def test_a_list_holds_only_scalars():
    assert parse_config("pack { n = [64, 256] }").get("pack", "n") == [64, 256]
    for bad in ("p { n = [[64], 256] }", "p { n = [64, [256]] }"):
        with pytest.raises(InvalidParam, match="a list holds only numbers, strings and booleans"):
            parse_config(bad)


def test_newlines_separate_pairs_without_semicolons():
    cfg = parse_config("a {\n  x = 1\n  y = 2\n}\n")
    assert cfg.get("a", "x") == 1 and cfg.get("a", "y") == 2


def test_comments_and_negative_numbers():
    cfg = parse_config("# top note\nm { lo = -5; note = \"q\" } # trailing\n")
    assert cfg.get("m", "lo") == -5
    assert cfg.get("m", "note") == "q"


def test_defaults_and_sections():
    cfg = parse_config("one { a = 1 }")
    assert cfg.get("one", "missing", 7) == 7
    assert cfg.get("absent", "a", "d") == "d"
    assert cfg.section("one") == {"a": 1}
    assert cfg.section("absent") == {}
    assert RunConfig().get("x", "y") is None


def test_duplicate_block_rejected():
    with pytest.raises(InvalidParam):
        parse_config("b { x = 1 }\nb { y = 2 }")


def test_syntax_errors():
    for bad in ("group { x = }", "group x = 1 }", "group { x 1 }", "{ x = 1 }"):
        with pytest.raises(InvalidParam):
            parse_config(bad)


def test_string_escapes():
    cfg = parse_config('s { path = "a\\"b" }')
    assert cfg.get("s", "path") == 'a"b'
