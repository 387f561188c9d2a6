"""CLI surface: exit codes, report shapes, determinism, config plumbing."""

import json
from pathlib import Path

import pytest

from idealpack.cli import main
from idealpack.reports import strip_timing
from idealpack.setexpr import MAX_DEPTH

S3 = str(Path(__file__).parent / "golden" / "s3.table")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout (stderr: {err!r})"
    return code, json.loads(out)


# -- pack ------------------------------------------------------------------------


def test_pack_exact_evens(capsys):
    code, doc = run_json(
        capsys, "pack", "--name", "parity", "--n", "2", "--shifts", "0..9",
        "--window", "10000", "--exact",
    )
    assert code == 0
    assert doc["command"] == "pack"
    assert doc["result"]["value"] == 2
    assert doc["result"]["flag"] == "exact"
    assert doc["result"]["family"] == [0, 1]


def test_pack_set_expression(capsys):
    code, doc = run_json(
        capsys, "pack", "--set", "union(tri, shift(tri, 5))", "--n", "2",
        "--shifts", "0..6", "--window", "0:100000", "--exact",
    )
    assert code == 0
    assert doc["result"]["value"] >= 1


def test_pack_arity_usage_error(capsys):
    code, out, err = run(capsys, "pack", "--name", "parity", "--n", "1", "--window", "1000")
    assert code == 2
    assert "arity" in err


def test_pack_budget_exit(capsys):
    code, out, err = run(
        capsys, "pack", "--name", "tri", "--n", "3", "--shifts", "0..100",
        "--window", "0:10000", "--exact",
    )
    assert code == 3
    assert "capped" in err


def test_pack_density_ideal_carries_proxy_flag(capsys):
    code, doc = run_json(
        capsys, "pack", "--name", "tri", "--n", "2", "--shifts", "0..9",
        "--window", "0:100000", "--ideal", "density-zero",
    )
    assert code == 0
    assert doc["result"]["ideal"]["proxy-for-N"] is True


# -- verdict commands ---------------------------------------------------------------


def test_small_verdict_exit_codes(capsys):
    code, doc = run_json(capsys, "small", "--name", "tri", "--window", "0:100000")
    assert code == 0
    assert doc["result"]["verdict"] == "small-at-scale"
    code, doc = run_json(capsys, "small", "--name", "parity", "--window", "0:100000")
    assert code == 1
    assert doc["result"]["verdict"] == "not-small"
    assert doc["result"]["counterexample"] == [0, 1]


def test_large_verdict_exit_codes(capsys):
    code, doc = run_json(capsys, "large", "--name", "parity", "--window", "0:100000")
    assert code == 0
    assert doc["result"]["large"] is True
    code, doc = run_json(capsys, "large", "--name", "pows", "--window", "0:100000")
    assert code == 1
    assert doc["result"]["large"] is False
    assert doc["result"]["best_residual_size"] > 0


@pytest.mark.parametrize(
    "argv, message",
    [
        # these used to report the evens small-at-scale with exit 0
        (("small", "--name", "parity", "--window", "0:10000", "--m", "0"), "m >= 1"),
        (("small", "--name", "parity", "--window", "0:10000", "--s", "-3"), "s >= 0"),
        # this used to fail on an unrelated window-margin message
        (("large", "--name", "parity", "--window", "0:10000", "--max-f", "0"), "max_f >= 1"),
        # these used to pack the empty set with exit 0
        (("pack", "--set", "empty", "--shifts", "0,0,1", "--window", "100"), "must be distinct"),
        (("pack", "--set", "empty", "--translators", "a,b", "--window", "100"), "--translators"),
        # these used to report lower-bound with exit 0, and exit 3
        (("pack", "--name", "parity", "--n", "2", "--shifts", "0..9", "--window", "10000", "--exact",
          "--node-budget", "-5"), "node_budget >= 0"),
        (("pack", "--name", "parity", "--n", "3", "--shifts", "0..9", "--window", "10000", "--exact",
          "--exact-cap", "-1"), "exact_cap >= 0"),
        # this used to admit every catalog set with exit 0
        (("complete", "--kind", "pack2", "--window", "0:2000", "--shifts", "0..16", "--threshold", "1"),
         "threshold 1"),
    ],
)
def test_invalid_bounds_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_f2_exit_codes(capsys):
    code, doc = run_json(capsys, "f2", "--depth", "6", "--base", "B",
                         "--translators", "shipped-b")
    assert code == 0
    assert doc["result"]["disjoint"] is True
    code, doc = run_json(capsys, "f2", "--depth", "6", "--base", "A",
                         "--translators", "e,a")
    assert code == 1
    assert doc["result"]["witness"] == "A"


def test_f2_identity_prints_as_e_in_every_report(capsys):
    # the library holds the empty word; each report prints it as "e"
    code, doc = run_json(capsys, "f2", "--depth", "4", "--base", "A", "--translators", "e,a")
    assert doc["result"]["violating"] == ["e", "a"]
    code, doc = run_json(capsys, "small", "--set", "compl(f2start(a))", "--depth", "4", "--m", "2", "--s", "1")
    assert doc["result"]["counterexample"] == ["e", "b"]
    code, doc = run_json(capsys, "large", "--set", "all", "--depth", "3")
    assert doc["result"]["family"] == ["e"]


# -- measure / folner / density -------------------------------------------------------


def test_measure_report(capsys):
    code, doc = run_json(
        capsys, "measure", "--avoid", "tri", "--F", "{1}", "--n", "10",
        "--eval", "parity", "--window", "0:1000000",
    )
    assert code == 0
    r = doc["result"]
    assert (r["L"], r["y"]) == (21, 232)
    assert r["mu_avoid"] == "0"
    assert r["mu_eval"] == "11/21"
    assert r["defects"] == {"1": "1/21"}


def test_folner_certificate(capsys):
    code, doc = run_json(capsys, "folner", "--F", "{1,-3}", "--n", "5",
                         "--window", "0:100000")
    assert code == 0
    assert doc["result"]["L"] == 31
    assert doc["result"]["ratios"]["-3"] == "6/31"


def test_density_profile(capsys):
    code, doc = run_json(capsys, "density", "--name", "tri", "--window", "0:1000000")
    assert code == 0
    rows = doc["result"]["densities"]
    assert [r["density"] for r in rows] == ["11/64", "23/256", "45/1024"]
    assert doc["result"]["proxy-for-N"] is True


def test_measure_avoidance_budget_exit(capsys):
    code, out, err = run(
        capsys, "measure", "--avoid", "parity", "--F", "{1}", "--n", "10",
        "--window", "0:100000",
    )
    assert code == 3


# -- complete -------------------------------------------------------------------------


def test_complete_trace(capsys):
    code, doc = run_json(
        capsys, "complete", "--kind", "pack2", "--window", "0:100000",
        "--shifts", "0..512", "--threshold", "8",
    )
    assert code == 0
    r = doc["result"]
    assert r["fixpoint"] is True
    assert r["fixpoint_stage"] == 3
    assert len(r["admitted"]) == 10


# -- plumbing ----------------------------------------------------------------------------


def test_json_deterministic_modulo_timing(capsys):
    argv = ["pack", "--name", "sparsemix", "--n", "2", "--shifts", "0..16",
            "--window", "0:50000", "--exact"]
    _, doc1 = run_json(capsys, *argv)
    _, doc2 = run_json(capsys, *argv)
    assert doc1 != {} and strip_timing(doc1) == strip_timing(doc2)
    # determinism is byte-level once timing fields go
    assert json.dumps(strip_timing(doc1), sort_keys=True) == json.dumps(
        strip_timing(doc2), sort_keys=True
    )


def test_text_report_mode(capsys):
    code, out, err = run(capsys, "small", "--name", "tri", "--window", "0:100000",
                         "--report", "text")
    assert code == 0
    assert "verdict: small-at-scale" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        'group { kind = "z-window"; lo = 0; hi = 5000; margin = 16 }\n'
        'pack { n = 3; shifts = "0..9" }\n'
    )
    code, doc = run_json(capsys, "pack", "--config", str(cfg), "--name", "parity")
    assert code == 0
    assert doc["params"]["n"] == 3
    assert doc["params"]["group"]["hi"] == 5000
    assert doc["result"]["value"] == 4  # pack_3 of evens over 0..9
    code, doc = run_json(capsys, "pack", "--config", str(cfg), "--name", "parity",
                         "--n", "2")
    assert doc["params"]["n"] == 2  # the flag wins


def test_config_can_turn_on_exact_mode(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        'group { kind = "z-window"; lo = 0; hi = 200; margin = 16 }\n'
        'pack { n = 2; exact = true; shifts = "0..6" }\n'
    )
    code, doc = run_json(capsys, "pack", "--config", str(cfg), "--name", "parity")
    assert code == 0
    assert doc["params"]["mode"] == "exact"
    assert doc["result"]["flag"] == "exact"


def test_unknown_catalog_name_is_usage_error(capsys):
    code, out, err = run(capsys, "pack", "--name", "zzz", "--window", "1000")
    assert code == 2
    assert "zzz" in err


def _shifted(inner, times):
    for _ in range(times):
        inner = f"shift({inner}, 1)"
    return inner


def _density(capsys, *argv):
    return run(capsys, "density", *argv, "--window", "0:2000", "--schedule", "64")


def test_deep_set_expression_is_usage_error(capsys):
    code, out, err = _density(capsys, "--set", _shifted("evens", 1000))
    assert (code, out) == (2, "")
    assert f"nested more than {MAX_DEPTH} deep" in err


def test_deep_catalog_chain_is_usage_error(capsys, tmp_path):
    # s_i = shift(s_(i-1), 1): each name one level deeper than the last
    cat = tmp_path / "chain.cat"
    cat.write_text("s0 = evens\n" + "".join(f"s{i} = shift(s{i - 1}, 1)\n" for i in range(1, 1200)))
    code, out, err = _density(capsys, "--catalog", str(cat), "--name", "s1199")
    assert (code, out) == (2, "")
    assert f"catalog name 's{MAX_DEPTH}' nests {MAX_DEPTH + 1} deep" in err


def test_cayley_shift_error_names_only_the_translator(capsys, tmp_path):
    # s40 prints as 2^40 copies of s0: the message must not print the operand
    cat = tmp_path / "chain.cat"
    chain = "".join(f"s{i} = union(s{i - 1}, shift(s{i - 1}, 1))\n" for i in range(1, 41))
    cat.write_text("s0 = list{0,5}\n" + chain)
    code, out, err = run(capsys, "density", "--catalog", str(cat), "--set", "shift(s40,1)", "--cayley", S3)
    assert (code, out) == (2, "")
    assert err == "error: shift by 1 does not materialize on kind 'cayley'\n"


def test_generated_ideal_report_names_catalog_generators(capsys, tmp_path):
    # s20 expanded prints 2^20 copies of s0: the report names it instead
    cat = tmp_path / "chain.cat"
    chain = "".join(f"s{i} = union(s{i - 1}, shift(s{i - 1}, 1))\n" for i in range(1, 21))
    cat.write_text("s0 = list{0,1}\n" + chain)
    code, out, err = run(capsys, "pack", "--catalog", str(cat), "--set", "evens", "--window", "0:2000", "--n", "2",
                         "--shifts", "0..4", "--ideal", "generated", "--generators", "s20,compl(s3)", "--exact")
    assert code == 0, err
    assert len(out) < 10_000
    assert json.loads(out)["result"]["ideal"]["generators"] == ["s20", "compl(s3)"]


def test_set_expression_at_the_depth_limit_evaluates(capsys, tmp_path):
    code, doc = run_json(capsys, "density", "--set", _shifted("evens", MAX_DEPTH - 1),
                         "--window", "0:2000", "--schedule", "64")
    assert code == 0
    assert doc["result"]["densities"][0]["density"] == "1/2"
    # a name that nests MAX_DEPTH - 1 levels, one level more in --set
    cat = tmp_path / "chain.cat"
    cat.write_text(f"deep = {_shifted('evens', MAX_DEPTH - 2)}\n")
    code, out, err = _density(capsys, "--catalog", str(cat), "--set", "shift(deep, 1)")
    assert code == 0, err
    code, out, err = _density(capsys, "--catalog", str(cat), "--set", "compl(shift(deep, 1))")
    assert (code, out) == (2, "")
    assert f"set expression nests {MAX_DEPTH + 1} deep" in err


def test_malformed_window_is_usage_error(capsys):
    code, out, err = run(capsys, "pack", "--name", "parity", "--n", "2",
                         "--window", "5:")
    assert code == 2
    assert "window" in err


def test_no_command_prints_help(capsys):
    code, out, err = run(capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_verify_paper_single_criterion(capsys):
    code, doc = run_json(capsys, "verify-paper", "--only", "1")
    assert code == 0
    assert doc["result"]["all_passed"] is True
    assert len(doc["result"]["criteria"]) == 1
    line = doc["result"]["lines"][0]
    assert line.startswith("PASS") and "criterion" in line


def test_verify_paper_text_lines(capsys):
    code, out, err = run(capsys, "verify-paper", "--only", "3", "--report", "text")
    assert code == 0
    assert out.startswith("PASS")
    assert "criterion" in out
    assert "s < 5s]" in out  # the text report shows each criterion's time


def test_verify_paper_json_repeats_once_stripped(capsys):
    docs = [run_json(capsys, "verify-paper", "--only", "3")[1] for _ in range(2)]
    assert strip_timing(docs[0]) == strip_timing(docs[1])
    assert "s < " not in docs[0]["result"]["lines"][0]


# -- options: flags and config keys ---------------------------------------------------


@pytest.mark.parametrize(
    "argv, config, message",
    [
        # each of these used to end in a traceback with exit 1, a negative verdict
        (("pack", "--name", "tri", "--window", "1000", "--ideal", "density-zero",
          "--density-threshold", "abc"), None, "ideal.threshold must be a rational number, got 'abc'"),
        (("pack", "--name", "parity"), 'group { kind = "z-mod" }', "group kind 'z-mod' needs group.n"),
        (("pack", "--name", "parity"), 'group { kind = "z-mod"; n = "x" }', "group.n must be an integer"),
        (("pack", "--name", "parity", "--window", "100"), 'pack { n = "two" }', "pack.n must be an integer"),
        (("pack", "--name", "parity", "--window", "100"), 'ideal { kind = "finite-sets"; cutoff = [1] }',
         "ideal.cutoff must be an integer, got [1]"),
        (("complete", "--kind", "pack-omega", "--n-range", "", "--window", "100"), None,
         "complete.n-range names no arity"),
        (("pack", "--name", "tri", "--window", "1000"), 'ideal { kind = "density-zero"; threshold = "1/0" }',
         "ideal.threshold must be a rational number"),
        (("pack", "--name", "parity", "--window", "100", "--config", "TMP/absent.cfg"), None, "cannot read"),
        (("pack", "--name", "parity", "--window", "100", "--catalog", "TMP/absent.cat"), None, "cannot read"),
        (("pack", "--name", "parity", "--window", "100", "--cayley", "TMP"), None, "cannot read"),
        (("pack", "--name", "parity", "--window", "100"), "\udcff\udcfe", "not a text file"),
        # these used to be read as some other value
        (("pack", "--name", "parity", "--shifts", "0..3"), "group { hi = 1000; margin = 1.5 }",
         "group.margin must be an integer, got 3/2"),
        (("pack", "--name", "parity", "--window", "100"), "pack { exact = 1 }", "pack.exact must be true or false"),
        (("small", "--name", "tri", "--window", "1000"), "small { m = true }", "small.m must be an integer"),
        (("pack", "--name", "parity", "--window", "100"), 'output { report = ["text"] }', "output.report must be text"),
        # a format the flag's choices refuse was rendered as JSON with exit 0
        (("pack", "--name", "parity", "--window", "100"), 'output { report = "txt" }',
         "output.report must be one of json, text, got 'txt'"),
        # a flag's value is typed and checked where a config value is
        (("pack", "--name", "parity", "--window", "100", "--n", "x"), None, "pack.n must be an integer, got 'x'"),
        (("pack", "--name", "parity", "--shifts", "0..3", "--window", "1000", "--margin", "1.5"), None,
         "group.margin must be an integer, got '1.5'"),
        (("pack", "--name", "parity", "--window", "100", "--ideal", "bogus"), None, "unknown ideal kind 'bogus'"),
        (("pack", "--name", "parity", "--window", "100", "--report", "txt"), None,
         "output.report must be one of json, text, got 'txt'"),
        (("verify-paper", "--only", "x"), None, "--only must be an integer, got 'x'"),
    ],
)
def test_bad_option_values_are_usage_errors(tmp_path, capsys, argv, config, message):
    argv = [a.replace("TMP", str(tmp_path)) for a in argv]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n", errors="surrogateescape")
        argv += ["--config", str(tmp_path / "run.cfg")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "argv, code",
    [(("pack", "--bogus"), 2), (("pack", "--name", "parity", "--n"), 2), (("--help",), 0), (("pack", "--help"), 0)],
)
def test_argparse_exits_are_returned(capsys, argv, code):
    # an unknown flag, a flag with no value and --help end in argparse's
    # SystemExit, which main returns as its exit code
    assert main(list(argv)) == code
    out = capsys.readouterr()
    assert "usage: idealpack" in (out.err if code else out.out)


def test_nested_config_list_is_usage_error(tmp_path, capsys):
    # this used to end in a RecursionError traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pack { n = " + "[" * 5000 + "]" * 5000 + " }\n")
    code, out, err = run(capsys, "pack", "--name", "parity", "--window", "100", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "config: a list holds only numbers, strings and booleans" in err


def test_window_flag_keeps_the_config_margin(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group { margin = 40 }\n")
    argv = ["pack", "--name", "parity", "--shifts", "0..3", "--window", "0:1000", "--config", str(cfg)]
    _, doc = run_json(capsys, *argv)
    assert doc["params"]["group"] == {"kind": "z-window", "lo": 0, "hi": 1000, "margin": 40}
    _, doc = run_json(capsys, *argv, "--margin", "5")
    assert doc["params"]["group"]["margin"] == 5


# command, then the same options as flags and as a config file
INTERCHANGEABLE = {
    "pack-z-mod": (
        ["pack", "--name", "parity"],
        ["--mod", "12", "--n", "2", "--shifts=-3..8", "--exact"],
        'group { kind = "z-mod"; n = 12 }\npack { n = 2; shifts = "-3..8"; exact = true }',
    ),
    "pack-cayley": (
        ["pack", "--set", "list{0,1}"],
        ["--cayley", S3, "--shifts", "0..5", "--exact", "--node-budget", "1000", "--exact-cap", "16"],
        f'group {{ kind = "cayley"; path = "{S3}" }}\n'
        'pack { shifts = "0..5"; exact = true; node-budget = 1000; exact-cap = 16 }',
    ),
    "pack-free-2": (
        ["pack", "--set", "f2start(a)"],
        ["--depth", "5", "--translators", "e,a,b,ba", "--exact"],
        'group { kind = "free-2"; depth = 5 }\npack { translators = "e,a,b,ba"; exact = true }',
    ),
    "pack-finite-sets": (
        ["pack", "--name", "tri"],
        ["--window", "0:10000", "--margin", "30", "--shifts", "0..30", "--ideal", "finite-sets",
         "--cutoff", "2", "--exact"],
        'group { kind = "z-window"; lo = 0; hi = 10000; margin = 30 }\n'
        'ideal { kind = "finite-sets"; cutoff = 2 }\npack { shifts = "0..30"; exact = true }',
    ),
    "pack-density-zero": (
        ["pack", "--name", "tri"],
        ["--window", "0:100000", "--shifts", "0..9", "--ideal", "density-zero", "--lengths", "64,256",
         "--density-threshold", "1/20"],
        'group { hi = 100000 }\nideal { kind = "density-zero"; lengths = [64, 256]; threshold = 0.05 }\n'
        'pack { shifts = "0..9" }',
    ),
    "pack-generated": (
        ["pack", "--name", "tri"],
        ["--window", "0:16000", "--shifts", "0..8", "--ideal", "generated", "--generators", "tri,powers(2)",
         "--e-bound", "2", "--gen-shift-range", "4", "--slack", "1"],
        'group { hi = 16000 }\npack { shifts = "0..8" }\n'
        'ideal { kind = "generated"; generators = ["tri", "powers(2)"]; e-bound = 2; shift-range = 4; slack = 1 }',
    ),
    "small": (
        ["small", "--name", "tri"],
        ["--window", "0:100000", "--m", "2", "--s", "8", "--inner-max-f", "32", "--inner-shift-range", "128",
         "--cap", "5000"],
        "group { hi = 100000 }\nsmall { m = 2; s = 8; inner-max-f = 32; inner-shift-range = 128; cap = 5000 }",
    ),
    "large": (
        ["large", "--name", "parity"],
        ["--window", "0:100000", "--max-f", "8", "--shift-range", "64"],
        "group { hi = 100000 }\nlarge { max-f = 8; shift-range = 64 }",
    ),
    "density": (
        ["density", "--name", "tri"],
        ["--window", "0:100000", "--schedule", "64,256"],
        'group { hi = 100000 }\ndensity { schedule = "64,256" }',
    ),
    "folner": (
        ["folner"],
        ["--window", "0:100000", "--F", "{1,-3}", "--n", "5"],
        "group { hi = 100000 }\nfolner { F = [1, -3]; n = 5 }",
    ),
    "measure": (
        ["measure"],
        ["--window", "0:1000000", "--avoid", "tri", "--F", "{1}", "--n", "10", "--eval", "parity",
         "--bound", "100000"],
        'group { hi = 1000000 }\nmeasure { avoid = "tri"; F = "{1}"; n = 10; eval = "parity"; bound = 100000 }',
    ),
    "complete-s": (
        ["complete"],
        ["--window", "0:31000", "--kind", "s", "--m", "1", "--s", "3", "--inner-max-f", "64",
         "--inner-shift-range", "64", "--stages", "3"],
        'group { hi = 31000 }\n'
        'complete { kind = "s"; m = 1; s = 3; inner-max-f = 64; inner-shift-range = 64; stages = 3 }',
    ),
    "complete-pack-omega": (
        ["complete"],
        ["--window", "0:20000", "--kind", "pack-omega", "--n-range", "2..3", "--shifts", "0..20",
         "--threshold", "6", "--stages", "2"],
        'group { hi = 20000 }\n'
        'complete { kind = "pack-omega"; n-range = "2..3"; shifts = "0..20"; threshold = 6; stages = 2 }',
    ),
    "f2": (
        ["f2"],
        ["--depth", "6", "--base", "B", "--translators", "shipped-b", "--n", "2"],
        'f2 { depth = 6; base = "B"; translators = "shipped-b"; n = 2 }',
    ),
}


@pytest.mark.parametrize("case", sorted(INTERCHANGEABLE))
def test_flags_and_config_keys_are_interchangeable(tmp_path, capsys, case):
    command, flags, config = INTERCHANGEABLE[case]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    flags_code, from_flags = run_json(capsys, *command, *flags)
    config_code, from_config = run_json(capsys, *command, "--config", str(cfg))
    assert config_code == flags_code
    assert strip_timing(from_config) == strip_timing(from_flags)
