"""CLI surface: exit codes, report shapes, determinism, config plumbing."""

import json

import pytest

from idealpack.cli import main
from idealpack.reports import strip_timing


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
