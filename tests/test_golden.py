"""Golden-file tests for the CLI: each command's stripped JSON report, its
stderr and its exit code, byte for byte.

Each case runs ``cli.main`` in process, drops the timing fields from the
report (``reports.strip_timing``) and compares the rendering with
``tests/golden/<case>.json``; CI renders the installed ``idealpack``
script's runs of the same cases with ``render`` and compares them too.
After a change that is meant to alter a report, regenerate every file from
the repository root with

    PYTHONPATH=src:tests python -c "import test_golden as t; [(t.GOLDEN / f'{k}.json').write_text(t.run_case(a)) for k, a in t.CASES.items()]"

and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from idealpack import cli
from idealpack.reports import render_json, strip_timing

GOLDEN = Path(__file__).parent / "golden"
_S3 = str(GOLDEN / "s3.table")

CASES = {
    # the README examples, in README order
    "pack-parity": ["pack", "--name", "parity", "--n", "2", "--shifts", "0..9", "--window", "10000", "--exact"],
    "pack-tri-n2": ["pack", "--name", "tri", "--n", "2", "--shifts", "0..1000", "--window", "0:1000000", "--exact"],
    "pack-tri-n3": ["pack", "--name", "tri", "--n", "3", "--shifts", "2^4..2^12", "--window", "0:100000", "--exact"],
    "pack-spot-exact": ["pack", "--name", "spot", "--n", "2", "--shifts", "0..300", "--window", "0:150000", "--exact"],
    "small-tri": ["small", "--name", "tri", "--window", "0:1000000", "--m", "2", "--s", "16"],
    "large-parity": ["large", "--name", "parity", "--window", "0:100000"],
    "measure-tri": [
        "measure", "--avoid", "tri", "--F", "{1}", "--n", "10", "--eval", "parity", "--window", "0:1000000",
    ],
    "density-tri": ["density", "--name", "tri", "--window", "0:1000000", "--schedule", "64,256,1024"],
    "complete-pack2": [
        "complete", "--kind", "pack2", "--window", "0:100000", "--shifts", "0..512", "--threshold", "8",
    ],
    "f2-depth12-a": ["f2", "--depth", "12", "--base", "A", "--translators", "b^0..b^8"],
    "f2-depth6-b": ["f2", "--depth", "6", "--base", "B", "--translators", "shipped-b"],
    # the other carriers and paths
    "folner": ["folner", "--F", "{1,-3}", "--n", "10", "--window", "0:100000"],
    "pack-mod12": ["pack", "--name", "parity", "--n", "2", "--shifts=-3..8", "--mod", "12", "--exact"],
    "pack-s3": ["pack", "--set", "list{0,1}", "--n", "2", "--shifts", "0..5", "--cayley", _S3, "--exact"],
    "pack-negative-shift": ["pack", "--name", "tri", "--n", "2", "--shifts=-6..6", "--window", "0:10000", "--exact"],
    "pack-finite-sets": [
        "pack", "--name", "tri", "--n", "2", "--shifts", "0..30", "--window", "0:10000",
        "--ideal", "finite-sets", "--cutoff", "2", "--exact",
    ],
    "small-f2": ["small", "--set", "f2start(a)", "--depth", "6", "--m", "2", "--s", "1"],
    "large-f2": ["large", "--set", "compl(f2start(a))", "--depth", "6"],
    # an F2 family whose translates meet at n = 3, found past two empty prefixes
    "f2-depth8-a-n3": ["f2", "--depth", "8", "--base", "A", "--translators", "e,b,bb,a,ba", "--n", "3"],
    "pack-f2-identity": [
        "pack", "--set", "f2start(a)", "--depth", "5", "--translators", "e,a,b,ba", "--n", "2", "--exact",
    ],
    # the greedy scan, the general pair rows and a capped search on its budget
    "pack-tri-greedy": ["pack", "--name", "tri", "--n", "2", "--shifts", "0..1000", "--window", "0:1000000"],
    "pack-parity-n3-greedy": ["pack", "--name", "parity", "--n", "3", "--shifts", "0..9", "--window", "10000"],
    "pack-parity-density": [
        "pack", "--name", "parity", "--n", "2", "--shifts", "0..12", "--window", "0:10000",
        "--ideal", "density-zero", "--exact",
    ],
    "pack-mod86-budget": [
        "pack", "--set", "list{17,25,57,71}", "--mod", "86", "--n", "2", "--shifts", "0..85", "--exact",
        "--node-budget", "100",
    ],
    # an n = 3 search on Z_N that runs to its close
    "pack-mod20-n3": ["pack", "--set", "list{4,12,14,18}", "--mod", "20", "--n", "3", "--shifts", "0..19", "--exact"],
    # the other two completion kinds: smallness and packing on any arity
    "complete-s": ["complete", "--kind", "s", "--window", "0:31000", "--m", "1", "--s", "3"],
    "complete-pack-omega": [
        "complete", "--kind", "pack-omega", "--window", "0:20000", "--shifts", "0..64", "--n-range", "2..3",
        "--threshold", "24",
    ],
    # an n = 4 search on Z_N: the link keys hold two positions
    "pack-mod16-n4": ["pack", "--set", "list{0,1,3,7}", "--mod", "16", "--n", "4", "--shifts", "0..15", "--exact"],
    # an n = 3 search on a window with negative shifts
    "pack-tri-n3-negative": [
        "pack", "--name", "tri", "--n", "3", "--shifts=-8..8", "--window", "0:30000", "--exact",
    ],
    # usage errors (exit 2)
    "pack-f2-long-translator": [
        "pack", "--set", "compl(empty)", "--depth", "2", "--translators", "e,aaa,bbb", "--n", "2", "--exact",
    ],
    "pack-cayley-finite-sets": [
        "pack", "--set", "list{0,1}", "--n", "2", "--shifts", "0..5", "--cayley", _S3,
        "--ideal", "finite-sets", "--cutoff", "1",
    ],
    # the catalog fails to materialize before the threshold is checked
    "complete-pack2-cayley": [
        "complete", "--kind", "pack2", "--cayley", _S3, "--shifts", "0..5", "--threshold", "100",
    ],
}


def render(code: int, out: str, err: str) -> str:
    """The golden rendering of one command's exit code, stderr and stdout
    report, the report stripped of its timing fields."""
    report = strip_timing(json.loads(out)) if out else None
    return render_json({"exit": code, "stderr": err, "stdout": report})


def run_case(argv: list) -> str:
    """The golden rendering of one command run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return render(code, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    assert run_case(CASES[case]) == (GOLDEN / f"{case}.json").read_text()


def test_one_parser_serves_every_command():
    # every case twice in one process: the parser is built at most once, and
    # reused it parses each command as a freshly built one does
    for _ in range(2):
        for case, argv in CASES.items():
            assert run_case(argv) == (GOLDEN / f"{case}.json").read_text(), case
    assert cli._build_parser.cache_info().misses <= 1
    for argv in CASES.values():
        assert cli._build_parser().parse_args(argv) == cli._build_parser.__wrapped__().parse_args(argv)
