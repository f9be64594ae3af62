"""Golden reports: the CLI's JSON output on the bundled configs, byte for byte.

Each case runs ``cli.main`` in process and compares stdout and the exit code
with ``tests/golden/<case>.out`` and ``tests/golden/exit_codes.json``.  The
golden files were produced by the code before the Chevalley-Weil kernel was
unified, so any change in a reported number, key or ordering shows up here.
The ``s3.*`` cases cover the generic (class-table) path: four transpositions
of S3 over the line, with the irrep file ``s3_irreps.json``; their golden
files were produced before characters were read as integer u-rows.

The family cases (``nonspecial`` and ``degree-gm1`` as a list, a count and an
NDJSON stream), the one-character ``hchi``/``omega`` cases, their table
output and ``all`` on invalid branch data were produced before the fibre
divisors shared one record and the CLI one family table; only
``degenerate_equations.all`` changed since, from exit code 0 to validate's 4.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from galcov.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "all": ["all"],
    "traces": ["traces"],
    "omega": ["omega"],
    "hchi": ["hchi"],
    "chevalley-weil-q2": ["chevalley-weil", "--q", "2"],
    "nonspecial": ["nonspecial"],
    "nonspecial-count": ["nonspecial", "--count-only"],
    "nonspecial-stream": ["nonspecial", "--stream"],
    "degree-gm1": ["degree-gm1"],
    "degree-gm1-count": ["degree-gm1", "--count-only"],
    "degree-gm1-stream": ["degree-gm1", "--stream"],
    "hchi-table": ["hchi", "--format", "table"],
    "omega-table": ["omega", "--format", "table"],
}

# one nontrivial character per bundled config, for the --char cases
CHARS = {"hyperelliptic6": "1", "klein4": "1,1", "unramified_g1": "1", "z3_cubic": "2"}

S3_COMMANDS = {
    "all": ["all"],
    "tchi": ["tchi"],
    "dims": ["dims"],
    "omega": ["omega"],
    "hchi": ["hchi"],
    "chevalley-weil-q2": ["chevalley-weil", "--q", "2"],
    "chevalley-weil-irreps": ["chevalley-weil", "--irrep-file", str(GOLDEN / "s3_irreps.json")],
}


def cases():
    out = {}
    for config in sorted((ROOT / "configs").glob("*.json")):
        for name, argv in COMMANDS.items():
            out[f"{config.stem}.{name}"] = (argv, config)
        for command in ("hchi", "omega"):
            out[f"{config.stem}.{command}-char"] = ([command, "--char", CHARS[config.stem]], config)
    for name in ("validate", "all"):
        out[f"degenerate_equations.{name}"] = ([name], GOLDEN / "degenerate_equations.json")
    for name, argv in S3_COMMANDS.items():
        out[f"s3.{name}"] = (argv, GOLDEN / "s3.json")
    return out


CASES = cases()


def run_case(case: str) -> tuple[int, str]:
    argv, path = CASES[case]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        fmt = [] if "--format" in argv else ["--format", "json"]
        code = main([argv[0], str(path), *argv[1:], *fmt])
    return code, stdout.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    code, stdout = run_case(case)
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[case]
    assert stdout == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
