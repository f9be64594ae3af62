"""Malformed documents and flags through ``cli.main``, in process.

Every run must end with a report or a documented exit code: no exception
escapes ``main`` and no code outside the README's table (0, and 2 to 14) is
returned.  An argument the parser rejects ends in argparse's SystemExit(2),
the same exit code a child process gives.

One test feeds documents of any shape: bad JSON, missing keys, fields of the
wrong type, non-integer psi, zero or negative orders.  The other feeds
well-formed branch data, valid or not, to every command with any flags:
tiny groups, and cyclic orders from 10^8 to 10^15, above the cap that
refuses any walk over them.
"""

from __future__ import annotations

import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings, strategies as st

from galcov.cli import COMMANDS, EXIT_CODES, main

DOCUMENTED = {0} | {code for name, code in EXIT_CODES.items() if name != "error"}

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 7),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["", "1/2", "a", "inf", "1,0", "-1"]),
    st.lists(st.integers(-2, 5), max_size=3),
    st.dictionaries(st.sampled_from(["id", "order", "x"]), st.integers(-1, 3), max_size=2),
)


def run(text, argv):
    """Exit code of ``main(argv)`` reading the document from stdin; stderr."""
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                # argparse refuses the command line itself
                assert exc.code == 2
                code = exc.code
    return code, err.getvalue()


def check(text, argv):
    code, err = run(text, argv)
    assert code in DOCUMENTED, (argv, text, err)
    if code not in (0, 3, 4):
        # a failure leaves its error record (or argparse's usage error) on stderr
        assert "error" in err, (argv, text, err)


# -- documents of any shape -----------------------------------------------------


@st.composite
def malformed_documents(draw):
    rank = draw(st.integers(0, 2))
    psi = st.one_of(st.lists(st.integers(-2, 4), max_size=rank + 1), junk)
    point = st.fixed_dictionaries({}, optional={"label": st.one_of(st.integers(1, 5), junk), "psi": psi})
    group = st.one_of(
        st.fixed_dictionaries({"cyclic_orders": st.lists(st.one_of(st.integers(-2, 4), junk), max_size=rank + 1)}),
        st.fixed_dictionaries(
            {"classes": st.lists(junk, max_size=2)},
            optional={
                "order": st.one_of(st.integers(-1, 6), junk),
                "u_table": st.one_of(junk, st.just({"x": {"c": 1}})),
            },
        ),
        junk,
    )
    branch = st.fixed_dictionaries(
        {"mode": st.just("branch-data")},
        optional={
            "base_genus": st.one_of(st.integers(-1, 2), junk),
            "group": group,
            "branch_points": st.one_of(st.lists(point, max_size=3), junk),
        },
    )
    factor = st.fixed_dictionaries(
        {"point": st.one_of(st.integers(-1, 2), junk), "exp": st.one_of(st.integers(-2, 2), junk)}
    )
    equation = st.fixed_dictionaries(
        {"m": st.one_of(st.integers(-1, 3), junk), "factors": st.lists(factor, max_size=2)}
    )
    equations = st.fixed_dictionaries(
        {"mode": st.sampled_from(["equations", "other"])},
        optional={"equations": st.one_of(st.lists(equation, max_size=2), junk)},
    )
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(["{not json", "", "[", "\x00"]))
    return json.dumps(draw(st.one_of(branch, equations, junk)))


@given(malformed_documents(), st.sampled_from(COMMANDS))
@settings(max_examples=150, deadline=None)
def test_malformed_documents_exit_with_a_documented_code(text, command):
    check(text, [command, "-", "--format", "json"])


# -- well-formed documents, hostile values and flags ---------------------------


@st.composite
def branch_documents(draw):
    if draw(st.integers(0, 3)) == 0:
        # above groups.DEFAULT_CAP = 10^7; a group of exactly 10^7 is still walked
        orders = [10 ** draw(st.integers(8, 15))]
    else:
        orders = draw(st.lists(st.integers(1, 6), max_size=2))
    base_genus = draw(st.sampled_from([0, 0, 0, 1, 2]))
    vectors = [draw(st.tuples(*(st.integers(0, m - 1) for m in orders))) for _ in range(draw(st.integers(0, 4)))]
    # a trivial class is a malformed document, which the other test covers
    vectors = [v for v in vectors if any(v)]
    points = [
        {"label": j + 1 if base_genus == 0 else f"p{j}", "psi": list(v)} for j, v in enumerate(vectors)
    ]
    group = {"cyclic_orders": orders}
    return {"mode": "branch-data", "base_genus": base_genus, "group": group, "branch_points": points}


def sometimes(draw, usual, odd):
    """A draw from ``usual`` or, now and then, from ``odd``."""
    return draw(odd) if draw(st.integers(0, 9)) == 0 else draw(usual)


@st.composite
def argvs(draw):
    argv = [sometimes(draw, st.sampled_from(COMMANDS), st.sampled_from(["", "genus2"])), "-"]
    numbers = st.integers(-3, 4).map(str)
    vectors = st.lists(st.integers(-2, 10**15), min_size=1, max_size=3).map(lambda v: ",".join(map(str, v)))
    for flag, usual in (("--char", vectors), ("--tau", vectors), ("--q", numbers), ("--gamma-degree", numbers)):
        if draw(st.booleans()):
            argv += [flag, sometimes(draw, usual, st.sampled_from(["", "x", "1/2", "1,,0", "sgn", "1" * 20]))]
    if draw(st.booleans()):
        argv += ["--cap", draw(numbers)]
    argv += draw(st.lists(st.sampled_from(["--count-only", "--stream"]), max_size=2, unique=True))
    return argv + ["--format", draw(st.sampled_from(["json", "table"]))]


@given(branch_documents(), argvs())
@settings(max_examples=200, deadline=None)
def test_flags_and_branch_data_exit_with_a_documented_code(document, argv):
    check(json.dumps(document), argv)
