"""What a CLI run loads: each command imports only the modules it computes with.

``import galcov`` loads no submodule; its public names load on first use.
No run loads ``dataclasses``, or ``inspect`` through it: the records are
built by ``galcov.errors._record``.  The footprint checks run in a child
process, as ``tests/test_reimport.py`` does, so that the suite's own imports
do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import galcov

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

SUBMODULES = [
    "cli", "config", "cover", "differentials", "divisors",
    "enumeration", "equations", "errors", "groups", "jacobian",
]

CHILD = """
import contextlib, io, json, sys
import galcov
argv = json.loads(sys.argv[1])
if argv:
    from galcov import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("galcov."))))
print(json.dumps(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)))
"""


def run_child(*argv):
    """The galcov modules a child loads after ``cli.main(argv)``, and which
    of ``dataclasses`` and ``inspect`` it loads."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    galcov_modules, stdlib = result.stdout.splitlines()
    return json.loads(galcov_modules), json.loads(stdlib)


def loaded_after(*argv):
    return run_child(*argv)[0]


def test_import_loads_no_submodule():
    assert loaded_after() == []


def test_genus_on_branch_data_loads_only_the_core():
    loaded = loaded_after("genus", str(CONFIGS / "unramified_g1.json"), "--format", "json")
    assert loaded == ["cli", "config", "cover", "errors", "groups"]


def test_all_on_an_equations_document_loads_everything():
    assert loaded_after("all", str(CONFIGS / "hyperelliptic6.json")) == SUBMODULES


@pytest.mark.parametrize(
    "argv",
    [("genus", str(CONFIGS / "unramified_g1.json"), "--format", "json"), ("all", str(CONFIGS / "hyperelliptic6.json"))],
    ids=["genus", "all"],
)
def test_no_run_loads_dataclasses_or_inspect(argv):
    assert run_child(*argv)[1] == []


def test_public_names_resolve():
    for name in galcov.__all__:
        assert getattr(galcov, name) is not None, name
    assert set(galcov.__all__) <= set(dir(galcov))
    namespace = {}
    exec("from galcov import *", namespace)
    assert set(galcov.__all__) <= set(namespace)
    assert namespace["CoverSpec"] is galcov.cover.CoverSpec
    assert namespace["groups"] is sys.modules["galcov.groups"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        galcov.nope
