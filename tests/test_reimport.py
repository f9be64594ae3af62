"""Dropping galcov from ``sys.modules`` frees its classes.

Module-level ``typing.Union`` aliases are cached by ``typing`` together with
the classes they name, so each fresh import of the package used to keep the
previous copy alive.  The check runs in a child process so that the suite's
own imports are untouched.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import gc, sys, weakref
import galcov
from galcov.equations import Infinity
refs = [weakref.ref(c) for c in (galcov.Coord, galcov.Character, galcov.GroupElement, Infinity)]
del galcov, Infinity
for name in [m for m in sys.modules if m == "galcov" or m.startswith("galcov.")]:
    del sys.modules[name]
gc.collect()
alive = [r().__name__ for r in refs if r() is not None]
print(",".join(alive))
"""


def test_reimport_frees_the_previous_classes():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == ""
