"""The suite imports ``galcov`` from ``src/`` (``pythonpath`` in
pyproject.toml); child processes that run ``python -m galcov.cli`` get the
same package through ``PYTHONPATH``, so a plain checkout needs no install."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
