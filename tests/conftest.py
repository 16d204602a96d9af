"""Child processes started by the CLI tests (``python -m vortlab.cli``) import
the package from this checkout, as the test process does through the
``pythonpath`` setting in pyproject.toml."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
