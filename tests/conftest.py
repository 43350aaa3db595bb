"""Let the interpreters that the CLI tests start import bpsing from this checkout.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's path only;
child processes read PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part
)
