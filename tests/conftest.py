"""Setup shared by every test module."""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def pytest_configure(config):
    # ``pythonpath`` in pyproject.toml puts src/ on this process's path only;
    # the CLI criterion runs ``python -m pbindex.cli`` in a child process.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
