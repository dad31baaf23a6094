"""Setup shared by every test module."""

import os
from pathlib import Path

import pytest

from pbindex import games

SRC = Path(__file__).resolve().parent.parent / "src"


def pytest_configure(config):
    # ``pythonpath`` in pyproject.toml puts src/ on this process's path only;
    # the CLI criterion runs ``python -m pbindex.cli`` in a child process.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


@pytest.fixture
def parse_cache(monkeypatch):
    """``games.parse_game`` keying paths and keeping no game, whatever ran before.

    Yields the ``games`` module; its kept game and keying state come back after the test.
    """
    monkeypatch.setattr(games, "_last_parsed", None)
    monkeypatch.setattr(games, "_keying", True)
    yield games
