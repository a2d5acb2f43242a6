"""Fixtures shared by the test modules."""

from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def paper_ini() -> Path:
    """The committed INI of the published operating point."""
    return Path(__file__).resolve().parent.parent / "configs" / "paper.ini"
