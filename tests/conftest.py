"""Fixtures shared by the test modules."""

import pytest

from heiscouple import simulate as sim


@pytest.fixture
def one_block_groups(monkeypatch):
    """Let the thread pool split a run into groups as narrow as one RNG block.

    Runs at test sizes are too narrow to pass the pool's width gate, so a
    test that checks outputs across group boundaries needs this to form
    more than one group.
    """
    monkeypatch.setattr(sim, "POOL_MIN_BLOCKS", 1)
