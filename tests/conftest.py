"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.cache import SampleCache


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: long-running test (full solves, process pools)"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def tmp_cache(tmp_path) -> SampleCache:
    """A sample cache rooted in the test's temporary directory."""
    return SampleCache(tmp_path / "cache")


@pytest.fixture(scope="module")
def numpy_lane_round():
    """Pin the lane engine's NumPy round for one module.

    A default-constructed ``VectorWalkEngine`` takes the compiled round
    wherever ``lanes.c`` is loaded; for the module that asks for this
    fixture every engine built without an adapter is handed the NumPy one
    through the constructor's own ``vector_problem=`` argument — in this
    process and in every pool worker forked from it afterwards.  The
    ``test_*_numpy_round.py`` modules re-collect the lane suites under it,
    so both rounds answer to one contract and no existing test id moves.
    """
    from repro.vector.engine import VectorWalkEngine
    from repro.vector.problems import as_vector_problem

    plain = VectorWalkEngine.__init__

    def pinned(self, problem, k, *args, vector_problem=None, **kwargs):
        plain(
            self, problem, k, *args,
            vector_problem=vector_problem or as_vector_problem(problem, k),
            **kwargs,
        )

    VectorWalkEngine.__init__ = pinned
    try:
        yield
    finally:
        VectorWalkEngine.__init__ = plain
