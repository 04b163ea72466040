"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import signal

import numpy as np
import pytest

from repro.core.solver import AdaptiveSearch
from repro.harness.cache import SampleCache


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: long-running test (full solves, process pools)"
    )


def session_walk(config, problem, seed=None, **kwargs):
    """One walk on :class:`~repro.core.session.AdaptiveSearchSession`, the
    scalar witness.

    ``AdaptiveSearch.solve`` runs a compiled-family walk as a lane wherever
    ``lanes.c`` is loaded, so a lane test that took its reference from
    ``solve`` would compare the lane engine with itself; the session is the
    other implementation of the loop, on every host.
    """
    return AdaptiveSearch(config).session(problem, seed, **kwargs).run()


class WalkRecorder:
    """An observer that keeps everything every hook is handed, so two
    engines can be held to one stream field for field; ``cancel_at`` makes
    it answer ``False`` at that iteration."""

    def __init__(self, cancel_at=None):
        self.events = []
        self.cancel_at = cancel_at

    def on_start(self, config, cost):
        self.events.append(("start", np.asarray(config).tolist(), cost))

    def on_iteration(self, info):
        self.events.append(("iteration", *dataclasses.astuple(info)))
        return info.iteration != self.cancel_at

    def on_reset(self, iteration, cost):
        self.events.append(("reset", iteration, cost))

    def on_restart(self, restart_index, cost):
        self.events.append(("restart", restart_index, cost))

    def on_finish(self, solved, cost):
        self.events.append(("finish", solved, cost))

    def count(self, kind):
        return sum(event[0] == kind for event in self.events)


@pytest.fixture(scope="module")
def solve_on_session():
    """Pin ``AdaptiveSearch.solve`` to the session for one module.

    ``solve`` runs a compiled-family walk as a lane wherever ``lanes.c``
    is loaded; a module that asks for this fixture gets the other
    implementation of the loop behind the same call, so a recorded table
    is held against both and no existing test id moves.
    """
    plain = AdaptiveSearch.solve

    def on_session(self, problem, seed=None, **kwargs):
        return self.session(problem, seed, **kwargs).run()

    AdaptiveSearch.solve = on_session
    try:
        yield
    finally:
        AdaptiveSearch.solve = plain


@pytest.fixture(autouse=True)
def signal_handlers_as_found():
    """Fail a test that leaves the SIGTERM or SIGINT handler changed.

    Everything forked later in this process inherits a handler left behind
    (a pool worker that turns SIGTERM into ``KeyboardInterrupt`` can outlive
    its ``terminate()``), so a leak shows up tests later, in someone else's
    test.  Here it fails the test that leaked it; the found handlers are put
    back first, so nothing after it inherits the leak.
    """
    found = {
        sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    yield
    changed = [sig for sig in found if signal.getsignal(sig) != found[sig]]
    for sig in changed:
        signal.signal(sig, found[sig])
    names = " and ".join(sig.name for sig in changed)
    assert not changed, f"the test left the {names} handler changed"


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
