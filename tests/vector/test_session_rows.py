"""The lane suites again, on session rows.

``test_equivalence.py``, ``test_lane_trajectories.py``,
``test_lane_observers.py`` and ``test_engine.py`` build their engines with
the default constructor, which takes compiled lanes wherever ``lanes.c`` is
loaded and has a kind for the problem.  Everywhere else each row of the
engine is an ``AdaptiveSearchSession`` stepped one iteration a round — on
a host without a C compiler, that is every lane — so the same classes are
collected here a second time, unedited, with ``native.LOADED`` swapped for
a library that failed to load: the state such a host starts in, in this
process and in every pool worker forked from it afterwards.  On a host
where the build failed both collections run session rows; that is the
fallback leg of CI.
"""

import importlib.util

import numpy as np
import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.core.termination import TerminationReason
from repro.problems import make_problem
from repro.vector import native
from repro.vector.engine import VectorWalkEngine
from repro.vector.problems import lane_kernel
from tests.conftest import session_walk
from tests.vector.test_equivalence import assert_walks_equal


@pytest.fixture(scope="module", autouse=True)
def without_the_library():
    failed = native.Loaded(None, None, "no C compiler: 'cc' not found")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "LOADED", failed)
        yield


def second_copy(name):
    """``tests/vector/<name>.py`` executed once more, under another name:
    the same source with its own classes and — hypothesis keeps one
    executor per ``@given`` object — its own property tests."""
    original = importlib.import_module(f"tests.vector.{name}")
    spec = importlib.util.spec_from_file_location(
        f"{original.__name__}_session_rows", original.__file__
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_engine = second_copy("test_engine")
TestFirstFinisher = _engine.TestFirstFinisher
TestPerLaneViewsAcrossRetirements = _engine.TestPerLaneViewsAcrossRetirements
TestVectorExecutor = _engine.TestVectorExecutor
TestVectorTelemetry = _engine.TestVectorTelemetry
TestVectorTelemetryEvents = _engine.TestVectorTelemetryEvents

_equivalence = second_copy("test_equivalence")
TestLaneIndependence = _equivalence.TestLaneIndependence
TestScalarEquivalenceK1 = _equivalence.TestScalarEquivalenceK1

_observers = second_copy("test_lane_observers")
TestLaneObservers = _observers.TestLaneObservers

_trajectories = second_copy("test_lane_trajectories")
TestCollectSamplesThroughLanes = _trajectories.TestCollectSamplesThroughLanes
TestStressedLanesAreScalarWalks = _trajectories.TestStressedLanesAreScalarWalks
TestWidthInvariance = _trajectories.TestWidthInvariance


def test_this_module_runs_session_rows():
    problem = make_problem("magic_square", n=4)
    assert lane_kernel(problem) == "scalar"
    engine = VectorWalkEngine(problem, 2, seed=1)
    assert engine.vp is None and not engine._compiled


@pytest.mark.parametrize(
    "family,n", [("queens", 20), ("all_interval_model", 8)]
)
def test_problems_without_a_compiled_kind_on_any_host(family, n):
    """No host has ``lanes.c`` kinds for these: the first finisher of four
    session rows is its session walk field for field, generator included,
    and every lane stops in the winner's round."""
    config = AdaptiveSearchConfig(max_iterations=5000)
    seeds = [11, 12, 13, 14]
    lane_rngs = [np.random.default_rng(seed) for seed in seeds]
    engine = VectorWalkEngine(
        make_problem(family, n=n), len(seeds), config,
        seeds=lane_rngs, first_wins=True,
    )
    outcome = engine.run()
    winner = outcome.winner_lane
    assert winner is not None
    walk = outcome.walks[winner]
    session_rng = np.random.default_rng(seeds[winner])
    witness = session_walk(config, make_problem(family, n=n), session_rng)
    assert_walks_equal(witness, walk, f"{family}-{n} lane={winner}")
    assert (
        lane_rngs[winner].bit_generator.state
        == session_rng.bit_generator.state
    )
    won_at = walk.stats.iterations
    for lane, other in enumerate(outcome.walks):
        assert other.stats.iterations == won_at, lane
        if lane != winner:
            assert other.reason is TerminationReason.CANCELLED, lane
