"""The lane suites again, on the NumPy round.

``test_equivalence.py``, ``test_lane_trajectories.py``,
``test_lane_observers.py`` and ``test_engine.py`` build their engines with
the default constructor, which takes the compiled round wherever
``lanes.c`` is loaded.  The NumPy round
stays — it is the only lane path on a host without a C compiler, and the
reference the compiled kernels are tested against — so the same classes are
collected here a second time, unedited, under the ``numpy_lane_round``
fixture (``tests/conftest.py``), which hands every engine the NumPy adapter
through ``vector_problem=``.  On a host where the build failed both
collections run the NumPy round; that is the fallback leg of CI.
"""

import importlib.util

import pytest

from repro.problems import make_problem
from repro.vector.engine import VectorWalkEngine
from repro.vector.problems import CompiledLanes

pytestmark = pytest.mark.usefixtures("numpy_lane_round")


def second_copy(name):
    """``tests/vector/<name>.py`` executed once more, under another name:
    the same source with its own classes and — hypothesis keeps one
    executor per ``@given`` object — its own property tests."""
    original = importlib.import_module(f"tests.vector.{name}")
    spec = importlib.util.spec_from_file_location(
        f"{original.__name__}_numpy_round", original.__file__
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


def test_this_module_runs_the_numpy_round():
    problem = make_problem("magic_square", n=4)
    engine = VectorWalkEngine(problem, 2, seed=1)
    assert not isinstance(engine.vp, CompiledLanes) and engine.vp.batched
    assert not engine._compiled
