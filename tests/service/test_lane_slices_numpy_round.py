"""Served lane slices again, on the NumPy round.

``test_lane_slices.py`` re-collected, unedited, under the
``numpy_lane_round`` fixture (``tests/conftest.py``): the pool and the
cluster of this module fork their workers after the pin is in place, so
every lane slice they serve runs the round a host without a C compiler
runs, and must serve the same walks.
"""

import multiprocessing

import pytest

from tests.service.test_lane_slices import (  # noqa: F401
    TestJobWalkIds,
    TestServedWalksAreTheScalarWalks,
    TestSliceLifecycle,
    TestSliceObservability,
    TestSliceWidth,
    cluster,
    service,
)


@pytest.fixture(scope="module", autouse=True)
def pinned_before_any_pool_forks(numpy_lane_round):
    """Autouse, so it is set up before ``service`` / ``cluster``."""
    if multiprocessing.get_context().get_start_method() != "fork":
        pytest.skip("the pin reaches the pool workers by fork")
