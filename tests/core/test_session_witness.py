"""The recorded walks again, on the session.

``AdaptiveSearch.solve`` runs a magic-square, all-interval or Costas walk as
a one-lane batch of the lane engine wherever ``lanes.c`` is loaded, and on
:class:`~repro.core.session.AdaptiveSearchSession` everywhere else.  The
golden-walk tables of ``test_golden_walks.py`` and the recorded observer
stream of ``test_callbacks.py`` were recorded before either was touched for
speed; they are collected here a second time, unedited, under the
``solve_on_session`` fixture (``tests/conftest.py``), so both
implementations of the loop answer to the same rows.  On a host where the
build failed both collections step the session; that is the fallback leg of
CI.
"""

import pytest

from repro import AdaptiveSearch, make_problem
from repro.core import session as session_module
from tests.core.test_callbacks import TestSessionObservation  # noqa: F401
from tests.core.test_golden_walks import (  # noqa: F401
    test_declarative_magic_square_walks_the_native_trajectory,
    test_default_tuning_walks_are_the_recorded_ones,
    test_stress_configuration_walks_are_the_recorded_ones,
)

pytestmark = pytest.mark.usefixtures("solve_on_session")


def test_this_module_steps_the_session(monkeypatch):
    stepped = []
    plain = session_module.AdaptiveSearchSession.step

    def step(self, max_new_iterations):
        stepped.append(max_new_iterations)
        return plain(self, max_new_iterations)

    monkeypatch.setattr(session_module.AdaptiveSearchSession, "step", step)
    result = AdaptiveSearch().solve(make_problem("costas", n=8), seed=0)
    assert result.solved and stepped
    assert result.solver_name == "adaptive_search"
