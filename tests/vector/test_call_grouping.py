"""How rounds are grouped into ``lanes_run`` calls is invisible.

``VectorWalkEngine.run`` asks C for every round up to the next event Python
has a part in (a restart falling due, the iteration budget, a watcher),
capped at ``engine._LANE_ITERATIONS_PER_CALL`` lane-iterations a call.  The
cap only decides where ``time_limit`` is checked: whatever it is, every
lane ends at the same iteration with the same result, counters and
generator state — so ``max_iterations`` and a ``restart_limit`` that fall
inside a call's span end / restart a lane at exactly the scalar iteration
(``test_any_grouping_is_the_one_round_grouping`` with ``CHURN``: budget
400, restarts every 60, neither a multiple of 7).
"""

import math

import numpy as np
import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.core.termination import TerminationReason
from repro.problems import make_problem
from repro.vector import engine as engine_module
from repro.vector.engine import VectorWalkEngine
from tests.conftest import WalkRecorder, session_walk
from tests.vector.test_equivalence import assert_walks_equal
from tests.vector.test_kernels import CHURN, needs_compiled

DEFAULTS = AdaptiveSearchConfig(max_iterations=300)
DEFAULT_CAP = engine_module._LANE_ITERATIONS_PER_CALL
SHAPES = [("magic_square", 5), ("costas", 13), ("all_interval", 12)]


def run_grouped(monkeypatch, cap, problem, k, config, **kwargs):
    """One batch under a per-call cap: the engine after its run, its walks,
    and where each lane's generator ended."""
    monkeypatch.setattr(engine_module, "_LANE_ITERATIONS_PER_CALL", cap)
    generators = [np.random.default_rng(70 + lane) for lane in range(k)]
    engine = VectorWalkEngine(problem, k, config, seeds=generators, **kwargs)
    walks = engine.run().walks
    return engine, walks, [g.bit_generator.state for g in generators]


@needs_compiled
@pytest.mark.parametrize("family,n", SHAPES)
@pytest.mark.parametrize(
    "config", [DEFAULTS, CHURN], ids=["defaults", "churn"]
)
@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("first_wins", [False, True])
def test_any_grouping_is_the_one_round_grouping(
    monkeypatch, family, n, config, k, first_wins
):
    problem = make_problem(family, n=n)
    _, expected, streams = run_grouped(
        monkeypatch, 1, problem, k, config, first_wins=first_wins
    )
    for cap in (7 * k, DEFAULT_CAP):
        engine, walks, ended = run_grouped(
            monkeypatch, cap, problem, k, config, first_wins=first_wins
        )
        for lane in range(k):
            assert_walks_equal(
                expected[lane], walks[lane], f"cap={cap} lane={lane}"
            )
        assert ended == streams, cap
        assert engine.calls < engine.rounds
    if config is CHURN and k > 1 and not first_wins:  # inside calls there were
        assert sum(w.stats.resets for w in expected) > 0
        assert sum(w.stats.restarts for w in expected) > 0


def test_a_fractional_restart_limit_restarts_where_the_session_does():
    # the span to the next restart is rounded up to whole rounds
    problem = make_problem("costas", n=13)
    config = AdaptiveSearchConfig(restart_limit=7.5, max_iterations=100)
    (walk,) = VectorWalkEngine(problem, 1, config, seeds=[5]).run().walks
    assert_walks_equal(session_walk(config, problem, 5), walk)
    assert walk.stats.restarts == 12


@needs_compiled
def test_calls_an_unwatched_walk_takes_and_a_watched_one():
    # no restart and (no Costas array of order 32 is known) no solution:
    # nothing but the cap and the budget ends a call
    problem = make_problem("costas", n=32)
    config = AdaptiveSearchConfig(max_iterations=40_000)
    engine = VectorWalkEngine(problem, 1, config, seeds=[3])
    (walk,) = engine.run().walks
    assert walk.reason is TerminationReason.MAX_ITERATIONS
    assert engine.rounds == 40_000
    assert engine.calls == math.ceil(40_000 / DEFAULT_CAP) == 3

    short = AdaptiveSearchConfig(max_iterations=500)
    for watcher in (
        {"callbacks": [[WalkRecorder()]]},
        {"round_callback": lambda engine: None},
    ):
        engine = VectorWalkEngine(problem, 1, short, seeds=[3], **watcher)
        engine.run()
        assert engine.calls == engine.rounds == 500


def test_a_time_limit_ends_a_batch_between_calls():
    # no lane solves, so no call returns early and the clock is read after
    # whole calls only
    problem = make_problem("costas", n=32)
    engine = VectorWalkEngine(
        problem, 4, AdaptiveSearchConfig(time_limit=0.05), seeds=[1, 2, 3, 4]
    )
    walks = engine.run().walks
    assert {w.reason for w in walks} == {TerminationReason.TIME_LIMIT}
    assert {w.stats.iterations for w in walks} == {engine.rounds}
    per_call = DEFAULT_CAP // 4 if engine._compiled else 1
    assert engine.rounds > 0 and engine.rounds % per_call == 0
    assert engine.calls == engine.rounds // per_call
