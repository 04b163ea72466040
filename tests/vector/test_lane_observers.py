"""Per-lane observers, pinned starts and ready generators at any width.

``AdaptiveSearch.solve`` needs them of a one-lane batch
(``tests/core/test_solve_engines.py``); the engine has them per lane, so a
lane of a wide batch that retires, resets and restarts around its
neighbours still hands its observers the stream a scalar walk hands them.
Collected again on the NumPy round by ``test_numpy_round.py``.
"""

import numpy as np
import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.core.termination import TerminationReason
from repro.errors import ProblemError, SolverError
from repro.problems import make_problem
from repro.vector.engine import VectorWalkEngine
from tests.conftest import WalkRecorder, session_walk
from tests.vector.test_equivalence import assert_walks_equal

CHURN = AdaptiveSearchConfig(
    reset_limit=1, restart_limit=60, freeze_swap=2,
    plateau_is_local_min=False, max_restarts=2, max_iterations=400,
)
SHAPES = [("costas", 10), ("all_interval", 12), ("magic_square", 5)]
SEEDS = [40, 41, 42, 43]


def witnesses(problem, seeds, **per_walk):
    recorders = [WalkRecorder() for _ in seeds]
    walks = [
        session_walk(
            CHURN, problem, seed, callbacks=[recorder],
            **{name: values[lane] for name, values in per_walk.items()},
        )
        for lane, (seed, recorder) in enumerate(zip(seeds, recorders))
    ]
    return recorders, walks


@pytest.mark.parametrize("family,n", SHAPES)
class TestLaneObservers:
    def test_every_lane_hands_its_observers_its_scalar_stream(self, family, n):
        problem = make_problem(family, n=n)
        expected, scalar = witnesses(problem, SEEDS)
        seen = [WalkRecorder() for _ in SEEDS]
        walks = VectorWalkEngine(
            problem, len(SEEDS), CHURN, seeds=SEEDS,
            callbacks=[[recorder] for recorder in seen],
        ).run().walks
        for lane, seed in enumerate(SEEDS):
            assert seen[lane].events == expected[lane].events, f"seed {seed}"
            assert_walks_equal(scalar[lane], walks[lane], f"seed {seed}")
        # lanes did reset and restart around each other
        assert sum(recorder.count("reset") for recorder in seen) > 0
        assert sum(recorder.count("restart") for recorder in seen) > 0

    def test_an_unobserved_lane_among_observed_ones(self, family, n):
        problem = make_problem(family, n=n)
        expected, scalar = witnesses(problem, SEEDS)
        seen = WalkRecorder()

        class ResetsOnly:
            resets = 0

            def on_reset(self, iteration, cost):
                self.resets += 1

        resets_only = ResetsOnly()
        walks = VectorWalkEngine(
            problem, len(SEEDS), CHURN, seeds=SEEDS,
            callbacks=[None, [seen], [], [resets_only]],
        ).run().walks
        assert seen.events == expected[1].events
        assert resets_only.resets == scalar[3].stats.resets
        for lane in range(len(SEEDS)):
            assert_walks_equal(scalar[lane], walks[lane])

    def test_false_retires_that_lane_and_no_other(self, family, n):
        problem = make_problem(family, n=n)
        _, scalar = witnesses(problem, SEEDS)
        canceller = WalkRecorder(cancel_at=5)
        walks = VectorWalkEngine(
            problem, len(SEEDS), CHURN, seeds=SEEDS,
            callbacks=[None, None, [canceller], None],
        ).run().walks
        assert walks[2].reason is TerminationReason.CANCELLED
        assert walks[2].stats.iterations == 5
        assert canceller.events[-1] == ("finish", False, walks[2].cost)
        for lane in (0, 1, 3):
            assert_walks_equal(scalar[lane], walks[lane])

    def test_pinned_starts_and_ready_generators_per_lane(self, family, n):
        problem = make_problem(family, n=n)
        pinned = problem.random_configuration(5)
        starts = [None, pinned, None, pinned]
        _, scalar = witnesses(
            problem,
            [40, 41, np.random.default_rng(42), np.random.default_rng(43)],
            initial_configuration=starts,
        )
        walks = VectorWalkEngine(
            problem, 4, CHURN,
            seeds=[40, 41, np.random.default_rng(42), np.random.default_rng(43)],
            initial_configurations=starts,
        ).run().walks
        for lane in range(4):
            assert_walks_equal(scalar[lane], walks[lane], f"lane {lane}")


class TestPerLaneArguments:
    def test_one_entry_per_lane(self):
        problem = make_problem("costas", n=8)
        for name in ("seeds", "callbacks", "initial_configurations"):
            with pytest.raises(SolverError, match=f"{name} for 3 lanes"):
                VectorWalkEngine(problem, 3, **{name: [None, None]})

    def test_a_pinned_start_is_checked_before_a_kernel_reads_it(self):
        problem = make_problem("costas", n=8)
        with pytest.raises(ProblemError):
            VectorWalkEngine(
                problem, 2, seeds=[1, 2],
                initial_configurations=[None, np.full(8, 99)],
            )
