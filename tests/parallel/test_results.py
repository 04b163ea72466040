"""Tests for multi-walk result types."""

import pickle

import numpy as np
import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.core.session import AdaptiveSearchSession
from repro.core.solver import AdaptiveSearch
from repro.core.termination import TerminationReason
from repro.parallel.results import ParallelResult, WalkOutcome
from repro.problems import CostasProblem, MagicSquareProblem


def outcome(walk_id=0, solved=True, wall_time=1.0, iterations=10) -> WalkOutcome:
    return WalkOutcome(
        walk_id=walk_id,
        solved=solved,
        cost=0.0 if solved else 4.0,
        iterations=iterations,
        wall_time=wall_time,
        reason=TerminationReason.SOLVED if solved else TerminationReason.CANCELLED,
        config=np.array([0, 1]) if solved else None,
    )


class TestWalkOutcome:
    def test_as_dict(self):
        d = outcome(3).as_dict()
        assert d["walk_id"] == 3
        assert d["solved"] is True
        assert d["reason"] == "SOLVED"


class TestWalkReportCodec:
    """from_result -> to_payload -> from_payload: the one report format."""

    @staticmethod
    def roundtrip(outcome: WalkOutcome) -> WalkOutcome:
        # the payload crosses a process boundary pickled
        payload = pickle.loads(pickle.dumps(outcome.to_payload()))
        return WalkOutcome.from_payload(outcome.walk_id, payload)

    def test_solved_walk_roundtrips_with_its_solution(self):
        problem = CostasProblem(8)
        result = AdaptiveSearch(
            AdaptiveSearchConfig(max_iterations=200_000)
        ).solve(problem, seed=1)
        sent = WalkOutcome.from_result(5, result)
        got = self.roundtrip(sent)
        assert got.walk_id == 5 and got.solved
        assert got.reason is TerminationReason.SOLVED
        assert (got.cost, got.iterations, got.wall_time) == (
            result.cost, result.stats.iterations, result.stats.wall_time,
        )
        assert got.config.dtype == np.int64
        assert problem.is_solution(got.config)

    @pytest.mark.parametrize("best_so_far", [False, True])
    def test_unsolved_walk_keeps_its_config_only_on_the_service_path(
        self, best_so_far
    ):
        result = AdaptiveSearch(AdaptiveSearchConfig(max_iterations=5)).solve(
            MagicSquareProblem(8), seed=0
        )
        assert not result.solved
        got = self.roundtrip(
            WalkOutcome.from_result(0, result, best_so_far=best_so_far)
        )
        assert got.reason is TerminationReason.MAX_ITERATIONS
        assert got.cost == result.cost
        if best_so_far:
            assert np.array_equal(got.config, result.config)
        else:
            assert got.config is None

    @pytest.mark.parametrize("reason", list(TerminationReason))
    def test_every_reason_roundtrips(self, reason):
        sent = outcome(2, solved=reason is TerminationReason.SOLVED)
        sent.reason = reason
        got = self.roundtrip(sent)
        assert got.reason is reason
        assert got.as_dict() == sent.as_dict()

    def test_from_session_reports_unfinished_as_cancelled(self):
        session = AdaptiveSearchSession(
            MagicSquareProblem(8), AdaptiveSearchConfig(), 0
        )
        session.step(3)
        report = WalkOutcome.from_session(4, session)
        assert report.reason is TerminationReason.CANCELLED
        assert not report.solved and report.config is None
        assert report.iterations == 3
        budget = WalkOutcome.from_session(
            4, session, TerminationReason.MAX_ITERATIONS
        )
        assert budget.reason is TerminationReason.MAX_ITERATIONS


class TestParallelResult:
    def test_from_walks_picks_the_fastest_solved_walk(self):
        walks = [
            outcome(0, wall_time=3.0),
            outcome(1, solved=False, wall_time=9.0),
            outcome(2, wall_time=2.0),
        ]
        result = ParallelResult.from_walks(
            walks, executor="vector", elapsed_time=9.5
        )
        assert result.solved and result.winner is walks[2]
        assert result.n_walkers == 3 and result.executor == "vector"
        assert (result.wall_time, result.elapsed_time) == (2.0, 9.5)
        # a measured first-solve time wins over the winner's own clock
        timed = ParallelResult.from_walks(
            walks, executor="process", elapsed_time=9.5, wall_time=2.5
        )
        assert timed.wall_time == 2.5

    def test_from_walks_unsolved_falls_back_to_elapsed(self):
        result = ParallelResult.from_walks(
            [outcome(0, solved=False)], executor="process", elapsed_time=4.0
        )
        assert not result.solved and result.winner is None
        assert result.wall_time == 4.0

    def test_config_from_winner(self):
        winner = outcome(1)
        result = ParallelResult(
            solved=True, n_walkers=2, winner=winner, walks=[outcome(0, False), winner]
        )
        assert np.array_equal(result.config, [0, 1])

    def test_config_none_when_unsolved(self):
        result = ParallelResult(solved=False, n_walkers=1, winner=None)
        assert result.config is None

    def test_total_iterations_sums_walks(self):
        result = ParallelResult(
            solved=True,
            n_walkers=3,
            winner=outcome(0),
            walks=[outcome(0, iterations=5), outcome(1, iterations=7), outcome(2, iterations=9)],
        )
        assert result.total_iterations == 21

    def test_summary_solved(self):
        result = ParallelResult(
            solved=True,
            n_walkers=4,
            winner=outcome(2),
            walks=[outcome(2)],
            wall_time=0.5,
            executor="inline",
        )
        text = result.summary()
        assert "SOLVED by walk 2" in text
        assert "x4" in text
        assert "inline" in text

    def test_summary_unsolved(self):
        result = ParallelResult(solved=False, n_walkers=2, winner=None)
        assert "UNSOLVED" in result.summary()
