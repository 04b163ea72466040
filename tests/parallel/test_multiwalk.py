"""Tests for the independent multi-walk driver."""

import time

import numpy as np
import pytest

from repro.core.config import AdaptiveSearchConfig
from repro.errors import ParallelError
from repro.parallel.multiwalk import MultiWalkSolver, solve_parallel
from repro.problems import CostasProblem, make_problem
from repro.problems.base import Problem, WalkState

CFG = AdaptiveSearchConfig(max_iterations=200_000)


class TestConstruction:
    def test_unknown_executor(self):
        with pytest.raises(ParallelError, match="unknown executor"):
            MultiWalkSolver(executor="threads")

    def test_invalid_poll_every(self):
        with pytest.raises(ParallelError, match="poll_every"):
            MultiWalkSolver(poll_every=0)

    def test_negative_overhead(self):
        with pytest.raises(ParallelError, match="launch_overhead"):
            MultiWalkSolver(launch_overhead=-1)


class TestInlineExecutor:
    def test_solves_and_verifies(self):
        problem = CostasProblem(9)
        result = MultiWalkSolver(CFG, executor="inline").solve(problem, 4, seed=1)
        assert result.solved
        assert problem.is_solution(result.config)
        assert result.executor == "inline"
        assert len(result.walks) == 4

    def test_winner_is_fastest_solved_walk(self):
        problem = CostasProblem(9)
        result = MultiWalkSolver(CFG, executor="inline").solve(problem, 6, seed=3)
        solved = [w for w in result.walks if w.solved]
        assert result.winner.wall_time == min(w.wall_time for w in solved)
        assert result.wall_time == pytest.approx(result.winner.wall_time)

    def test_deterministic(self):
        problem = CostasProblem(8)
        solver = MultiWalkSolver(CFG, executor="inline")
        a = solver.solve(problem, 3, seed=5)
        b = solver.solve(problem, 3, seed=5)
        assert [w.iterations for w in a.walks] == [w.iterations for w in b.walks]

    def test_walk_streams_match_walker_count_prefix(self):
        """Walk i's trajectory is identical in a 2-walk and a 4-walk run."""
        problem = CostasProblem(8)
        solver = MultiWalkSolver(CFG, executor="inline")
        two = solver.solve(problem, 2, seed=11)
        four = solver.solve(problem, 4, seed=11)
        assert [w.iterations for w in two.walks] == [
            w.iterations for w in four.walks[:2]
        ]

    def test_launch_overhead_added(self):
        problem = CostasProblem(8)
        bumped = MultiWalkSolver(
            CFG, executor="inline", launch_overhead=5.0
        ).solve(problem, 2, seed=2)
        assert bumped.wall_time == pytest.approx(bumped.winner.wall_time + 5.0)

    def test_single_walker(self):
        problem = CostasProblem(8)
        result = MultiWalkSolver(CFG, executor="inline").solve(problem, 1, seed=0)
        assert result.n_walkers == 1
        assert len(result.walks) == 1

    def test_unsolved_when_budget_tiny(self):
        problem = make_problem("magic_square", n=8)
        tiny = AdaptiveSearchConfig(max_iterations=10)
        result = MultiWalkSolver(tiny, executor="inline").solve(problem, 3, seed=0)
        if not result.solved:
            assert result.winner is None
            assert result.config is None
            # unsolved parallel time: all walks ran to their budget
            assert result.wall_time >= max(w.wall_time for w in result.walks)

    def test_time_limit_parameter(self):
        problem = make_problem("magic_square", n=10)
        result = MultiWalkSolver(
            AdaptiveSearchConfig(), executor="inline"
        ).solve(problem, 2, seed=0, time_limit=0.05)
        # each walk individually respected the limit
        for w in result.walks:
            assert w.wall_time < 5.0


class TestSolveParallelForwarding:
    def test_executor_tunables_reach_the_solver(self, monkeypatch):
        import repro.parallel.multiwalk as mw

        captured = {}

        class RecordingSolver(MultiWalkSolver):
            def __init__(self, config=None, **kwargs):
                captured.update(kwargs)
                super().__init__(config, **kwargs)

            def solve(self, problem, n_walkers, seed=None, *, time_limit=None):
                captured["time_limit"] = time_limit
                return "sentinel"

        monkeypatch.setattr(mw, "MultiWalkSolver", RecordingSolver)
        out = solve_parallel(
            CostasProblem(8),
            2,
            seed=0,
            executor="inline",
            time_limit=9.0,
            poll_every=77,
            launch_overhead=1.5,
            mp_context="spawn",
        )
        assert out == "sentinel"
        assert captured["executor"] == "inline"
        assert captured["poll_every"] == 77
        assert captured["launch_overhead"] == 1.5
        assert captured["mp_context"] == "spawn"
        assert captured["time_limit"] == 9.0

    def test_launch_overhead_affects_inline_wall_time(self):
        problem = CostasProblem(8)
        plain = solve_parallel(
            problem, 2, seed=2, config=CFG, executor="inline"
        )
        bumped = solve_parallel(
            problem, 2, seed=2, config=CFG, executor="inline", launch_overhead=5.0
        )
        assert bumped.wall_time == pytest.approx(plain.wall_time + 5.0, abs=1.0)


@pytest.mark.slow
class TestProcessExecutor:
    def test_solves_and_verifies(self):
        problem = CostasProblem(9)
        result = solve_parallel(
            problem, 3, seed=2, config=CFG, executor="process", time_limit=120
        )
        assert result.solved
        assert problem.is_solution(result.config)
        assert result.executor == "process"
        assert len(result.walks) == 3

    def test_total_work_matches_inline(self):
        """Same seeds => identical walk trajectories across executors."""
        problem = CostasProblem(8)
        inline = MultiWalkSolver(CFG, executor="inline").solve(problem, 3, seed=7)
        process = MultiWalkSolver(CFG, executor="process").solve(problem, 3, seed=7)
        solved_inline = {w.walk_id: w.iterations for w in inline.walks if w.solved}
        solved_process = {w.walk_id: w.iterations for w in process.walks if w.solved}
        # the winning walk's trajectory must match exactly; other walks may
        # have been cancelled at different points
        winner = process.winner.walk_id
        if winner in solved_inline:
            assert solved_inline[winner] == solved_process[winner]

    def test_first_finisher_cancels_others(self):
        problem = CostasProblem(10)
        result = solve_parallel(
            problem, 4, seed=1, config=CFG, executor="process", time_limit=120
        )
        assert result.solved
        # all walks reported (solved, cancelled, or budget-exhausted)
        assert len(result.walks) == 4


class CountdownState(WalkState):
    """Adds the tick counter and speed class driving CountdownProblem."""

    __slots__ = ("ticks", "fast")


class CountdownProblem(Problem):
    """Solvable only by walks whose *initial* ``config[0]`` is even.

    Every iteration executes one always-improving swap and advances a tick
    counter; "fast" walks reach cost 0 after ``FAST`` ticks, the others
    never do.  The per-iteration sleep bounds the iteration rate, so a
    loser's iteration count measures cancellation latency (in poll windows)
    rather than raw loop speed.
    """

    family = "countdown"
    FAST = 40

    def __init__(self, n: int = 8, sleep: float = 0.0005) -> None:
        self._n = n
        self.sleep = sleep

    @property
    def size(self) -> int:
        return self._n

    def cost(self, config):
        return 1.0

    def init_state(self, config):
        self.check_configuration(config)
        cfg = np.array(config, dtype=np.int64, copy=True)
        state = CountdownState(cfg, 1.0)
        state.ticks = 0
        state.fast = int(cfg[0]) % 2 == 0
        return state

    def variable_errors(self, state):
        state.ticks += 1
        if self.sleep:
            time.sleep(self.sleep)
        return np.ones(self._n, dtype=np.float64)

    def swap_delta(self, state, i, j):
        return -1.0 if i != j else 0.0

    def swap_deltas(self, state, i):
        deltas = np.full(self._n, -1.0)
        deltas[i] = 0.0
        return deltas

    def apply_swap(self, state, i, j, delta=None):
        cfg = state.config
        cfg[i], cfg[j] = cfg[j], cfg[i]
        state.cost = 0.0 if state.fast and state.ticks >= self.FAST else 1.0


@pytest.mark.slow
class TestLoserCancellation:
    """Regression: a fast winner must promptly cancel the losing walks."""

    def test_losers_bounded_after_fast_winner(self):
        problem = CountdownProblem(8)
        budget = AdaptiveSearchConfig(max_iterations=200_000)
        result = MultiWalkSolver(budget, executor="process", poll_every=16).solve(
            problem, 3, seed=3, time_limit=60.0
        )
        # seed 3 deals walk 0 an even config[0] (fast); walks 1-2 are odd
        # and would otherwise sleep through the whole 200k-iteration budget
        assert result.solved
        assert result.winner.walk_id == 0
        assert result.winner.iterations <= CountdownProblem.FAST + 2
        losers = [w for w in result.walks if w.walk_id != result.winner.walk_id]
        assert len(losers) == 2
        for walk in losers:
            assert not walk.solved
            assert walk.iterations < 5_000
        assert result.elapsed_time < 20.0


class CrashingProblem(CostasProblem):
    """A problem whose evaluation blows up inside worker processes."""

    def variable_errors(self, state):
        raise RuntimeError("injected failure")


@pytest.mark.slow
class TestFailureInjection:
    def test_worker_crash_surfaces_as_parallel_error(self):
        problem = CrashingProblem(8)
        solver = MultiWalkSolver(CFG, executor="process")
        with pytest.raises(ParallelError, match="injected failure"):
            solver.solve(problem, 2, seed=0, time_limit=30)

    def test_inline_executor_propagates_directly(self):
        problem = CrashingProblem(8)
        solver = MultiWalkSolver(CFG, executor="inline")
        with pytest.raises(RuntimeError, match="injected failure"):
            solver.solve(problem, 2, seed=0)
